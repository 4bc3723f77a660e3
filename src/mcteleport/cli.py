"""Command-line driver: channel reports, stage plans, coefficient-grid
sweeps, and Monte Carlo verification of the closed forms.

Subcommands::

    report  closed-form quantities for one channel (table and/or CSV)
    plan    per-stage filtering plan with resource accounting
    sweep   grid over free squared coefficients, one CSV row per point
    verify  analytic vs exact-enumeration vs Monte Carlo cross-check

Exit codes: 0 success, 1 usage/input error, 2 verification failure or a
failed internal cross-check, 141 stdout closed by its reader.

CSV output is deterministic for a given spec and seed: '#'-prefixed
metadata lines (no timestamps), one header line, comma-separated values
with 15 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from math import ceil, comb, log, log2, nan, sqrt

import numpy as np

from . import __version__
from .analytics import (
    ChannelReport,
    ReportBlock,
    channel_report,
    f_mc_conclusive,
    overall_fidelity,
    report_blocks,
    stage_probabilities,
)
from .channels import DEFAULT_TIE_TOL, MAX_D, SchmidtChannel, check_tie_tolerance, make_channel
from .discrimination import FALLBACKS, KIND_SMC, StrategyConfig, build_stage_plan
from .engine import exact_average_fidelity, exact_branch_probabilities, monte_carlo
from .qudit import check_allocation, map_slices

SWEEP_EPS = 1e-3  # free squared coefficients live in [eps, 1 - eps]
SWEEP_BLOCK_ROWS = 1 << 14  # sweep points evaluated per array pass
# Memory a sweep holds per CSV cell of a candidate row: the index, free and
# point arrays, one block's channel table, channel texts and cell list, and
# the text of every block.  Measured (tracemalloc, N=2, 100,000 rows to a
# file): 23 B with the 10 default quantities, 41 B with one, 54 B with none.
SWEEP_CELL_BYTES = 96

DEFAULT_QUANTITIES = (
    "F_me",
    "F_mc_s1",
    "F_mc_s2",
    "overall_me",
    "overall_smc",
    "P_stage1",
    "P_smc_overall",
    "useful_s1",
    "useful_s2",
    "F_clas",
)

ORACLE_ATOL = 1e-9  # analytic vs branch-enumeration agreement
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout closed by its reader
# Two-sided tail of each verify row's Monte Carlo band: the normal tail
# beyond 4 sigma, here held by a bound that needs no normal approximation.
BAND_TAIL = 6.334e-5


def _fmt(value) -> str:
    if type(value) is float:  # what the printers pass, read with .tolist()
        return "%.15g" % value
    if isinstance(value, (int, np.integer)):  # a bool prints as 1 or 0
        return str(int(value))
    return "%.15g" % float(value)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Option plumbing (config file + flag override)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def _parse_coeffs(text: str) -> tuple[float, ...]:
    # ArgumentTypeError: argparse shows its message, not the function's name.
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse coefficient list from {text!r}") from exc


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip() != "")


def read_config(path: str) -> dict[str, str]:
    """Line-oriented key=value file; '#' starts a comment line."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


# Every option, once: dest -> (parser of its text, help).  The flag is
# "--" plus the dest with "_" spelled "-"; the --config key is the dest.
_OPTIONS = {
    "D": (int, "qudit dimension"),
    "N": (int, "Schmidt rank of the swept channels"),
    "coeffs": (_parse_coeffs, "comma-separated Schmidt coefficients (amplitudes)"),
    "squared": (_parse_bool, "interpret --coeffs as squared coefficients (probabilities)"),
    "grid": (int, "points per free axis"),
    "quantities": (_parse_names, "comma-separated column names"),
    "trials": (int, "Monte Carlo trials, at least 1000"),
    "seed": (int, "random seed"),
    "k_max": (int, "filtering stages before the fallback"),
    "fallback": (str, "what follows an exhausted cascade"),
    "tie_tol": (float, "coefficients closer than this form one group"),
    "workers": (int, "worker processes"),
    "out": (str, "CSV output path ('-' = stdout)"),
}

# Subcommand -> (summary, {dest: default}).  A None default is a channel
# option that must be given (D, coeffs) or no CSV file (out).
_CHANNEL = {"D": None, "coeffs": None, "squared": False, "tie_tol": DEFAULT_TIE_TOL}
_COMMANDS = {
    "report": ("closed-form channel report", {**_CHANNEL, "out": None}),
    "plan": ("per-stage filtering plan", _CHANNEL),
    "sweep": ("coefficient-grid sweep to CSV", {
        "D": 4, "N": 3, "grid": 101, "quantities": DEFAULT_QUANTITIES, "seed": 0,
        "workers": 1, "tie_tol": DEFAULT_TIE_TOL, "out": None}),
    "verify": ("cross-check the three routes", {
        **_CHANNEL, "trials": 10000, "seed": 0, "k_max": 1, "fallback": "me",
        "workers": 1}),
}


def _resolve(command: str, given: dict) -> argparse.Namespace:
    """The command's options: its defaults, then the --config values of
    the keys it takes that no flag set, then the flags."""
    values = dict(_COMMANDS[command][1])
    if given.get("config"):
        for key, raw in read_config(given["config"]).items():
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            if key in values and key not in given:  # other commands' keys are ignored
                values[key] = _OPTIONS[key][0](raw)
    values.update(given)
    return argparse.Namespace(**values)


def _build_channel(args: argparse.Namespace) -> SchmidtChannel:
    if args.D is None:
        raise ValueError("missing --D")
    if args.coeffs is None:
        raise ValueError("missing --coeffs")
    coeffs = args.coeffs
    if args.squared:
        if any(c <= 0 for c in coeffs):
            raise ValueError("squared coefficients must be strictly positive")
        coeffs = tuple(sqrt(c) for c in coeffs)
    return make_channel(args.D, coeffs, args.tie_tol)


# ---------------------------------------------------------------------------
# Quantity lookup on a ChannelReport or a ReportBlock

_FLAT_QUANTITIES = ("D", "N", "d", "M", "F_me", "f_me", "F_clas", "F_me_after_fail",
                    "overall_me", "overall_smc", "P_smc_overall")
# Stage-indexed name prefix -> report field holding the per-stage series.
_STAGE_FIELDS = {"F_mc_s": "F_mc_s", "f_mc_s": "f_mc_s", "p_fail_s": "p_fail",
                 "P_stage": "p_success", "P_smc_s": "P_smc", "useful_s": "useful"}
_STAGE_RE = re.compile(rf"^({'|'.join(_STAGE_FIELDS)})([1-9]\d*)$")


def _check_quantity(name: str) -> None:
    """Reject a name no report defines.  Any stage index from 1 passes;
    stages a channel lacks read NaN."""
    if name not in _FLAT_QUANTITIES and not _STAGE_RE.match(name):
        raise ValueError(f"unknown quantity {name!r}")


def report_quantity(report: ChannelReport | ReportBlock, name: str):
    """Resolve a named quantity from a report: a scalar from a
    ``ChannelReport``, a scalar or a (P,) column from a ``ReportBlock``.
    Stage-indexed names yield NaN when the channel has fewer stages."""
    if name == "P_smc_overall":
        if report.M == 0:
            return np.nan
        name = f"P_smc_s{report.M}"  # the last stage's
    elif name in _FLAT_QUANTITIES:
        value = getattr(report, name)  # only F_me_after_fail can be None
        return np.nan if value is None else value
    m = _STAGE_RE.match(name)
    if not m:
        raise KeyError(f"unknown quantity {name!r}")
    prefix, k = m.group(1), int(m.group(2))
    if not 1 <= k <= report.M:
        # A lone largest coefficient leaves a rank-1 residual family: no
        # stage M+1 exists, but its closed-form fidelity surface continues
        # onto these points at the classical bound (confidence 1/D).
        if k == report.M + 1 == report.d:
            if prefix == "F_mc_s":
                return report.F_clas
            if prefix == "f_mc_s":
                return 1.0 / report.D
        return np.nan
    # (M,) tuple or array, or a block's (P, M) array; useful reads 1.0/0.0.
    return np.asarray(getattr(report, _STAGE_FIELDS[prefix]), dtype=float)[..., k - 1]


def _report_csv_columns(report: ChannelReport) -> list[str]:
    cols = list(_FLAT_QUANTITIES)
    for k in range(1, report.M + 1):
        cols += [f"F_mc_s{k}", f"f_mc_s{k}", f"p_fail_s{k}", f"P_stage{k}",
                 f"P_smc_s{k}", f"useful_s{k}"]
    return cols


# ---------------------------------------------------------------------------
# CSV plumbing


def _csv_file(out: str | None):
    """The CSV destination as a context manager: stdout for None or '-',
    else the file ``out``, opened (so an unwritable path fails) at once."""
    if out is None or out == "-":
        return nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="\n")


def _emit_csv(fh, metadata: list[str], header: list[str], blocks: list[str]) -> None:
    """Write the CSV to ``fh``: the metadata and header lines, then
    ``blocks``, each a text of whole lines ending in a newline, in order."""
    head = "".join(f"# {item}\n" for item in metadata) + ",".join(header) + "\n"
    fh.writelines((head, *blocks))


# ---------------------------------------------------------------------------
# Sweep grid


@dataclass(frozen=True)
class SweepSpec:
    """A grid over the free squared coefficients of a rank-N channel.

    The first N-1 squared coefficients each run over ``resolution``
    uniformly spaced values in [eps, 1 - eps], eps = SWEEP_EPS; the last is
    fixed by normalization.  Points whose dependent coefficient falls
    below eps are infeasible and skipped (but counted).
    """

    D: int
    N: int
    resolution: int
    quantities: tuple[str, ...]
    out: str | None
    seed: int = 0
    tie_tol: float = DEFAULT_TIE_TOL
    workers: int = 1

    def __post_init__(self):
        if self.N < 2 or self.N > self.D:
            raise ValueError(f"need 2 <= N <= D, got N={self.N}, D={self.D}")
        if self.D > MAX_D:
            raise ValueError(f"dimension must be <= {MAX_D}, got {self.D}")
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def sweep_points(spec: SweepSpec) -> tuple[np.ndarray, int]:
    """Feasible grid points, shape (P, N) (all N squared coefficients),
    and the number of grid points skipped as infeasible.

    Only grid index tuples whose sum is at most ``resolution - 1`` are
    formed: a larger index sum leaves the dependent coordinate below eps by
    (1 - 2 eps)/(resolution - 1).  These candidates take the float test of
    a walk over every ``itertools.product`` tuple (the dependent coordinate
    is 1.0 less the free ones summed left to right, and a point is skipped
    if it falls below eps), in the walk's order, so the points and their
    order are the walk's.
    """
    n, top = spec.N - 1, spec.resolution - 1
    count = comb(top + n, n)
    check_allocation(f"a sweep over {count:,} candidate grid points",
                     SWEEP_CELL_BYTES * (spec.N + len(spec.quantities)) * count)
    axis = np.linspace(SWEEP_EPS, 1.0 - SWEEP_EPS, spec.resolution)
    free = axis[_bounded_compositions(n, top)]
    total = free[:, 0]
    for j in range(1, n):
        total = total + free[:, j]
    last = 1.0 - total
    keep = ~(last < SWEEP_EPS)
    points = np.column_stack((free[keep], last[keep]))
    return points, spec.resolution**n - len(points)


def _bounded_compositions(n: int, top: int) -> np.ndarray:
    """Every length-n tuple of non-negative integers summing to at most
    ``top``, in lexicographic (``itertools.product``) order, shape (rows, n)."""
    lead = np.arange(top + 1)
    idx = lead[:, None]
    for _ in range(n - 1):
        # Prefix each leading index i to the shorter tuples that still fit;
        # the row-major nonzero of the (i, tuple) mask keeps the order.  The
        # mask holds at most n bytes per candidate point the guard charges.
        lead_of, tail = (idx.sum(axis=1)[None, :] <= top - lead[:, None]).nonzero()
        idx = np.column_stack((lead_of, idx[tail]))
    return idx


def _sweep_table(D: int, tie_tol: float, quantities: tuple[str, ...],
                 points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's quantities at ``points``: a (C, Q) table with one row per
    distinct channel among the points, and the (P,) index of each point's
    row."""
    blocks, channel = report_blocks(D, points, tie_tol)
    table = np.empty((sum(block.rows.size for block in blocks), len(quantities)))
    for block in blocks:
        for j, name in enumerate(quantities):
            table[block.rows, j] = report_quantity(block, name)
    return table, channel


def _sweep_chunk(D: int, tie_tol: float, quantities: tuple[str, ...],
                 points: np.ndarray) -> list[str]:
    """The CSV text of ``points``, one string per block of
    SWEEP_BLOCK_ROWS points."""
    blocks = (points[at:at + SWEEP_BLOCK_ROWS] for at in range(0, len(points), SWEEP_BLOCK_ROWS))
    return [_csv_text(block, *_sweep_table(D, tie_tol, quantities, block)) for block in blocks]


def _csv_text(points: np.ndarray, table: np.ndarray, channel: np.ndarray) -> str:
    """The CSV lines whose cells are ``points[i]`` then ``table[channel[i]]``,
    each line ending in a newline, every cell "%.15g".  Each row of
    ``table`` is made once into one text ",q1,...,qQ\\n", which ends the
    line of every point that indexes it."""
    width = 2 * table.shape[1] + 1  # ",", a cell, ..., then "\n"
    cells = [","] * (len(table) * width)
    cells[width - 1::width] = ["\n"] * len(table)
    _format_columns(cells, table, width, 1)
    # "%.15g" writes no line break, so the text splits back into its rows.
    texts = np.array("".join(cells).splitlines(True), dtype=object)
    width = 2 * points.shape[1]  # a cell, ",", ..., a cell, then a row's text
    cells = [","] * (len(points) * width)
    cells[width - 1::width] = texts[channel].tolist()
    _format_columns(cells, points, width, 0)
    return "".join(cells)


def _format_columns(cells: list, table: np.ndarray, width: int, start: int) -> None:
    """Write cell j of each row of ``table``, "%.15g", to slot start + 2j of
    its row of ``cells``, ``width`` slots a row.  A column holds few
    distinct values (a free axis takes the grid's, and many quantities are
    constant within a tie pattern), so each distinct bit pattern is
    formatted once; bits, not values, keep -0.0 apart from 0.0 and need no
    NaN equality."""
    for j in range(table.shape[1]):
        bits, which = np.unique(table[:, j].view(np.int64), return_inverse=True)
        texts = np.array(["%.15g" % x for x in bits.view(np.float64).tolist()], dtype=object)
        cells[start + 2 * j::width] = texts[which].tolist()


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[str], list[str]]:
    """Compute a sweep: (metadata, header, CSV blocks); each block is the
    text of consecutive rows, and the metadata counts the skipped points.
    Rows are ordered by grid index, and the text is the same, regardless of
    worker count; ``map_slices`` starts at most one worker per CPU and per
    block of SWEEP_BLOCK_ROWS points, and none for one block."""
    check_tie_tolerance(spec.tie_tol)
    for name in spec.quantities:
        _check_quantity(name)
    points, skipped = sweep_points(spec)
    header = [f"a{i}_sq" for i in range(spec.N)] + list(spec.quantities)
    chunk = functools.partial(_sweep_chunk, spec.D, spec.tie_tol, spec.quantities)
    parts = map_slices(chunk, points, spec.workers, SWEEP_BLOCK_ROWS)
    blocks = [text for part in parts for text in part]
    metadata = [
        f"mcteleport {__version__}",
        "command: sweep",
        f"seed: {spec.seed}",
        f"spec: D={spec.D} N={spec.N} grid={spec.resolution} eps={SWEEP_EPS:g} "
        f"tie_tol={spec.tie_tol:g}",
        f"quantities: {','.join(spec.quantities)}",
        f"feasible_points: {len(points)}",
        f"skipped_infeasible: {skipped}",
    ]
    return metadata, header, blocks


# ---------------------------------------------------------------------------
# Subcommands


def cmd_report(args) -> int:
    ch = _build_channel(args)
    rep = channel_report(ch)
    # The CSV file is opened before the first print: an unwritable --out
    # prints nothing.
    with (_csv_file(args.out) if args.out else nullcontext()) as fh:
        print(f"channel: D={rep.D} N={rep.N} coeffs={[_fmt(c) for c in ch.coeffs.tolist()]}")
        print(f"groups: d={rep.d}  stages: M={rep.M}")
        for name in ("F_me", "f_me", "F_clas", "F_me_after_fail", "overall_me",
                     "overall_smc"):
            value = getattr(rep, name)
            print(f"{name:<16} {'-' if value is None else _fmt(value)}")
        if rep.N == 1:
            # rank 1: no filtering stage exists; the conclusive fidelity
            # degenerates to the classical bound
            print(f"F_mc_s1          {_fmt(rep.F_clas)} (degenerate: rank-1 channel)")
        stages = zip(rep.F_mc_s, rep.f_mc_s, rep.p_fail, rep.p_success, rep.P_smc, rep.useful)
        for k, (F_mc, f_mc, p_fail, p_stage, P_smc, useful) in enumerate(stages, 1):
            print(f"stage {k}: F_mc_s={_fmt(F_mc)} f_mc_s={_fmt(f_mc)} p_fail={_fmt(p_fail)} "
                  f"P_stage={_fmt(p_stage)} P_smc={_fmt(P_smc)} "
                  f"useful={'yes' if useful else 'no'}")
        if fh is not None:
            cols = _report_csv_columns(rep)
            metadata = [
                f"mcteleport {__version__}",
                "command: report",
                f"spec: D={rep.D} coeffs={','.join(_fmt(c) for c in ch.coeffs.tolist())} "
                f"tie_tol={ch.tie_tolerance:g}",
            ]
            row = [_fmt(report_quantity(rep, c)) for c in cols]
            _emit_csv(fh, metadata, cols, [",".join(row) + "\n"])
    return 0


def cmd_plan(args) -> int:
    ch = _build_channel(args)
    rep = channel_report(ch)
    if ch.N < 2:
        print("rank-1 channel: no filtering stages; deterministic protocol only")
        print(f"F_me={_fmt(rep.F_me)} (classical bound {_fmt(rep.F_clas)})")
        return 0
    plan = build_stage_plan(ch)
    bits_base = 2 * ceil(log2(ch.D))
    print(f"channel: D={ch.D} N={ch.N} M={plan.M} "
          f"F_me={_fmt(rep.F_me)} F_clas={_fmt(rep.F_clas)}")
    print(f"{'stage':>5} {'p_fail':>10} {'F_conclusive':>13} {'confidence':>11} "
          f"{'useful':>6} {'P_cumulative':>13} {'bits':>5} {'ancillas':>8}")
    stages = zip(plan.p_fail.tolist(), rep.F_mc_s, rep.f_mc_s, rep.useful, rep.P_smc)
    for k, (p_fail, F_mc, f_mc, useful, P_smc) in enumerate(stages, 1):
        print(f"{k:>5} {p_fail:>10.6g} {F_mc:>13.6g} {f_mc:>11.6g} "
              f"{'yes' if useful else 'no':>6} {P_smc:>13.6g} {bits_base + k:>5} {k:>8}")
    # discard-and-retry resource arithmetic (fresh copies are drawn until
    # some stage concludes; attempts are geometric)
    p_total = rep.P_smc[-1]
    if p_total < 1.0 - 1e-12:
        print(f"expected channel copies until a conclusive run: {1 / p_total:.6g}")
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec(D=args.D, N=args.N, resolution=args.grid, quantities=args.quantities,
                     out=args.out, seed=args.seed, tie_tol=args.tie_tol, workers=args.workers)
    # Every block is evaluated before anything is written, so a failed
    # cross-check prints nothing.
    metadata, header, blocks = run_sweep(spec)
    with _csv_file(spec.out) as fh:
        _emit_csv(fh, metadata, header, blocks)
    return 0


def _verify_rows(channel, cfg, trials, seed, workers):
    """Each row: (name, analytic, oracle, empirical, stderr, n).  The
    empirical value is the mean of n sampled values in [0, 1], and
    ``stderr`` is that mean's sample standard error (NaN for n < 2).  A
    fidelity row samples the fidelities of its bucket; a probability row
    samples a 0/1 hit per trial, so n = trials and the stderr is
    sqrt(p(1 - p)/(n - 1)) at the sampled p."""
    masses = exact_branch_probabilities(channel, cfg)
    stats = monte_carlo(channel, cfg, trials, seed, workers=workers)

    def hit_row(name, analytic, oracle, p):
        return (name, analytic, oracle, p, sqrt(p * (1.0 - p) / (trials - 1)), trials)

    p_stages, p_total = stage_probabilities(channel, cfg.k_max)
    rows = []
    for k in range(1, cfg.k_max + 1):
        analytic_f = f_mc_conclusive(channel, k)
        oracle_f = exact_average_fidelity(channel, cfg, f"stage{k}")
        # Bucket k - 1 is stage k.
        rows.append((f"F_mc_s{k}", analytic_f, oracle_f, float(stats.mean_fidelity[k - 1]),
                     float(stats.stderr_fidelity[k - 1]), int(stats.counts[k - 1])))
        rows.append(hit_row(f"P_stage{k}", float(p_stages[k - 1]), masses[f"stage{k}"],
                            float(stats.probabilities[k - 1])))
    rows.append(hit_row("P_smc_overall", p_total, 1.0 - masses["exhausted-me"],
                        stats.conclusive_probability))
    label = ("overall_conditional" if cfg.fallback == "discard"
             else f"overall_{cfg.fallback}")
    delivered = trials if cfg.fallback != "discard" else int(stats.counts[:-1].sum())
    rows.append((
        label,
        overall_fidelity(channel, cfg),
        exact_average_fidelity(channel, cfg),
        stats.overall_mean_fidelity,
        stats.overall_stderr_fidelity,
        delivered,
    ))
    return rows


def cmd_verify(args) -> int:
    """Print each row of ``_verify_rows`` and judge it twice: the oracle
    must match the analytic value within ORACLE_ATOL, and the empirical
    mean must lie within ``band`` of it.  For a mean of n >= 2 values in
    [0, 1], band = sqrt(2L)·stderr + 7L/(3(n - 1)) with L = ln(4/BAND_TAIL)
    is the empirical Bernstein bound (Maurer and Pontil 2009, Thm 4) on
    each tail at BAND_TAIL/2, whatever the values' distribution.  A row of
    n < 2 has no sample variance and no band: its status is
    ``sparse n=<count>`` (the matching probability row tests its count).
    The printed ``+-`` is the band."""
    ch = _build_channel(args)
    if args.trials < 1000:
        raise ValueError("verify needs at least 1000 trials")
    cfg = StrategyConfig(kind=KIND_SMC, k_max=args.k_max, fallback=args.fallback)
    # _verify_rows enumerates the oracle's branches before it samples: the
    # oracle's and the stage plan's guards reject a D too large for their
    # length-D arrays, the plan a rank-1 channel or an excess k_max, and
    # the runner's (D, D) guard any D above 1024, before any trial is drawn;
    # every later call reuses the cached plan and enumeration.
    rows = _verify_rows(ch, cfg, args.trials, args.seed, args.workers)
    if args.self_test_corrupt:
        name, analytic, *rest = rows[0]
        rows[0] = (name, analytic + 0.01, *rest)

    print(f"verify: D={ch.D} N={ch.N} k_max={cfg.k_max} fallback={cfg.fallback} "
          f"trials={args.trials} seed={args.seed}")
    L = log(4.0 / BAND_TAIL)
    all_ok = True
    for name, analytic, oracle, empirical, err, n in rows:
        notes = []
        if abs(oracle - analytic) > ORACLE_ATOL:
            notes.append("oracle!=analytic")
        sparse = n < 2  # no sample variance, so no band
        band = nan if sparse else sqrt(2.0 * L) * err + 7.0 * L / (3 * (n - 1))
        if not (sparse or abs(empirical - analytic) <= band):  # a NaN mean fails
            notes.append("empirical out of band")
        all_ok &= not notes
        if notes:
            status = "FAIL " + ",".join(notes)
        else:
            status = f"sparse n={n}" if sparse else "pass"
        print(
            f"{name:<18} analytic={format(analytic, '.12g'):<18} "
            f"oracle={format(oracle, '.12g'):<18} "
            f"empirical={format(empirical, '.12g')}+-{format(band, '.3g'):<12} "
            f"{status}"
        )
    print(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its ``commands`` maps each command name to
    that command's own parser."""
    parser = _Parser(prog="mcteleport", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for command, (summary, defaults) in _COMMANDS.items():
        # Unset options stay off the namespace, so _resolve tells a flag
        # from a default.
        p = parser.commands[command] = sub.add_parser(
            command, help=summary, argument_default=argparse.SUPPRESS)
        for dest, default in defaults.items():
            parse, text = _OPTIONS[dest]
            if default is not None:
                shown = ",".join(default) if isinstance(default, tuple) else default
                text = f"{text} (default: {shown})"
            flag = "--" + dest.replace("_", "-")
            if dest == "squared":
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=parse, help=text,
                               choices=FALLBACKS if dest == "fallback" else None)
        p.add_argument("--config", help="key=value config file")
    parser.commands["verify"].add_argument(
        "--self-test-corrupt", action="store_true", default=False,
        help="perturb one analytic value; the run must fail (harness self-test)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first command and shared by every later one in the
    # process: parse_args returns a fresh Namespace per call, no action
    # holds a mutable default, and _resolve builds a new Namespace from it.
    return build_parser()


def _parse(parser: argparse.ArgumentParser, argv) -> dict:
    """The given options of ``argv`` and its command.  After a command name
    only that command's parser runs, and arguments it leaves over are the
    top-level parser's usage error, as under ``parse_args``; an empty
    argv, an unknown command and -h take the full parser."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return vars(parser.parse_args(argv))
    given, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return {**vars(given), "command": argv[0]}


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        for arg in argv:
            if not isinstance(arg, str):
                raise TypeError(f"command-line arguments must be strings, "
                                f"got {arg!r} ({type(arg).__name__})")
        given = _parse(parser, argv)
        args = _resolve(given["command"], given)
        # Looked up per call, so a cmd_* replaced after the parser was
        # built is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        # The reader closed stdout (``| head -1``): stop quietly, with the
        # shell's status for a write to a closed pipe, 128 + SIGPIPE.
        return EXIT_BROKEN_PIPE
    except (ValueError, argparse.ArgumentTypeError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # The routes check themselves (probability sums, closed-form
        # cross-checks, the replayed Monte Carlo trial); a failed check
        # is a verification failure, not a usage error.
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # What is left in the buffer goes nowhere, so the interpreter's
        # final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
