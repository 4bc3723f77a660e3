"""Command-line driver: channel reports, stage plans, coefficient-grid
sweeps, and Monte Carlo verification of the closed forms.

Subcommands::

    report  closed-form quantities for one channel (table and/or CSV)
    plan    per-stage filtering plan with resource accounting
    sweep   grid over free squared coefficients, one CSV row per point
    verify  analytic vs exact-enumeration vs Monte Carlo cross-check

Exit codes: 0 success, 1 usage/input error, 2 verification failure or a
failed internal cross-check.

CSV output is deterministic for a given spec and seed: '#'-prefixed
metadata lines (no timestamps), one header line, comma-separated values
with 15 significant digits.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from math import ceil, log2, sqrt

import numpy as np

from . import __version__
from .analytics import (
    ChannelReport,
    channel_report,
    f_mc_conclusive,
    overall_fidelity,
    stage_probabilities,
)
from .channels import DEFAULT_TIE_TOL, SchmidtChannel, make_channel
from .discrimination import KIND_SMC, StrategyConfig, build_stage_plan
from .engine import exact_average_fidelity, exact_branch_probabilities, monte_carlo

SWEEP_EPS = 1e-3  # free squared coefficients live in [eps, 1 - eps]

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
EMPIRICAL_SIGMAS = 4.0  # Monte Carlo guard band
MIN_FIDELITY_SAMPLES = 2  # fewer samples in a bucket: status "sparse n=<count>"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".15g")


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
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ValueError(f"cannot parse coefficient list from {text!r}") from exc


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
            out[key.strip()] = value.strip()
    return out


_CASTERS = {
    "D": int,
    "N": int,
    "grid": int,
    "trials": int,
    "seed": int,
    "k_max": int,
    "workers": int,
    "tie_tol": float,
    "coeffs": _parse_coeffs,
    "quantities": _parse_names,
    "fallback": str,
    "out": str,
    "squared": _parse_bool,
}


def _merge_config(args: argparse.Namespace) -> None:
    """Fill options the command line left unset from --config, in place."""
    if not getattr(args, "config", None):
        return
    table = read_config(args.config)
    for key, raw in table.items():
        if key not in _CASTERS:
            raise ValueError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            continue  # key not applicable to this subcommand
        if getattr(args, key) is None:
            setattr(args, key, _CASTERS[key](raw))


def _add_channel_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--D", type=int, default=None, help="qudit dimension")
    p.add_argument(
        "--coeffs",
        type=_parse_coeffs,
        default=None,
        help="comma-separated Schmidt coefficients (amplitudes)",
    )
    p.add_argument(
        "--squared",
        action="store_const",
        const=True,
        default=None,
        help="interpret --coeffs as squared coefficients (probabilities)",
    )
    p.add_argument("--tie-tol", dest="tie_tol", type=float, default=None,
                   help="coefficients closer than this form one group")
    p.add_argument("--config", default=None, help="key=value config file")


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
    return make_channel(args.D, coeffs)


def _tie_tol(args: argparse.Namespace) -> float:
    return DEFAULT_TIE_TOL if args.tie_tol is None else args.tie_tol


# ---------------------------------------------------------------------------
# Quantity lookup on a ChannelReport

_STAGE_RE = re.compile(r"^(F_mc_s|f_mc_s|p_fail_s|P_stage|P_smc_s|useful_s)(\d+)$")


def report_quantity(report: ChannelReport, name: str) -> float:
    """Resolve a named scalar from a report; stage-indexed names yield NaN
    when the channel has fewer stages."""
    flat = {
        "D": report.D,
        "N": report.N,
        "d": report.d,
        "M": report.M,
        "F_me": report.F_me,
        "f_me": report.f_me,
        "F_clas": report.F_clas,
        "F_me_after_fail": np.nan if report.F_me_after_fail is None
        else report.F_me_after_fail,
        "overall_me": report.overall_me,
        "overall_smc": report.overall_smc,
        "P_smc_overall": report.P_smc[-1] if report.P_smc else np.nan,
    }
    if name in flat:
        return flat[name]
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
    series = {
        "F_mc_s": report.F_mc_s,
        "f_mc_s": report.f_mc_s,
        "p_fail_s": report.p_fail,
        "P_stage": report.p_success,
        "P_smc_s": report.P_smc,
        "useful_s": tuple(1.0 if u else 0.0 for u in report.useful),
    }[prefix]
    return series[k - 1]


def _report_csv_columns(report: ChannelReport) -> list[str]:
    cols = ["D", "N", "d", "M", "F_me", "f_me", "F_clas", "F_me_after_fail",
            "overall_me", "overall_smc", "P_smc_overall"]
    for k in range(1, report.M + 1):
        cols += [f"F_mc_s{k}", f"f_mc_s{k}", f"p_fail_s{k}", f"P_stage{k}",
                 f"P_smc_s{k}", f"useful_s{k}"]
    return cols


# ---------------------------------------------------------------------------
# CSV plumbing


def _emit_csv(out: str | None, metadata: list[str], header: list[str],
              rows: list[list[str]]) -> None:
    lines = [f"# {item}" for item in metadata]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Inverse of the CSV writer: (metadata, header, rows)."""
    metadata: list[str] = []
    header: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            metadata.append(line[1:].strip())
        elif not header:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return metadata, header, rows


# ---------------------------------------------------------------------------
# Sweep grid


@dataclass(frozen=True)
class SweepSpec:
    """A grid over the free squared coefficients of a rank-N channel.

    The first N-1 squared coefficients each run over ``resolution``
    uniformly spaced values in [eps, 1 - eps]; the last is fixed by
    normalization.  Points whose dependent coefficient falls below eps
    are infeasible and skipped (but counted).
    """

    D: int
    N: int
    resolution: int
    quantities: tuple[str, ...]
    out: str | None
    seed: int = 0
    eps: float = SWEEP_EPS
    tie_tol: float = DEFAULT_TIE_TOL
    workers: int = 1

    def __post_init__(self):
        if self.N < 2 or self.N > self.D:
            raise ValueError(f"need 2 <= N <= D, got N={self.N}, D={self.D}")
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2")


def sweep_points(spec: SweepSpec) -> tuple[list[tuple[float, ...]], int]:
    """Feasible grid points (all N squared coefficients) and skip count."""
    axis = np.linspace(spec.eps, 1.0 - spec.eps, spec.resolution)
    points: list[tuple[float, ...]] = []
    skipped = 0
    for free in product(axis, repeat=spec.N - 1):
        last = 1.0 - sum(free)
        if last < spec.eps:
            skipped += 1
            continue
        points.append(tuple(free) + (last,))
    return points, skipped


def _sweep_chunk(packed) -> list[list[str]]:
    D, tie_tol, quantities, chunk = packed
    rows = []
    for squared in chunk:
        ch = make_channel(D, [sqrt(s) for s in squared])
        rep = channel_report(ch, tie_tol)
        row = [_fmt(s) for s in squared]
        row += [_fmt(report_quantity(rep, q)) for q in quantities]
        rows.append(row)
    return rows


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[str], list[list[str]], int]:
    """Compute a sweep: (metadata, header, rows, skipped).  Rows are ordered
    by grid index regardless of worker count; at most ``os.cpu_count()``
    and one worker per point are started."""
    for name in spec.quantities:
        report_quantity(_probe_report(), name)  # fail fast on unknown names
    points, skipped = sweep_points(spec)
    header = [f"a{i}_sq" for i in range(spec.N)] + list(spec.quantities)
    workers = min(spec.workers, os.cpu_count() or 1, len(points))
    if workers <= 1:
        rows = _sweep_chunk((spec.D, spec.tie_tol, spec.quantities, points))
    else:
        bounds = np.linspace(0, len(points), workers + 1).astype(int)
        chunks = [
            (spec.D, spec.tie_tol, spec.quantities, points[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for part in pool.map(_sweep_chunk, chunks) for row in part]
    metadata = [
        f"mcteleport {__version__}",
        "command: sweep",
        f"seed: {spec.seed}",
        f"spec: D={spec.D} N={spec.N} grid={spec.resolution} eps={spec.eps:g} "
        f"tie_tol={spec.tie_tol:g}",
        f"quantities: {','.join(spec.quantities)}",
        f"feasible_points: {len(points)}",
        f"skipped_infeasible: {skipped}",
    ]
    return metadata, header, rows, skipped


# A fixed report used only to validate quantity names before sweeping.
_PROBE_CACHE: list[ChannelReport] = []


def _probe_report() -> ChannelReport:
    if not _PROBE_CACHE:
        _PROBE_CACHE.append(
            channel_report(make_channel(4, [sqrt(0.5), sqrt(0.3), sqrt(0.2)]))
        )
    return _PROBE_CACHE[0]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_report(args) -> int:
    ch = _build_channel(args)
    tie = _tie_tol(args)
    rep = channel_report(ch, tie)
    print(f"channel: D={rep.D} N={rep.N} coeffs={[_fmt(c) for c in ch.coeffs]}")
    print(f"groups: d={rep.d}  stages: M={rep.M}")
    for name in ("F_me", "f_me", "F_clas", "F_me_after_fail", "overall_me",
                 "overall_smc"):
        value = getattr(rep, name)
        print(f"{name:<16} {'-' if value is None else _fmt(value)}")
    if rep.N == 1:
        # rank 1: no filtering stage exists; the conclusive fidelity
        # degenerates to the classical bound
        print(f"F_mc_s1          {_fmt(rep.F_clas)} (degenerate: rank-1 channel)")
    for k in range(1, rep.M + 1):
        print(
            f"stage {k}: F_mc_s={_fmt(rep.F_mc_s[k - 1])} "
            f"f_mc_s={_fmt(rep.f_mc_s[k - 1])} "
            f"p_fail={_fmt(rep.p_fail[k - 1])} "
            f"P_stage={_fmt(rep.p_success[k - 1])} "
            f"P_smc={_fmt(rep.P_smc[k - 1])} "
            f"useful={'yes' if rep.useful[k - 1] else 'no'}"
        )
    if args.out:
        cols = _report_csv_columns(rep)
        metadata = [
            f"mcteleport {__version__}",
            "command: report",
            f"spec: D={rep.D} coeffs={','.join(_fmt(c) for c in ch.coeffs)} "
            f"tie_tol={tie:g}",
        ]
        row = [_fmt(report_quantity(rep, c)) for c in cols]
        _emit_csv(args.out, metadata, cols, [row])
    return 0


def cmd_plan(args) -> int:
    ch = _build_channel(args)
    tie = _tie_tol(args)
    rep = channel_report(ch, tie)
    if ch.N < 2:
        print("rank-1 channel: no filtering stages; deterministic protocol only")
        print(f"F_me={_fmt(rep.F_me)} (classical bound {_fmt(rep.F_clas)})")
        return 0
    plan = build_stage_plan(ch, tie)
    bits_base = 2 * ceil(log2(ch.D))
    print(f"channel: D={ch.D} N={ch.N} M={plan.M} "
          f"F_me={_fmt(rep.F_me)} F_clas={_fmt(rep.F_clas)}")
    print(f"{'stage':>5} {'p_fail':>10} {'F_conclusive':>13} {'confidence':>11} "
          f"{'useful':>6} {'P_cumulative':>13} {'bits':>5} {'ancillas':>8}")
    for k, stage in enumerate(plan.stages, start=1):
        print(
            f"{k:>5} {stage.p_fail:>10.6g} {rep.F_mc_s[k - 1]:>13.6g} "
            f"{rep.f_mc_s[k - 1]:>11.6g} "
            f"{'yes' if plan.useful_flags[k - 1] else 'no':>6} "
            f"{rep.P_smc[k - 1]:>13.6g} {bits_base + k:>5} {k:>8}"
        )
    # discard-and-retry resource arithmetic (fresh copies are drawn until
    # some stage concludes; attempts are geometric)
    p_total = rep.P_smc[-1]
    if p_total < 1.0 - 1e-12:
        print(f"expected channel copies until a conclusive run: {1 / p_total:.6g}")
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        D=args.D if args.D is not None else 4,
        N=args.N if args.N is not None else 3,
        resolution=args.grid if args.grid is not None else 101,
        quantities=args.quantities if args.quantities is not None
        else DEFAULT_QUANTITIES,
        out=args.out,
        seed=args.seed if args.seed is not None else 0,
        tie_tol=_tie_tol(args),
        workers=args.workers if args.workers is not None else 1,
    )
    metadata, header, rows, _ = run_sweep(spec)
    _emit_csv(spec.out, metadata, header, rows)
    return 0


def _verify_rows(channel, cfg, trials, seed, workers, tie_tol):
    """Each row: (name, analytic, oracle, empirical, stderr, samples).
    ``samples`` is the number of fidelities behind a fidelity row and None
    on probability rows, whose stderr is the binomial sqrt(p(1 - p)/trials)
    of the analytic p, so a bucket that happens to see no hits keeps a
    band of its expected width."""
    stats = monte_carlo(channel, cfg, trials, seed, workers=workers,
                        tie_tolerance=tie_tol)
    masses = exact_branch_probabilities(channel, cfg, tie_tol)

    def binomial_err(p):
        return sqrt(max(p * (1.0 - p), 0.0) / trials)

    rows = []
    for k in range(1, cfg.k_max + 1):
        analytic_f = f_mc_conclusive(channel, k, tie_tol)
        oracle_f = exact_average_fidelity(channel, cfg, "conclusive-at-stage",
                                          stage=k, tie_tolerance=tie_tol)
        rows.append((f"F_mc_s{k}", analytic_f, oracle_f, stats.stage_mean_fidelity(k),
                     stats.stage_stderr_fidelity(k), stats.stage_count(k)))
        p_analytic = float(stage_probabilities(channel, k, tie_tol)[0][-1])
        rows.append((f"P_stage{k}", p_analytic, masses[f"stage{k}"],
                     stats.stage_probability(k), binomial_err(p_analytic), None))
    p_total_analytic = float(stage_probabilities(channel, cfg.k_max, tie_tol)[1])
    rows.append(("P_smc_overall", p_total_analytic, 1.0 - masses["exhausted"],
                 stats.conclusive_probability, binomial_err(p_total_analytic), None))
    label = ("overall_conditional" if cfg.fallback == "discard"
             else f"overall_{cfg.fallback}")
    delivered = (trials if cfg.fallback != "discard"
                 else sum(stats.stage_count(k) for k in range(1, cfg.k_max + 1)))
    rows.append((
        label,
        overall_fidelity(channel, cfg, tie_tol),
        exact_average_fidelity(channel, cfg, "overall", tie_tolerance=tie_tol),
        stats.overall_mean_fidelity,
        stats.overall_stderr_fidelity,
        delivered,
    ))
    return rows


def cmd_verify(args) -> int:
    ch = _build_channel(args)
    tie = _tie_tol(args)
    trials = args.trials if args.trials is not None else 10000
    if trials < 1000:
        raise ValueError("verify needs at least 1000 trials")
    seed = args.seed if args.seed is not None else 0
    k_max = args.k_max if args.k_max is not None else 1
    fallback = args.fallback if args.fallback is not None else "me"
    workers = args.workers if args.workers is not None else 1
    cfg = StrategyConfig(kind=KIND_SMC, k_max=k_max, fallback=fallback)
    plan = build_stage_plan(ch, tie)
    if k_max > plan.M:
        raise ValueError(f"k_max={k_max} exceeds the {plan.M} stage(s) "
                         f"this channel admits")

    rows = _verify_rows(ch, cfg, trials, seed, workers, tie)
    if args.self_test_corrupt:
        name, analytic, *rest = rows[0]
        rows[0] = (name, analytic + 0.01, *rest)

    print(f"verify: D={ch.D} N={ch.N} k_max={k_max} fallback={fallback} "
          f"trials={trials} seed={seed}")
    all_ok = True
    for name, analytic, oracle, empirical, err, samples in rows:
        notes = []
        if abs(oracle - analytic) > ORACLE_ATOL:
            notes.append("oracle!=analytic")
        # A fidelity mean needs two samples for a stderr; fewer get no
        # empirical test (their bucket count is tested by the P row).
        sparse = samples is not None and samples < MIN_FIDELITY_SAMPLES
        band = EMPIRICAL_SIGMAS * err if np.isfinite(err) and err > 0 else ORACLE_ATOL
        if not sparse and (not np.isfinite(empirical) or abs(empirical - analytic) > band):
            notes.append("empirical out of band")
        all_ok &= not notes
        if notes:
            status = "FAIL " + ",".join(notes)
        else:
            status = f"sparse n={samples}" if sparse else "pass"
        print(
            f"{name:<18} analytic={format(analytic, '.12g'):<18} "
            f"oracle={format(oracle, '.12g'):<18} "
            f"empirical={format(empirical, '.12g')}+-{format(err, '.3g'):<12} "
            f"{status}"
        )
    print(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcteleport", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="closed-form channel report")
    _add_channel_options(p_report)
    p_report.add_argument("--out", default=None, help="CSV output path")
    p_report.set_defaults(func=cmd_report)

    p_plan = sub.add_parser("plan", help="per-stage filtering plan")
    _add_channel_options(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="coefficient-grid sweep to CSV")
    p_sweep.add_argument("--D", type=int, default=None)
    p_sweep.add_argument("--N", type=int, default=None)
    p_sweep.add_argument("--grid", type=int, default=None,
                         help="points per free axis")
    p_sweep.add_argument("--quantities", type=_parse_names, default=None,
                         help="comma-separated column names")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--tie-tol", dest="tie_tol", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="CSV path ('-' = stdout)")
    p_sweep.add_argument("--config", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="cross-check the three routes")
    _add_channel_options(p_verify)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--k-max", dest="k_max", type=int, default=None)
    p_verify.add_argument("--fallback", choices=("discard", "me", "guess"),
                          default=None)
    p_verify.add_argument("--workers", type=int, default=None)
    p_verify.add_argument("--self-test-corrupt", action="store_true",
                          help="perturb one analytic value; the run must fail "
                               "(harness self-test)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # The routes check themselves (probability sums, closed-form
        # cross-checks, the replayed Monte Carlo trial); a failed check
        # is a verification failure, not a usage error.
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
