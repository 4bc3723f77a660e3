"""Closed-form fidelities, probabilities and stage structure for a channel.

Everything here is evaluated from the grouped values that ``channels``
forms, never from raw floats, so tie-tolerance decisions propagate
consistently between these formulas and the simulated operators.
Quantities named ``F_*`` are average teleportation fidelities; the
corresponding singlet fractions are recovered as (F*(D+1) - 1)/D.

Every closed form comes from one array evaluator, ``_pattern_block``,
which assembles every field for a block of channels sharing a tie pattern
and asserts the identities between them: ``report_blocks`` feeds it the
grouped distinct channels among sweep points, ``channel_report`` one
channel's profile as a one-row block.  The per-quantity functions (``f_me``,
``stage_probabilities``, ``overall_fidelity``, ...) read the cached
``channel_report``; for the ``me`` fallback, ``overall_fidelity`` adds the
failure-family sum after k_max stages, from the helper the evaluator uses
after one stage.
The tests hold every field to a 60-digit reference, the printed output
to recorded digests, and the values to the exact branch enumeration of
``engine``.  The evaluator calls ufuncs and ndarray methods, not the
NumPy wrappers (``np.sum``, ``np.diff``, ...) that only dispatch to them:
the operands and their order are the same, and so are the bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from . import channels
from .channels import (
    DEFAULT_TIE_TOL,
    SchmidtChannel,
    multiplicity_profile,
)
from .discrimination import KIND_DETERMINISTIC, StrategyConfig

IDENTITY_ATOL = 1e-12

# Strict margin for "stage k beats the deterministic protocol" comparisons;
# keeps exactly-equal coefficient sets on the not-useful side of the fence.
USEFUL_MARGIN = 1e-12


@dataclass(frozen=True)
class ChannelReport:
    """Every closed-form quantity for one channel, cross-checked.

    Stage-indexed tuples have length M (the number of stages the channel
    admits).  ``F_me_after_fail`` is None when all coefficients are equal,
    since then the filter cannot fail.  ``overall_smc`` assumes the full
    M-stage cascade.  The fields are those of :class:`ReportBlock` but
    ``rows``: :func:`channel_report` reads them from a one-row block.
    """

    D: int
    N: int
    d: int
    M: int
    F_me: float
    f_me: float
    F_clas: float
    F_mc_s: tuple[float, ...]
    f_mc_s: tuple[float, ...]
    p_fail: tuple[float, ...]
    p_success: tuple[float, ...]
    P_smc: tuple[float, ...]
    useful: tuple[bool, ...]
    F_me_after_fail: float | None
    overall_me: float
    overall_smc: float


def f_me(ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL) -> float:
    """Average fidelity of the optimal deterministic protocol,
    (1 + (sum_m a_m)^2) / (D + 1)."""
    return channel_report(ch, tie_tolerance).F_me


def f_clas(D: int) -> float:
    """Best average fidelity without any entanglement, 2 / (D + 1)."""
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    return 2.0 / (D + 1)


def f_mc_conclusive(
    ch: SchmidtChannel, k: int, tie_tolerance: float = DEFAULT_TIE_TOL
) -> float:
    """Average fidelity given a conclusive outcome at stage k, (1 + n_k)/(D + 1)
    with n_k the count of coefficients surviving into stage k; the report
    checks it against the recursion from stage 1 that subtracts each
    consumed multiplicity."""
    rep = channel_report(ch, tie_tolerance)
    if not 1 <= k <= rep.M:
        raise ValueError(f"stage {k} out of range 1..{rep.M}")
    return rep.F_mc_s[k - 1]


def f_me_after_fail(ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL) -> float:
    """Average fidelity of the minimum-error completion after one failed
    filter stage: the deterministic formula applied to the failure-family
    coefficients.  Undefined (error) when all coefficients are equal."""
    value = channel_report(ch, tie_tolerance).F_me_after_fail
    if value is None:
        raise ValueError("all coefficients are equal: the filter cannot fail")
    return value


def stage_probabilities(
    ch: SchmidtChannel, k: int, tie_tolerance: float = DEFAULT_TIE_TOL
) -> tuple[np.ndarray, float]:
    """Success probability of each stage 1..k and their cumulative total."""
    rep = channel_report(ch, tie_tolerance)
    if not 1 <= k <= rep.M:
        raise ValueError(f"stage {k} out of range 1..{rep.M}")
    return np.array(rep.p_success[:k]), rep.P_smc[k - 1]


def overall_fidelity(
    ch: SchmidtChannel,
    cfg: StrategyConfig,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> float:
    """Average fidelity of a full strategy, conclusive and terminal
    branches weighted by their probabilities.

    With the ``discard`` fallback no unconditional average exists (failed
    attempts deliver nothing), so the value is conditioned on success;
    pair it with the overall success probability when reporting.
    """
    rep = channel_report(ch, tie_tolerance)
    if cfg.kind == KIND_DETERMINISTIC:
        return rep.F_me
    k = cfg.k_max
    if not 1 <= k <= rep.M:
        raise ValueError(f"k_max={k} out of range 1..{rep.M}")
    base = float(np.dot(rep.p_success[:k], rep.F_mc_s[:k]))
    if cfg.fallback == "discard":
        return base / rep.P_smc[k - 1]
    residual = max(1.0 - rep.P_smc[k - 1], 0.0)
    if residual < 1e-15:
        return base
    if cfg.fallback == "guess":
        return base + residual * rep.F_clas
    # The minimum-error completion on the family left after k failed stages.
    survival = prod(rep.p_fail[:k])
    if survival <= 0 or k >= rep.d:
        return base
    profile = multiplicity_profile(ch, tie_tolerance)
    (s,) = _failure_family_sums(profile.values[None] ** 2, profile.multiplicities, k,
                                np.array([survival])).tolist()
    return base + residual * (1.0 + s**2) / (rep.D + 1)


@lru_cache(maxsize=1)
def channel_report(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> ChannelReport:
    """Evaluate every closed form for one channel and assert the internal
    identities that tie them together: the one-row case of
    :func:`report_blocks`, evaluated from the channel's cached
    ``multiplicity_profile``.

    The last report is cached (it is immutable), keyed by the channel's
    identity and the tie tolerance as passed, so the per-quantity
    functions above, which read it, evaluate a channel once; errors are
    not cached."""
    profile = multiplicity_profile(ch, tie_tolerance)
    D = ch.D
    if ch.N == 1:
        # Rank 1: no stage, so every strategy is the deterministic one.
        sum_a_sq = float(profile.values[0]) ** 2
        F_me = (1.0 + sum_a_sq) / (D + 1)
        return ChannelReport(
            D=D, N=1, d=1, M=0, F_me=F_me, f_me=sum_a_sq / D, F_clas=f_clas(D),
            F_mc_s=(), f_mc_s=(), p_fail=(), p_success=(), P_smc=(), useful=(),
            F_me_after_fail=None, overall_me=F_me, overall_smc=F_me,
        )
    block = _pattern_block(D, profile, ch.coeffs[None, ::-1] ** 2, slice(None))

    def row(series):
        return tuple(series[0].tolist())

    return ChannelReport(
        D=D, N=block.N, d=block.d, M=block.M,
        F_me=float(block.F_me[0]), f_me=float(block.f_me[0]), F_clas=block.F_clas,
        F_mc_s=tuple(block.F_mc_s.tolist()), f_mc_s=tuple(block.f_mc_s.tolist()),
        p_fail=row(block.p_fail), p_success=row(block.p_success), P_smc=row(block.P_smc),
        useful=row(block.useful),
        F_me_after_fail=None if block.F_me_after_fail is None
        else float(block.F_me_after_fail[0]),
        overall_me=float(block.overall_me[0]), overall_smc=float(block.overall_smc[0]),
    )


@dataclass(frozen=True)
class ReportBlock:
    """The :class:`ChannelReport` fields of a block of channels that share
    one tie pattern, and so d, M and the multiplicities.

    ``rows`` indexes these channels in the evaluated block.  Fields that
    depend only on the pattern (D, N, d, M, F_clas and the stage fidelities
    ``F_mc_s``/``f_mc_s``, shape (M,)) are shared; the other scalars are
    (P,) arrays and the other stage series (P, M) arrays.
    ``F_me_after_fail`` is None when d < 2.  A one-row block read back
    field by field is :func:`channel_report`'s ``ChannelReport``.
    """

    rows: np.ndarray
    D: int
    N: int
    d: int
    M: int
    F_me: np.ndarray
    f_me: np.ndarray
    F_clas: float
    F_mc_s: np.ndarray
    f_mc_s: np.ndarray
    p_fail: np.ndarray
    p_success: np.ndarray
    P_smc: np.ndarray
    useful: np.ndarray
    F_me_after_fail: np.ndarray | None
    overall_me: np.ndarray
    overall_smc: np.ndarray


def report_blocks(
    D: int, squared, tie_tolerance: float = DEFAULT_TIE_TOL
) -> tuple[list[ReportBlock], np.ndarray]:
    """:func:`channel_report` of every distinct channel among the rows of
    ``squared``, a (P, N) block of squared Schmidt coefficients with
    2 <= N <= D, on whole arrays, and the (P,) index of each row's channel.
    The caller's rows are positive and sum to 1 up to rounding, as the
    points of ``cli.sweep_points`` do; they are not checked here.

    Each row is normalised and sorted as ``make_channel`` does.  Rows whose
    sorted amplitudes are the same bits are one channel, evaluated once (a
    report reads only these amplitudes); the channels are numbered by first
    occurrence, and a block's ``rows`` index them.  The channels are split
    by their tie pattern (their ``channels.tie_gaps`` mask), each pattern
    is grouped by ``channels.group_rows`` and evaluated by
    ``_pattern_block``, the evaluator ``channel_report`` also uses.
    """
    squared = np.asarray(squared, dtype=float)
    amps = np.sqrt(squared)
    total = np.sum(amps**2, axis=1)
    amps = np.sort(amps / np.sqrt(total)[:, None], axis=1)
    # Rows of equal amplitude bits have equal codes: one channel, kept at its
    # first row.
    _, first, channel = np.unique(_row_codes(amps), return_index=True, return_inverse=True)
    order = first.argsort()  # the channels by first occurrence
    keep = first[order]
    amps, squared, channel = amps[keep], squared[keep], order.argsort()[channel]
    gaps = channels.tie_gaps(amps, tie_tolerance)
    # A gap mask packed 8 gaps to a byte has a code that sorts as the bool row
    # does, so the patterns come in np.unique(axis=0)'s order, without its
    # per-field sort.
    _, first, which = np.unique(_row_codes(np.packbits(gaps, axis=1)),
                                return_index=True, return_inverse=True)
    blocks = []
    for g, i in enumerate(first.tolist()):
        rows = (which == g).nonzero()[0]
        profile = channels.MultiplicityProfile(*channels.group_rows(amps[rows], gaps[i]))
        blocks.append(_pattern_block(D, profile, squared[rows], rows))
    return blocks, channel


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous (P, K) array as one void scalar of its bytes."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _pattern_block(D, profile, points, rows) -> ReportBlock:
    """Every closed form of the channels ``rows`` (N >= 2) that share the
    multiplicities of ``profile``, from its (P, d) or one channel's (d,)
    group values, and every identity that ties them together, asserted on
    each row; a failure names the failing row of ``points``, their (P, N)
    squared coefficients.  Every quantity is column arithmetic on the
    group values; only the survival recurrence loops, over the M stages.
    The one-row case is :func:`channel_report`."""
    mults, d, M, support = profile.multiplicities, profile.d, profile.M, profile.support
    N, support = int(support[0]), support[:M]
    values = profile.values.reshape(-1, d)  # one channel's (d,) as a row
    P = values.shape[0]
    v_sq = values**2
    # float_power squares with pow(), as every recorded output was computed;
    # x*x can differ by an ulp.
    sum_a_sq = np.float_power(np.add.reduce(values * mults, axis=1), 2)
    F_me = (1.0 + sum_a_sq) / (D + 1)
    f_me = sum_a_sq / D
    F_clas = f_clas(D)

    # Stage k consumes the k-th smallest group: its success probability
    # telescopes to n_k (v_k^2 - v_{k-1}^2), n_k the surviving count.
    # chain[k] is the probability that stages 1..k all fail.
    p_success = v_sq[:, :M].copy()  # np.diff of (0, v_1^2, ..., v_M^2)
    p_success[:, 1:] -= v_sq[:, : M - 1]
    p_success *= support
    p_fail, chain = np.empty((M, P)), np.empty((M + 1, P))  # p_fail[k - 1] is stage k's
    chain[0] = alive = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, p in enumerate(p_success.T):
            # Once a branch is dead (alive == 0) the quotient is inf or nan,
            # and both clamp to 0; the terminal stage lands at -1e-16-ish.
            p_fail[k] = q = np.minimum(np.fmax(1.0 - p / alive, 0.0), 1.0)
            chain[k + 1] = alive = alive * q
    cumulative = p_success.cumsum(axis=1)

    # Conclusive fidelity of every stage, directly and by recursion from
    # stage 1, subtracting each consumed multiplicity.
    F_mc = (1.0 + support) / (D + 1)
    recursive = np.subtract.accumulate(np.concatenate(([(1.0 + N) / (D + 1)],
                                                       mults[: M - 1] / (D + 1))))
    bad = (np.abs(F_mc - recursive) > IDENTITY_ATOL).nonzero()[0]
    if bad.size:
        raise AssertionError(
            f"stage-fidelity forms disagree: {float(F_mc[bad[0]])!r} vs "
            f"{float(recursive[bad[0]])!r} at point {points[0].tolist()}")
    f_mc = support / D
    margin = support - sum_a_sq[:, None]
    useful = margin > USEFUL_MARGIN

    # The full cascade with the guess fallback.
    base = np.vecdot(p_success, F_mc)
    residual = np.maximum(1.0 - cumulative[:, M - 1], 0.0)
    overall_smc = np.where(residual < 1e-15, base, base + residual * F_clas)

    # One stage with the me fallback, and F_me_after_fail: both need the
    # failure family after stage 1.
    base = np.vecdot(p_success[:, :1], F_mc[:1])
    residual = np.maximum(1.0 - cumulative[:, 0], 0.0)
    if d >= 2:
        live = chain[1] > 0
        s = _failure_family_sums(v_sq, mults, 1, np.where(live, chain[1], 1.0))
        s_sq = np.float_power(np.where(live, s, np.nan), 2)
        F_fail = (1.0 + s_sq) / (D + 1)
        check, budget = _f_me_after_fail_double_sums(values, mults, D)
        _require_rows(np.abs(F_fail - check) <= budget,
                      points, "failure-fidelity forms disagree", (F_fail, check))
        plain = (residual < 1e-15) | ~live
        overall_me = np.where(plain, base, base + residual * (1.0 + s_sq) / (D + 1))
    else:
        F_fail = None
        overall_me = base

    # Cross identities between independent routes to the same numbers.
    final_form = ((mults[-2] if d >= 2 and mults[-1] == 1 else 0) + mults[-1] + 1) / (D + 1)
    _require_rows(np.abs(final_form - F_mc[M - 1:M]) <= IDENTITY_ATOL,
                  points, "final-stage fidelity forms disagree")
    _require_rows(np.abs(p_success - ((1.0 - p_fail) * chain[:-1]).T) <= IDENTITY_ATOL,
                  points, "success probability forms disagree")
    _require_rows(np.abs(cumulative[:, M - 1] - (1.0 - chain[M])) <= IDENTITY_ATOL,
                  points, "cumulative success probability forms disagree")
    _require_rows((np.abs((F_mc * (D + 1) - 1.0) / D - f_mc) <= IDENTITY_ATOL)[None],
                  points, "fidelity-confidence identity fails")
    _require_rows(np.abs((F_mc - F_me[:, None]) * (D + 1) - margin) <= 1e-9,
                  points, "usefulness identity fails")
    _require_rows(np.abs((F_me * (D + 1) - 1.0) / D - f_me) <= IDENTITY_ATOL,
                  points, "deterministic fidelity-confidence identity fails")
    _require_rows(F_mc[0] - F_me >= -IDENTITY_ATOL,
                  points, "stage-1 fidelity fell below the deterministic one")
    if d >= 2:
        assembled = (1.0 - p_fail[0]) * F_mc[0] + p_fail[0] * F_fail
        _require_rows(np.abs(assembled - overall_me) <= IDENTITY_ATOL,
                      points, "single-stage overall fidelity assembly disagrees")

    return ReportBlock(
        rows=rows, D=D, N=N, d=d, M=M, F_me=F_me, f_me=f_me, F_clas=F_clas,
        F_mc_s=F_mc, f_mc_s=f_mc, p_fail=p_fail.T, p_success=p_success,
        P_smc=cumulative, useful=useful, F_me_after_fail=F_fail,
        overall_me=overall_me, overall_smc=overall_smc,
    )


def _failure_family_sums(v_sq, mults, depth, survival) -> np.ndarray:
    """The sum of the failure-family coefficients after ``depth`` >= 1
    failed stages, sqrt((v_m^2 - v_depth^2) / survival) over the groups
    m > depth, for each row of squared group values ``v_sq`` (shape (P, d),
    d > depth) with multiplicities ``mults``; ``survival`` (P,), positive,
    is the probability that stages 1..depth all fail."""
    tail = np.sqrt((v_sq[:, depth:] - v_sq[:, depth - 1:depth]) / survival[:, None])
    return np.add.reduce(tail * mults[depth:], axis=1)


def _f_me_after_fail_double_sums(values, mults, D) -> tuple[np.ndarray, np.ndarray]:
    """``F_me_after_fail`` of each row of group values as a double sum, the
    classical fidelity plus the pairwise cross terms of the excess weights
    sqrt((a_m^2 - a_min^2)(a_m'^2 - a_min^2)) / ((D + 1) p_fail), and the
    amount by which the single-sum form may differ from it.

    The two forms differ by exactly (sum_m e_m^2 - p_fail)/((D + 1) p_fail),
    e_m = sqrt(a_m^2 - a_min^2): the normalisation residual of the group
    values, which 1/p_fail magnifies when the smallest group lies just
    below the others.  The budget is that measured term plus IDENTITY_ATOL.
    """
    a_sq = values.repeat(mults, axis=1) ** 2
    p_fail = 1.0 - a_sq.shape[1] * a_sq[:, 0]
    # The smallest group's excess must be exactly 0, so a_min^2 is taken
    # from the same array (a scalar x**2 can round one ulp off x*x, and
    # the square root magnifies that ulp to about 1e-9).
    excess = np.sqrt(np.maximum(a_sq - a_sq[:, :1], 0.0))
    norm = np.vecdot(excess, excess)
    # Sum over ordered pairs m != m'.
    cross = np.add.reduce(excess, axis=1) ** 2 - norm
    scale = (D + 1) * p_fail
    # A zero p_fail gives inf or nan, which the caller's comparison rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        return f_clas(D) + cross / scale, IDENTITY_ATOL + np.abs(norm - p_fail) / scale


def _require_rows(ok: np.ndarray, points: np.ndarray, message: str, compared=()) -> None:
    """AssertionError unless ``ok``, a (P,) or (P, M) mask, holds on every
    row.  The message names the first failing stage of a (P, M) mask, the
    two ``compared`` (P,) values of the failing row when given, and that
    row of ``points``."""
    first = ok.argmin()  # the flat index of the first False, 0 if none
    if ok.flat[first]:
        return
    i, *k = np.unravel_index(first, ok.shape)
    stage = f"stage {k[0] + 1} " if k else ""
    values = ": {!r} vs {!r}".format(*(float(c[i]) for c in compared)) if compared else ""
    raise AssertionError(f"{stage}{message}{values} at point {points[i].tolist()}")
