"""Closed-form fidelities, probabilities and stage structure for a channel.

Everything here is evaluated from the coefficient multiplicity profile
(grouped values), never from raw floats, so tie-tolerance decisions
propagate consistently between these formulas and the simulated operators.
Quantities named ``F_*`` are average teleportation fidelities; the
corresponding singlet fractions are recovered as (F*(D+1) - 1)/D.

The public per-quantity functions (``f_me``, ``stage_probabilities``, ...)
are scalar.  Reports come from one array evaluator, ``_pattern_block``,
which assembles every field for a block of channels sharing a tie pattern
and asserts the identities between them: ``report_blocks`` feeds it the
distinct channels among sweep points, ``channel_report`` one channel as a
one-row block.  It performs the scalar functions' floating-point
operations, and the tests hold the two to bit-for-bit equality.  It
calls ufuncs and ndarray methods, not the NumPy wrappers (``np.sum``,
``np.diff``, ...) that only dispatch to them: the operands and their
order are the same, and so are the bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    DEFAULT_TIE_TOL,
    NORMALIZATION_SLACK,
    MultiplicityProfile,
    SchmidtChannel,
    check_tie_tolerance,
    multiplicity_profile,
)
from .discrimination import KIND_DETERMINISTIC, USEFUL_MARGIN, StrategyConfig

IDENTITY_ATOL = 1e-12


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


def _sum_amplitudes(profile: MultiplicityProfile) -> float:
    return float(np.sum(profile.values * profile.multiplicities))


def f_me(ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL) -> float:
    """Average fidelity of the optimal deterministic protocol,
    (1 + (sum_m a_m)^2) / (D + 1)."""
    return _f_me(multiplicity_profile(ch, tie_tolerance), ch.D)


def _f_me(profile: MultiplicityProfile, D: int) -> float:
    return (1.0 + _sum_amplitudes(profile) ** 2) / (D + 1)


def f_clas(D: int) -> float:
    """Best average fidelity without any entanglement, 2 / (D + 1)."""
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    return 2.0 / (D + 1)


def _stage_cascade(profile: MultiplicityProfile):
    """Per-stage probabilities of the filtering cascade.

    Stage k consumes the k-th smallest coefficient group; its success
    probability telescopes to n_k * (v_k^2 - v_{k-1}^2) where n_k counts
    the surviving coefficients.  Returns (p_fail, p_success, cumulative,
    survival) arrays of length M; ``survival[k - 1]`` is the probability
    that stages 1..k all fail.
    """
    M = profile.M
    p_success = profile.support[:M] * np.diff(profile.values[:M] ** 2, prepend=0.0)
    p_fail = np.empty(M)
    survival = np.empty(M)
    prod = 1.0
    for k, p in enumerate(p_success.tolist()):
        q = 1.0 - p / prod if prod > 0 else 0.0
        q = min(max(q, 0.0), 1.0)  # the terminal stage lands at -1e-16-ish
        p_fail[k] = q
        prod *= q
        survival[k] = prod
    return p_fail, p_success, np.cumsum(p_success), survival


def f_mc_conclusive(
    ch: SchmidtChannel, k: int, tie_tolerance: float = DEFAULT_TIE_TOL
) -> float:
    """Average fidelity given a conclusive outcome at stage k.

    Computed two ways -- directly as (1 + n_k)/(D + 1) from the count n_k
    of coefficients surviving into stage k, and by recursion from stage 1
    subtracting each consumed multiplicity -- and checked to agree.
    """
    profile = multiplicity_profile(ch, tie_tolerance)
    if not 1 <= k <= profile.M:
        raise ValueError(f"stage {k} out of range 1..{profile.M}")
    return float(_f_mc_stages(profile, ch.D)[k - 1])


def _f_mc_stages(profile: MultiplicityProfile, D: int) -> np.ndarray:
    """Conclusive fidelity of every stage 1..M."""
    M = profile.M
    direct = (1.0 + profile.support[:M]) / (D + 1)
    # Stage k's value less each multiplicity consumed before it, in turn.
    recursive = np.subtract.accumulate(np.concatenate((
        [(1.0 + profile.N) / (D + 1)], profile.multiplicities[: M - 1] / (D + 1))))
    bad = np.flatnonzero(np.abs(direct - recursive) > IDENTITY_ATOL)
    if bad.size:
        raise AssertionError(
            f"stage-fidelity forms disagree: {float(direct[bad[0]])!r} "
            f"vs {float(recursive[bad[0]])!r}"
        )
    return direct


def _failure_family_sum(
    profile: MultiplicityProfile, depth: int, survival: np.ndarray
) -> float | None:
    """Sum of the failure-family coefficients after ``depth`` >= 1 failed
    stages, or None when that branch has no probability mass."""
    prod = survival[depth - 1]
    if prod <= 0 or depth >= profile.d:
        return None
    v_sq = profile.values**2
    tail_v = np.sqrt((v_sq[depth:] - v_sq[depth - 1]) / prod)
    return float(np.sum(tail_v * profile.multiplicities[depth:]))


def f_me_after_fail(ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL) -> float:
    """Average fidelity of the minimum-error completion after one failed
    filter stage: the deterministic formula applied to the failure-family
    coefficients.  Undefined (error) when all coefficients are equal."""
    profile = multiplicity_profile(ch, tie_tolerance)
    return _f_me_after_fail(profile, ch.D, _stage_cascade(profile))


def _f_me_after_fail(profile: MultiplicityProfile, D: int, cascade) -> float:
    _require_failure_branch(profile)
    _, _, _, survival = cascade
    s = _failure_family_sum(profile, 1, survival)
    value = (1.0 + s**2) / (D + 1)
    (check,), (budget,) = _f_me_after_fail_double_sums(
        profile.values[None], profile.multiplicities, D)
    if not abs(value - check) <= budget:
        raise AssertionError(
            f"failure-fidelity forms disagree: {value!r} vs {float(check)!r}"
        )
    return value


def _require_failure_branch(profile: MultiplicityProfile) -> None:
    if profile.d < 2:
        raise ValueError("all coefficients are equal: the filter cannot fail")


def stage_probabilities(
    ch: SchmidtChannel, k: int, tie_tolerance: float = DEFAULT_TIE_TOL
) -> tuple[np.ndarray, float]:
    """Success probability of each stage 1..k and their cumulative total."""
    profile = multiplicity_profile(ch, tie_tolerance)
    if not 1 <= k <= profile.M:
        raise ValueError(f"stage {k} out of range 1..{profile.M}")
    _, p_success, cumulative, _ = _stage_cascade(profile)
    return p_success[:k].copy(), float(cumulative[k - 1])


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
    profile = multiplicity_profile(ch, tie_tolerance)
    return _overall_fidelity(profile, ch.D, cfg, _stage_cascade(profile))


def _overall_fidelity(
    profile: MultiplicityProfile, D: int, cfg: StrategyConfig, cascade
) -> float:
    if cfg.kind == KIND_DETERMINISTIC:
        return _f_me(profile, D)
    if not 1 <= cfg.k_max <= profile.M:
        raise ValueError(f"k_max={cfg.k_max} out of range 1..{profile.M}")
    _, p_success, cumulative, survival = cascade
    fid = (1.0 + profile.support[: cfg.k_max]) / (D + 1)
    base = float(np.dot(p_success[: cfg.k_max], fid))
    residual = 1.0 - float(cumulative[cfg.k_max - 1])
    residual = max(residual, 0.0)
    if cfg.fallback == "discard":
        return base / float(cumulative[cfg.k_max - 1])
    if residual < 1e-15:
        return base
    if cfg.fallback == "guess":
        return base + residual * f_clas(D)
    s = _failure_family_sum(profile, cfg.k_max, survival)
    if s is None:
        return base
    return base + residual * (1.0 + s**2) / (D + 1)


def channel_report(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> ChannelReport:
    """Evaluate every closed form for one channel and assert the internal
    identities that tie them together: the one-row case of
    :func:`report_blocks`.  ``make_channel`` has already validated, sorted
    and normalised the coefficients, so their ascending row goes straight
    to the per-pattern evaluator."""
    check_tie_tolerance(tie_tolerance)
    D = ch.D
    if ch.N == 1:
        # Rank 1: no stage, so every strategy is the deterministic one.  The
        # group value sqrt(a^2) is formed as group_coefficients forms it.
        sum_a_sq = float(np.sqrt(ch.coeffs[0] ** 2)) ** 2
        F_me = (1.0 + sum_a_sq) / (D + 1)
        return ChannelReport(
            D=D, N=1, d=1, M=0, F_me=F_me, f_me=sum_a_sq / D, F_clas=f_clas(D),
            F_mc_s=(), f_mc_s=(), p_fail=(), p_success=(), P_smc=(), useful=(),
            F_me_after_fail=None, overall_me=F_me, overall_smc=F_me,
        )
    amps = ch.coeffs[None, ::-1]
    gaps = amps[0, 1:] - amps[0, :-1] > tie_tolerance  # np.diff
    block = _pattern_block(D, amps, gaps, amps**2, slice(None))  # its one row, as a view

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

    Each row is normalised and sorted as ``make_channel`` does.  Rows whose
    sorted amplitudes are the same bits are one channel, evaluated once (a
    report reads only these amplitudes); the channels are numbered by first
    occurrence, and a block's ``rows`` index them.  The channels are split
    by their tie pattern (the gap mask of ``group_coefficients``) and each
    pattern is evaluated by ``_pattern_block``, the evaluator
    ``channel_report`` also uses.
    """
    check_tie_tolerance(tie_tolerance)
    squared = np.asarray(squared, dtype=float)
    N = squared.shape[1]
    if not 2 <= N <= D:
        raise ValueError(f"need 2 <= N <= D, got N={N}, D={D}")
    if not np.all(np.isfinite(squared) & (squared > 0)):
        raise ValueError("squared coefficients must be finite and strictly positive")
    amps = np.sqrt(squared)
    total = np.sum(amps**2, axis=1)
    if np.any(np.abs(total - 1.0) > NORMALIZATION_SLACK):
        raise ValueError(f"squared coefficients must sum to 1 within {NORMALIZATION_SLACK:g}")
    amps = np.sort(amps / np.sqrt(total)[:, None], axis=1)
    # Rows of equal amplitude bits have equal codes: one channel, kept at its
    # first row.
    _, first, channel = np.unique(_row_codes(amps), return_index=True, return_inverse=True)
    order = first.argsort()  # the channels by first occurrence
    keep = first[order]
    amps, squared, channel = amps[keep], squared[keep], order.argsort()[channel]
    gaps = np.diff(amps, axis=1) > tie_tolerance
    # A gap mask packed 8 gaps to a byte has a code that sorts as the bool row
    # does, so the patterns come in np.unique(axis=0)'s order, without its
    # per-field sort.
    _, first, which = np.unique(_row_codes(np.packbits(gaps, axis=1)),
                                return_index=True, return_inverse=True)
    return [_pattern_block(D, amps, gaps[i], squared, (which == g).nonzero()[0])
            for g, i in enumerate(first.tolist())], channel


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous (P, K) array as one void scalar of its bytes."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _pattern_block(D, amps, gaps, points, rows) -> ReportBlock:
    """Every closed form of the channels whose ascending amplitudes are the
    ``rows`` of ``amps`` (shape (., N), N >= 2), all with the gap mask
    ``gaps``, and every identity that ties them together, asserted on each
    row; a failure names the failing row of ``points``.  Within the pattern
    every quantity is column arithmetic on the (P, d) group values; only
    the survival recurrence loops, over the M stages.  The comments name
    the scalar function each step matches bit for bit."""
    amps, points = amps[rows], points[rows]
    P, N = amps.shape
    edges = np.array([0, *(gaps.nonzero()[0] + 1).tolist(), N])
    mults = edges[1:] - edges[:-1]
    d = mults.size
    M = d - 1 if mults[-1] == 1 else d
    support = mults[::-1].cumsum()[::-1][:M]
    # group_coefficients: root mean square of each group's members; a lone
    # member's mean is its own square.  take keeps rows contiguous
    # (a[:, idx] is column-major), so each row sum below adds pairwise, as
    # the scalar route does, for any P; a column-major block of P > 1 rows
    # adds left to right, off in the last bit from 8 terms on.
    sq = amps**2
    values = np.sqrt(sq.take(edges[:-1], axis=1))
    for j in (mults > 1).nonzero()[0].tolist():
        a, b = edges[j], edges[j + 1]
        values[:, j] = np.sqrt(np.add.reduce(sq[:, a:b], axis=1) / (b - a))
    v_sq = values**2
    # _f_me squares the Python float sum with pow(), which can differ from
    # x*x by an ulp; float_power calls the same pow().
    sum_a_sq = np.float_power(np.add.reduce(values * mults, axis=1), 2)
    F_me = (1.0 + sum_a_sq) / (D + 1)
    f_me = sum_a_sq / D
    F_clas = f_clas(D)

    # _stage_cascade; chain[k] is the probability that stages 1..k all fail.
    p_success = v_sq[:, :M].copy()  # np.diff of (0, v_1^2, ..., v_M^2)
    p_success[:, 1:] -= v_sq[:, : M - 1]
    p_success *= support
    p_fail, chain = np.empty((M, P)), np.empty((M + 1, P))  # p_fail[k - 1] is stage k's
    chain[0] = prod = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, p in enumerate(p_success.T):
            # Once a branch is dead (prod == 0) the quotient is inf or nan,
            # and both clamp to the scalar path's 0.
            p_fail[k] = q = np.minimum(np.fmax(1.0 - p / prod, 0.0), 1.0)
            chain[k + 1] = prod = prod * q
    cumulative = p_success.cumsum(axis=1)

    # _f_mc_stages
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

    # _overall_fidelity, full cascade with the guess fallback
    base = np.vecdot(p_success, F_mc)
    residual = np.maximum(1.0 - cumulative[:, M - 1], 0.0)
    overall_smc = np.where(residual < 1e-15, base, base + residual * F_clas)

    # _overall_fidelity, one stage with the me fallback, and _f_me_after_fail:
    # both need the failure family after stage 1 (_failure_family_sum).
    base = np.vecdot(p_success[:, :1], F_mc[:1])
    residual = np.maximum(1.0 - cumulative[:, 0], 0.0)
    if d >= 2:
        live = chain[1] > 0
        tail = np.sqrt((v_sq[:, 1:] - v_sq[:, :1]) / np.where(live, chain[1], 1.0)[:, None])
        s_sq = np.float_power(np.where(live, np.add.reduce(tail * mults[1:], axis=1), np.nan), 2)
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
