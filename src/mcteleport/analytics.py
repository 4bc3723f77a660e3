"""Closed-form fidelities, probabilities and stage structure for a channel.

Everything here is evaluated from the coefficient multiplicity profile
(grouped values), never from raw floats, so tie-tolerance decisions
propagate consistently between these formulas and the simulated operators.
Quantities named ``F_*`` are average teleportation fidelities; the
corresponding singlet fractions are recovered as (F*(D+1) - 1)/D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    DEFAULT_TIE_TOL,
    MultiplicityProfile,
    SchmidtChannel,
    multiplicity_profile,
)
from .discrimination import KIND_DETERMINISTIC, KIND_SMC, USEFUL_MARGIN, StrategyConfig

IDENTITY_ATOL = 1e-12


@dataclass(frozen=True)
class ChannelReport:
    """Every closed-form quantity for one channel, cross-checked.

    Stage-indexed tuples have length M (the number of stages the channel
    admits).  ``F_me_after_fail`` is None when all coefficients are equal,
    since then the filter cannot fail.  ``overall_smc`` assumes the full
    M-stage cascade.
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
    """Per-stage failure/success probabilities of the filtering cascade.

    Stage k consumes the k-th smallest coefficient group; its success
    probability telescopes to n_k * (v_k^2 - v_{k-1}^2) where n_k counts
    the surviving coefficients.  Returns (p_fail, p_success, cumulative)
    arrays of length M.
    """
    v_sq = profile.values**2
    p_fail = []
    p_success = []
    prod = 1.0
    prev = 0.0
    for k in range(1, profile.M + 1):
        n_k = profile.support_size(k)
        gap = v_sq[k - 1] - prev
        q = 1.0 - n_k * gap / prod if prod > 0 else 0.0
        q = min(max(q, 0.0), 1.0)  # the terminal stage lands at -1e-16-ish
        p_fail.append(q)
        p_success.append(n_k * gap)
        prod *= q
        prev = v_sq[k - 1]
    p_success = np.asarray(p_success)
    return np.asarray(p_fail), p_success, np.cumsum(p_success)


def f_mc_conclusive(
    ch: SchmidtChannel, k: int, tie_tolerance: float = DEFAULT_TIE_TOL
) -> float:
    """Average fidelity given a conclusive outcome at stage k.

    Computed two ways -- directly as (1 + n_k)/(D + 1) from the count n_k
    of coefficients surviving into stage k, and by recursion from stage 1
    subtracting each consumed multiplicity -- and checked to agree.
    """
    return _f_mc_conclusive(multiplicity_profile(ch, tie_tolerance), ch.D, k)


def _f_mc_conclusive(profile: MultiplicityProfile, D: int, k: int) -> float:
    if not 1 <= k <= profile.M:
        raise ValueError(f"stage {k} out of range 1..{profile.M}")
    direct = (1.0 + profile.support_size(k)) / (D + 1)
    recursive = (1.0 + profile.N) / (D + 1)
    for j in range(1, k):
        recursive -= profile.multiplicities[j - 1] / (D + 1)
    if abs(direct - recursive) > IDENTITY_ATOL:
        raise AssertionError(
            f"stage-fidelity forms disagree: {direct!r} vs {recursive!r}"
        )
    return direct


def _failure_family_sum(profile: MultiplicityProfile, depth: int) -> float | None:
    """Sum of the failure-family coefficients after ``depth`` failed stages,
    or None when that branch has no probability mass."""
    v_sq = profile.values**2
    prod = 1.0
    for k in range(1, depth + 1):
        if prod <= 0:
            return None
        n_k = profile.support_size(k)
        prev = v_sq[k - 2] if k >= 2 else 0.0
        prod *= 1.0 - n_k * (v_sq[k - 1] - prev) / prod
    if prod <= 0 or depth >= profile.d:
        return None
    floor = v_sq[depth - 1] if depth >= 1 else 0.0
    tail_v = np.sqrt((v_sq[depth:] - floor) / prod)
    return float(np.sum(tail_v * profile.multiplicities[depth:]))


def f_me_after_fail(ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL) -> float:
    """Average fidelity of the minimum-error completion after one failed
    filter stage: the deterministic formula applied to the failure-family
    coefficients.  Undefined (error) when all coefficients are equal."""
    return _f_me_after_fail(multiplicity_profile(ch, tie_tolerance), ch.D)


def _f_me_after_fail(profile: MultiplicityProfile, D: int) -> float:
    _require_failure_branch(profile)
    s = _failure_family_sum(profile, 1)
    value = (1.0 + s**2) / (D + 1)
    check = _f_me_after_fail_double_sum(profile, D)
    if not abs(value - check) <= IDENTITY_ATOL:
        raise AssertionError(
            f"failure-fidelity forms disagree: {value!r} vs {check!r}"
        )
    return value


def f_me_after_fail_double_sum(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> float:
    """Same quantity as :func:`f_me_after_fail`, written as the classical
    fidelity plus the pairwise cross terms of the excess weights
    sqrt((a_m^2 - a_min^2)(a_m'^2 - a_min^2)) / ((D + 1) p_fail)."""
    return _f_me_after_fail_double_sum(multiplicity_profile(ch, tie_tolerance), ch.D)


def _require_failure_branch(profile: MultiplicityProfile) -> None:
    if profile.d < 2:
        raise ValueError("all coefficients are equal: the filter cannot fail")


def _f_me_after_fail_double_sum(profile: MultiplicityProfile, D: int) -> float:
    _require_failure_branch(profile)
    a = np.repeat(profile.values, profile.multiplicities)
    a_min_sq = profile.values[0] ** 2
    p_fail = 1.0 - a.size * a_min_sq
    # a**2 and a_min_sq round differently, so the smallest group can land
    # one ulp below zero.
    excess = np.sqrt(np.maximum(a**2 - a_min_sq, 0.0))
    cross = 0.0
    for m in range(a.size):
        for mp in range(a.size):
            if m != mp:
                cross += excess[m] * excess[mp]
    return f_clas(D) + cross / ((D + 1) * p_fail)


def stage_probabilities(
    ch: SchmidtChannel, k: int, tie_tolerance: float = DEFAULT_TIE_TOL
) -> tuple[np.ndarray, float]:
    """Success probability of each stage 1..k and their cumulative total."""
    profile = multiplicity_profile(ch, tie_tolerance)
    if not 1 <= k <= profile.M:
        raise ValueError(f"stage {k} out of range 1..{profile.M}")
    _, p_success, cumulative = _stage_cascade(profile)
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
    return _overall_fidelity(multiplicity_profile(ch, tie_tolerance), ch.D, cfg)


def _overall_fidelity(profile: MultiplicityProfile, D: int, cfg: StrategyConfig) -> float:
    if cfg.kind == KIND_DETERMINISTIC:
        return _f_me(profile, D)
    if not 1 <= cfg.k_max <= profile.M:
        raise ValueError(f"k_max={cfg.k_max} out of range 1..{profile.M}")
    _, p_success, cumulative = _stage_cascade(profile)
    fid = [(1.0 + profile.support_size(j)) / (D + 1) for j in range(1, cfg.k_max + 1)]
    base = float(np.dot(p_success[: cfg.k_max], fid))
    residual = 1.0 - float(cumulative[cfg.k_max - 1])
    residual = max(residual, 0.0)
    if cfg.fallback == "discard":
        return base / float(cumulative[cfg.k_max - 1])
    if residual < 1e-15:
        return base
    if cfg.fallback == "guess":
        return base + residual * f_clas(D)
    s = _failure_family_sum(profile, cfg.k_max)
    if s is None:
        return base
    return base + residual * (1.0 + s**2) / (D + 1)


def channel_report(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> ChannelReport:
    """Evaluate every closed form for one channel and assert the internal
    identities that tie them together.  The coefficients are grouped once
    and every quantity is evaluated from that profile."""
    D = ch.D
    profile = multiplicity_profile(ch, tie_tolerance)
    sum_a = _sum_amplitudes(profile)
    F_me_val = _f_me(profile, D)
    f_me_frac = sum_a**2 / D
    F_clas_val = f_clas(D)

    M = profile.M
    if M >= 1 and profile.N >= 2:
        p_fail, p_success, cumulative = _stage_cascade(profile)
        F_mc = np.array([_f_mc_conclusive(profile, D, k) for k in range(1, M + 1)])
        f_mc = np.array([profile.support_size(k) / D for k in range(1, M + 1)])
        useful = tuple(
            bool(profile.support_size(k) - sum_a**2 > USEFUL_MARGIN)
            for k in range(1, M + 1)
        )
        cfg_full = StrategyConfig(kind=KIND_SMC, k_max=M, fallback="guess")
        overall_smc_val = _overall_fidelity(profile, D, cfg_full)
        cfg_one = StrategyConfig(kind=KIND_SMC, k_max=1, fallback="me")
        overall_me_val = _overall_fidelity(profile, D, cfg_one)
        fail_defined = profile.d >= 2
        F_fail = _f_me_after_fail(profile, D) if fail_defined else None

        # Cross identities between independent routes to the same numbers.
        mu = profile.multiplicities
        final_form = (mu[-2] * (1 if mu[-1] == 1 else 0) + mu[-1] + 1) / (D + 1) \
            if profile.d >= 2 else (mu[-1] + 1) / (D + 1)
        _require(abs(final_form - F_mc[M - 1]) <= IDENTITY_ATOL,
                 "final-stage fidelity forms disagree")
        prod = 1.0
        for k in range(M):
            _require(abs(p_success[k] - (1.0 - p_fail[k]) * prod) <= IDENTITY_ATOL,
                     f"stage {k + 1} success probability forms disagree")
            prod *= p_fail[k]
        _require(abs(cumulative[M - 1] - (1.0 - prod)) <= IDENTITY_ATOL,
                 "cumulative success probability forms disagree")
        for k in range(1, M + 1):
            _require(abs((F_mc[k - 1] * (D + 1) - 1.0) / D - f_mc[k - 1]) <= IDENTITY_ATOL,
                     f"stage {k} fidelity-confidence identity fails")
            _require(
                abs((F_mc[k - 1] - F_me_val) * (D + 1)
                    - (profile.support_size(k) - sum_a**2)) <= 1e-9,
                f"stage {k} usefulness identity fails")
        _require(abs((F_me_val * (D + 1) - 1.0) / D - f_me_frac) <= IDENTITY_ATOL,
                 "deterministic fidelity-confidence identity fails")
        _require(F_mc[0] - F_me_val >= -IDENTITY_ATOL,
                 "stage-1 fidelity fell below the deterministic one")
        if fail_defined:
            assembled = (1.0 - p_fail[0]) * F_mc[0] + p_fail[0] * F_fail
            _require(abs(assembled - overall_me_val) <= IDENTITY_ATOL,
                     "single-stage overall fidelity assembly disagrees")
    else:
        p_fail = p_success = cumulative = np.empty(0)
        F_mc = f_mc = np.empty(0)
        useful = ()
        F_fail = None
        overall_me_val = F_me_val
        overall_smc_val = F_me_val

    return ChannelReport(
        D=D,
        N=profile.N,
        d=profile.d,
        M=M,
        F_me=F_me_val,
        f_me=f_me_frac,
        F_clas=F_clas_val,
        F_mc_s=tuple(float(x) for x in F_mc),
        f_mc_s=tuple(float(x) for x in f_mc),
        p_fail=tuple(float(x) for x in p_fail),
        p_success=tuple(float(x) for x in p_success),
        P_smc=tuple(float(x) for x in cumulative),
        useful=useful,
        F_me_after_fail=F_fail,
        overall_me=overall_me_val,
        overall_smc=overall_smc_val,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
