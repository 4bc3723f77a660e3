"""Measurements that discriminate equally likely phase-shifted states.

Three strategies over the family Z^l sum_k a_k |k> (l = 0..D-1):

* minimum-error: rotate by the inverse Fourier transform and read out in
  the computational basis; best possible deterministic guess.
* maximum-confidence filtering: a two-outcome Kraus pair whose success
  branch maps the family onto the uniform-coefficient family (from which
  the minimum-error readout attains the best achievable confidence), with
  the smallest possible failure probability.
* sequential filtering: the failure branch yields a smaller family of the
  same form, so stages can be chained until no structure remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_TIE_TOL,
    SchmidtChannel,
    MultiplicityProfile,
    group_coefficients,
    multiplicity_profile,
    snap_to_groups,
)
from .qudit import KRAUS_ATOL, DenseOperator, QuditState, fourier

KIND_DETERMINISTIC = "deterministic-me"
KIND_SMC = "mc-smc"
FALLBACKS = ("discard", "me", "guess")

# Strict margin for "stage k beats the deterministic protocol" comparisons;
# keeps exactly-equal coefficient sets on the not-useful side of the fence.
USEFUL_MARGIN = 1e-12


@dataclass(frozen=True)
class StrategyConfig:
    """What the two parties agree to run.

    ``deterministic-me`` ignores ``k_max`` and ``fallback``.  For
    ``mc-smc``, up to ``k_max`` filtering stages are attempted; after the
    last inconclusive outcome the ``fallback`` applies:

    * ``me``: finish anyway with the minimum-error completion.
    * ``guess``: both of the sender's systems are read out in the
      computational basis and the receiver keeps the basis state left
      behind, shifted by the classically known index; equivalent to a
      measure-and-reprepare of the input, average fidelity 2/(D+1).
    * ``discard``: abort, no output state.
    """

    kind: str = KIND_SMC
    k_max: int = 1
    fallback: str = "me"

    def __post_init__(self):
        if self.kind not in (KIND_DETERMINISTIC, KIND_SMC):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.fallback not in FALLBACKS:
            raise ValueError(f"unknown fallback {self.fallback!r}")
        if self.kind == KIND_SMC and self.k_max < 1:
            raise ValueError("k_max must be >= 1 for the staged strategy")


@dataclass(frozen=True)
class MeMeasurement:
    """Minimum-error readout: a basis rotation followed by a projective
    computational-basis measurement."""

    dim: int
    prerotation: DenseOperator
    followed_by: str = "computational"

    def outcome_distribution(self, state: QuditState) -> np.ndarray:
        if state.dims != (self.dim,):
            raise ValueError(f"expected a single qudit of dimension {self.dim}")
        rotated = self.prerotation.entries @ state.amplitudes
        return np.abs(rotated) ** 2


def me_measurement(D: int) -> MeMeasurement:
    """Optimal minimum-error measurement for the equally likely family.

    Valid whether the family is linearly independent or not.
    """
    return MeMeasurement(D, fourier(D).dagger())


def me_correct_probability(coeffs, D: int) -> float:
    """Probability of naming the family member right, (sum_m a_m)^2 / D.

    Equals both the minimum-error confidence and the singlet fraction of
    the deterministic protocol.
    """
    arr = np.asarray(coeffs, dtype=float).ravel()
    if np.any(arr <= 0):
        raise ValueError("coefficients must be strictly positive")
    return float(np.sum(arr) ** 2 / D)


@dataclass(frozen=True)
class McStage:
    """One two-outcome filtering stage over a coefficient list.

    ``K_s``/``K_f`` hold the diagonals (real, length D, read-only) of the
    two diagonal Kraus operators; ``np.diag(K_s)`` is the matrix.  Success
    rescales every surviving amplitude to the smallest one, failure keeps
    the excess.  Indices outside the current support get 0 in ``K_s`` and
    1 in ``K_f`` so the pair is complete on the whole space.  A
    ``terminal`` stage has all input coefficients equal: it cannot fail
    and ends the chain.
    """

    stage_index: int
    input_coeffs: np.ndarray
    K_s: np.ndarray
    K_f: np.ndarray
    p_fail: float
    success_coeffs: np.ndarray
    failure_coeffs: np.ndarray
    terminal: bool = False


@dataclass(frozen=True)
class StagePlan:
    """The full filtering cascade a channel admits, plus usefulness flags."""

    channel: SchmidtChannel
    profile: MultiplicityProfile
    stages: tuple[McStage, ...]
    useful_flags: tuple[bool, ...]

    @property
    def M(self) -> int:
        return len(self.stages)


def _check_sorted_positive(arr: np.ndarray, n_min: int) -> None:
    if arr.size < n_min:
        raise ValueError(f"need at least {n_min} coefficients, got {arr.size}")
    if np.any(arr <= 0):
        raise ValueError("coefficients must be strictly positive")
    if np.any(np.diff(arr) > 0):
        # The diagonal Kraus construction assumes the family occupies a
        # basis prefix, which holds only for non-increasing coefficients.
        raise ValueError("coefficients must be sorted non-increasing")


def failure_coefficients(coeffs, tie_tolerance: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Coefficients of the family left behind by a failed filter.

    For input values a_k with minimum a_min of multiplicity mu, the
    survivors are sqrt((a_k^2 - a_min^2) / p_fail) for the n - mu larger
    coefficients, returned sorted non-increasing and normalized.
    """
    arr = np.asarray(coeffs, dtype=float).ravel()
    _check_sorted_positive(arr, 2)
    arr = arr / np.linalg.norm(arr)
    values, mults = group_coefficients(arr, tie_tolerance)
    if values.size < 2:
        raise ValueError("all coefficients are equal: the failure branch is empty")
    n = arr.size
    v_min_sq = values[0] ** 2
    p_fail = 1.0 - n * v_min_sq
    out = []
    for v, mu in zip(values[1:][::-1], mults[1:][::-1]):  # largest first
        out.extend([np.sqrt((v**2 - v_min_sq) / p_fail)] * int(mu))
    out = np.asarray(out)
    return out / np.linalg.norm(out)


def mc_stage(
    input_coeffs, D: int, k: int = 1, tie_tolerance: float = DEFAULT_TIE_TOL
) -> McStage:
    """Build the maximum-confidence filtering stage for a coefficient list.

    Coefficients must be sorted non-increasing and there must be at least
    two of them (a single survivor admits no informative measurement).
    Nearly tied values are snapped to their group representative first so
    the operators treat them as exactly degenerate.
    """
    arr = np.asarray(input_coeffs, dtype=float).ravel()
    _check_sorted_positive(arr, 2)
    if arr.size > D:
        raise ValueError(f"{arr.size} coefficients exceed the dimension D={D}")
    arr = arr / np.linalg.norm(arr)
    snapped = snap_to_groups(arr, tie_tolerance)
    n = arr.size
    a_min = snapped[-1]

    ratios = a_min / snapped
    K_s = np.zeros(D)
    K_s[:n] = ratios
    K_f = np.ones(D)
    K_f[:n] = np.sqrt(np.maximum(0.0, 1.0 - ratios**2))
    if np.max(np.abs(K_s**2 + K_f**2 - 1.0)) > KRAUS_ATOL:
        raise ValueError("generated Kraus pair violates completeness")
    K_s.setflags(write=False)
    K_f.setflags(write=False)

    terminal = bool(np.all(snapped == a_min))
    p_fail = 0.0 if terminal else float(1.0 - n * a_min**2)
    fail = (
        np.empty(0)
        if terminal
        else failure_coefficients(snapped, tie_tolerance)
    )
    return McStage(
        stage_index=k,
        input_coeffs=arr,
        K_s=K_s,
        K_f=K_f,
        p_fail=p_fail,
        success_coeffs=np.full(n, 1.0 / np.sqrt(n)),
        failure_coeffs=fail,
        terminal=terminal,
    )


def confidence_at_stage(profile: MultiplicityProfile, D: int, k: int) -> float:
    """Confidence of a conclusive outcome at stage k: (surviving count)/D."""
    if not 1 <= k <= profile.M:
        raise ValueError(f"stage {k} out of range 1..{profile.M}")
    return profile.support_size(k) / D


def build_stage_plan(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> StagePlan:
    """Chain filtering stages until the family carries no more structure.

    Stage k is flagged useful when a conclusive outcome there beats the
    deterministic protocol, i.e. when the surviving coefficient count
    exceeds (sum_m a_m)^2 strictly.
    """
    if ch.N < 2:
        raise ValueError("rank-1 channels admit no discrimination stages")
    profile = multiplicity_profile(ch, tie_tolerance)
    sum_a = float(np.sum(profile.values * profile.multiplicities))

    stages: list[McStage] = []
    useful: list[bool] = []
    coeffs = ch.coeffs
    k = 1
    while coeffs.size >= 2:
        stage = mc_stage(coeffs, ch.D, k, tie_tolerance)
        stages.append(stage)
        useful.append(profile.support_size(k) - sum_a**2 > USEFUL_MARGIN)
        if stage.terminal:
            break
        coeffs = stage.failure_coeffs
        k += 1

    if len(stages) != profile.M:
        raise AssertionError(
            f"stage chain length {len(stages)} disagrees with profile M={profile.M}"
        )
    return StagePlan(ch, profile, tuple(stages), tuple(useful))
