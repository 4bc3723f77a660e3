"""Entanglement resource description.

A two-qudit pure channel is stored as its positive Schmidt coefficients,
sorted non-increasing.  The coefficient multiplicity structure (how many
coefficients share each value) controls how many filtering stages the
probabilistic protocol supports, so grouping of nearly equal values is an
explicit, tolerance-controlled step shared by analytics and simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .qudit import QuditState, pauli_z_power

# Coefficients closer than this (as amplitudes) form one multiplicity group.
DEFAULT_TIE_TOL = 1e-9

# Largest accepted tie tolerance.  Grouping snaps values that differ by up
# to this much, so a tolerance near the coefficient gaps would merge
# distinct coefficients and report a wrong multiplicity structure.
MAX_TIE_TOL = 1e-6

# Inputs whose squared coefficients deviate from 1 by less than this are
# silently renormalized; larger deviations are rejected as data errors.
NORMALIZATION_SLACK = 1e-6


@dataclass(frozen=True)
class SchmidtChannel:
    """Pure two-qudit channel of local dimension D with rank-N coefficients."""

    D: int
    coeffs: np.ndarray

    @property
    def N(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Groups of equal coefficients, ordered from smallest to largest value.

    ``values[j]`` is the amplitude shared by ``multiplicities[j]``
    coefficients; ``M`` is the number of filtering stages that can yield a
    conclusive outcome: the group count, minus one when the largest value
    is non-degenerate (a lone top coefficient leaves nothing to filter).
    """

    values: np.ndarray
    multiplicities: np.ndarray

    @property
    def d(self) -> int:
        return int(self.values.size)

    @property
    def N(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def M(self) -> int:
        return self.d - 1 if int(self.multiplicities[-1]) == 1 else self.d

    def support_size(self, k: int) -> int:
        """Number of coefficients still alive entering stage k (1-based)."""
        return int(self.multiplicities[k - 1 :].sum())


def _validated_coeffs(coeffs, D: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("coefficient list is empty")
    if arr.size > D:
        raise ValueError(f"{arr.size} coefficients exceed the dimension D={D}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"coefficients must be finite, got {arr.tolist()}")
    if np.any(arr <= 0):
        raise ValueError(f"coefficients must be strictly positive, got {arr.tolist()}")
    total = float(np.sum(arr**2))
    if abs(total - 1.0) > NORMALIZATION_SLACK:
        raise ValueError(
            f"squared coefficients sum to {total:.9g}, more than "
            f"{NORMALIZATION_SLACK:g} away from 1"
        )
    return arr / np.sqrt(total)


def make_channel(D: int, coeffs) -> SchmidtChannel:
    """Validate, sort (non-increasing) and normalize Schmidt coefficients."""
    if int(D) < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    arr = _validated_coeffs(coeffs, int(D))
    arr = np.sort(arr)[::-1].copy()
    arr.setflags(write=False)
    return SchmidtChannel(int(D), arr)


def channel_state(ch: SchmidtChannel) -> QuditState:
    """The shared two-qudit state, sum_m a_m |m>|m>, as a register state."""
    amps = np.zeros(ch.D * ch.D, dtype=complex)
    idx = np.arange(ch.N)
    amps[idx * ch.D + idx] = ch.coeffs
    return QuditState((ch.D, ch.D), amps)


def group_coefficients(coeffs, tie_tolerance: float = DEFAULT_TIE_TOL):
    """Cluster coefficients that are equal within ``tie_tolerance``.

    Returns (values, multiplicities) ordered smallest to largest.  Linkage
    is by consecutive gap on the sorted list; each group's representative
    value is the root mean square of its members, which preserves the
    total squared weight exactly.  ``tie_tolerance`` must be finite and in
    [0, MAX_TIE_TOL].
    """
    if not (isfinite(tie_tolerance) and 0 <= tie_tolerance <= MAX_TIE_TOL):
        raise ValueError(
            f"tie tolerance must be finite and in [0, {MAX_TIE_TOL:g}], "
            f"got {tie_tolerance!r}"
        )
    arr = np.sort(np.asarray(coeffs, dtype=float).ravel())
    values = []
    mults = []
    start = 0
    for i in range(1, arr.size + 1):
        if i == arr.size or arr[i] - arr[i - 1] > tie_tolerance:
            members = arr[start:i]
            values.append(float(np.sqrt(np.mean(members**2))))
            mults.append(len(members))
            start = i
    return np.asarray(values), np.asarray(mults, dtype=int)


def snap_to_groups(coeffs, tie_tolerance: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Replace each coefficient by its group representative, keeping order.

    Exactly tied inputs are returned unchanged; nearly tied ones are made
    exactly equal so that downstream filtering treats them as one group.
    """
    arr = np.asarray(coeffs, dtype=float).ravel()
    values, mults = group_coefficients(arr, tie_tolerance)
    order = np.argsort(arr)
    snapped = np.empty_like(arr)
    snapped[order] = np.repeat(values, mults)
    return snapped


def multiplicity_profile(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> MultiplicityProfile:
    """Group the channel coefficients into equal-value multiplicity sets."""
    values, mults = group_coefficients(ch.coeffs, tie_tolerance)
    values.setflags(write=False)
    mults.setflags(write=False)
    return MultiplicityProfile(values, mults)


def symmetric_family(coeffs, D: int) -> list[QuditState]:
    """The D phase-shifted single-qudit states generated by a coefficient list.

    Member l is Z^l applied to sum_k a_k |k>, with the coefficients placed
    on the first len(coeffs) basis states in the order given.
    """
    arr = _validated_coeffs(coeffs, int(D))
    seed = np.zeros(D, dtype=complex)
    seed[: arr.size] = arr
    z = np.diag(pauli_z_power(D, 1).entries)
    family = []
    phases = np.ones(D, dtype=complex)
    for _ in range(D):
        family.append(QuditState((D,), seed * phases))
        phases = phases * z
    return family
