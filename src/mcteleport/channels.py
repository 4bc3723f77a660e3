"""Entanglement resource description.

A two-qudit pure channel is stored as its positive Schmidt coefficients,
sorted non-increasing.  The coefficient multiplicity structure (how many
coefficients share each value) controls how many filtering stages the
probabilistic protocol supports, so grouping of nearly equal values is an
explicit, tolerance-controlled step, written only here (``tie_gaps``,
``group_rows`` and ``MultiplicityProfile``) for analytics and simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .qudit import check_index

# Largest accepted dimension: above 2**53, D + 1 is not exact in float64,
# so the closed forms in D would round (and overflow from about 1.8e308).
MAX_D = 2**53

# Coefficients closer than this (as amplitudes) form one multiplicity group.
DEFAULT_TIE_TOL = 1e-9

# Largest accepted tie tolerance.  Grouping snaps values that differ by up
# to this much, so a tolerance near the coefficient gaps would merge
# distinct coefficients and report a wrong multiplicity structure.
MAX_TIE_TOL = 1e-6

# Inputs whose squared coefficients deviate from 1 by less than this are
# silently renormalized; larger deviations are rejected as data errors.
NORMALIZATION_SLACK = 1e-6

# Every probability and weight is built from squared coefficients, and a
# square below the smallest normal float (a coefficient below ~1.5e-154)
# loses its digits or rounds to 0, so such coefficients are rejected.
MIN_SQUARED_COEFF = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class SchmidtChannel:
    """Pure two-qudit channel of local dimension D with rank-N coefficients
    (read-only); compared and hashed by identity, so it can key a cache."""

    D: int
    coeffs: np.ndarray

    @property
    def N(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Groups of equal coefficients, ordered from smallest to largest value.

    ``values[..., j]`` (shape (d,), or (P, d) for P channels) is the
    amplitude shared by ``multiplicities[j]`` coefficients; ``M`` is the
    number of filtering stages that can yield a conclusive outcome: the
    group count, minus one when the largest value is non-degenerate (a
    lone top coefficient leaves nothing to filter).
    """

    values: np.ndarray
    multiplicities: np.ndarray

    @property
    def d(self) -> int:
        return int(self.multiplicities.size)

    @property
    def M(self) -> int:
        return self.d - 1 if int(self.multiplicities[-1]) == 1 else self.d

    @property
    def support(self) -> np.ndarray:
        """``support[k - 1]`` counts the coefficients still alive entering
        stage k: the suffix sums of the multiplicities, a new array."""
        return self.multiplicities[::-1].cumsum()[::-1]


def _validated_coeffs(coeffs, D: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("coefficient list is empty")
    if arr.size > D:
        raise ValueError(f"{arr.size} coefficients exceed the dimension D={D}")
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError(f"coefficients must be finite, got {arr.tolist()}")
    if np.logical_or.reduce(arr <= 0):
        raise ValueError(f"coefficients must be strictly positive, got {arr.tolist()}")
    with np.errstate(over="ignore"):  # a coefficient above ~1.34e154 squares to inf
        sq = arr**2
        total = float(np.add.reduce(sq))
    small = arr[sq < MIN_SQUARED_COEFF]
    if small.size:
        c = float(small[0])
        raise ValueError(
            f"coefficient {c!r} is too small: its square {c * c!r} is below "
            f"the smallest normal float {MIN_SQUARED_COEFF!r}"
        )
    if abs(total - 1.0) > NORMALIZATION_SLACK:
        raise ValueError(
            f"squared coefficients sum to {total:.9g}, more than "
            f"{NORMALIZATION_SLACK:g} away from 1"
        )
    return arr / np.sqrt(total)


def make_channel(D: int, coeffs) -> SchmidtChannel:
    """Validate, sort (non-increasing) and normalize Schmidt coefficients."""
    D = check_index("D", D)
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    if D > MAX_D:
        raise ValueError(f"dimension must be <= {MAX_D}, got {D}")
    arr = _validated_coeffs(coeffs, D)  # a new array, sorted in place
    arr.sort()
    arr = arr[::-1].copy()
    arr.setflags(write=False)
    return SchmidtChannel(D, arr)


def check_tie_tolerance(tie_tolerance: float) -> None:
    """ValueError unless ``tie_tolerance`` is finite and in [0, MAX_TIE_TOL]."""
    if not (isfinite(tie_tolerance) and 0 <= tie_tolerance <= MAX_TIE_TOL):
        raise ValueError(
            f"tie tolerance must be finite and in [0, {MAX_TIE_TOL:g}], "
            f"got {tie_tolerance!r}"
        )


def tie_gaps(amps: np.ndarray, tie_tolerance: float) -> np.ndarray:
    """Where ascending amplitudes (last axis) differ by more than
    ``tie_tolerance``, which must be finite and in [0, MAX_TIE_TOL]."""
    check_tie_tolerance(tie_tolerance)
    return amps[..., 1:] - amps[..., :-1] > tie_tolerance  # np.diff


def group_rows(amps: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group each ascending amplitude row of ``amps`` (P, N), N >= 1, at
    the gaps ``gaps`` (N - 1,) they share: (values (P, d), multiplicities
    (d,)), smallest first.  A value is the root mean square of the group's
    members, which preserves the total squared weight."""
    N = amps.shape[1]
    edges = np.array([0, *(gaps.nonzero()[0] + 1).tolist(), N])
    mults = edges[1:] - edges[:-1]
    # take keeps rows contiguous (a[:, idx] is column-major), so each row
    # sum adds pairwise for any P; a column-major block of P > 1 rows adds
    # left to right, off in the last bit from 8 terms on.
    sq = amps**2
    values = np.sqrt(sq.take(edges[:-1], axis=1))
    for j in (mults > 1).nonzero()[0].tolist():
        a, b = edges[j], edges[j + 1]
        values[:, j] = np.sqrt(np.add.reduce(sq[:, a:b], axis=1) / (b - a))
    return values, mults


@lru_cache(maxsize=1)
def multiplicity_profile(
    ch: SchmidtChannel, tie_tolerance: float = DEFAULT_TIE_TOL
) -> MultiplicityProfile:
    """Group the channel coefficients into equal-value multiplicity sets.

    The last profile built is cached (its arrays are read-only), keyed by
    the channel's identity and the tie tolerance as passed, so callers
    pass both positionally and one verify, report or plan groups its
    channel once; errors are not cached.
    """
    amps = ch.coeffs[None, ::-1]  # ascending, a view
    (values,), mults = group_rows(amps, tie_gaps(amps[0], tie_tolerance))
    values.setflags(write=False)
    mults.setflags(write=False)
    return MultiplicityProfile(values, mults)
