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

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .channels import SchmidtChannel, multiplicity_profile
from .qudit import check_allocation, check_index

KIND_DETERMINISTIC = "deterministic-me"
KIND_SMC = "mc-smc"
FALLBACKS = ("discard", "me", "guess")

# Tolerance of the completeness check K_s^2 + K_f^2 = 1 of a Kraus pair.
KRAUS_ATOL = 1e-10


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
        check_index("k_max", self.k_max)
        if self.kind not in (KIND_DETERMINISTIC, KIND_SMC):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.fallback not in FALLBACKS:
            raise ValueError(f"unknown fallback {self.fallback!r}")
        if self.kind == KIND_SMC and self.k_max < 1:
            raise ValueError("k_max must be >= 1 for the staged strategy")


@dataclass(frozen=True, eq=False)
class StagePlan:
    """The full filtering cascade a channel admits.

    Row k - 1 of the read-only (M, D) arrays ``K_s`` and ``K_f`` holds
    stage k's Kraus diagonals and ``p_fail[k - 1]`` its failure
    probability.  The sampler and the oracle read the diagonals, ``plan``
    the failure probabilities.
    """

    K_s: np.ndarray
    K_f: np.ndarray
    p_fail: np.ndarray

    @property
    def M(self) -> int:
        return len(self.K_s)


@lru_cache(maxsize=1)
def build_stage_plan(ch: SchmidtChannel) -> StagePlan:
    """Every filtering stage the channel admits, from one grouping.

    The last plan built is cached (its arrays are read-only), keyed by the
    channel's identity, so the sampler and the oracle calls of one
    ``verify`` share one build; errors are not.

    The family entering stage k is sqrt(a_m^2 - v^2), normalized, over the
    ``support[k - 1]`` largest snapped coefficients, v being the largest
    group value consumed before stage k (0 at stage 1); it is also the
    failure family of stage k - 1.  Every family is a row of one (d, N)
    array, and the plan keeps only the Kraus diagonals, rows of (M, D)
    arrays, and the failure probabilities.
    """
    if ch.N < 2:
        raise ValueError("rank-1 channels admit no discrimination stages")
    profile = multiplicity_profile(ch)
    M, d = profile.M, profile.d
    check_allocation(f"the Kraus diagonals of {M} stage(s) at D={ch.D}", 16 * M * ch.D)

    # Row k - 1 of each array is stage k's; family rows are zero past
    # their support, and K_s is 0 (so K_f is 1) off it.  One norm per
    # family, sqrt(f . f) over its support as np.linalg.norm takes it (a
    # 2-D norm, or a dot over the padded row, would sum in another order).
    squares = profile.values.repeat(profile.multiplicities)[::-1] ** 2
    consumed = np.concatenate(([0.0], profile.values[:-1] ** 2))
    support = profile.support
    alive = np.arange(ch.N) < support[:, None]
    families = np.sqrt(np.where(alive, squares - consumed[:, None], 0.0))
    norms = [sqrt(f[:n].dot(f[:n])) for f, n in zip(families, support.tolist())]
    np.divide(families, np.array(norms)[:, None], out=families, where=alive)
    smallest = families[np.arange(M), support[:M] - 1]
    K_s = np.zeros((M, ch.D))
    np.divide(smallest[:, None], families[:M], out=K_s[:, : ch.N], where=alive[:M])
    K_f = np.sqrt(np.maximum(0.0, 1.0 - K_s**2))
    if np.maximum.reduce(np.abs(K_s**2 + K_f**2 - 1.0), axis=None) > KRAUS_ATOL:
        raise ValueError("generated Kraus pair violates completeness")
    p_fail = 1.0 - support[:M] * smallest**2
    if M == d:
        p_fail[-1] = 0.0  # a terminal stage cannot fail
    for arr in (K_s, K_f, p_fail):
        arr.setflags(write=False)
    return StagePlan(K_s, K_f, p_fail)
