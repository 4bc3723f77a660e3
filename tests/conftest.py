"""Shared generators for randomized tests."""

import numpy as np

from mcteleport import SchmidtChannel, make_channel


def random_channel(rng, D=None, N=None, min_sq=0.01) -> SchmidtChannel:
    """Random channel with squared coefficients bounded away from zero."""
    if D is None:
        D = int(rng.integers(2, 7))
    if N is None:
        N = int(rng.integers(2, D + 1))
    sq = rng.dirichlet(np.ones(N) * 2.0) + min_sq
    sq = sq / sq.sum()
    return make_channel(D, np.sqrt(sq))


def channel_with_multiplicities(rng, D, mults) -> SchmidtChannel:
    """Channel whose coefficient groups have exactly the given multiplicities.

    Group values are separated well beyond any tie tolerance, so the
    recovered profile is unambiguous.
    """
    d = len(mults)
    base = np.sort(rng.uniform(0.5, 1.5, size=d)) + np.arange(d) * 0.25
    sq = np.repeat(base, mults)
    sq = sq / sq.sum()
    return make_channel(D, np.sqrt(sq))


def random_multiplicity_pattern(rng, max_n=10):
    """A random composition (mu_1, ..., mu_d) of a random N >= 2."""
    n = int(rng.integers(2, max_n + 1))
    cuts = [0] + sorted(
        int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False)
    ) + [n]
    return tuple(b - a for a, b in zip(cuts[:-1], cuts[1:]))


class InlinePool:
    """ProcessPoolExecutor stand-in: records each ``max_workers`` in
    ``sizes`` and runs the mapped chunks in this process, so a test of the
    worker count starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        InlinePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)
