"""Shared generators for randomized tests, and the one ``hypothesis``
profile: every property test draws the same examples on every run."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mcteleport import SchmidtChannel, analytics, engine, make_channel, multiplicity_profile

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_reports():
    """``channel_report``'s one-entry cache, cleared before and after the
    test: a test that patches the evaluator's internals neither reads a
    report built without its patch nor leaves one built with it."""
    analytics.channel_report.cache_clear()
    yield
    analytics.channel_report.cache_clear()


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


def profile_families(ch) -> list[np.ndarray]:
    """The family entering each stage 1..d, from the channel's profile, each
    in its own array: sqrt(a_m^2 - v^2) over the surviving coefficients,
    largest first, normalised, v being the largest group value consumed
    before the stage (0 at stage 1)."""
    profile = multiplicity_profile(ch)
    squares = np.repeat(profile.values, profile.multiplicities)[::-1] ** 2
    consumed = np.concatenate(([0.0], profile.values[:-1] ** 2))
    families = [np.sqrt(squares[:n] - v_sq) for n, v_sq in zip(profile.support, consumed)]
    return [f / np.linalg.norm(f) for f in families]


def random_multiplicity_pattern(rng, max_n=10):
    """A random composition (mu_1, ..., mu_d) of a random N >= 2."""
    n = int(rng.integers(2, max_n + 1))
    cuts = [0] + sorted(
        int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False)
    ) + [n]
    return tuple(b - a for a, b in zip(cuts[:-1], cuts[1:]))


@st.composite
def tied_channels(draw, max_D=8):
    """Channels with D <= ``max_D`` and random groups of exactly or nearly
    (within the default tie tolerance) equal coefficients."""
    D = draw(st.integers(min_value=2, max_value=max_D))
    N = draw(st.integers(min_value=1, max_value=D))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=N - 1))) if N > 1 else ())
    mults = np.diff([0, *cuts, N])
    levels = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                           min_size=mults.size, max_size=mults.size))
    amps = np.sqrt(np.repeat(levels, mults))
    jitter = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=N, max_size=N))
    amps = amps * (1.0 + 1e-12 * np.asarray(jitter))
    return make_channel(D, amps / np.linalg.norm(amps))


class InlinePool:
    """``concurrent.futures.ProcessPoolExecutor`` stand-in, set on that
    module, where ``qudit.map_slices`` imports it from: records each
    ``max_workers`` in ``sizes`` and runs the mapped chunks in this
    process, so a test of the worker count starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        InlinePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def conjugated_tables(table):
    """``engine._tables`` with entry ``table`` (0: F^+, 2: the correction
    phases) conjugated: a fault in a table the kernels share."""
    tables = engine._tables

    def conjugated(D):
        out = list(tables(D))
        out[table] = out[table].conj()
        return tuple(out)

    return conjugated

