import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_circuit as ref
import mcteleport
from conftest import channel_with_multiplicities, random_channel
from mcteleport import make_channel, multiplicity_profile
from mcteleport.analytics import report_blocks
from mcteleport.channels import DEFAULT_TIE_TOL, group_rows, tie_gaps


def _channel_state(ch):
    """sum_m a_m |m>|m>, flattened: the reference register after the
    controlled shift of the input |0>, summed over the input axis."""
    return ref.post_shift(ch.coeffs, np.eye(ch.D)[0]).sum(axis=2).ravel()


def test_make_channel_rank3_example():
    ch = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
    assert ch.N == 3
    assert ch.D == 4
    np.testing.assert_allclose(np.sum(ch.coeffs**2), 1.0, atol=1e-12)
    assert np.all(np.diff(ch.coeffs) <= 0)


def test_make_channel_sorts_unordered_input():
    ch = make_channel(4, np.sqrt([0.2, 0.5, 0.3]))
    np.testing.assert_allclose(ch.coeffs, np.sqrt([0.5, 0.3, 0.2]))


def test_make_channel_qubit_bell():
    ch = make_channel(2, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert ch.N == 2
    np.testing.assert_allclose(
        _channel_state(ch), [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]
    )


def test_make_channel_rejections():
    with pytest.raises(ValueError):
        make_channel(3, [0.9, -0.1])
    with pytest.raises(ValueError):
        make_channel(2, [0.5, 0.5, 0.5])  # too many coefficients
    with pytest.raises(ValueError):
        make_channel(3, [0.9, 0.1])  # squared sum far from 1
    with pytest.raises(ValueError):
        make_channel(3, [])


@pytest.mark.parametrize("tie_tolerance", [
    None, "1e-9", 1j, 10**400, np.array(1e-9), float("nan"), float("inf"), -1e-9, 2e-6,
], ids=["none", "str", "complex", "huge-int", "array", "nan", "inf", "negative", "large"])
@pytest.mark.parametrize("route", ["make_channel", "report_blocks"])
def test_bad_tie_tolerance_is_a_value_error(route, tie_tolerance):
    # None, a string and a complex once raised TypeError, and 10**400
    # OverflowError, from the range check.
    message = f"tie tolerance must be finite and in [0, 1e-06], got {tie_tolerance!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if route == "make_channel":
            make_channel(4, np.sqrt([0.5, 0.3, 0.2]), tie_tolerance)
        else:
            report_blocks(4, [[0.5, 0.3, 0.2]], tie_tolerance)


def test_only_make_channel_takes_a_tie_tolerance():
    # The channel owns its tie tolerance (the SchmidtChannel field that
    # make_channel fills), so no route can group one channel two ways.
    takers = set()
    for name in mcteleport.__all__:
        obj = getattr(mcteleport, name)
        members = [obj] if callable(obj) else []
        if inspect.isclass(obj):
            members += [fn for _, fn in inspect.getmembers(obj, inspect.isfunction)]
        for fn in members:
            if any(param.startswith("tie_") for param in inspect.signature(fn).parameters):
                takers.add(name)
    assert sorted(takers) == ["SchmidtChannel", "make_channel"]


def test_make_channel_silent_renormalization():
    eps = 1e-8
    ch = make_channel(2, [np.sqrt(0.5 + eps), np.sqrt(0.5)])
    np.testing.assert_allclose(np.sum(ch.coeffs**2), 1.0, atol=1e-14)


def test_channel_state_rank1_is_product():
    state = _channel_state(make_channel(3, [1.0]))
    expected = np.zeros(9)
    expected[0] = 1.0
    np.testing.assert_allclose(state, expected)


def test_channel_state_norm():
    state = _channel_state(make_channel(4, np.sqrt([0.5, 0.3, 0.2])))
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_profile_all_equal():
    ch = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    prof = multiplicity_profile(ch)
    assert prof.d == 1
    assert tuple(prof.multiplicities) == (3,)
    assert prof.M == 1


def test_profile_all_distinct():
    ch = make_channel(5, np.sqrt([0.4, 0.3, 0.2, 0.1]))
    prof = multiplicity_profile(ch)
    assert prof.d == 4
    assert prof.M == 3


def test_profile_example_grouping():
    prof = multiplicity_profile(make_channel(4, np.sqrt([0.5, 0.3, 0.2])))
    assert prof.d == 3
    assert tuple(prof.multiplicities) == (1, 1, 1)
    assert prof.M == 2
    np.testing.assert_allclose(prof.values, np.sqrt([0.2, 0.3, 0.5]), atol=1e-12)


def test_profile_ties_grouped_with_tolerance():
    a = np.sqrt([0.6, 0.2, 0.2])
    prof = multiplicity_profile(make_channel(4, a))
    assert prof.d == 2
    assert tuple(prof.multiplicities) == (2, 1)
    assert prof.M == 1  # lone largest coefficient


def test_profile_near_ties_respect_tolerance():
    # One set of coefficients, one channel object per tolerance, each
    # grouped at its own tolerance whatever the cached profile holds.
    sq = np.array([0.5, 0.25 + 1e-12, 0.25 - 1e-12])
    loose, tight, looser = (make_channel(4, np.sqrt(sq), tie_tolerance=tol)
                            for tol in (1e-9, 1e-14, 1e-7))
    for ch, d in [(loose, 2), (tight, 3), (loose, 2), (looser, 2), (tight, 3)]:
        assert multiplicity_profile(ch).d == d


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10_000))
def test_profile_multiplicities_sum_to_rank(seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng)
    prof = multiplicity_profile(ch)
    assert prof.multiplicities.sum() == ch.N
    assert np.all(prof.multiplicities >= 1)
    assert np.all(np.diff(prof.values) > 0)
    assert 1 <= prof.M <= ch.N - 1


def test_profile_stage_count_extremes():
    rng = np.random.default_rng(99)
    equal = make_channel(5, np.full(4, 0.5))
    assert multiplicity_profile(equal).M == 1
    distinct = channel_with_multiplicities(rng, 6, (1, 1, 1, 1))
    assert multiplicity_profile(distinct).M == 3


def test_symmetric_family_seed_member():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    family = ref.family_states(coeffs, 4)
    assert len(family) == 4
    np.testing.assert_allclose(family[0, :3], coeffs, atol=1e-15)
    np.testing.assert_allclose(family[0, 3], 0.0)


def test_symmetric_family_phase_shift_closure():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    D = 4
    family = ref.family_states(coeffs, D)
    for l in range(1, D):
        shifted = ref.correct(family[l - 1], 0, 1)  # Z
        assert ref.fidelity(shifted, family[l]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(shifted, family[l], atol=1e-12)
    wrapped = ref.correct(family[D - 1], 0, 1)
    np.testing.assert_allclose(wrapped, family[0], atol=1e-12)


def test_symmetric_family_equal_maximal_rank_is_fourier_basis():
    D = 4
    family = ref.family_states(np.full(D, 1 / np.sqrt(D)), D)
    for l in range(D):
        target = ref.dft(D) @ np.eye(D)[l]
        np.testing.assert_allclose(family[l], target, atol=1e-12)


def test_symmetric_family_pairwise_overlaps():
    rng = np.random.default_rng(21)
    for _ in range(10):
        ch = random_channel(rng, D=5)
        family = ref.family_states(ch.coeffs, ch.D)
        a_sq = np.zeros(ch.D)
        a_sq[: ch.N] = ch.coeffs**2
        for l in range(ch.D):
            assert np.linalg.norm(family[l]) == pytest.approx(1.0, abs=1e-12)
            for lp in range(ch.D):
                direct = np.sum(
                    a_sq * np.exp(2j * np.pi * np.arange(ch.D) * (lp - l) / ch.D)
                )
                overlap = np.vdot(family[l], family[lp])
                np.testing.assert_allclose(overlap, direct, atol=1e-12)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(min_value=1, max_value=10_000),
                       st.integers(min_value=1, max_value=20)),
             min_size=1, max_size=6, unique_by=lambda t: t[0]),
    st.randoms(use_true_random=False),
)
def test_group_values_are_rms_of_members(groups, rnd):
    # Levels at least 1e-4 apart; members within 2e-10 of their level.
    members = [[1e-4 * level + 1e-11 * rnd.randint(-10, 10) for _ in range(mult)]
               for level, mult in groups]
    coeffs = [c for group in members for c in group]
    rnd.shuffle(coeffs)
    arr = np.sort(coeffs)
    (values,), mults = group_rows(arr[None], tie_gaps(arr, DEFAULT_TIE_TOL))
    expected = sorted(members, key=min)
    assert mults.tolist() == [len(group) for group in expected]
    for value, group in zip(values, expected):
        assert value == np.sqrt(np.mean(np.sort(group) ** 2))


def _group_by_list_of_means(coeffs, tie_tolerance):
    """Reference: one ``np.mean`` per group, singletons included."""
    arr = np.sort(np.asarray(coeffs, dtype=float).ravel())
    cuts = (np.flatnonzero(np.diff(arr) > tie_tolerance) + 1).tolist()
    edges = [0, *cuts, arr.size]
    sq = arr**2
    values = [np.sqrt(np.mean(sq[a:b])) for a, b in zip(edges, edges[1:])]
    return np.asarray(values, dtype=float), np.diff(edges)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1.0),
                       st.integers(min_value=1, max_value=8)),
             min_size=1, max_size=12),
    st.sampled_from([0.0, 1e-12, 1e-10, 5e-10]),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    st.randoms(use_true_random=False),
)
def test_group_rows_equals_list_of_means_bit_for_bit(levels, spread, tol, rnd):
    coeffs = [level + spread * rnd.uniform(-1, 1)
              for level, mult in levels for _ in range(mult)]
    rnd.shuffle(coeffs)
    arr = np.sort(coeffs)
    (values,), mults = group_rows(arr[None], tie_gaps(arr, tol))
    ref_values, ref_mults = _group_by_list_of_means(coeffs, tol)
    assert values.dtype == ref_values.dtype and mults.dtype == ref_mults.dtype
    assert values.tobytes() == ref_values.tobytes()
    assert mults.tolist() == ref_mults.tolist()
