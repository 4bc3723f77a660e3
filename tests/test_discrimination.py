import numpy as np
import pytest
from hypothesis import example, given

import reference_circuit as ref
from conftest import profile_families, random_channel, tied_channels
from mcteleport import build_stage_plan, channel_report, make_channel, multiplicity_profile

EXAMPLE = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))


def _me_outcomes(nu):
    """Minimum-error readout of a family member: |F^+ nu|^2."""
    return np.abs(ref.dft(nu.size).conj().T @ nu) ** 2


def test_me_orthogonal_family_identified_perfectly():
    D = 4
    family = ref.family_states(np.full(D, 0.5), D)
    for l, nu in enumerate(family):
        probs = _me_outcomes(nu)
        assert probs[l] == pytest.approx(1.0, abs=1e-12)


def test_me_seed_outcome_probability():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    D = 4
    probs = _me_outcomes(ref.family_states(coeffs, D)[0])
    assert probs[0] == pytest.approx(np.sum(coeffs) ** 2 / D, abs=1e-12)


def test_me_distribution_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ch = random_channel(rng, D=5)
        for nu in ref.family_states(ch.coeffs, ch.D):
            assert _me_outcomes(nu).sum() == pytest.approx(
                1.0, abs=1e-12
            )


def test_me_correct_probability_cases():
    # The readout names member 0 with probability (sum_m a_m)^2 / D.
    for coeffs, D, want in ((np.full(4, 0.5), 4, 1.0), ([1.0], 5, 1 / 5)):
        assert _me_outcomes(ref.family_states(coeffs, D)[0])[0] == pytest.approx(want, abs=1e-12)


def test_me_confidence_matches_outcome_distribution():
    # the measurement's correct-outcome weight equals the closed form
    rng = np.random.default_rng(6)
    for _ in range(5):
        ch = random_channel(rng)
        family = ref.family_states(ch.coeffs, ch.D)
        for l in (0, ch.D - 1):
            probs = _me_outcomes(family[l])
            assert probs[l] == pytest.approx(np.sum(ch.coeffs) ** 2 / ch.D, abs=1e-12)


def _failed_family(plan, ch, k):
    """The family k failed stages leave: the plan's K_f rows 1..k applied to
    the coefficients, normalised, over the coefficients they keep."""
    f = np.prod(plan.K_f[:k, :ch.N], axis=0) * ch.coeffs
    f = f[f > 0]
    return f / np.linalg.norm(f)


def test_failure_coefficients_tied_minimum():
    ch = make_channel(4, np.sqrt([0.6, 0.2, 0.2]))
    np.testing.assert_allclose(_failed_family(build_stage_plan(ch), ch, 1), [1.0], atol=1e-12)


def test_failure_coefficients_normalized():
    # A failed first stage leaves the profile's stage-2 family.
    rng = np.random.default_rng(7)
    for _ in range(20):
        ch = random_channel(rng, D=6, N=4)
        prof = multiplicity_profile(ch)
        if prof.d < 2:
            continue
        out = _failed_family(build_stage_plan(ch), ch, 1)
        assert out.size == ch.N - prof.multiplicities[0]
        assert np.all(np.diff(out) <= 0)
        np.testing.assert_allclose(out, profile_families(ch)[1], rtol=0, atol=1e-12)


def test_confidence_at_stage_values():
    assert channel_report(EXAMPLE).f_mc_s == (3 / 4, 2 / 4)


def test_confidence_all_equal_single_stage():
    assert channel_report(make_channel(4, np.full(3, 1 / np.sqrt(3)))).f_mc_s == (3 / 4,)


def test_confidence_decreases_by_consumed_multiplicity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ch = random_channel(rng, D=6, N=5)
        prof, f_mc = multiplicity_profile(ch), channel_report(ch).f_mc_s
        for k in range(1, prof.M):
            drop = f_mc[k - 1] - f_mc[k]
            assert drop == pytest.approx(prof.multiplicities[k - 1] / ch.D, abs=1e-15)


def test_me_equals_stage1_confidence_only_for_equal_coeffs():
    equal = channel_report(make_channel(4, np.full(3, 1 / np.sqrt(3))))
    assert equal.f_me == pytest.approx(equal.f_mc_s[0], abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(10):
        ch = random_channel(rng, D=5, N=3)
        if multiplicity_profile(ch).d == 1:
            continue
        rep = channel_report(ch)
        assert rep.f_me < rep.f_mc_s[0]


def test_build_stage_plan_equal_coefficients():
    ch = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    plan = build_stage_plan(ch)
    # One terminal stage: it cannot fail and leaves no failure family.
    assert plan.M == multiplicity_profile(ch).d == 1
    assert plan.p_fail[0] == 0.0
    assert channel_report(ch).useful == (False,)


def test_build_stage_plan_example_channel():
    plan = build_stage_plan(EXAMPLE)
    assert plan.M == 2
    # second stage beats the deterministic protocol iff 2 > (sum a)^2,
    # which is false for this channel
    assert channel_report(EXAMPLE).useful == (True, False)
    # Stage 1 of sqrt[.5, .3, .2]: K_s = a_min / a on the support, p_fail =
    # 1 - 3 a_min^2 = 0.4, and a failure leaves the family sqrt[.75, .25].
    np.testing.assert_allclose(plan.K_s[0], [*(EXAMPLE.coeffs[2] / EXAMPLE.coeffs), 0.0],
                               rtol=0, atol=1e-14)
    assert plan.K_f[0, 3] == 1.0
    assert plan.p_fail[0] == pytest.approx(0.4, abs=1e-12)
    np.testing.assert_allclose(_failed_family(plan, EXAMPLE, 1), np.sqrt([0.75, 0.25]),
                               rtol=0, atol=1e-12)


def test_build_stage_plan_rejects_rank_one():
    with pytest.raises(ValueError):
        build_stage_plan(make_channel(4, [1.0]))


def _search_stage2_useful_channel():
    # scan dominant-coefficient channels for one whose second stage still
    # beats the deterministic protocol: 2 > (a0 + a1 + a2)^2
    for a0_sq in np.linspace(0.85, 0.98, 40):
        rest = 1 - a0_sq
        a1_sq, a2_sq = 0.6 * rest, 0.4 * rest
        a = np.sqrt([a0_sq, a1_sq, a2_sq])
        if np.sum(a) ** 2 < 2 and len(np.unique(np.round(a, 12))) == 3:
            return make_channel(4, a)
    raise AssertionError("no witness channel found on the scan grid")


def test_build_stage_plan_useful_second_stage_witness():
    ch = _search_stage2_useful_channel()
    plan = build_stage_plan(ch)
    assert plan.M == 2
    assert channel_report(ch).useful == (True, True)


def test_stage_chain_matches_sequential_filtering():
    # applying the failure operator to the family reproduces the next
    # stage's family, stage by stage
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 50:
        ch = random_channel(rng, D=int(rng.integers(4, 8)))
        plan = build_stage_plan(ch)
        if plan.M < 2:
            continue
        checked += 1
        families = profile_families(ch)
        family = ref.family_states(ch.coeffs, ch.D)
        for k in range(1, plan.M):
            next_family = ref.family_states(families[k], ch.D)
            for l, nu in enumerate(family):
                vec = plan.K_f[k - 1] * nu
                vec = vec / np.linalg.norm(vec)
                assert abs(np.vdot(next_family[l], vec)) >= 1 - 1e-9
            family = next_family


def test_chained_failure_probability_second_stage():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = random_channel(rng, D=6, N=4)
        plan = build_stage_plan(ch)
        if plan.M < 2:
            continue
        b = _failed_family(plan, ch, 1)
        expected = 1 - b.size * b[-1] ** 2
        assert plan.p_fail[1] == pytest.approx(expected, abs=1e-12)


def test_generated_stages_satisfy_completeness():
    rng = np.random.default_rng(12)
    for _ in range(200):
        ch = random_channel(rng)
        plan = build_stage_plan(ch)
        for K_s, K_f in zip(plan.K_s, plan.K_f):
            gram = np.diag(K_s).conj().T @ np.diag(K_s) + np.diag(K_f).conj().T @ np.diag(K_f)
            np.testing.assert_allclose(gram, np.eye(ch.D), atol=1e-10)


def test_build_stage_plan_groups_the_coefficients_once(monkeypatch):
    import mcteleport.channels

    calls = []
    group = mcteleport.channels.group_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return group(*args, **kwargs)

    monkeypatch.setattr(mcteleport.channels, "group_rows", counted)
    weights = np.linspace(2.0, 1.0, 32)
    plan = build_stage_plan(make_channel(32, np.sqrt(weights / weights.sum())))
    assert plan.M == 31
    assert len(calls) == 1


STAGE_ROWS = ("K_s", "K_f", "p_fail")  # row k - 1 is stage k's


def test_stage_arrays_are_read_only():
    # A cached plan is shared by every later caller: no write may reach it.
    for plan in (build_stage_plan(EXAMPLE),
                 build_stage_plan(make_channel(3, np.full(3, 1 / np.sqrt(3))))):
        for name in STAGE_ROWS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name)[...] = 9


def test_cached_plan_is_only_reused_for_its_channel_and_tie_tolerance():
    a = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
    b = make_channel(4, np.sqrt([0.6, 0.3, 0.1]))
    # Two amplitudes 5e-8 apart: distinct at tie tolerance 1e-9, one group at 1e-7.
    c = make_channel(4, np.array([0.8, 0.4 + 5e-8, 0.4]) / np.linalg.norm([0.8, 0.4, 0.4]))
    rank1 = make_channel(4, [1.0])
    uncached = build_stage_plan.__wrapped__
    assert (uncached(c, 1e-9).M, uncached(c, 1e-7).M) == (2, 1)
    assert a == a and a != make_channel(4, a.coeffs)
    for ch, tie in [(a, 1e-9), (b, 1e-9), (a, 1e-9), (b, 1e-9),
                    (c, 1e-9), (c, 1e-7), (c, 1e-9), (c, 1e-9)]:
        got, want = build_stage_plan(ch, tie), uncached(ch, tie)
        assert got.M == want.M
        for name in STAGE_ROWS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for _ in range(2):
            with pytest.raises(ValueError, match="rank-1"):
                build_stage_plan(rank1, tie)


def _per_stage_plan(ch, tie_tolerance=1e-9):
    """``build_stage_plan``'s rows built one stage at a time, each from its
    own family array: each stage's (K_s, K_f, p_fail).  The reference for
    the array build."""
    profile = multiplicity_profile(ch, tie_tolerance)
    stages = []
    for k, f in enumerate(profile_families(ch, tie_tolerance)[:profile.M], 1):
        K_s = np.zeros(ch.D)
        K_s[:f.size] = f[-1] / f
        K_f = np.sqrt(np.maximum(0.0, 1.0 - K_s**2))
        stages.append((K_s, K_f, 0.0 if k == profile.d else 1.0 - f.size * f[-1] ** 2))
    return stages


@given(tied_channels(max_D=40).filter(lambda ch: ch.N > 1))
@example(make_channel(6, np.sqrt([0.5, 0.2, 0.2, 0.1])))  # lone top
@example(make_channel(5, np.full(4, 0.5)))  # one group: a terminal stage
@example(make_channel(40, np.sqrt(np.linspace(2.0, 1.0, 40) / 60.0)))  # 39 stages
def test_array_plan_equals_the_per_stage_build_bit_for_bit(ch):
    plan = build_stage_plan.__wrapped__(ch, 1e-9)
    stages = _per_stage_plan(ch)
    assert plan.M == len(stages) == multiplicity_profile(ch).M
    for name in STAGE_ROWS:
        array = getattr(plan, name)
        assert array.dtype == np.float64 and not array.flags.writeable
    for k, want in enumerate(stages):
        for name, value in zip(STAGE_ROWS, want):
            got = np.asarray(getattr(plan, name)[k])
            assert got.tobytes() == np.asarray(value, float).tobytes(), name
