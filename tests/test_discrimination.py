import numpy as np
import pytest
from hypothesis import example, given

import reference_circuit as ref
from conftest import plan_stages, random_channel, tied_channels
from mcteleport import (
    build_stage_plan,
    confidence_at_stage,
    failure_coefficients,
    make_channel,
    mc_stage,
    me_correct_probability,
    multiplicity_profile,
    symmetric_family,
)
from mcteleport.discrimination import _filter_stage


def _me_outcomes(nu):
    """Minimum-error readout of a family member: |F^+ nu|^2."""
    return np.abs(ref.dft(nu.dims[0]).conj().T @ nu.amplitudes) ** 2


def test_me_orthogonal_family_identified_perfectly():
    D = 4
    family = symmetric_family(np.full(D, 0.5), D)
    for l, nu in enumerate(family):
        probs = _me_outcomes(nu)
        assert probs[l] == pytest.approx(1.0, abs=1e-12)


def test_me_seed_outcome_probability():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    D = 4
    probs = _me_outcomes(symmetric_family(coeffs, D)[0])
    assert probs[0] == pytest.approx(np.sum(coeffs) ** 2 / D, abs=1e-12)


def test_me_distribution_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ch = random_channel(rng, D=5)
        for nu in symmetric_family(ch.coeffs, ch.D):
            assert _me_outcomes(nu).sum() == pytest.approx(
                1.0, abs=1e-12
            )


def test_me_correct_probability_cases():
    assert me_correct_probability(np.full(4, 0.5), 4) == pytest.approx(1.0)
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    assert me_correct_probability(coeffs, 4) == pytest.approx(
        np.sum(coeffs) ** 2 / 4, abs=1e-15
    )
    assert me_correct_probability([1.0], 5) == pytest.approx(1 / 5)


def test_me_confidence_matches_outcome_distribution():
    # the measurement's correct-outcome weight equals the closed form
    rng = np.random.default_rng(6)
    for _ in range(5):
        ch = random_channel(rng)
        family = symmetric_family(ch.coeffs, ch.D)
        for l in (0, ch.D - 1):
            probs = _me_outcomes(family[l])
            assert probs[l] == pytest.approx(
                me_correct_probability(ch.coeffs, ch.D), abs=1e-12
            )


def test_mc_stage_example_failure_probability():
    stage = mc_stage(np.sqrt([0.5, 0.3, 0.2]), 4)
    assert stage.p_fail == pytest.approx(1 - 3 * 0.2, abs=1e-12)
    assert not stage.terminal
    np.testing.assert_allclose(stage.success_coeffs, np.full(3, 1 / np.sqrt(3)))


def test_mc_stage_equal_coefficients_terminal():
    stage = mc_stage(np.full(3, 1 / np.sqrt(3)), 4)
    assert stage.terminal
    assert stage.p_fail == 0.0
    assert stage.failure_coeffs.size == 0


def test_mc_stage_rejects_singleton_support():
    with pytest.raises(ValueError):
        mc_stage([1.0], 4)


def test_mc_stage_rejects_unsorted():
    with pytest.raises(ValueError):
        mc_stage(np.sqrt([0.2, 0.5, 0.3]), 4)


def test_mc_stage_kraus_diagonals():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    stage = mc_stage(coeffs, 4)
    ks = stage.K_s
    kf = stage.K_f
    np.testing.assert_allclose(ks[:3], coeffs[2] / coeffs, atol=1e-14)
    np.testing.assert_allclose(ks[3], 0.0)
    np.testing.assert_allclose(kf[3], 1.0)
    np.testing.assert_allclose(np.abs(ks) ** 2 + np.abs(kf) ** 2, 1.0, atol=1e-12)


def test_failure_coefficients_worked_example():
    out = failure_coefficients(np.sqrt([0.5, 0.3, 0.2]))
    np.testing.assert_allclose(out, np.sqrt([0.3 / 0.4, 0.1 / 0.4]), atol=1e-12)


def test_failure_coefficients_tied_minimum():
    out = failure_coefficients(np.sqrt([0.6, 0.2, 0.2]))
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_failure_coefficients_normalized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ch = random_channel(rng, D=6, N=4)
        prof = multiplicity_profile(ch)
        if prof.d < 2:
            continue
        out = failure_coefficients(ch.coeffs)
        assert np.sum(out**2) == pytest.approx(1.0, abs=1e-12)
        assert out.size == ch.N - prof.multiplicities[0]
        assert np.all(np.diff(out) <= 0)


def test_failure_coefficients_reject_equal():
    with pytest.raises(ValueError):
        failure_coefficients(np.full(4, 0.5))


def test_confidence_at_stage_values():
    prof = multiplicity_profile(make_channel(4, np.sqrt([0.5, 0.3, 0.2])))
    assert confidence_at_stage(prof, 4, 1) == pytest.approx(3 / 4)
    assert confidence_at_stage(prof, 4, 2) == pytest.approx(2 / 4)
    with pytest.raises(ValueError):
        confidence_at_stage(prof, 4, 3)


def test_confidence_all_equal_single_stage():
    prof = multiplicity_profile(make_channel(4, np.full(3, 1 / np.sqrt(3))))
    assert confidence_at_stage(prof, 4, 1) == pytest.approx(3 / 4)


def test_confidence_decreases_by_consumed_multiplicity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ch = random_channel(rng, D=6, N=5)
        prof = multiplicity_profile(ch)
        for k in range(1, prof.M):
            drop = confidence_at_stage(prof, ch.D, k) - confidence_at_stage(
                prof, ch.D, k + 1
            )
            assert drop == pytest.approx(prof.multiplicities[k - 1] / ch.D, abs=1e-15)


def test_me_equals_stage1_confidence_only_for_equal_coeffs():
    equal = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    prof = multiplicity_profile(equal)
    assert me_correct_probability(equal.coeffs, 4) == pytest.approx(
        confidence_at_stage(prof, 4, 1), abs=1e-12
    )
    rng = np.random.default_rng(9)
    for _ in range(10):
        ch = random_channel(rng, D=5, N=3)
        prof = multiplicity_profile(ch)
        if prof.d == 1:
            continue
        assert me_correct_probability(ch.coeffs, ch.D) < confidence_at_stage(
            prof, ch.D, 1
        )


def test_build_stage_plan_equal_coefficients():
    plan = build_stage_plan(make_channel(4, np.full(3, 1 / np.sqrt(3))))
    assert plan.M == 1
    stage, = plan_stages(plan)
    assert stage.terminal
    assert stage.p_fail == 0.0
    assert plan.useful_flags == (False,)


def test_build_stage_plan_example_channel():
    ch = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
    plan = build_stage_plan(ch)
    assert plan.M == 2
    # second stage beats the deterministic protocol iff 2 > (sum a)^2,
    # which is false for this channel
    assert plan.useful_flags == (True, False)
    first, second = plan_stages(plan)
    np.testing.assert_allclose(second.input_coeffs, first.failure_coeffs)


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
    assert plan.useful_flags == (True, True)


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
        family = symmetric_family(ch.coeffs, ch.D)
        stages = plan_stages(plan)
        for stage, nxt in zip(stages[:-1], stages[1:]):
            next_family = symmetric_family(nxt.input_coeffs, ch.D)
            new_family = []
            for l, nu in enumerate(family):
                vec = np.diag(stage.K_f) @ nu.amplitudes
                vec = vec / np.linalg.norm(vec)
                overlap = abs(np.vdot(next_family[l].amplitudes, vec))
                assert overlap >= 1 - 1e-9
                new_family.append(next_family[l])
            family = new_family


def test_chained_failure_probability_second_stage():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = random_channel(rng, D=6, N=4)
        plan = build_stage_plan(ch)
        if plan.M < 2:
            continue
        prof = multiplicity_profile(ch)
        stages = plan_stages(plan)
        b = stages[0].failure_coeffs
        expected = 1 - (ch.N - prof.multiplicities[0]) * b[-1] ** 2
        assert stages[1].p_fail == pytest.approx(expected, abs=1e-12)


def test_generated_stages_satisfy_completeness():
    rng = np.random.default_rng(12)
    for _ in range(200):
        ch = random_channel(rng)
        for stage in plan_stages(build_stage_plan(ch)):
            gram = (
                np.diag(stage.K_s).conj().T @ np.diag(stage.K_s)
                + np.diag(stage.K_f).conj().T @ np.diag(stage.K_f)
            )
            np.testing.assert_allclose(gram, np.eye(ch.D), atol=1e-10)


def _single_stage_chain(ch):
    """The cascade rebuilt one stage at a time from ``mc_stage`` and
    ``failure_coefficients``, regrouping the family at every stage."""
    stages, coeffs = [], ch.coeffs
    while coeffs.size >= 2:
        stage = mc_stage(coeffs, ch.D, len(stages) + 1)
        stages.append(stage)
        if stage.terminal:
            break
        coeffs = stage.failure_coeffs
    return stages


def _tied_channel(rng, D):
    """Random groups of equal coefficients, each perturbed within the
    default tie tolerance."""
    N = int(rng.integers(2, D + 1))
    d = int(rng.integers(1, N + 1))
    cuts = np.sort(rng.choice(np.arange(1, N), size=d - 1, replace=False))
    mults = np.diff(np.concatenate(([0], cuts, [N])))
    levels = np.sort(rng.uniform(0.05, 1.0, size=d))[::-1]
    amps = np.sqrt(np.repeat(levels, mults))
    amps = amps * (1.0 + rng.integers(-3, 4, size=N) * 1e-12)
    return make_channel(D, amps / np.linalg.norm(amps))


def test_stage_plan_equals_single_stage_chain():
    rng = np.random.default_rng(16)
    for D in [2, 3, 4, 5, 8] * 8 + [16, 24, 32] * 5:
        ch = _tied_channel(rng, D)
        plan = build_stage_plan(ch)
        chain = _single_stage_chain(ch)
        assert plan.M == len(chain)
        for got, want in zip(plan_stages(plan), chain):
            assert got.stage_index == want.stage_index
            assert got.terminal == want.terminal
            np.testing.assert_allclose(got.K_s, want.K_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.K_f, want.K_f, rtol=0, atol=1e-12)
            assert abs(got.p_fail - want.p_fail) <= 1e-12
            np.testing.assert_allclose(got.failure_coeffs, want.failure_coeffs, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.success_coeffs, want.success_coeffs)
            # the chain keeps its stage-1 input as given, before snapping
            np.testing.assert_allclose(got.input_coeffs, want.input_coeffs, rtol=0, atol=1e-9)


def test_build_stage_plan_groups_the_coefficients_once(monkeypatch):
    import mcteleport.channels
    import mcteleport.discrimination

    calls = []
    group = mcteleport.channels.group_coefficients

    def counted(*args, **kwargs):
        calls.append(1)
        return group(*args, **kwargs)

    monkeypatch.setattr(mcteleport.channels, "group_coefficients", counted)
    monkeypatch.setattr(mcteleport.discrimination, "group_coefficients", counted)
    weights = np.linspace(2.0, 1.0, 32)
    plan = build_stage_plan(make_channel(32, np.sqrt(weights / weights.sum())))
    assert plan.M == 31
    assert len(calls) == 1


STAGE_ARRAYS = ("input_coeffs", "K_s", "K_f", "success_coeffs", "failure_coeffs")


def test_stage_arrays_are_read_only():
    # A cached plan is shared by every later caller, and the family row of
    # stage k + 1 is stage k's failure family: no write may reach them.
    for plan in (build_stage_plan(make_channel(4, np.sqrt([0.5, 0.3, 0.2]))),
                 build_stage_plan(make_channel(3, np.full(3, 1 / np.sqrt(3))))):
        for name in ("K_s", "K_f", "p_fail", "families"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name)[...] = 9.0
    stage = mc_stage(np.sqrt([0.5, 0.3, 0.2]), 4)
    for name in STAGE_ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(stage, name)[...] = 9.0


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
        assert (got.M, got.useful_flags) == (want.M, want.useful_flags)
        for g, w in zip(plan_stages(got), plan_stages(want)):
            assert (g.stage_index, g.p_fail, g.terminal) == (w.stage_index, w.p_fail, w.terminal)
            for name in STAGE_ARRAYS:
                np.testing.assert_array_equal(getattr(g, name), getattr(w, name))
        for _ in range(2):
            with pytest.raises(ValueError, match="rank-1"):
                build_stage_plan(rank1, tie)


def _per_stage_plan(ch, tie_tolerance=1e-9):
    """``build_stage_plan``'s stages built one ``_filter_stage`` call at a
    time, each from its own family array: the reference for the array
    build."""
    profile = multiplicity_profile(ch, tie_tolerance)
    squares = np.repeat(profile.values, profile.multiplicities)[::-1] ** 2
    consumed = np.concatenate(([0.0], profile.values[:-1] ** 2))
    families = [np.sqrt(squares[:n] - v_sq) for n, v_sq in zip(profile.support, consumed)]
    families = [f / np.linalg.norm(f) for f in families] + [np.empty(0)]
    return [_filter_stage(k, families[k - 1], families[k - 1], ch.D, k == profile.d, families[k])
            for k in range(1, profile.M + 1)]


@given(tied_channels(max_D=40).filter(lambda ch: ch.N > 1))
@example(make_channel(6, np.sqrt([0.5, 0.2, 0.2, 0.1])))  # lone top
@example(make_channel(5, np.full(4, 0.5)))  # one group: a terminal stage
@example(make_channel(40, np.sqrt(np.linspace(2.0, 1.0, 40) / 60.0)))  # 39 stages
def test_array_plan_equals_the_per_stage_build_bit_for_bit(ch):
    stages = plan_stages(build_stage_plan.__wrapped__(ch, 1e-9))
    want = _per_stage_plan(ch)
    assert len(stages) == len(want) == multiplicity_profile(ch).M
    for got, ref in zip(stages, want):
        assert (got.stage_index, got.terminal) == (ref.stage_index, ref.terminal)
        assert np.float64(got.p_fail).tobytes() == np.float64(ref.p_fail).tobytes()
        for name in STAGE_ARRAYS:
            array = getattr(got, name)
            assert not array.flags.writeable
            assert array.dtype == getattr(ref, name).dtype
            assert array.tobytes() == getattr(ref, name).tobytes(), name
    for stage, nxt in zip(stages, stages[1:]):
        np.testing.assert_array_equal(stage.failure_coeffs, nxt.input_coeffs)
