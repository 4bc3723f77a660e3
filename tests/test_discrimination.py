import numpy as np
import pytest

from conftest import random_channel
from mcteleport import (
    build_stage_plan,
    confidence_at_stage,
    failure_coefficients,
    make_channel,
    mc_stage,
    me_correct_probability,
    me_measurement,
    multiplicity_profile,
    symmetric_family,
)


def test_me_orthogonal_family_identified_perfectly():
    D = 4
    meas = me_measurement(D)
    family = symmetric_family(np.full(D, 0.5), D)
    for l, nu in enumerate(family):
        probs = meas.outcome_distribution(nu)
        assert probs[l] == pytest.approx(1.0, abs=1e-12)


def test_me_seed_outcome_probability():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    D = 4
    meas = me_measurement(D)
    probs = meas.outcome_distribution(symmetric_family(coeffs, D)[0])
    assert probs[0] == pytest.approx(np.sum(coeffs) ** 2 / D, abs=1e-12)


def test_me_distribution_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ch = random_channel(rng, D=5)
        meas = me_measurement(ch.D)
        for nu in symmetric_family(ch.coeffs, ch.D):
            assert meas.outcome_distribution(nu).sum() == pytest.approx(
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
        meas = me_measurement(ch.D)
        family = symmetric_family(ch.coeffs, ch.D)
        for l in (0, ch.D - 1):
            probs = meas.outcome_distribution(family[l])
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
    assert plan.stages[0].terminal
    assert plan.stages[0].p_fail == 0.0
    assert plan.useful_flags == (False,)


def test_build_stage_plan_example_channel():
    ch = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
    plan = build_stage_plan(ch)
    assert plan.M == 2
    # second stage beats the deterministic protocol iff 2 > (sum a)^2,
    # which is false for this channel
    assert plan.useful_flags == (True, False)
    np.testing.assert_allclose(
        plan.stages[1].input_coeffs, plan.stages[0].failure_coeffs
    )


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
        for stage, nxt in zip(plan.stages[:-1], plan.stages[1:]):
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
        b = plan.stages[0].failure_coeffs
        expected = 1 - (ch.N - prof.multiplicities[0]) * b[-1] ** 2
        assert plan.stages[1].p_fail == pytest.approx(expected, abs=1e-12)


def test_generated_stages_satisfy_completeness():
    rng = np.random.default_rng(12)
    for _ in range(200):
        ch = random_channel(rng)
        for stage in build_stage_plan(ch).stages:
            gram = (
                np.diag(stage.K_s).conj().T @ np.diag(stage.K_s)
                + np.diag(stage.K_f).conj().T @ np.diag(stage.K_f)
            )
            np.testing.assert_allclose(gram, np.eye(ch.D), atol=1e-10)
