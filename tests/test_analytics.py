import ast
from pathlib import Path

import numpy as np
import pytest

import mcteleport.analytics

from conftest import channel_with_multiplicities, random_channel
from mcteleport import (
    StrategyConfig,
    channel_report,
    confidence_at_stage,
    f_clas,
    f_mc_conclusive,
    f_me,
    f_me_after_fail,
    f_me_after_fail_double_sum,
    make_channel,
    me_correct_probability,
    multiplicity_profile,
    overall_fidelity,
    stage_probabilities,
)

EXAMPLE = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))


def test_f_me_equal_maximal_rank_is_one():
    assert f_me(make_channel(4, np.full(4, 0.5))) == pytest.approx(1.0, abs=1e-12)


def test_f_me_rank_one_equals_classical():
    for D in (2, 3, 4, 5):
        assert f_me(make_channel(D, [1.0])) == pytest.approx(2 / (D + 1), abs=1e-15)


def test_f_me_example_value():
    a = np.sqrt([0.5, 0.3, 0.2])
    assert f_me(EXAMPLE) == pytest.approx((1 + np.sum(a) ** 2) / 5, abs=1e-14)


def test_f_clas_values():
    assert f_clas(4) == pytest.approx(0.4)
    assert f_clas(2) == pytest.approx(2 / 3)
    values = [f_clas(D) for D in range(2, 12)]
    assert all(a > b for a, b in zip(values[:-1], values[1:]))
    with pytest.raises(ValueError):
        f_clas(1)


def test_f_mc_conclusive_stage1():
    assert f_mc_conclusive(EXAMPLE, 1) == pytest.approx(0.8, abs=1e-15)


def test_f_mc_conclusive_stage2():
    # one coefficient consumed at stage 1, so the fidelity drops by 1/5
    assert f_mc_conclusive(EXAMPLE, 2) == pytest.approx(0.6, abs=1e-15)


def test_f_mc_conclusive_final_stage_beats_classical():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ch = random_channel(rng)
        prof = multiplicity_profile(ch)
        value = f_mc_conclusive(ch, prof.M)
        mu = prof.multiplicities
        if mu[-1] == 1:
            expected = (mu[-2] + 2) / (ch.D + 1)
        else:
            expected = (mu[-1] + 1) / (ch.D + 1)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value > f_clas(ch.D)


def test_f_mc_conclusive_out_of_range():
    with pytest.raises(ValueError):
        f_mc_conclusive(EXAMPLE, 3)
    with pytest.raises(ValueError):
        f_mc_conclusive(EXAMPLE, 0)


def test_f_me_after_fail_single_survivor_is_classical():
    ch = make_channel(4, np.sqrt([0.6, 0.2, 0.2]))
    assert f_me_after_fail(ch) == pytest.approx(f_clas(4), abs=1e-12)


def test_f_me_after_fail_substitution_identity():
    from mcteleport import failure_coefficients

    b = failure_coefficients(EXAMPLE.coeffs)
    expected = (1 + np.sum(b) ** 2) / 5
    assert f_me_after_fail(EXAMPLE) == pytest.approx(expected, abs=1e-12)
    assert f_me_after_fail_double_sum(EXAMPLE) == pytest.approx(expected, abs=1e-12)


def test_f_me_after_fail_double_sum_is_finite_under_round_off():
    # Squaring the smallest coefficient two ways lands one ulp below zero
    # under the square root on this channel.
    ch = make_channel(16, [0.653249090107, 0.556478502659, 0.513417278978])
    check = f_me_after_fail_double_sum(ch)
    assert np.isfinite(check)
    assert f_me_after_fail(ch) == pytest.approx(check, abs=1e-12)


def test_analytics_does_not_import_engine():
    tree = ast.parse(Path(mcteleport.analytics.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "engine" for name in imported), imported


def test_f_me_after_fail_below_deterministic():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ch = random_channel(rng)
        if multiplicity_profile(ch).d < 2:
            continue
        assert f_me_after_fail(ch) <= f_me(ch) + 1e-12


def test_f_me_after_fail_rejects_equal_coefficients():
    with pytest.raises(ValueError):
        f_me_after_fail(make_channel(4, np.full(3, 1 / np.sqrt(3))))
    with pytest.raises(ValueError):
        f_me_after_fail_double_sum(make_channel(4, np.full(3, 1 / np.sqrt(3))))


def test_stage_probabilities_first_stage():
    p, total = stage_probabilities(EXAMPLE, 1)
    assert p[-1] == pytest.approx(3 * 0.2, abs=1e-12)
    assert total == pytest.approx(0.6, abs=1e-12)


def test_stage_probabilities_equal_coefficients_certain():
    ch = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    p, total = stage_probabilities(ch, 1)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_stage_probabilities_conserve():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ch = random_channel(rng)
        rep = channel_report(ch)
        for k in range(1, rep.M + 1):
            p, total = stage_probabilities(ch, k)
            residual = np.prod(rep.p_fail[:k])
            assert np.sum(p) + residual == pytest.approx(1.0, abs=1e-12)
            assert total == pytest.approx(np.sum(p), abs=1e-12)


def test_stage_probabilities_out_of_range():
    with pytest.raises(ValueError):
        stage_probabilities(EXAMPLE, 5)


def test_overall_single_stage_me_assembly():
    rep = channel_report(EXAMPLE)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    value = overall_fidelity(EXAMPLE, cfg)
    assembled = (1 - rep.p_fail[0]) * rep.F_mc_s[0] + rep.p_fail[0] * rep.F_me_after_fail
    assert value == pytest.approx(assembled, abs=1e-12)
    # closed form: classical floor + success gain + cross terms
    a_sq = EXAMPLE.coeffs**2
    excess = np.sqrt(a_sq - a_sq[-1])
    cross = np.sum(np.outer(excess, excess)) - np.sum(excess**2)
    direct = f_clas(4) + 3 * a_sq[-1] * 2 / 5 + cross / 5
    assert value == pytest.approx(direct, abs=1e-12)


def test_overall_me_reduces_to_deterministic_for_equal_coeffs():
    ch = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    assert overall_fidelity(ch, cfg) == pytest.approx(f_me(ch), abs=1e-12)


def test_overall_full_cascade_no_residual_when_top_degenerate():
    rng = np.random.default_rng(4)
    ch = channel_with_multiplicities(rng, 6, (1, 1, 2))  # largest group size 2
    rep = channel_report(ch)
    assert rep.M == 3
    cfg = StrategyConfig(kind="mc-smc", k_max=rep.M, fallback="guess")
    expected = float(np.dot(rep.p_success, rep.F_mc_s))
    assert overall_fidelity(ch, cfg) == pytest.approx(expected, abs=1e-12)
    assert rep.P_smc[-1] == pytest.approx(1.0, abs=1e-12)


def test_overall_full_cascade_residual_when_top_unique():
    rng = np.random.default_rng(5)
    ch = channel_with_multiplicities(rng, 6, (2, 1))  # lone largest coefficient
    rep = channel_report(ch)
    cfg = StrategyConfig(kind="mc-smc", k_max=rep.M, fallback="guess")
    expected = float(np.dot(rep.p_success, rep.F_mc_s)) + (
        1 - rep.P_smc[-1]
    ) * f_clas(ch.D)
    assert overall_fidelity(ch, cfg) == pytest.approx(expected, abs=1e-12)


def test_overall_me_and_guess_agree_at_full_depth():
    rng = np.random.default_rng(6)
    for _ in range(30):
        ch = random_channel(rng)
        M = multiplicity_profile(ch).M
        me = overall_fidelity(ch, StrategyConfig(kind="mc-smc", k_max=M, fallback="me"))
        guess = overall_fidelity(
            ch, StrategyConfig(kind="mc-smc", k_max=M, fallback="guess")
        )
        assert me == pytest.approx(guess, abs=1e-12)


def test_overall_discard_is_conditional_on_success():
    rep = channel_report(EXAMPLE)
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="discard")
    expected = float(np.dot(rep.p_success, rep.F_mc_s)) / rep.P_smc[-1]
    assert overall_fidelity(EXAMPLE, cfg) == pytest.approx(expected, abs=1e-12)


def test_overall_ordering_chain_on_random_channels():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ch = random_channel(rng)
        rep = channel_report(ch)
        assert rep.F_me - rep.overall_me >= -1e-12
        assert rep.overall_me - rep.overall_smc >= -1e-12


def test_overall_rejects_unreachable_depth():
    with pytest.raises(ValueError):
        overall_fidelity(EXAMPLE, StrategyConfig(kind="mc-smc", k_max=3, fallback="me"))


def test_report_equal_coefficient_channel():
    rep = channel_report(make_channel(4, np.full(3, 1 / np.sqrt(3))))
    assert rep.M == 1
    assert rep.useful == (False,)
    assert rep.F_me_after_fail is None
    assert rep.F_mc_s[0] == pytest.approx(rep.F_me, abs=1e-12)


def test_report_example_channel():
    rep = channel_report(EXAMPLE)
    assert (rep.D, rep.N, rep.d, rep.M) == (4, 3, 3, 2)
    assert rep.useful == (True, False)
    assert rep.F_mc_s == pytest.approx((0.8, 0.6), abs=1e-12)
    assert rep.F_clas == pytest.approx(0.4)
    assert rep.P_smc[-1] == pytest.approx(0.8, abs=1e-12)


def test_report_probabilities_and_fidelities_in_range():
    rng = np.random.default_rng(8)
    for _ in range(100):
        rep = channel_report(random_channel(rng))
        for p in rep.p_fail + rep.p_success + rep.P_smc:
            assert -1e-12 <= p <= 1 + 1e-12
        fids = (rep.F_me, rep.F_clas, rep.overall_me, rep.overall_smc) + rep.F_mc_s
        for f in fids:
            assert 0 <= f <= 1 + 1e-12


def test_report_singlet_fraction_identities():
    rng = np.random.default_rng(9)
    for _ in range(50):
        ch = random_channel(rng)
        rep = channel_report(ch)
        prof = multiplicity_profile(ch)
        assert (rep.F_me * (ch.D + 1) - 1) / ch.D == pytest.approx(
            me_correct_probability(ch.coeffs, ch.D), abs=1e-12
        )
        for k in range(1, rep.M + 1):
            assert (rep.F_mc_s[k - 1] * (ch.D + 1) - 1) / ch.D == pytest.approx(
                confidence_at_stage(prof, ch.D, k), abs=1e-12
            )


def test_report_useful_flags_match_fidelity_comparison():
    rng = np.random.default_rng(10)
    for _ in range(100):
        ch = random_channel(rng)
        rep = channel_report(ch)
        for k in range(1, rep.M + 1):
            gap = rep.F_mc_s[k - 1] - rep.F_me
            if rep.useful[k - 1]:
                assert gap > 0
            else:
                assert gap <= 1e-12


def test_report_stage1_dominates_deterministic():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rep = channel_report(random_channel(rng))
        assert rep.F_mc_s[0] >= rep.F_me - 1e-12


def test_report_useful_flags_agree_with_stage_plan():
    from mcteleport import build_stage_plan

    rng = np.random.default_rng(12)
    for _ in range(50):
        ch = random_channel(rng)
        assert channel_report(ch).useful == build_stage_plan(ch).useful_flags
