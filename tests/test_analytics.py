import ast
import re
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

import mcteleport.analytics

from conftest import channel_with_multiplicities, profile_families, random_channel, tied_channels
from reference_closed_forms import reference_report
from mcteleport import (
    DEFAULT_TIE_TOL,
    StrategyConfig,
    channel_report,
    f_clas,
    f_mc_conclusive,
    f_me,
    f_me_after_fail,
    make_channel,
    multiplicity_profile,
    overall_fidelity,
    stage_probabilities,
)
from mcteleport.channels import MAX_D
from mcteleport.cli import main

EXAMPLE = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))


def _double_sum(ch):
    """The double-sum form of ``F_me_after_fail`` that ``analytics`` checks
    the single-sum form against."""
    profile = multiplicity_profile(ch)
    (check,), _ = mcteleport.analytics._f_me_after_fail_double_sums(
        profile.values[None], profile.multiplicities, ch.D)
    return float(check)


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
    # 2.0 / (D + 1) once raised OverflowError at D = 10**400.
    assert f_clas(MAX_D) == pytest.approx(2 / MAX_D)
    for D in (MAX_D + 1, 10**400):
        with pytest.raises(ValueError, match=f"dimension must be <= {MAX_D}"):
            f_clas(D)


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
    b = profile_families(EXAMPLE)[1]
    expected = (1 + np.sum(b) ** 2) / 5
    assert f_me_after_fail(EXAMPLE) == pytest.approx(expected, abs=1e-12)
    assert _double_sum(EXAMPLE) == pytest.approx(expected, abs=1e-12)


def test_f_me_after_fail_double_sum_is_finite_under_round_off():
    # Squaring the smallest coefficient two ways lands one ulp below zero
    # under the square root on this channel.
    ch = make_channel(16, [0.653249090107, 0.556478502659, 0.513417278978])
    check = _double_sum(ch)
    assert np.isfinite(check)
    assert f_me_after_fail(ch) == pytest.approx(check, abs=1e-12)


def test_f_me_after_fail_double_sum_smallest_group_has_no_excess():
    # Squaring the smallest coefficient as a scalar lands one ulp above the
    # array square here; its square root would add cross terms of ~1e-9.
    ch = make_channel(11, [0.41176194562886004] * 5 + [0.37253032376315864]
                      + [0.08210255336040086] * 2)
    assert channel_report(ch).F_me_after_fail == f_me_after_fail(ch)
    assert f_me_after_fail(ch) == pytest.approx(_double_sum(ch), abs=1e-12)


def test_analytics_does_not_import_engine():
    tree = ast.parse(Path(mcteleport.analytics.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "engine" for name in imported), imported


def test_the_tie_decision_has_one_owner(monkeypatch):
    # A mutant grouping that merges the two smallest groups reaches the
    # one-channel report, the stage plan and every sweep block alike.
    from mcteleport import build_stage_plan, channels

    group = channels.group_rows

    def merged(amps, gaps):
        gaps = gaps.copy()
        gaps[gaps.argmax()] = False  # the first cut
        return group(amps, gaps)

    points = np.array([[0.5, 0.3, 0.2], [0.6, 0.3, 0.1]])
    ch = make_channel(4, np.sqrt(points[0]))
    assert (channel_report(ch).d, channel_report(ch).M) == (3, 2)
    monkeypatch.setattr(channels, "group_rows", merged)
    try:
        ch = make_channel(4, np.sqrt(points[0]))  # a new key for every cache
        rep = channel_report(ch)
        assert (rep.d, rep.M, build_stage_plan(ch).M) == (2, 1, 1)
        blocks, _ = mcteleport.analytics.report_blocks(4, points)
        assert [(b.d, b.M, b.rows.tolist()) for b in blocks] == [(2, 1, [0, 1])]
    finally:
        for cached in (multiplicity_profile, build_stage_plan, channel_report):
            cached.cache_clear()


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
            np.sum(ch.coeffs) ** 2 / ch.D, abs=1e-12
        )
        for k in range(1, rep.M + 1):
            assert (rep.F_mc_s[k - 1] * (ch.D + 1) - 1) / ch.D == pytest.approx(
                prof.support[k - 1] / ch.D, abs=1e-12
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


# Every field of a report must lie within IDENTITY_ATOL of the 60-digit
# reference, except three that divide a rounding error by a small
# probability.  Each of those is bounded by IDENTITY_ATOL plus C ulps
# (2^-52) times its condition number:
#   * p_fail[k] is conditional on reaching stage k, so the rounding of the
#     stage's success probability is divided by the mass q reaching it: 1/q;
#   * the minimum-error completion after stage k (F_me_after_fail at k = 1,
#     the ``me`` fallback's overall values) normalises its family by the
#     failure mass p_f, and the square root of the family's smallest
#     excess g = v_{k+1}^2 - v_k^2 magnifies that excess's rounding:
#     1/p_f + 1/sqrt(p_f g).
# The worst multiples seen over 3,000 tied channels (D <= 32) at each of
# the three tolerances were 1.95 (p_fail), 0.27 (F_me_after_fail) and
# 0.014 (overall, me), all at tolerance 0; at 1e-9 and 1e-7 every field
# was within IDENTITY_ATOL.
ERROR_C = 8
ULP = Decimal(2) ** -52
ATOL = Decimal(mcteleport.analytics.IDENTITY_ATOL)


def _reference_checks(ch):
    """(name, value, 60-digit reference, bound) of every report field and
    of ``overall_fidelity`` at every k_max and fallback."""
    rep, ref = channel_report(ch), reference_report(ch)
    mass, gap = ref["failure_mass"], ref["gap"]

    def family_bound(k):
        return ATOL + ERROR_C * ULP * (1 / mass[k] + 1 / (mass[k] * gap[k]).sqrt())

    checks = [(name, getattr(rep, name), ref[name], ATOL)
              for name in ("F_me", "f_me", "F_clas", "overall_smc")]
    for name in ("F_mc_s", "f_mc_s", "p_success", "P_smc", "p_fail"):
        checks += [(f"{name}[{k}]", got, want,
                    ATOL + ERROR_C * ULP / mass[k - 1] if name == "p_fail" else ATOL)
                   for k, (got, want) in enumerate(zip(getattr(rep, name), ref[name]), 1)]
    if rep.d >= 2:
        checks += [("F_me_after_fail", rep.F_me_after_fail, ref["F_me_after_fail"],
                    family_bound(1)),
                   ("overall_me", rep.overall_me, ref["overall_me"], family_bound(1))]
    else:
        checks.append(("overall_me", rep.overall_me, ref["overall_me"], ATOL))
    for (k, fallback), want in ref["overall"].items():
        got = overall_fidelity(ch, StrategyConfig("mc-smc", k, fallback))
        bound = family_bound(k) if fallback == "me" and k < rep.d else ATOL
        checks.append((f"overall({k}, {fallback})", got, want, bound))
    return rep, ref, checks


# Two chains of 16 amplitudes 8.9e-8 apart: 32 groups at tie tolerances 0
# and 1e-9, two groups 1.3e-6 wide at 1e-7, whose root mean squares exceed
# their means by ~5e-13 each (tied_channels' groups are 6e-12 wide, where
# the two differ by ~1e-24).
_CHAINS = np.concatenate((0.1 + 8e-8 * np.arange(16), 0.2 + 8e-8 * np.arange(16)))
WIDE_GROUPS = make_channel(32, _CHAINS / np.linalg.norm(_CHAINS))


# D up to 32, so groups of 8 or more coefficients occur; at tie tolerance 0
# the near ties of tied_channels are groups of their own.
@settings(max_examples=400)
@given(tied_channels(max_D=32))
@example(WIDE_GROUPS)
def test_report_fields_are_within_their_bounds_of_the_60_digit_reference(ch):
    for tol in (DEFAULT_TIE_TOL, 0.0, 1e-7):
        # The same coefficient bits, grouped at each tolerance.
        rep, ref, checks = _reference_checks(replace(ch, tie_tolerance=tol))
        assert (rep.D, rep.N, rep.d, rep.M) == (ref["D"], ref["N"], ref["d"], ref["M"])
        assert (rep.F_me_after_fail is None) == (ref["F_me_after_fail"] is None)
        assert len(ref["overall"]) == 3 * rep.M
        for name, got, want, bound in checks:
            assert abs(Decimal(got) - want) <= bound, (name, tol, got, str(want), str(bound))
        # A flag may flip only where the margin lies within rounding of its threshold.
        threshold = Decimal(mcteleport.analytics.USEFUL_MARGIN)
        for k, (got, want, margin) in enumerate(zip(rep.useful, ref["useful"],
                                                    ref["useful_margin"]), 1):
            assert got == want or abs(margin - threshold) <= ATOL, (k, tol)


def test_channel_report_fields_are_the_report_block_fields_but_rows():
    # channel_report is the one-row ReportBlock read back field by field.
    report = [f.name for f in fields(mcteleport.analytics.ChannelReport)]
    block = [f.name for f in fields(mcteleport.analytics.ReportBlock)]
    assert report == [name for name in block if name != "rows"]


# Two smallest coefficients ~1e-12 apart: p_fail = 1 - N a_min^2 loses most
# of its digits, and 1/p_fail magnifies the normalisation residual that
# separates the two F_me_after_fail forms (here to ~1e-5).  At tie
# tolerance 0 the two are groups of their own.
NEAR_TIE = make_channel(7, [0.7071067811869012, 0.707106781186194], tie_tolerance=0.0)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: F_me_after_fail divides by p_fail = 1 - N a_min^2, not by the "
    "failure family's own squared norm, and reads 0.2500208 against an exact 0.25"))
def test_near_tie_at_zero_tolerance_is_within_identity_atol_of_the_reference():
    _, _, checks = _reference_checks(NEAR_TIE)
    assert all(abs(Decimal(got) - want) <= ATOL for _, got, want, _ in checks)


def test_f_me_after_fail_forms_agree_on_a_near_tie_at_zero_tolerance():
    assert channel_report(NEAR_TIE).F_me_after_fail == f_me_after_fail(NEAR_TIE)
    assert _double_sum(NEAR_TIE) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.usefixtures("fresh_reports")
def test_corrupted_failure_form_still_fails_the_scalar_check(monkeypatch, capsys):
    forms = mcteleport.analytics._f_me_after_fail_double_sums
    monkeypatch.setattr(mcteleport.analytics, "_f_me_after_fail_double_sums",
                        lambda *args: (forms(*args)[0] + 1e-9, forms(*args)[1]))
    message = (r"failure-fidelity forms disagree: [0-9.]+ vs [0-9.]+ "
               r"at point \[0\.19999999999999998, 0\.29999999999999993, 0\.5000000000000001\]")
    for evaluate in (channel_report, f_me_after_fail):
        with pytest.raises(AssertionError, match=f"^{message}$"):
            evaluate(EXAMPLE)
    assert main(["report", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: internal cross-check failed: {message}\n", err)
