"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them inline)."""

import time

import numpy as np
import pytest

import reference_circuit as ref
from conftest import (
    channel_with_multiplicities,
    profile_families,
    random_channel,
    random_multiplicity_pattern,
)
from mcteleport import (
    StrategyConfig,
    build_stage_plan,
    channel_report,
    exact_average_fidelity,
    f_clas,
    make_channel,
    monte_carlo,
    multiplicity_profile,
)
from mcteleport import engine
from mcteleport.cli import SweepSpec, main, sweep_points

DET = StrategyConfig(kind="deterministic-me")


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def grid_reports():
    """Channel reports over the standard 101x101 ququart rank-3 grid."""
    spec = SweepSpec(D=4, N=3, resolution=101, quantities=("F_me",), out=None)
    points, _ = sweep_points(spec)
    reports = []
    for squared in points:
        ch = make_channel(4, np.sqrt(squared))
        reports.append((squared, channel_report(ch)))
    return reports


def test_criterion_1_stage1_fidelity_constancy():
    start = time.time()
    rng = np.random.default_rng(2024)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="discard")
    worst_oracle = 0.0
    worst_pull = 0.0
    for _ in range(20):
        ch = random_channel(rng, D=4, N=3, min_sq=0.03)
        oracle = exact_average_fidelity(ch, cfg, "stage1")
        worst_oracle = max(worst_oracle, abs(oracle - 0.8))
        stats = monte_carlo(ch, cfg, 100_000, seed=int(rng.integers(1 << 30)),
                            workers=4)
        err = stats.stderr_fidelity[0]
        pull = abs(stats.mean_fidelity[0] - 0.8) / err
        worst_pull = max(worst_pull, pull)
    elapsed = time.time() - start
    ok = worst_oracle < 1e-9 and worst_pull < 4 and elapsed < 300
    _verdict(
        1, ok,
        f"stage-1 conclusive fidelity 0.8 on 20 random D=4 N=3 channels "
        f"(oracle dev {worst_oracle:.2e}, worst MC pull {worst_pull:.2f} sigma, "
        f"{elapsed:.0f}s)",
    )


def test_criterion_2_classical_bound_for_separable_channels():
    worst = 0.0
    for D in (2, 3, 4, 5):
        value = exact_average_fidelity(make_channel(D, [1.0]), DET)
        worst = max(worst, abs(value - 2 / (D + 1)))
    _verdict(2, worst < 1e-9,
             f"rank-1 deterministic fidelity equals 2/(D+1) (dev {worst:.2e})")


def test_criterion_3_deterministic_formula_on_random_channels():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        ch = random_channel(rng, D=int(rng.integers(2, 7)))
        rep = channel_report(ch)
        worst = max(worst, abs(exact_average_fidelity(ch, DET) - rep.F_me))
    _verdict(3, worst < 1e-9,
             f"deterministic oracle matches closed form on 50 channels "
             f"(dev {worst:.2e})")


def test_criterion_4_perfect_conclusive_limit():
    ch = make_channel(3, np.sqrt([0.5, 0.3, 0.2]))
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="discard")
    stats = monte_carlo(ch, cfg, 100_000, seed=41)
    # The same 100,000 trials' fidelities, group by group.
    groups = range(-(-stats.trials // engine.group_size(ch.D)))
    runner = engine.ProtocolRunner(ch, cfg)
    replay = engine._replay_draw(runner, 41)[1]
    ends, fids, _ = engine._run_blocks(runner, 41, stats.trials, replay, groups)
    np.testing.assert_array_equal(np.bincount(ends), stats.counts)
    min_fid = fids[ends == 0].min()
    p = 3 * 0.2
    sigma = np.sqrt(p * (1 - p) / stats.trials)
    freq_ok = abs(stats.probabilities[0] - p) < 4 * sigma
    ok = min_fid >= 1 - 1e-10 and freq_ok
    _verdict(
        4, ok,
        f"full-rank conclusive runs faithful (min fidelity {min_fid:.12f}), "
        f"success frequency {stats.probabilities[0]:.4f} vs {p}",
    )


def test_criterion_5_sequential_filter_recursion():
    rng = np.random.default_rng(5)
    checked = 0
    worst = 1.0
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
                vec /= np.linalg.norm(vec)
                worst = min(worst, abs(np.vdot(next_family[l], vec)))
            family = next_family
    _verdict(5, worst >= 1 - 1e-9,
             f"failure-branch recursion over 50 channels (worst overlap {worst:.12f})")


def test_criterion_6_stage_count_law():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(10_000):
        mults = random_multiplicity_pattern(rng)
        n = sum(mults)
        ch = channel_with_multiplicities(rng, n + int(rng.integers(0, 4)), mults)
        prof = multiplicity_profile(ch)
        expected_m = prof.d - (1 if prof.multiplicities[-1] == 1 else 0)
        ok &= tuple(prof.multiplicities) == tuple(mults)
        ok &= prof.M == expected_m
        ok &= 1 <= prof.M <= n - 1
        ok &= ch.N == n
        if not ok:
            break
    _verdict(6, ok, "stage-count law over 10^4 random multiplicity patterns")


def test_criterion_7_overall_fidelity_chain(grid_reports):
    start = time.time()
    worst_first = worst_second = np.inf
    strict_ok = True
    for squared, rep in grid_reports:
        worst_first = min(worst_first, rep.F_me - rep.overall_me)
        worst_second = min(worst_second, rep.overall_me - rep.overall_smc)
        if max(squared) - min(squared) > 1e-9:  # off the equal-coefficient locus
            strict_ok &= rep.F_me - rep.overall_me > 0
    equal = channel_report(make_channel(4, np.full(3, np.sqrt(1 / 3))))
    equality_ok = abs(equal.F_me - equal.overall_me) <= 1e-12
    elapsed = time.time() - start
    ok = (worst_first >= -1e-12 and worst_second >= -1e-12 and strict_ok
          and equality_ok and elapsed < 60)
    _verdict(
        7, ok,
        f"fidelity chain on {len(grid_reports)} grid points (slacks "
        f"{worst_first:.2e}/{worst_second:.2e}, equal-locus gap "
        f"{abs(equal.F_me - equal.overall_me):.2e}, {elapsed:.0f}s)",
    )


def test_criterion_8_useful_stage_consistency(grid_reports):
    ok = True
    for squared, rep in grid_reports:
        prof = multiplicity_profile(make_channel(4, np.sqrt(squared)))
        sum_a = float(np.sum(prof.values * prof.multiplicities))
        for k in range(1, rep.M + 1):
            margin = prof.support[k - 1] - sum_a**2
            identity = (rep.F_mc_s[k - 1] - rep.F_me) * (rep.D + 1) - margin
            ok &= abs(identity) <= 1e-12
            if margin > 1e-12:
                ok &= rep.useful[k - 1]
            elif margin < -1e-12:
                ok &= not rep.useful[k - 1]
            ok &= rep.P_smc[k - 1] >= rep.p_success[0] - 1e-12
    _verdict(8, ok, "useful-stage inequality and cumulative probability on the grid")


def test_criterion_9_fidelity_confidence_identity(grid_reports):
    worst = 0.0
    for squared, rep in grid_reports:
        ch = make_channel(4, np.sqrt(squared))
        prof = multiplicity_profile(ch)
        worst = max(worst, abs(
            (rep.F_me * 5 - 1) / 4 - np.sum(ch.coeffs) ** 2 / 4
        ))
        for k in range(1, rep.M + 1):
            worst = max(worst, abs(
                (rep.F_mc_s[k - 1] * 5 - 1) / 4 - prof.support[k - 1] / 4
            ))
    _verdict(9, worst <= 1e-12,
             f"fidelity-confidence identity on the grid (dev {worst:.2e})")


def test_criterion_10_kraus_completeness():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        ch = random_channel(rng)
        plan = build_stage_plan(ch)
        for K_s, K_f in zip(plan.K_s, plan.K_f):
            gram = np.diag(K_s).conj().T @ np.diag(K_s) + np.diag(K_f).conj().T @ np.diag(K_f)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(ch.D)))))
    _verdict(10, worst <= 1e-10,
             f"Kraus completeness over 10^3 random channels (dev {worst:.2e})")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    verify_args = [
        "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "2000", "--seed", "17", "--k-max", "2", "--fallback", "me",
    ]
    outputs = []
    for workers in ("1", "8", "1", "8"):
        code = main(verify_args + ["--workers", workers])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    verify_ok = len(set(outputs)) == 1

    sweeps = []
    for i, workers in enumerate(("1", "8", "1", "8")):
        path = tmp_path / f"sweep{i}.csv"
        code = main([
            "sweep", "--D", "4", "--N", "3", "--grid", "21", "--seed", "17",
            "--workers", workers, "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        sweeps.append(path.read_bytes())
    sweep_ok = len(set(sweeps)) == 1
    _verdict(11, verify_ok and sweep_ok,
             "verify and sweep byte-identical across reruns and pool sizes 1/8")
