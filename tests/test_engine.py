import tracemalloc

import numpy as np
import pytest

from conftest import InlinePool, random_channel
from mcteleport import (
    DenseOperator,
    QuditState,
    StrategyConfig,
    apply_gxor,
    apply_local,
    apply_two_outcome_kraus,
    build_stage_plan,
    channel_report,
    channel_state,
    exact_average_fidelity,
    exact_branch_probabilities,
    f_me_after_fail,
    fidelity,
    fourier,
    haar_random_state,
    make_channel,
    make_state,
    measure_computational,
    monte_carlo,
    multiplicity_profile,
    overall_fidelity,
    pauli_x_power,
    pauli_z_power,
    run_protocol,
    stage_probabilities,
)
from mcteleport import engine
from mcteleport.engine import ProtocolRunner
from mcteleport.qudit import haar_random_states

EXAMPLE = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
DET = StrategyConfig(kind="deterministic-me")


def _reference_run(channel, input_state, cfg, rng):
    """The protocol rebuilt step by step from the public register ops.

    Serves as an independent check that the tuned runner samples exactly
    the same process.
    """
    D = channel.D
    amps = np.multiply.outer(channel_state(channel).amplitudes, input_state.amplitudes)
    full = QuditState((D, D, D), amps.ravel())
    full = apply_gxor(full, 1, 2)

    conclusive = True
    stage_reached = 0
    if cfg.kind == "mc-smc":
        conclusive = False
        plan = build_stage_plan(channel)
        for k, stage in enumerate(plan.stages[: cfg.k_max], start=1):
            K_s = DenseOperator(D, np.diag(stage.K_s))
            K_f = DenseOperator(D, np.diag(stage.K_f))
            branch, full, _ = apply_two_outcome_kraus(full, 1, K_s, K_f, rng)
            stage_reached = k
            if branch == "success":
                conclusive = True
                break

    if conclusive or cfg.fallback == "me":
        full = apply_local(full, fourier(D).dagger(), 1)
        l, full, _ = measure_computational(full, 1, rng)
        k, full, _ = measure_computational(full, 2, rng)
        bob = QuditState((D,), full.tensor()[:, l, k])
        bob = apply_local(bob, pauli_x_power(D, -k) @ pauli_z_power(D, l), 0)
        return stage_reached, conclusive, (l, k), bob
    if cfg.fallback == "guess":
        m, full, _ = measure_computational(full, 1, rng)
        k, full, _ = measure_computational(full, 2, rng)
        bob = QuditState((D,), full.tensor()[:, m, k])
        bob = apply_local(bob, pauli_x_power(D, -k), 0)
        return stage_reached, conclusive, (m, k), bob
    return stage_reached, conclusive, None, None


@pytest.mark.parametrize(
    "cfg",
    [
        DET,
        StrategyConfig(kind="mc-smc", k_max=1, fallback="me"),
        StrategyConfig(kind="mc-smc", k_max=2, fallback="guess"),
        StrategyConfig(kind="mc-smc", k_max=2, fallback="discard"),
    ],
)
def test_runner_matches_reference_implementation(cfg):
    rng_seed = np.random.SeedSequence(1234)
    for trial in range(40):
        rng_a = np.random.default_rng(np.random.SeedSequence((99, trial)))
        rng_b = np.random.default_rng(np.random.SeedSequence((99, trial)))
        psi = haar_random_state(4, rng_a)
        psi_b = haar_random_state(4, rng_b)
        rec = run_protocol(EXAMPLE, psi, cfg, rng_a)
        stage, conclusive, outcomes, bob = _reference_run(EXAMPLE, psi_b, cfg, rng_b)
        assert rec.stage_reached == stage
        assert rec.conclusive == conclusive
        assert rec.alice_outcomes == outcomes
        if bob is None:
            assert rec.bob_state is None
            assert rec.run_fidelity is None
        else:
            assert fidelity(rec.bob_state, bob) == pytest.approx(1.0, abs=1e-12)
            assert rec.run_fidelity == pytest.approx(
                fidelity(psi, bob), abs=1e-12
            )


def test_deterministic_on_maximal_channel_is_faithful():
    rng = np.random.default_rng(0)
    ch = make_channel(4, np.full(4, 0.5))
    for _ in range(25):
        rec = run_protocol(ch, haar_random_state(4, rng), DET, rng)
        assert rec.run_fidelity == pytest.approx(1.0, abs=1e-12)
        assert rec.conclusive
        assert rec.stage_reached == 0
        assert rec.classical_bits_used == 4


def test_conclusive_stage1_on_full_rank_channel_is_faithful():
    # distinct coefficients, rank equal to dimension: a conclusive first
    # stage reproduces the input exactly
    rng = np.random.default_rng(1)
    ch = make_channel(3, np.sqrt([0.5, 0.3, 0.2]))
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="discard")
    seen = 0
    for _ in range(100):
        rec = run_protocol(ch, haar_random_state(3, rng), cfg, rng)
        if rec.conclusive:
            seen += 1
            assert rec.run_fidelity >= 1 - 1e-10
    assert seen > 20


def test_record_bit_accounting():
    rng = np.random.default_rng(2)
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")
    for _ in range(20):
        rec = run_protocol(EXAMPLE, haar_random_state(4, rng), cfg, rng)
        stages_executed = rec.stage_reached
        assert rec.classical_bits_used == 4 + stages_executed
        assert (rec.run_fidelity is None) == (rec.bob_state is None)


def test_run_protocol_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        run_protocol(EXAMPLE, haar_random_state(3, rng), DET, rng)


def test_run_protocol_rejects_excess_stage_budget():
    rng = np.random.default_rng(4)
    cfg = StrategyConfig(kind="mc-smc", k_max=3, fallback="me")
    with pytest.raises(ValueError):
        run_protocol(EXAMPLE, haar_random_state(4, rng), cfg, rng)


def test_monte_carlo_seed_determinism():
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")
    a = monte_carlo(EXAMPLE, cfg, 2000, seed=5)
    b = monte_carlo(EXAMPLE, cfg, 2000, seed=5)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.mean_fidelity, b.mean_fidelity)
    assert a.overall_mean_fidelity == b.overall_mean_fidelity
    c = monte_carlo(EXAMPLE, cfg, 2000, seed=6)
    assert not np.array_equal(a.counts, c.counts)


def test_monte_carlo_worker_count_invariance():
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="guess")
    a = monte_carlo(EXAMPLE, cfg, 1200, seed=7, workers=1)
    b = monte_carlo(EXAMPLE, cfg, 1200, seed=7, workers=4)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.mean_fidelity, b.mean_fidelity)
    assert a.overall_mean_fidelity == b.overall_mean_fidelity


def test_monte_carlo_counts_partition_trials():
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="discard")
    stats = monte_carlo(EXAMPLE, cfg, 3000, seed=8)
    assert stats.counts.sum() == stats.trials
    assert stats.labels == ("stage1", "stage2", "discarded")
    assert np.isnan(stats.mean_fidelity[-1])  # discarded runs carry no state


def test_monte_carlo_matches_oracle_within_four_sigma():
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")
    stats = monte_carlo(EXAMPLE, cfg, 20_000, seed=9)
    for k in (1, 2):
        oracle = exact_average_fidelity(
            EXAMPLE, cfg, "conclusive-at-stage", stage=k
        )
        err = stats.stage_stderr_fidelity(k)
        assert abs(stats.stage_mean_fidelity(k) - oracle) < 4 * err
        p_oracle = exact_branch_probabilities(EXAMPLE, cfg)[f"stage{k}"]
        p_hat = stats.stage_probability(k)
        p_err = np.sqrt(p_oracle * (1 - p_oracle) / stats.trials)
        assert abs(p_hat - p_oracle) < 4 * p_err
    overall_oracle = exact_average_fidelity(EXAMPLE, cfg, "overall")
    assert abs(stats.overall_mean_fidelity - overall_oracle) < (
        4 * stats.overall_stderr_fidelity
    )


def test_monte_carlo_rank_one_deterministic_hits_classical_bound():
    ch = make_channel(4, [1.0])
    stats = monte_carlo(ch, DET, 20_000, seed=16)
    assert abs(stats.overall_mean_fidelity - 2 / 5) < (
        4 * stats.overall_stderr_fidelity
    )


def test_monte_carlo_stage1_success_frequency():
    stats = monte_carlo(
        EXAMPLE, StrategyConfig(kind="mc-smc", k_max=1, fallback="discard"),
        20_000, seed=10,
    )
    p = 3 * 0.2
    sigma = np.sqrt(p * (1 - p) / stats.trials)
    assert abs(stats.stage_probability(1) - p) < 4 * sigma


def test_oracle_conclusive_stage1_depends_only_on_rank():
    rng = np.random.default_rng(11)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    for _ in range(20):
        ch = random_channel(rng, D=4, N=3)
        value = exact_average_fidelity(ch, cfg, "conclusive-at-stage", stage=1)
        assert value == pytest.approx(0.8, abs=1e-9)


def test_oracle_deterministic_equals_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(50):
        ch = random_channel(rng)
        rep = channel_report(ch)
        assert exact_average_fidelity(ch, DET) == pytest.approx(
            rep.F_me, abs=1e-9
        )


def test_oracle_rank_one_hits_classical_bound():
    for D in (2, 3, 4, 5):
        ch = make_channel(D, [1.0])
        assert exact_average_fidelity(ch, DET) == pytest.approx(
            2 / (D + 1), abs=1e-9
        )


def test_oracle_inconclusive_then_me_matches_closed_form():
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    assert exact_average_fidelity(
        EXAMPLE, cfg, "inconclusive-then-me"
    ) == pytest.approx(f_me_after_fail(EXAMPLE), abs=1e-10)


def test_oracle_agrees_with_every_closed_form_on_channel_grid():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        ch = random_channel(rng, D=int(rng.integers(2, 7)))
        rep = channel_report(ch)
        checked += 1
        assert exact_average_fidelity(ch, DET) == pytest.approx(rep.F_me, abs=1e-9)
        for k in range(1, rep.M + 1):
            cfg_k = StrategyConfig(kind="mc-smc", k_max=k, fallback="me")
            assert exact_average_fidelity(
                ch, cfg_k, "conclusive-at-stage", stage=k
            ) == pytest.approx(rep.F_mc_s[k - 1], abs=1e-9)
            for fallback in ("me", "guess", "discard"):
                cfg_f = StrategyConfig(kind="mc-smc", k_max=k, fallback=fallback)
                assert exact_average_fidelity(ch, cfg_f, "overall") == pytest.approx(
                    overall_fidelity(ch, cfg_f), abs=1e-9
                )
        if rep.F_me_after_fail is not None:
            cfg_1 = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
            assert exact_average_fidelity(
                ch, cfg_1, "inconclusive-then-me"
            ) == pytest.approx(rep.F_me_after_fail, abs=1e-9)
        cfg_M = StrategyConfig(kind="mc-smc", k_max=rep.M, fallback="me")
        assert exact_average_fidelity(ch, cfg_M, "overall") == pytest.approx(
            rep.overall_smc, abs=1e-9
        )


def test_oracle_branch_probabilities_match_analytics():
    rng = np.random.default_rng(14)
    for _ in range(25):
        ch = random_channel(rng)
        M = multiplicity_profile(ch).M
        cfg = StrategyConfig(kind="mc-smc", k_max=M, fallback="me")
        masses = exact_branch_probabilities(ch, cfg)
        p, total = stage_probabilities(ch, M)
        for k in range(1, M + 1):
            assert masses[f"stage{k}"] == pytest.approx(p[k - 1], abs=1e-10)
        assert masses["exhausted"] == pytest.approx(1 - total, abs=1e-10)
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-10)


def test_oracle_overall_ordering_chain():
    rng = np.random.default_rng(15)
    for _ in range(30):
        ch = random_channel(rng)
        M = multiplicity_profile(ch).M
        f_det = exact_average_fidelity(ch, DET)
        f_one = exact_average_fidelity(
            ch, StrategyConfig(kind="mc-smc", k_max=1, fallback="me"), "overall"
        )
        f_full = exact_average_fidelity(
            ch, StrategyConfig(kind="mc-smc", k_max=M, fallback="me"), "overall"
        )
        assert f_det - f_one >= -1e-12
        assert f_one - f_full >= -1e-12


def test_oracle_unreachable_conditions():
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, DET, "conclusive-at-stage", stage=1)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, cfg, "conclusive-at-stage", stage=2)
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, cfg, "conclusive-at-stage")
    equal = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    with pytest.raises(ValueError):
        exact_average_fidelity(
            equal, StrategyConfig(kind="mc-smc", k_max=1, fallback="me"),
            "inconclusive-then-me",
        )
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, cfg, "no-such-condition")


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="bogus")
    with pytest.raises(ValueError):
        StrategyConfig(kind="mc-smc", fallback="bogus")
    with pytest.raises(ValueError):
        StrategyConfig(kind="mc-smc", k_max=0)


def test_runner_rejects_rank_one_staged_strategy():
    ch = make_channel(4, [1.0])
    with pytest.raises(ValueError):
        ProtocolRunner(ch, StrategyConfig(kind="mc-smc", k_max=1, fallback="me"))


def test_runner_construction_memory_stays_small_at_large_dimension():
    # No per-(l, k) correction matrices: the build must not grow as D^4.
    D = 64
    weights = np.linspace(2.0, 1.0, D)
    ch = make_channel(D, np.sqrt(weights / weights.sum()))
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")
    tracemalloc.start()
    try:
        ProtocolRunner(ch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


class _ReplayedUniforms:
    """Stands in for a generator in ``ProtocolRunner.run``, which draws only
    ``random()``; hands out a fixed row of uniforms in order."""

    def __init__(self, values):
        self.values = iter(values.tolist())

    def random(self):
        return next(self.values)


def _staged_channel(D):
    weights = np.linspace(2.0, 1.0, D)
    return make_channel(D, np.sqrt(weights / weights.sum()))


@pytest.mark.parametrize("D", [2, 3, 4, 8, 32])
@pytest.mark.parametrize(
    "kind,fallback",
    [("deterministic-me", "me"), ("mc-smc", "me"), ("mc-smc", "guess"),
     ("mc-smc", "discard")],
)
def test_block_kernel_matches_single_run_trial_by_trial(D, kind, fallback):
    ch = _staged_channel(D)
    cfg = StrategyConfig(kind=kind, k_max=min(3, D - 1), fallback=fallback)
    runner = ProtocolRunner(ch, cfg)
    trials = 20 if D == 32 else 60
    rng = np.random.default_rng(np.random.SeedSequence((21, D)))
    inputs = haar_random_states(D, trials, rng)
    uniforms = rng.random((trials, runner.draws_per_trial))
    stages, conclusive, outcomes, fids = runner.run_block(inputs, uniforms)
    for i in range(trials):
        rec = runner.run(QuditState((D,), inputs[i]), _ReplayedUniforms(uniforms[i]))
        assert stages[i] == rec.stage_reached
        assert conclusive[i] == rec.conclusive
        assert tuple(outcomes[i]) == (rec.alice_outcomes or (-1, -1))
        if rec.run_fidelity is None:
            assert np.isnan(fids[i])
        else:
            assert abs(fids[i] - rec.run_fidelity) <= 1e-12
    if kind == "mc-smc":
        assert 0 < stages.min() and conclusive.any() and not conclusive.all()


def test_block_kernel_rejects_mismatched_shapes():
    runner = ProtocolRunner(EXAMPLE, StrategyConfig(kind="mc-smc", k_max=2, fallback="me"))
    inputs = np.full((3, 4), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        runner.run_block(inputs[:, :3], np.zeros((3, runner.draws_per_trial)))
    with pytest.raises(ValueError):
        runner.run_block(inputs, np.zeros((3, runner.draws_per_trial - 1)))


@pytest.mark.parametrize(
    "cfg",
    [DET, StrategyConfig(kind="mc-smc", k_max=2, fallback="me"),
     StrategyConfig(kind="mc-smc", k_max=2, fallback="discard")],
)
def test_batched_and_single_run_samples_agree_statistically(cfg):
    trials = 3000
    runner = ProtocolRunner(EXAMPLE, cfg)
    labels = engine._bucket_labels(cfg)
    rng = np.random.default_rng(31)
    single = {label: [] for label in labels}
    for _ in range(trials):
        rec = runner.run_haar(rng)
        if cfg.kind == "deterministic-me":
            label = labels[0]
        else:
            label = f"stage{rec.stage_reached}" if rec.conclusive else labels[-1]
        single[label].append(np.nan if rec.run_fidelity is None else rec.run_fidelity)
    stats = monte_carlo(EXAMPLE, cfg, trials, seed=32)
    for i, label in enumerate(labels):
        p = (len(single[label]) + stats.counts[i]) / (2 * trials)
        sigma = np.sqrt(2 * p * (1 - p) / trials)
        assert abs(len(single[label]) / trials - stats.probabilities[i]) <= 4 * sigma + 1e-15
        f = np.asarray(single[label])
        if np.isnan(f).all():
            assert np.isnan(stats.mean_fidelity[i])
            continue
        err = np.hypot(f.std(ddof=1) / np.sqrt(f.size), stats.stderr_fidelity[i])
        assert abs(f.mean() - stats.mean_fidelity[i]) < 4 * err


def test_monte_carlo_worker_invariance_across_blocks(monkeypatch):
    ch = _staged_channel(8)
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="guess")
    size = engine.block_size(8)
    trials = 3 * size + 100
    serial = monte_carlo(ch, cfg, trials, seed=41)
    pooled = [monte_carlo(ch, cfg, trials, seed=41, workers=2)]
    monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    InlinePool.sizes = []
    pooled += [monte_carlo(ch, cfg, trials, seed=41, workers=w) for w in (2, 3, 4)]
    assert InlinePool.sizes == [2, 3, 4]
    for stats in pooled:
        np.testing.assert_array_equal(stats.counts, serial.counts)
        np.testing.assert_array_equal(stats.mean_fidelity, serial.mean_fidelity)
        np.testing.assert_array_equal(stats.stderr_fidelity, serial.stderr_fidelity)
        assert stats.overall_mean_fidelity == serial.overall_mean_fidelity


def test_monte_carlo_caps_workers_at_cpus_and_blocks(monkeypatch):
    monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    size = engine.block_size(4)
    InlinePool.sizes = []
    monte_carlo(EXAMPLE, cfg, 5 * size, seed=1, workers=64)
    monte_carlo(EXAMPLE, cfg, 2 * size, seed=1, workers=64)
    monte_carlo(EXAMPLE, cfg, size, seed=1, workers=64)  # one block: no pool
    assert InlinePool.sizes == [3, 2]


def test_monte_carlo_replay_check_catches_a_disagreeing_kernel(monkeypatch):
    kernel = ProtocolRunner.run_block

    def flipped(self, inputs, uniforms):
        stages, conclusive, outcomes, fids = kernel(self, inputs, uniforms)
        return stages, conclusive, outcomes, 1.0 - fids

    monkeypatch.setattr(ProtocolRunner, "run_block", flipped)
    with pytest.raises(AssertionError, match="replayed trial"):
        monte_carlo(EXAMPLE, DET, 1000, seed=3)
