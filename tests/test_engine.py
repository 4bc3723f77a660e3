import ast
import gc
import pickle
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_circuit as ref
from conftest import InlinePool, conjugated_tables, random_channel, tied_channels
from mcteleport import (
    DEFAULT_TIE_TOL,
    StrategyConfig,
    build_stage_plan,
    channel_report,
    exact_average_fidelity,
    exact_branch_probabilities,
    f_me,
    f_me_after_fail,
    haar_random_state,
    make_channel,
    monte_carlo,
    multiplicity_profile,
    overall_fidelity,
    stage_probabilities,
)
from mcteleport import cli, engine, qudit
from mcteleport.engine import ProtocolRunner
from mcteleport.qudit import haar_random_states

EXAMPLE = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
DET = StrategyConfig(kind="deterministic-me")


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
        rec = ProtocolRunner(EXAMPLE, cfg).run(psi, rng_a)
        end, outcomes, bob = ref.run(EXAMPLE, psi_b, cfg, rng_b)
        assert (rec.end_class, rec.outcomes) == (end, outcomes)
        if bob is None:
            assert rec.bob_state is None
            assert np.isnan(rec.fidelity)
        else:
            assert ref.fidelity(rec.bob_state, bob) == pytest.approx(1.0, abs=1e-12)
            assert rec.fidelity == pytest.approx(ref.fidelity(psi, bob), abs=1e-12)


def test_deterministic_on_maximal_channel_is_faithful():
    rng = np.random.default_rng(0)
    ch = make_channel(4, np.full(4, 0.5))
    for _ in range(25):
        rec = ProtocolRunner(ch, DET).run(haar_random_state(4, rng), rng)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rec.end_class == 0


def test_conclusive_stage1_on_full_rank_channel_is_faithful():
    # distinct coefficients, rank equal to dimension: a conclusive first
    # stage reproduces the input exactly
    rng = np.random.default_rng(1)
    ch = make_channel(3, np.sqrt([0.5, 0.3, 0.2]))
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="discard")
    seen = 0
    for _ in range(100):
        rec = ProtocolRunner(ch, cfg).run(haar_random_state(3, rng), rng)
        if rec.end_class == 0:  # conclusive at stage 1
            seen += 1
            assert rec.fidelity >= 1 - 1e-10
    assert seen > 20


def test_run_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        ProtocolRunner(EXAMPLE, DET).run(haar_random_state(3, rng), rng)


@pytest.mark.parametrize("amplitudes, message", [
    (np.ones(4), "input state is not normalized: its squared norm is 4.0"),
    (np.zeros(4), "input state is not normalized: its squared norm is 0.0"),
    (np.array([0.5, np.nan, 0.5, 0.5]), "input amplitudes must be finite"),
    (np.full(3, 1 / np.sqrt(3)), "amplitudes of shape (3,)"),
], ids=["unnormalized", "zero", "nan", "short"])
def test_run_rejects_a_bad_input_state(amplitudes, message):
    # Each once returned a wrong fidelity (3.0), a NaN with leaked
    # RuntimeWarnings, or a bare broadcasting error.
    runner = ProtocolRunner(EXAMPLE, StrategyConfig(k_max=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            runner.run(amplitudes, np.random.default_rng(0))


def test_runner_rejects_excess_stage_budget():
    rng = np.random.default_rng(4)
    cfg = StrategyConfig(kind="mc-smc", k_max=3, fallback="me")
    with pytest.raises(ValueError):
        ProtocolRunner(EXAMPLE, cfg).run(haar_random_state(4, rng), rng)


@pytest.mark.parametrize("workers", [0, -3])
def test_monte_carlo_rejects_fewer_than_one_worker(workers):
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        monte_carlo(EXAMPLE, cfg, 1000, seed=0, workers=workers)


def test_monte_carlo_result_arrays_are_guarded_before_sampling(monkeypatch):
    # 8 B per trial for the stage and the fidelity arrays: 2**24 trials
    # fill the 128 MiB limit exactly.
    class Sampled(Exception):
        pass

    def sentinel(*args):
        raise Sampled

    built = []
    runner = engine.ProtocolRunner
    monkeypatch.setattr(engine, "ProtocolRunner", lambda *args: built.append(1) or runner(*args))
    monkeypatch.setattr(engine, "_run_blocks", sentinel)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    with pytest.raises(ValueError, match=r"16,777,217 trials would need 129 MiB, more than"):
        monte_carlo(EXAMPLE, cfg, 2**24 + 1, seed=0)
    assert built == []
    with pytest.raises(Sampled):
        monte_carlo(EXAMPLE, cfg, 2**24, seed=0)
    assert built == [1]


@pytest.mark.parametrize("trials, seed, message", [
    (0, 0, "trials must be >= 1"),
    (1000, -1, "seed must be a non-negative integer"),
])
def test_monte_carlo_rejects_no_trials_and_a_negative_seed(trials, seed, message):
    with pytest.raises(ValueError, match=message):
        monte_carlo(EXAMPLE, StrategyConfig(), trials, seed)


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
    assert engine._bucket_labels(cfg) == ("stage1", "stage2", "discarded")
    assert stats.counts.size == 3
    assert np.isnan(stats.mean_fidelity[-1])  # discarded runs carry no state


def test_monte_carlo_matches_oracle_within_four_sigma():
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")
    stats = monte_carlo(EXAMPLE, cfg, 20_000, seed=9)
    for k in (1, 2):
        oracle = exact_average_fidelity(EXAMPLE, cfg, f"stage{k}")
        err = stats.stderr_fidelity[k - 1]
        assert abs(stats.mean_fidelity[k - 1] - oracle) < 4 * err
        p_oracle = exact_branch_probabilities(EXAMPLE, cfg)[f"stage{k}"]
        p_hat = stats.probabilities[k - 1]
        p_err = np.sqrt(p_oracle * (1 - p_oracle) / stats.trials)
        assert abs(p_hat - p_oracle) < 4 * p_err
    overall_oracle = exact_average_fidelity(EXAMPLE, cfg)
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
    assert abs(stats.probabilities[0] - p) < 4 * sigma


def test_oracle_conclusive_stage1_depends_only_on_rank():
    rng = np.random.default_rng(11)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    for _ in range(20):
        ch = random_channel(rng, D=4, N=3)
        value = exact_average_fidelity(ch, cfg, "stage1")
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
    assert exact_average_fidelity(EXAMPLE, cfg, "exhausted-me") == pytest.approx(
        f_me_after_fail(EXAMPLE), abs=1e-10)


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
            assert exact_average_fidelity(ch, cfg_k, f"stage{k}") == pytest.approx(
                rep.F_mc_s[k - 1], abs=1e-9)
            for fallback in ("me", "guess", "discard"):
                cfg_f = StrategyConfig(kind="mc-smc", k_max=k, fallback=fallback)
                assert exact_average_fidelity(ch, cfg_f) == pytest.approx(
                    overall_fidelity(ch, cfg_f), abs=1e-9
                )
        if rep.F_me_after_fail is not None:
            cfg_1 = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
            assert exact_average_fidelity(ch, cfg_1, "exhausted-me") == pytest.approx(
                rep.F_me_after_fail, abs=1e-9)
        cfg_M = StrategyConfig(kind="mc-smc", k_max=rep.M, fallback="me")
        assert exact_average_fidelity(ch, cfg_M) == pytest.approx(
            rep.overall_smc, abs=1e-9
        )


def test_overall_fidelity_equals_the_oracle_on_every_pool_channel(monkeypatch):
    # The benchmark's report/plan pool: D up to 32, exactly tied groups, so
    # the me fallback reads failure families at every depth.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    checked = 0
    for D, members in workloads.pool_channels().items():
        for amps in members:
            ch = make_channel(D, amps)
            # The deterministic strategy reads the report's F_me.
            assert overall_fidelity(ch, DET) == f_me(ch)
            assert abs(f_me(ch) - exact_average_fidelity(ch, DET)) <= cli.ORACLE_ATOL
            for k in range(1, multiplicity_profile(ch).M + 1):
                for fallback in ("me", "guess", "discard"):
                    cfg = StrategyConfig(kind="mc-smc", k_max=k, fallback=fallback)
                    error = abs(overall_fidelity(ch, cfg) - exact_average_fidelity(ch, cfg))
                    assert error <= cli.ORACLE_ATOL, (D, amps.tolist(), k, fallback)
                    checked += 1
    assert checked == 3303


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
        assert masses["exhausted-me"] == pytest.approx(1 - total, abs=1e-10)
        buckets = engine._bucket_labels(cfg)
        assert sum(masses[label] for label in buckets) == pytest.approx(1.0, abs=1e-10)


def test_oracle_overall_ordering_chain():
    rng = np.random.default_rng(15)
    for _ in range(30):
        ch = random_channel(rng)
        M = multiplicity_profile(ch).M
        f_det = exact_average_fidelity(ch, DET)
        f_one = exact_average_fidelity(ch, StrategyConfig(kind="mc-smc", k_max=1, fallback="me"))
        f_full = exact_average_fidelity(ch, StrategyConfig(kind="mc-smc", k_max=M, fallback="me"))
        assert f_det - f_one >= -1e-12
        assert f_one - f_full >= -1e-12


def test_oracle_unreachable_conditions():
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, DET, "stage1")
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, cfg, "stage2")
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, cfg, "stage")
    equal = make_channel(4, np.full(3, 1 / np.sqrt(3)))
    with pytest.raises(ValueError):
        exact_average_fidelity(
            equal, StrategyConfig(kind="mc-smc", k_max=1, fallback="me"), "exhausted-me",
        )
    with pytest.raises(ValueError):
        exact_average_fidelity(EXAMPLE, cfg, "no-such-bucket")


SMC2 = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")


@pytest.mark.parametrize("cached", [False, True], ids=["built", "cached"])
@pytest.mark.parametrize(
    "bucket", ["stage0", "stage3", "stage1.5", "stage", "discarded", "exhausted"],
    ids=["zero", "k_max-plus-one", "fractional", "missing", "discarded", "exhausted"])
def test_oracle_stage_checks_hold_with_a_shared_plan(cached, bucket):
    # The bucket is checked before any plan is built, with the channel's
    # plan in the cache or not, and the error names the strategy's sets.
    build_stage_plan.cache_clear()
    if cached:
        build_stage_plan(EXAMPLE, DEFAULT_TIE_TOL)
    message = (f"unknown bucket {bucket!r}; this strategy's sets are "
               "stage1, stage2, exhausted-me, exhausted-guess")
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_average_fidelity(EXAMPLE, SMC2, bucket)
    assert build_stage_plan.cache_info().misses == int(cached)


def _oracle_from_full_sets(ch, cfg, bucket=None):
    """``exact_average_fidelity`` read from a full ``_branch_sets``, every Q computed."""
    sets = engine._branch_sets(ch, cfg, DEFAULT_TIE_TOL)
    if bucket is None:
        chosen = (["deterministic"] if cfg.kind == "deterministic-me"
                  else [f"stage{k}" for k in range(1, cfg.k_max + 1)]
                  + ([f"exhausted-{cfg.fallback}"] if cfg.fallback != "discard" else []))
    else:
        chosen = [bucket]
    q = sum(sets[label][0] for label in chosen)
    t = sum(sets[label][1] for label in chosen)
    if t / ch.D < engine.MIN_BRANCH_MASS:
        return None
    return (q + t) / ((ch.D + 1) * t)


@settings(max_examples=100)
@given(tied_channels())
def test_oracle_reads_equal_the_full_branch_sets_bit_for_bit(ch):
    M = multiplicity_profile(ch).M if ch.N > 1 else 0
    cfgs = [DET] + [StrategyConfig(kind="mc-smc", k_max=k, fallback=fb)
                    for k in range(1, M + 1) for fb in ("me", "guess", "discard")]
    for cfg in cfgs:
        buckets = [None]
        if cfg.kind == "mc-smc":
            buckets += [f"stage{k}" for k in range(1, cfg.k_max + 1)]
            buckets += ["exhausted-me", "exhausted-guess"]
        else:
            buckets.append("deterministic")
        for bucket in buckets:
            want = _oracle_from_full_sets(ch, cfg, bucket)
            if want is None:
                with pytest.raises(ValueError, match="~zero probability"):
                    exact_average_fidelity(ch, cfg, bucket)
            else:
                assert exact_average_fidelity(ch, cfg, bucket) == want
        sets = engine._branch_sets(ch, cfg, DEFAULT_TIE_TOL)
        want = {label: t / ch.D for label, (_, t) in sets.items()}
        assert exact_branch_probabilities(ch, cfg) == want


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="bogus")
    with pytest.raises(ValueError):
        StrategyConfig(kind="mc-smc", fallback="bogus")
    with pytest.raises(ValueError):
        StrategyConfig(kind="mc-smc", k_max=0)


SMC1 = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")


@pytest.mark.parametrize("name,call", [
    ("D", lambda value: make_channel(value, [0.8, 0.6])),
    ("k_max", lambda value: StrategyConfig(k_max=value)),
    ("trials", lambda value: monte_carlo(EXAMPLE, SMC1, value, seed=0)),
    ("seed", lambda value: monte_carlo(EXAMPLE, SMC1, 1000, seed=value)),
    ("workers", lambda value: monte_carlo(EXAMPLE, SMC1, 1000, seed=0, workers=value)),
])
def test_integer_arguments_reject_non_integers_and_accept_numpy_integers(name, call):
    # A float D once built a truncated channel, and a float k_max or trial
    # count failed later with a bare TypeError.
    for value in (2.9, 4.5, 2.0, "2"):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)
    call(np.int64(2))


@pytest.mark.parametrize("cfg", [DET] + [StrategyConfig(k_max=k, fallback=fb)
                                         for k in (1, 2, 3) for fb in ("me", "guess", "discard")])
def test_every_delivering_bucket_is_an_oracle_set(cfg):
    # One vocabulary: every bucket that delivers a state names a set of
    # the enumeration, and the oracle reads that set under its name.
    ch = _staged_channel(5)
    labels = engine._bucket_labels(cfg)
    sets = engine._branch_sets(ch, cfg, DEFAULT_TIE_TOL)
    delivering = [label for label in labels if label != "discarded"]
    assert set(delivering) <= set(sets)
    for label in delivering:
        q, t = sets[label]
        assert exact_average_fidelity(ch, cfg, label) == (q + t) / ((ch.D + 1) * t)


def test_monte_carlo_counts_are_the_kernel_classes_of_its_groups():
    ch, cfg = _staged_channel(8), StrategyConfig(k_max=3, fallback="guess")
    trials = 2 * engine.group_size(8) + 100  # three groups, the last one short
    runner = ProtocolRunner(ch, cfg)
    ends = np.concatenate([runner.run_block(*engine._group_draws(runner, 5, trials, g))[0]
                           for g in range(3)])
    stats = monte_carlo(ch, cfg, trials, seed=5)
    np.testing.assert_array_equal(stats.counts, np.bincount(ends, minlength=cfg.k_max + 1))
    assert (stats.counts > 0).all()


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


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6, 7, 8, 32])
def test_post_shift_equals_the_public_register(D):
    # The runner's diagonal from its padded Schmidt weights, for every rank:
    # the reference register's b = m entries, and nothing anywhere else.
    rng = np.random.default_rng(70 + D)
    b = np.arange(D)
    for N in range(1, D + 1):
        ch = random_channel(rng, D=D, N=N)
        psi = haar_random_state(D, rng)
        t = engine._post_shift(ProtocolRunner(ch, DET)._weights, psi)
        register = ref.post_shift(ch.coeffs, psi)
        assert np.array_equal(t, register[b, b])
        register[b, b] = 0
        assert not register.any()


def test_single_run_at_dimension_512_peaks_below_eight_square_arrays():
    # The runner's guard charges 8 complex (D, D) arrays; a run, with the
    # D x D tables built cold, peaks at about 7.  A (D, D, D) register
    # would take 2 GiB here.
    D = 512
    ch = make_channel(D, np.sqrt([0.5, 0.3, 0.2]))
    for cfg in [DET] + [StrategyConfig(k_max=1, fallback=fb) for fb in ("me", "guess", "discard")]:
        rng = np.random.default_rng(12)
        psi = haar_random_state(D, rng)
        engine._tables.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            ProtocolRunner(ch, cfg).run(psi, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * D**2


def test_single_run_guard_names_the_square_arrays():
    D = 1025
    ch = make_channel(D, np.sqrt([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"the \(D, D\) arrays of a single run at D=1025"):
        ProtocolRunner(ch, DET)


def test_single_runs_at_large_dimensions_leave_no_cubic_arrays_held():
    # Nothing of size D^3 outlives a run: eight such int64 arrays would
    # hold about 78 MiB here.
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    gc.collect()
    tracemalloc.start()
    try:
        for D in range(100, 116, 2):
            ch = make_channel(D, np.sqrt([0.5, 0.3, 0.2]))
            rng = np.random.default_rng(D)
            ProtocolRunner(ch, cfg).run(haar_random_state(D, rng), rng)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**20


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


def _kernel_matching_single_runs(runner, inputs, uniforms):
    """``run_block`` on the |psi|^2 of ``inputs``, after checking each row
    against ``run`` on the same input and uniforms."""
    ends, outcomes, fids = runner.run_block(np.abs(inputs) ** 2, uniforms)
    for i in range(len(inputs)):
        rec = runner.run(inputs[i], _ReplayedUniforms(uniforms[i]))
        assert (ends[i], tuple(outcomes[i])) == (rec.end_class, rec.outcomes)
        np.testing.assert_allclose(fids[i], rec.fidelity, rtol=0, atol=1e-12)  # NaN == NaN
    return ends, outcomes, fids


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
    ends = _kernel_matching_single_runs(runner, inputs, uniforms)[0]
    if kind == "mc-smc":
        # Some trials conclusive at a stage, some exhausted.
        assert (ends < cfg.k_max).any() and (ends == cfg.k_max).any()


def test_block_kernel_rejects_mismatched_shapes():
    runner = ProtocolRunner(EXAMPLE, StrategyConfig(kind="mc-smc", k_max=2, fallback="me"))
    probs = np.full((3, 4), 0.25)
    with pytest.raises(ValueError):
        runner.run_block(probs[:, :3], np.zeros((3, runner.draws_per_trial)))
    with pytest.raises(ValueError):
        runner.run_block(probs, np.zeros((3, runner.draws_per_trial - 1)))


def test_shared_running_sum_search_equals_the_row_count():
    # Running sums with zero-probability outcomes (repeated sums) first,
    # inside and last, dyadic so that u * total can land exactly on a sum.
    sums = [np.cumsum(p) for p in ([0.0, 0.25, 0.0, 0.5, 0.25], [0.0, 0.0, 1.0, 0.0],
                                   [0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.75, 0.5, 0.0, 0.75])]
    sums.append(np.cumsum(np.random.default_rng(5).random(7) * [1, 0, 1, 1, 0, 0, 1]))
    below_one = np.nextafter(1.0, 0.0)
    for cum in sums:
        on_sums = cum / cum[-1]
        u = np.concatenate(([0.0, below_one, 0.5], on_sums[on_sums < 1],
                            np.nextafter(on_sums, 0.0), np.random.default_rng(6).random(50)))
        u = u[u < 1]
        assert (u * cum[-1] == cum[:-1, None]).any()
        got = engine._sample_shared(cum, u)
        np.testing.assert_array_equal(got, engine._sample_rows(np.tile(cum[:, None], (1, u.size)), u))
        # The single run's draw on the same probabilities picks the same outcome.
        probs = np.diff(cum, prepend=0.0)
        if np.array_equal(np.cumsum(probs), cum):
            assert got.tolist() == [int(engine._sample_shared(np.cumsum(probs), x))
                                    for x in u.tolist()]


@pytest.mark.parametrize("fallback", ["me", "guess", "discard"])
def test_block_kernel_matches_single_run_with_classes_shuffled(fallback):
    # Every end class several times, in shuffled order: the kernel sorts the
    # rows by class and must write each result back to its own row.
    D, k = 8, 3
    runner = ProtocolRunner(_staged_channel(D), StrategyConfig(k_max=k, fallback=fallback))
    rng = np.random.default_rng(23)
    classes = rng.permutation(np.arange(40) % (k + 1))
    inputs = haar_random_states(D, classes.size, rng)
    uniforms = _force_classes(rng.random((classes.size, runner.draws_per_trial)), classes, k)
    ends = _kernel_matching_single_runs(runner, inputs, uniforms)[0]
    np.testing.assert_array_equal(ends, classes)


@pytest.mark.parametrize("fallback", ["me", "guess", "discard"])
@pytest.mark.parametrize("D,coeffs", [(2, [0.5, 0.5]), (4, [0.5, 0.5]), (8, [0.4, 0.4, 0.1, 0.1])])
def test_block_kernel_when_the_last_stage_cannot_fail(D, coeffs, fallback):
    # The last stage filters equal weights, so no trial exhausts the budget:
    # the empty exhausted class must be built and skipped without a 0/0.
    ch = make_channel(D, np.sqrt(coeffs))
    cfg = StrategyConfig(kind="mc-smc", k_max=multiplicity_profile(ch).M, fallback=fallback)
    rng = np.random.default_rng(D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runner = ProtocolRunner(ch, cfg)
        inputs = haar_random_states(D, 500, rng)
        ends, outcomes, fids = runner.run_block(
            np.abs(inputs) ** 2, rng.random((500, runner.draws_per_trial)))
    assert (outcomes >= 0).all() and np.isfinite(fids).all()
    assert set(ends.tolist()) <= set(range(cfg.k_max))  # every trial conclusive


@pytest.mark.parametrize("D", [32, 256])
def test_block_kernel_memory_stays_below_one_cubic_block_array(D):
    # A (B, D, D) float64 array of B = 64 rows takes 512 KiB at D = 32;
    # the kernel reads (k_max + 1, D) tables and (B, D) arrays only.
    ch = _staged_channel(D)
    cfg = StrategyConfig(kind="mc-smc", k_max=3, fallback="me")
    runner = ProtocolRunner(ch, cfg)
    for value in vars(runner).values():
        if isinstance(value, np.ndarray):
            assert value.size <= (cfg.k_max + 1) * D
    # The whole state, as a worker process receives it: a stored view
    # pickles as a copy of all it spans, so none may reach a (D, D) array.
    assert len(pickle.dumps(runner)) < 8 * D * D
    B = 64
    rng = np.random.default_rng(8)
    inputs, uniforms = haar_random_states(D, B, rng), rng.random((B, runner.draws_per_trial))
    probs = np.abs(inputs) ** 2
    runner.run_block(probs, uniforms)
    tracemalloc.start()
    try:
        runner.run_block(probs, uniforms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * D * D * 8


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
        single[labels[rec.end_class]].append(rec.fidelity)
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
    # Workers share whole groups: four groups, the last one short.
    size = engine.group_size(8)
    trials = 3 * size + 100
    serial = monte_carlo(ch, cfg, trials, seed=41)
    pooled = [monte_carlo(ch, cfg, trials, seed=41, workers=2)]
    monkeypatch.setattr(qudit, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(qudit.os, "cpu_count", lambda: 8)
    InlinePool.sizes = []
    pooled += [monte_carlo(ch, cfg, trials, seed=41, workers=w) for w in (2, 3, 4)]
    assert InlinePool.sizes == [2, 3, 4]
    for stats in pooled:
        np.testing.assert_array_equal(stats.counts, serial.counts)
        np.testing.assert_array_equal(stats.mean_fidelity, serial.mean_fidelity)
        np.testing.assert_array_equal(stats.stderr_fidelity, serial.stderr_fidelity)
        assert stats.overall_mean_fidelity == serial.overall_mean_fidelity


def test_monte_carlo_caps_workers_at_cpus_and_blocks(monkeypatch):
    monkeypatch.setattr(qudit, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(qudit.os, "cpu_count", lambda: 3)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    size = engine.group_size(4)
    InlinePool.sizes = []
    monte_carlo(EXAMPLE, cfg, 3 * size + 1, seed=1, workers=64)
    monte_carlo(EXAMPLE, cfg, size + 1, seed=1, workers=64)
    monte_carlo(EXAMPLE, cfg, size, seed=1, workers=64)  # one group: no pool
    # Workers share whole groups: four groups are capped at three CPUs, two
    # groups get two workers, and one group none.
    assert InlinePool.sizes == [3, 2]


def test_monte_carlo_worker_invariance_across_groups(monkeypatch):
    # At D = 32 a group is 2048 trials: 5000 trials make three.  One tiny
    # weight makes stage 1 rare.  The seed is the smallest one at which
    # each group holds exactly one stage-1 trial, so a kernel call spanning
    # a worker's whole share would take the one-row product path for some
    # worker counts only.
    weights = np.concatenate((np.linspace(2.0, 1.0, 31), [7e-4]))
    ch = make_channel(32, np.sqrt(weights / weights.sum()))
    cfg = StrategyConfig(kind="mc-smc", k_max=2, fallback="me")
    seed = 10
    runner = ProtocolRunner(ch, cfg)
    for group in range(3):
        ends, _ = engine._run_blocks(runner, seed, 5000, range(group, group + 1))
        assert (ends == 0).sum() == 1
    monkeypatch.setattr(qudit, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(qudit.os, "cpu_count", lambda: 8)
    InlinePool.sizes = []
    runs = [monte_carlo(ch, cfg, 5000, seed=seed, workers=w) for w in (1, 2, 3, 4)]
    assert InlinePool.sizes == [2, 3, 3]
    for stats in runs[1:]:
        np.testing.assert_array_equal(stats.counts, runs[0].counts)
        np.testing.assert_array_equal(stats.mean_fidelity, runs[0].mean_fidelity)
        np.testing.assert_array_equal(stats.stderr_fidelity, runs[0].stderr_fidelity)


@pytest.mark.parametrize("D", [2, 4, 8, 32, 100])
@pytest.mark.parametrize("fallback", ["me", "guess"])
def test_grouped_blocks_equal_one_kernel_call_per_block(D, fallback):
    # One kernel call on a whole group against one call per block of 100
    # rows of it, the last block short: only the shape of each class
    # product changes, so at most the last bits of a fidelity.
    k = min(3, D - 1)
    runner = ProtocolRunner(_staged_channel(D), StrategyConfig(k_max=k, fallback=fallback))
    trials = engine.group_size(D) + 3
    probs, uniforms = engine._group_draws(runner, 19, trials, 0)
    blocks = [runner.run_block(probs[i:i + 100], uniforms[i:i + 100])
              for i in range(0, len(probs), 100)]
    ends, outcomes, fids = (np.concatenate(p) for p in zip(*blocks))
    grouped = runner.run_block(probs, uniforms)
    np.testing.assert_array_equal(grouped[0], ends)
    np.testing.assert_array_equal(grouped[1], outcomes)
    np.testing.assert_allclose(grouped[2], fids, rtol=0, atol=1e-15)
    assert 0 < (ends < k).sum() < len(probs)  # some trials conclusive, some exhausted


@pytest.mark.parametrize("D", [2, 3, 32, 100])
def test_group_draws_equal_one_draw_from_the_group_generator(D):
    # Groups 0 and 2; group 2 is the last and short.
    runner = ProtocolRunner(_staged_channel(D), StrategyConfig(k_max=min(2, D - 1)))
    size = engine.group_size(D)
    trials = 2 * size + 3
    for group in (0, 2):
        got = engine._group_draws(runner, 9, trials, group)
        want = engine._draw(runner, engine._generator(9, 0, group), min(size, trials - group * size))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    assert got[0].shape == (3, D)


class _ZerosFirst:
    """A generator whose first exponential draw holds rows of zeros at 1
    and 3, and whose second (the redraw of those rows) at its row 0."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_exponential(self, size=None, out=None):
        self.calls += 1
        e = self.rng.standard_exponential(size, out=out)
        e[{1: [1, 3], 2: [0]}.get(self.calls, [])] = 0.0
        return e

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


def test_group_draws_redraw_a_row_of_zeros_before_the_uniforms(monkeypatch):
    D = 4
    runner = ProtocolRunner(EXAMPLE, StrategyConfig(k_max=2))
    size = engine.group_size(D)
    trials = size + 5  # two groups, the second of 5 trials
    real = engine._generator
    fakes = []

    def zeros_first(seed, *key):
        fakes.append(_ZerosFirst(real(seed, *key)))
        return fakes[-1]

    monkeypatch.setattr(engine, "_generator", zeros_first)
    for group, rows in ((0, size), (1, 5)):
        probs, uniforms = engine._group_draws(runner, 9, trials, group)
        # Rows 1 and 3 are redrawn, then row 1 once more, from the group's
        # one generator.
        assert fakes[-1].calls == 3
        want = engine._draw(runner, engine._generator(9, engine._BLOCK_STREAM, group), rows)
        for a, b in zip((probs, uniforms), want):
            np.testing.assert_array_equal(a, b)
        assert np.isfinite(probs).all() and probs[[1, 3]].all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=D * np.finfo(float).eps)
        # The uniforms follow the three exponential draws of the group.
        rng = real(9, engine._BLOCK_STREAM, group)
        for n in (rows, 2, 1):
            rng.standard_exponential((n, D))
        np.testing.assert_array_equal(uniforms, rng.random((rows, runner.draws_per_trial)))


def _simplex_failures(q):
    """The checks rows ``q`` fail as |psi|^2 of Haar states, which are
    uniform on the simplex: a KS test of q_0 against its Beta(1, D - 1) law
    (CDF 1 - (1 - x)^(D - 1)), the second moments E[q_i q_j] = (1 + [i = j])
    / (D (D + 1)) within 5 sigma, and unit row sums within D eps."""
    n, D = q.shape
    failures = []
    x = np.sort(q[:, 0])
    cdf = 1 - (1 - x) ** (D - 1)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    # Dvoretzky-Kiefer-Wolfowitz: P(ks > eps) <= 2 exp(-2 n eps^2) = 1e-6.
    if ks > np.sqrt(np.log(2 / 1e-6) / (2 * n)):
        failures.append(f"KS distance {ks:.3g}")
    second = q.T @ q / n
    sigma = np.sqrt(((q**2).T @ q**2 / n - second**2) / n)
    pulls = np.abs(second - (1 + np.eye(D)) / (D * (D + 1))) / sigma
    if pulls.max() > 5:
        failures.append(f"second moment {pulls.max():.3g} sigma off")
    if np.abs(q.sum(axis=1) - 1).max() > D * np.finfo(float).eps:
        failures.append("row sums differ from 1")
    return failures


def _drawn_rows(D, trials, seed):
    runner = ProtocolRunner(_staged_channel(D), DET)
    n_groups = -(-trials // engine.group_size(D))
    return np.concatenate([engine._group_draws(runner, seed, trials, g)[0]
                           for g in range(n_groups)])


@pytest.mark.parametrize("D", [2, 3, 4, 32])
def test_block_draws_are_uniform_on_the_simplex(D):
    # The replayed trial checks one Haar input; this checks the law of the
    # rows every group draws.
    assert _simplex_failures(_drawn_rows(D, 10**5, 12)) == []


class _UniformsForExponentials:
    """A generator that hands out uniforms where exponentials are asked."""

    def __init__(self, rng):
        self.rng = rng

    def standard_exponential(self, size=None, out=None):
        return self.rng.random(size, out=out)

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


@pytest.mark.parametrize("D", [2, 3, 4, 32])
def test_the_simplex_checks_fail_uniforms_and_unnormalised_rows(D, monkeypatch):
    rng = np.random.default_rng(D)
    assert _simplex_failures(rng.standard_exponential((10**5, D)))
    # Uniforms in place of the exponentials, through the group draw.
    real = engine._generator
    monkeypatch.setattr(engine, "_generator",
                        lambda seed, *key: _UniformsForExponentials(real(seed, *key)))
    assert _simplex_failures(_drawn_rows(D, 10**5, 12))


@pytest.mark.parametrize("D", [2, 4, 32, 128])
def test_one_group_of_blocks_stays_below_16_mib(D):
    # A group holds at most BLOCK_ENTRIES = 2**16 entries per (rows, D)
    # array, 1 MiB complex.
    runner = ProtocolRunner(_staged_channel(D), StrategyConfig(k_max=min(3, D - 1)))
    trials = engine.group_size(D)
    assert trials * D <= engine.BLOCK_ENTRIES
    engine._run_blocks(runner, 5, trials, range(1))
    tracemalloc.start()
    try:
        engine._run_blocks(runner, 5, trials, range(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_monte_carlo_replay_check_catches_a_disagreeing_kernel(monkeypatch):
    kernel = ProtocolRunner.run_block

    def flipped(self, probs, uniforms):
        ends, outcomes, fids = kernel(self, probs, uniforms)
        return ends, outcomes, 1.0 - fids

    monkeypatch.setattr(ProtocolRunner, "run_block", flipped)
    with pytest.raises(AssertionError, match="replayed trial"):
        monte_carlo(EXAMPLE, DET, 1000, seed=3)


def _shifts(D):
    """shifts[k, m] = (m + k) mod D, so X^-k v is v[shifts[k]]."""
    n = np.arange(D)
    return np.add.outer(n, n) % D


def _d4_branch_sums(t, rotate):
    """(Q, T) and the gather diag[k, i, s] = t[(i + k) mod D, s, k, i] of a
    full (D, D, D, D) register, one column per basis input i."""
    D = t.shape[0]
    phases, shifts = engine._tables(D)[2], _shifts(D)
    diag = t[shifts, :, np.arange(D)[:, None], np.arange(D)]
    gather = diag.copy()
    if rotate:
        diag = np.tensordot(diag, ref.dft(D).conj().T, axes=([2], [1])) * phases[shifts]
    traces = diag.sum(axis=1)
    return (float(np.vdot(traces, traces).real), float(np.vdot(t, t).real)), gather


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_branch_sets_match_a_full_register_reference(D):
    # Each set's (Q, T) from the D^4 register fed one basis input at a
    # time, and the premise of the trace identity the oracle reads: the
    # only nonzero entries of the register on a trace's diagonal are the
    # filtered Schmidt weights w[s] at s = (i + k) mod D.
    rng = np.random.default_rng(40 + D)
    shifts = _shifts(D)
    rows, cols = np.arange(D)[:, None], np.arange(D)
    for _ in range(4):
        ch = random_channel(rng, D=D)
        register = np.stack([ref.post_shift(ch.coeffs, col)
                             for col in np.eye(D, dtype=complex)], axis=-1)
        M = multiplicity_profile(ch).M if ch.N > 1 else 0
        for cfg in [DET] + [StrategyConfig(kind="mc-smc", k_max=k) for k in range(1, M + 1)]:
            t, w = register.copy(), np.pad(ch.coeffs, (0, D - ch.N))
            inputs = {}
            for k, (ks, kf) in enumerate(engine._stage_filters(ch, cfg, 1e-9), start=1):
                inputs[f"stage{k}"] = (t * ks[None, :, None, None], w * ks, True)
                t, w = t * kf[None, :, None, None], w * kf
            if cfg.kind == "deterministic-me":
                inputs["deterministic"] = (t, w, True)
            else:
                inputs["exhausted-me"] = (t, w, True)
                inputs["exhausted-guess"] = (t, w, False)
            sets = engine._branch_sets(ch, cfg, 1e-9)
            assert sets.keys() == inputs.keys()
            for label, (t_in, w_in, rotate) in inputs.items():
                (q, t_sum), gather = _d4_branch_sums(t_in, rotate)
                expected = np.zeros((D, D, D))
                expected[rows, cols, shifts] = w_in[shifts]
                np.testing.assert_array_equal(gather, expected)
                assert sets[label][0] == pytest.approx(q, rel=1e-13, abs=1e-13)
                assert sets[label][1] == pytest.approx(t_sum, rel=1e-13, abs=1e-13)


def test_branch_sets_memory_stays_linear_at_dimension_1024():
    ch = _staged_channel(1024)
    cfg = StrategyConfig(kind="mc-smc", k_max=3, fallback="me")
    engine._branch_sets(ch, cfg, 1e-9)  # fill the per-D caches first
    tracemalloc.start()
    try:
        # The uncached function: a second cached call would be a hit.
        engine._branch_sets.__wrapped__(ch, cfg, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A few length-D vectors; a single (D, D) float array would be 8 MiB.
    assert peak < 64 * 2**10


def test_cached_branch_sets_are_only_reused_for_their_channel_strategy_and_tolerance(
        monkeypatch):
    a = make_channel(4, np.sqrt([0.5, 0.3, 0.2]))
    b = make_channel(4, np.sqrt([0.6, 0.3, 0.1]))
    # Two amplitudes 5e-8 apart: M = 2 at tie tolerance 1e-9, M = 1 at 1e-7.
    c = make_channel(4, np.array([0.8, 0.4 + 5e-8, 0.4]) / np.linalg.norm([0.8, 0.4, 0.4]))
    one, two = (StrategyConfig(kind="mc-smc", k_max=k, fallback="guess") for k in (1, 2))
    uncached = engine._branch_sets.__wrapped__
    assert uncached(c, one, 1e-9) != uncached(c, one, 1e-7)
    assert uncached(a, one, 1e-9) != uncached(a, two, 1e-9)
    for ch, cfg, tie in [(a, one, 1e-9), (b, one, 1e-9), (a, one, 1e-9), (a, two, 1e-9),
                         (a, one, 1e-9), (b, two, 1e-9), (c, one, 1e-9), (c, one, 1e-7),
                         (c, one, 1e-9), (c, two, 1e-9), (a, DET, 1e-9)]:
        sets = engine._branch_sets(ch, cfg, tie)
        assert sets == uncached(ch, cfg, tie)
        with pytest.raises(TypeError):
            sets["stage1"] = (0.0, 0.0)
    with pytest.raises(ValueError, match="k_max=2 exceeds"):
        engine._branch_sets(c, two, 1e-7)

    # A failed mass check is raised on every call, never cached.
    sums = engine._branch_sums

    def doubled_mass(w, rotate):
        q, t = sums(w, rotate)
        return q, 2 * t

    monkeypatch.setattr(engine, "_branch_sums", doubled_mass)
    misses = engine._branch_sets.cache_info().misses
    for _ in range(2):
        with pytest.raises(AssertionError, match="branch probabilities sum to"):
            engine._branch_sets(b, one, 1e-9)
    assert engine._branch_sets.cache_info().misses - misses == 2


def _tensordot_branch_sums(w, rotate):
    """``engine._branch_sums`` as a D^4 reference: the (D, D, D) array
    diag[k, i, s], w[s] at s = (i + k) mod D, rotated by a ``tensordot``
    with F^+ over every s, zeros included."""
    D = w.size
    finv, _, phases, _ = engine._tables(D)
    shifts = _shifts(D)
    k, i = np.ogrid[:D, :D]
    diag = np.zeros((D, D, D), dtype=complex)
    diag[k, i, shifts] = w[shifts]
    t = float(np.vdot(diag, diag).real)
    if rotate:
        diag = np.tensordot(diag, finv, axes=([2], [1]))
        diag *= phases[shifts]
    traces = diag.sum(axis=1)
    return float(np.vdot(traces, traces).real), t


@given(st.integers(min_value=2, max_value=64).flatmap(lambda D: st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
    min_size=D, max_size=D)))
def test_branch_sums_equal_the_tensordot_reference(weights):
    # The oracle reads the trace identity; this reference sums every trace.
    w = np.array(weights)
    for rotate in (True, False):
        want = _tensordot_branch_sums(w, rotate)
        assert engine._branch_sums(w, rotate) == pytest.approx(want, rel=1e-12, abs=0)


def _broadcast_rotation(finv, reg):
    """F^+[l, b] reg[b, b, j]: the D^3 broadcast that uses reg = 0 off b = m."""
    b = np.arange(len(finv))
    return finv.T[:, :, None] * reg[b, b][:, None, :]


def _check_single_run_against(D, rotate):
    """The run on the (D, D) diagonal against the reference circuit, F^+
    applied to the whole (D, D, D) register by ``rotate``, on channels of
    rank 2, D // 2 and D, every strategy: stage, conclusiveness and
    outcomes equal, receiver state and fidelity to 1e-12."""
    rng = np.random.default_rng(90 + D)
    for N in sorted({2, max(2, D // 2), D}):  # N < D pads zero weights
        ch = random_channel(rng, D=D, N=N)
        M = multiplicity_profile(ch).M
        for cfg in [DET] + [StrategyConfig(k_max=min(2, M), fallback=fb)
                            for fb in ("me", "guess", "discard")]:
            runner = ProtocolRunner(ch, cfg)
            for _ in range(3):
                psi = haar_random_state(D, rng)
                uniforms = rng.random(runner.draws_per_trial)
                rec = runner.run(psi, _ReplayedUniforms(uniforms))
                end, outcomes, bob = ref.run(ch, psi, cfg, _ReplayedUniforms(uniforms), rotate)
                assert (rec.end_class, rec.outcomes) == (end, outcomes)
                if bob is None:
                    assert rec.bob_state is None
                    continue
                got = rec.bob_state
                assert np.linalg.norm(got - bob) <= 1e-12 * np.linalg.norm(bob)
                assert rec.fidelity == pytest.approx(ref.fidelity(psi, bob), rel=1e-12, abs=0)


@pytest.mark.parametrize("D", [2, 3, 5, 8, 17, 32, 64])
def test_single_run_equals_the_matmul_reference(D):
    _check_single_run_against(D, np.matmul)


@pytest.mark.parametrize("D", [2, 3, 5, 8, 17, 32, 64])
def test_single_run_equals_the_broadcast_reference(D):
    _check_single_run_against(D, _broadcast_rotation)


def _complex_run_block(runner, probs, uniforms):
    """``ProtocolRunner.run_block`` with the complex readout: the receiver's
    amplitudes coef[s] w_s, coef = phases[o1] F^+[o1] (a one-hot row for
    ``guess``), gathered at s = n + o2 and contracted with |psi|^2."""
    B, D = probs.shape
    finv, _, phases, diff = engine._tables(D)
    shifts = _shifts(D)
    k = len(runner._filters)
    ends = (uniforms[:, : k + 1] < np.append(runner._p_end, np.inf)).argmax(axis=1)
    stages = np.minimum(ends + 1, k)
    outcomes = np.full((B, 2), -1, dtype=np.int64)
    fids = np.full(B, np.nan)
    rows = np.flatnonzero(runner._delivers[ends])
    cls = ends[rows]
    me = runner._me[cls]
    q = probs[rows]
    first = stages[rows]
    o1 = engine._sample_rows(runner._cum1[cls].T, uniforms[rows, first])
    p1 = runner._probs1[cls, o1]
    probs2 = np.empty_like(q)
    for c in np.flatnonzero(np.bincount(cls, minlength=k + 1)):
        sel = cls == c
        if runner._me[c]:
            probs2[sel] = q[sel] @ (runner._class_w[c]**2)[shifts]
        else:
            probs2[sel] = np.take_along_axis(q[sel], diff[o1[sel]], axis=1)
    o2 = engine._sample_rows(np.cumsum(probs2, axis=1).T, uniforms[rows, first + 1])
    r = np.arange(rows.size)
    p2 = probs2[r, o2]
    coef = np.where(me[:, None], phases[o1] * finv[o1], np.arange(D) == o1[:, None])
    amp = (coef * runner._class_w[cls])[r[:, None], shifts[o2]]
    outcomes[rows] = np.stack((o1, o2), axis=1)
    fids[rows] = np.abs(np.einsum("rn,rn->r", q, amp)) ** 2 / (p1 * p2)
    return ends, outcomes, fids


@pytest.mark.parametrize("D", [2, 3, 4, 8, 32, 100])
def test_real_block_readout_equals_the_complex_readout(D):
    rng = np.random.default_rng(np.random.SeedSequence((23, D)))
    for ch in (_staged_channel(D), random_channel(rng, D=D, N=max(2, D // 2))):
        M = multiplicity_profile(ch).M
        for cfg in [DET] + [StrategyConfig(k_max=min(3, M), fallback=fb)
                            for fb in ("me", "guess", "discard")]:
            runner = ProtocolRunner(ch, cfg)
            probs = np.abs(haar_random_states(D, 300, rng)) ** 2
            uniforms = rng.random((300, runner.draws_per_trial))
            got = runner.run_block(probs, uniforms)
            want = _complex_run_block(runner, probs, uniforms)
            for a, b in zip(got[:2], want[:2]):
                np.testing.assert_array_equal(a, b)
            # Each complex coefficient carries its own rounding, so the two
            # sums part by about sqrt(D) ulps (2.3e-15 at D = 100).
            np.testing.assert_allclose(got[2], want[2], rtol=0,
                                       atol=4 * np.sqrt(D) * np.finfo(float).eps)


def _row_major_run_block(runner, probs, uniforms):
    """``ProtocolRunner.run_block`` in its row-major form: the end class as
    the ``argmax`` of the stage decisions, running sums laid out (rows, D)
    and a row-wise count.  The kernel must return its bits."""
    B, D = probs.shape
    diff, shifts = engine._tables(D)[3], _shifts(D)
    k = len(runner._filters)
    ends = (uniforms[:, : k + 1] < np.append(runner._p_end, np.inf)).argmax(axis=1)
    outcomes = np.full((B, 2), -1, dtype=np.int64)
    fids = np.full(B, np.nan)
    order = np.argsort(ends, kind="stable")
    edges = np.cumsum(np.bincount(ends, minlength=k + 1)).tolist()
    for c, (lo, hi) in enumerate(zip([0] + edges[:-1], edges)):
        if lo == hi or not runner._delivers[c]:
            continue
        rows = order[lo:hi]
        q = probs[rows]
        first = min(c + 1, k)
        o1 = engine._sample_shared(runner._cum1[c], uniforms[rows, first])
        p1 = runner._probs1[c, o1]
        if runner._me[c]:
            probs2 = q @ (runner._class_w[c]**2)[shifts]
        else:
            probs2 = np.take_along_axis(q, diff[o1], axis=1)
        cum = np.cumsum(probs2, axis=1)
        o2 = (cum[:, :-1] <= (uniforms[rows, first + 1] * cum[:, -1])[:, None]).sum(axis=1)
        p2 = probs2[np.arange(rows.size), o2]
        if runner._me[c]:
            overlap = np.einsum("rn,rn->r", q, runner._class_w[c][shifts[o2]]) / np.sqrt(D)
        else:
            overlap = q[np.arange(rows.size), diff[o1, o2]] * runner._class_w[c, o1]
        outcomes[rows, 0], outcomes[rows, 1] = o1, o2
        fids[rows] = overlap**2 / (p1 * p2)
    return ends, outcomes, fids


def _force_classes(uniforms, classes, k):
    """``uniforms`` with the stage decisions of k stages set so that trial i
    ends in class ``classes[i]``: a trial of class c fails stages 1..c and,
    if c < k, passes stage c + 1."""
    stage = np.arange(k)
    uniforms[:, :k] = np.where(stage < classes[:, None], 1 - 1e-9,
                               np.where(stage == classes[:, None], 0.0, uniforms[:, :k]))
    return uniforms


def _forced_classes(runner, classes, rng):
    """|psi|^2 rows and uniforms of ``_draw`` whose trial i ends in class
    ``classes[i]``."""
    probs, uniforms = engine._draw(runner, rng, len(classes))
    return probs, _force_classes(uniforms, classes, len(runner._filters))


def _assert_kernel_equals_the_row_major_kernel(runner, probs, uniforms):
    got = runner.run_block(probs, uniforms)
    want = _row_major_run_block(runner, probs, uniforms)
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a, b)
    # Fidelities bit for bit, NaN for a discarded trial included.
    np.testing.assert_array_equal(got[2].view(np.int64), want[2].view(np.int64))
    return got[0]


@pytest.mark.parametrize("D", [2, 3, 4, 5, 8, 16, 24, 32, 64, 256])
def test_block_kernel_equals_the_row_major_kernel_bit_for_bit(D):
    rng = np.random.default_rng(np.random.SeedSequence((41, D)))
    ch = _staged_channel(D)
    M = multiplicity_profile(ch).M
    cfgs = [DET] + [StrategyConfig(k_max=k, fallback=fb)
                    for k in range(1, min(3, M) + 1) for fb in ("me", "guess", "discard")]
    # Class sizes on both sides of the running-sum switch, the fewest rows
    # that take whole-row adds (at D = 256 a whole group is below it), and
    # D - 1 and D rows, fewer than and as many as the overlap's D records.
    switch = engine._sum_add_rows(D)
    sizes = sorted({n for n in (switch - 1, switch, D - 1, D) if n >= 1})
    for cfg in cfgs:
        runner = ProtocolRunner(ch, cfg)
        k = len(runner._filters)
        # A drawn block, one row alone, and one row of each class, shuffled:
        # a class of one row takes NumPy's matrix-vector product.
        blocks = [engine._draw(runner, rng, n) for n in (engine.group_size(D), 1)]
        blocks.append(_forced_classes(runner, rng.permutation(k + 1), rng))
        # Every class of one size, shuffled.
        blocks += [_forced_classes(runner, rng.permutation(np.repeat(np.arange(k + 1), n)), rng)
                   for n in sizes]
        for probs, uniforms in blocks:
            _assert_kernel_equals_the_row_major_kernel(runner, probs, uniforms)


def test_block_kernel_equals_the_row_major_kernel_past_127_classes():
    # A full-rank D = 160 channel at k_max = 130: class indices pass 127,
    # where an int8 class index would wrap.
    D, k = 160, 130
    runner = ProtocolRunner(_staged_channel(D), StrategyConfig(k_max=k, fallback="me"))
    rng = np.random.default_rng(43)
    classes = rng.permutation(np.concatenate((np.arange(k + 1), [127, 128, k, k])))
    ends = _assert_kernel_equals_the_row_major_kernel(
        runner, *_forced_classes(runner, classes, rng))
    np.testing.assert_array_equal(ends, classes)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 127, 128, 129, 3000])
def test_summaries_equal_the_ndarray_reductions_bit_for_bit(n):
    # Sizes around NumPy's 8-way unrolled and 128-entry pairwise sums.
    rng = np.random.default_rng(n)
    values = rng.beta(8.0, 2.0, n)
    mixed = np.insert(values, rng.integers(0, n + 1, size=5), np.nan)
    got = engine._summarize(mixed)
    if n == 0:
        assert np.isnan(got).all()
        return
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else np.nan
    want = (float(values.mean()), stderr)
    np.testing.assert_array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("cfg", [DET] + [StrategyConfig(k_max=2, fallback=fb)
                                         for fb in ("me", "guess", "discard")])
def test_conclusive_probability_is_the_mean_of_the_conclusive_flags(cfg):
    trials = 2 * engine.group_size(4) + 37
    stats = monte_carlo(EXAMPLE, cfg, trials, seed=3)
    runner = ProtocolRunner(EXAMPLE, cfg)
    ends, _ = engine._run_blocks(runner, 3, trials, range(3))
    assert stats.conclusive_probability == float(np.mean(runner._conclusive[ends]))


@pytest.mark.parametrize("table", [0, 2], ids=["finv", "phases"])
def test_block_kernel_reads_neither_the_fourier_nor_the_phase_table(monkeypatch, table):
    # A fault in either table cannot move the sampled statistics: every
    # sample is bit-identical with the table conjugated, so a runner checks
    # the tables when it is built.
    trials = 3000  # one group at D = 8
    for cfg in [DET] + [StrategyConfig(k_max=3, fallback=fb) for fb in ("me", "guess", "discard")]:
        runner = ProtocolRunner(_staged_channel(8), cfg)
        want = engine._run_blocks(runner, 6, trials, range(1))
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_tables", conjugated_tables(table))
            got = engine._run_blocks(runner, 6, trials, range(1))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_tables_agree_with_the_reference_circuit():
    # F^+ is the reference Fourier matrix's conjugate transpose, phases[l]
    # is the diagonal of Z^l and np.roll(v, -k) realises X^-k.  The table's
    # roots exp(2 pi i k / D) carry the rounding of their argument, up to
    # 7 ulps at D <= 64 (the FFT's roots are within 3 of exact).
    for D in range(2, 65):
        finv, _, phases, _ = engine._tables(D)
        np.testing.assert_allclose(finv, ref.dft(D).conj().T, rtol=0, atol=1e-15)
        v = haar_random_state(D, np.random.default_rng(D))
        for l in range(D):
            np.testing.assert_allclose(phases[l], ref.correct(np.ones(D), 0, l),
                                       rtol=0, atol=8 * np.finfo(float).eps)
        for k in range(D):
            np.testing.assert_array_equal(np.roll(v, -k), ref.correct(v, k))


# pi to 62 decimals, for roots of unity computed in ``decimal`` (no mpmath).
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _exact_root(r, D):
    """(cos, sin) of 2 pi r / D to 60 digits, by Taylor series on the angle
    reduced to [-pi, pi]."""
    with localcontext() as ctx:
        ctx.prec = 70
        x = 2 * PI * r / D
        if x > PI:
            x -= 2 * PI
        parts, term, k = [Decimal(0), Decimal(0)], Decimal(1), 0
        while abs(term) > Decimal("1e-66"):
            # x^k / k! adds to cos for even k and to sin for odd k, with the
            # signs + + - - repeating.
            parts[k % 2] += term if k % 4 < 2 else -term
            k += 1
            term = term * x / k
        return tuple(parts)


def test_table_phases_are_within_eight_eps_of_exact_roots():
    # Every entry phases[l, n] of D = 2..64 against exp(2 pi i (l n mod D) / D)
    # at 60 digits; the entries are compared once per distinct (root,
    # value) pair.  The worst error is about 7 eps (at D = 49), the
    # rounding of the argument 2 pi k / D carried into exp.
    bound = 8 * Decimal(np.finfo(float).eps)
    errors = []
    for D in range(2, 65):
        phases = engine._tables(D)[2]
        n = np.arange(D)
        r = np.multiply.outer(n, n) % D
        pairs = np.unique(np.stack([r.ravel(), phases.real.ravel(), phases.imag.ravel()]),
                          axis=1).T
        roots = [_exact_root(k, D) for k in range(D)]
        for k, re_part, im_part in pairs.tolist():
            cos, sin = roots[int(k)]
            with localcontext() as ctx:
                ctx.prec = 70
                err = ((Decimal(re_part) - cos) ** 2 + (Decimal(im_part) - sin) ** 2).sqrt()
            errors.append((err, D))
    worst, D = max(errors)
    assert worst <= bound, f"error {float(worst):.3g} at D={D}"


def test_reference_circuit_reads_nothing_of_the_engine():
    # Every module and name imported, every variable and attribute read.
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, field) or "" for node in ast.walk(tree)
             for field in ("module", "name", "id", "attr") if hasattr(node, field)}
    assert not any(n.split(".")[-1] == "engine" for n in names), names
    assert not names & {"_phase_table", "_tables"}, names


def test_correction_phases_times_the_inverse_fourier_matrix_are_constant():
    # The real block readout rests on phases[l, s] F^+[l, s] = 1/sqrt(D).
    for D in range(2, 257):
        finv, _, phases = engine._tables(D)[:3]
        np.testing.assert_allclose(phases * finv, 1 / np.sqrt(D), rtol=0, atol=1e-15)


@settings(max_examples=150)
@given(tied_channels(), st.integers(min_value=0, max_value=8))
def test_branch_sets_conserve_mass_and_bound_fidelity(ch, k_max):
    M = multiplicity_profile(ch).M if ch.N > 1 else 0
    cfg = DET if k_max == 0 or M == 0 else StrategyConfig(kind="mc-smc", k_max=min(k_max, M))
    sets = engine._branch_sets(ch, cfg, 1e-9)
    masses = [t / ch.D for label, (_, t) in sets.items() if label != "exhausted-guess"]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)
    for q, t in sets.values():
        if t / ch.D >= engine.MIN_BRANCH_MASS:
            fid = (q + t) / ((ch.D + 1) * t)
            assert 1 / (ch.D + 1) - 1e-12 <= fid <= 1 + 1e-12


@settings(max_examples=100)
@given(tied_channels(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_block_kernel_matches_single_run_on_random_channels(ch, k_max, seed):
    M = multiplicity_profile(ch).M if ch.N > 1 else 0
    cfgs = [DET] + ([StrategyConfig(kind="mc-smc", k_max=min(k_max, M), fallback=fb)
                     for fb in ("me", "guess", "discard")] if M else [])
    rng = np.random.default_rng(seed)
    inputs = haar_random_states(ch.D, 8, rng)
    for cfg in cfgs:
        runner = ProtocolRunner(ch, cfg)
        uniforms = rng.random((len(inputs), runner.draws_per_trial))
        _kernel_matching_single_runs(runner, inputs, uniforms)
