"""End-to-end teleportation protocol: sampled runs and exact averages.

The register layout is fixed: subsystem 0 is the receiver's half of the
entangled pair, subsystem 1 the sender's half, subsystem 2 the unknown
input state, flattened with subsystem 0 most significant.  Every object
is kept in one form: the register after the controlled shift comes from
``_post_shift``, stage operators are the diagonals stored on each
``McStage``, and the receiver correction X^-k Z^l is a phase multiply
and a cyclic shift read from two D x D tables (``_correction_tables``).

Two evaluation routes are provided for every strategy.  ``monte_carlo``
samples full protocol runs (Haar-random inputs, Born-rule measurements)
in blocks of trials with ``ProtocolRunner.run_block``, which keeps each
trial on the b = m support of the register; ``ProtocolRunner.run`` is the
single-run reference, and every ``monte_carlo`` call replays one trial
through both and requires them to agree.  ``exact_average_fidelity``
enumerates every measurement branch as a linear operator on the input and
sums, per branch set, the squared traces Q and the squared norms T of
those operators; the Haar-averaged fidelity is (Q + T) / ((D + 1) T).  It
involves no sampling and serves as the oracle the sampled statistics are
checked against.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from math import ceil, log2

import numpy as np

# ``make_channel`` is unused here but stays importable from this module:
# the benchmark's layer trace (perfbench/layers.py) wraps it by this name.
from .channels import DEFAULT_TIE_TOL, SchmidtChannel, channel_state, make_channel  # noqa: F401
from .discrimination import (
    KIND_DETERMINISTIC,
    KIND_SMC,
    StagePlan,
    StrategyConfig,
    build_stage_plan,
)
from .qudit import (
    QuditState,
    _gxor_permutation,
    _phase_table,
    fourier,
    haar_random_state,
    haar_random_states,
)

# Branch sets with less Haar-averaged probability than this are treated as
# unreachable when conditioning.
MIN_BRANCH_MASS = 1e-12

# Monte Carlo block size: a block's largest array, (B, D, D) reals, holds
# about this many entries (512 KB), so B = BLOCK_ENTRIES // D^2.
BLOCK_ENTRIES = 2**16

# Largest fidelity difference the replayed trial may show between
# ``ProtocolRunner.run`` and ``ProtocolRunner.run_block``.
REPLAY_ATOL = 1e-12


@dataclass(frozen=True)
class TeleportRecord:
    """Outcome trace of a single protocol run.

    ``stage_reached`` is 0 on the deterministic path, otherwise the index
    of the last filtering stage executed.  ``bob_state`` and
    ``run_fidelity`` are absent for discarded attempts.
    """

    input_state: QuditState
    stage_reached: int
    conclusive: bool
    alice_outcomes: tuple[int, int] | None
    classical_bits_used: int
    bob_state: QuditState | None
    run_fidelity: float | None


def _post_shift(chvec: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Register after the controlled shift (sender half controls the input).

    ``inputs`` is one input vector, shape (D,), or D input columns, shape
    (D, D).  Returns t[b, m, j] or t[b, m, j, i] for input column i.
    """
    D = inputs.shape[0]
    flat = np.multiply.outer(chvec, inputs).reshape((D**3,) + inputs.shape[1:])
    return flat[_gxor_permutation((D,) * 3, 1, 2)].reshape((D,) * 3 + inputs.shape[1:])


@lru_cache(maxsize=16)
def _correction_tables(D: int) -> tuple[np.ndarray, np.ndarray]:
    """phases[l, n] = exp(2 pi i l n / D) and shifts[k, m] = (m + k) mod D.

    X^-k Z^l v is ``(phases[l] * v)[shifts[k]]``; ``phases`` is symmetric.
    """
    n = np.arange(D)
    phases = _phase_table(D)[np.multiply.outer(n, n) % D]
    shifts = np.add.outer(n, n) % D
    phases.setflags(write=False)
    shifts.setflags(write=False)
    return phases, shifts


def _receiver_correction(vec: np.ndarray, l: int, k: int) -> np.ndarray:
    """X^-k Z^l applied to the receiver's vector."""
    phases, shifts = _correction_tables(vec.size)
    return (phases[l] * vec)[shifts[k]]


class ProtocolRunner:
    """Prepared protocol for one channel and strategy; reusable across runs.

    ``run`` works on raw (D, D, D) amplitude arrays with the stage
    operators applied as diagonals, but draws from the generator in
    exactly the same order and with the same Born weights as the public
    register operations, so a run is reproducible either way.
    ``run_block`` is the same process for a block of trials at once.
    """

    def __init__(
        self,
        channel: SchmidtChannel,
        cfg: StrategyConfig,
        tie_tolerance: float = DEFAULT_TIE_TOL,
    ):
        self.channel = channel
        self.cfg = cfg
        self.D = D = channel.D
        self._chvec = channel_state(channel).amplitudes
        self._finv = fourier(D).dagger().entries
        self._bits_base = 2 * ceil(log2(D))
        self.plan: StagePlan | None = None
        self._filters = []
        if cfg.kind == KIND_SMC:
            self.plan = build_stage_plan(channel, tie_tolerance)
            if cfg.k_max > self.plan.M:
                raise ValueError(
                    f"k_max={cfg.k_max} exceeds the {self.plan.M} stage(s) "
                    f"this channel admits"
                )
            self._filters = [(s.K_s, s.K_f) for s in self.plan.stages[: cfg.k_max]]
        # Uniforms one trial may consume: one per stage, then l and k.
        self.draws_per_trial = len(self._filters) + 2
        # Tables of the block kernel: the Schmidt weights padded to D,
        # |F^+[l, b]|^2, and the input index (b - j) mod D that meets
        # receiver index b at j.
        self._weights = np.zeros(D)
        self._weights[: channel.N] = channel.coeffs
        self._rot_weights = np.abs(self._finv) ** 2
        self._diff = np.subtract.outer(np.arange(D), np.arange(D)) % D

    @staticmethod
    def _sample_axis(probs: np.ndarray, rng: np.random.Generator) -> int:
        cum = np.cumsum(probs)
        outcome = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return min(outcome, probs.size - 1)

    def run(self, input_state: QuditState, rng: np.random.Generator) -> TeleportRecord:
        if input_state.dims != (self.D,):
            raise ValueError(
                f"input must be a single qudit of dimension {self.D}, "
                f"got dims {input_state.dims}"
            )
        t = _post_shift(self._chvec, input_state.amplitudes)

        stage_reached = 0
        conclusive = True
        if self.cfg.kind == KIND_SMC:
            conclusive = False
            for stage_reached, (ks, kf) in enumerate(self._filters, start=1):
                psi = t * ks[:, None]
                p_s = np.vdot(psi, psi).real
                if rng.random() < p_s:
                    t = psi / np.sqrt(p_s)
                    conclusive = True
                    break
                psi = t * kf[:, None]
                t = psi / np.sqrt(np.vdot(psi, psi).real)

        outcomes = bob = fid = None
        if conclusive or self.cfg.fallback != "discard":
            # Minimum-error readout (Fourier basis, correction X^-k Z^l), or
            # for ``guess`` a computational readout corrected by X^-k.
            me = conclusive or self.cfg.fallback == "me"
            if me:
                t = np.matmul(self._finv, t)
            probs_l = (np.abs(t) ** 2).sum(axis=(0, 2))
            l = self._sample_axis(probs_l, rng)
            slice_l = t[:, l, :] / np.sqrt(probs_l[l])
            probs_k = (np.abs(slice_l) ** 2).sum(axis=0)
            k = self._sample_axis(probs_k, rng)
            bob_vec = _receiver_correction(
                slice_l[:, k] / np.sqrt(probs_k[k]), l if me else 0, k
            )
            outcomes = (l, k)
            bob = QuditState((self.D,), bob_vec)
            fid = float(np.abs(np.vdot(input_state.amplitudes, bob_vec)) ** 2)
        return TeleportRecord(
            input_state=input_state,
            stage_reached=stage_reached,
            conclusive=conclusive,
            alice_outcomes=outcomes,
            classical_bits_used=self._bits_base + stage_reached,
            bob_state=bob,
            run_fidelity=fid,
        )

    def run_haar(self, rng: np.random.Generator) -> TeleportRecord:
        return self.run(haar_random_state(self.D, rng), rng)

    def run_block(
        self, inputs: np.ndarray, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run a block of trials at once: ``run`` vectorised over rows.

        ``inputs`` holds one unit input vector per row, shape (B, D).
        ``uniforms`` holds each trial's uniform numbers, shape
        (B, draws_per_trial), taken in the order ``run`` draws them: one
        per stage decision the trial makes, then one for each readout
        outcome.  Given the same input and numbers, a row here and ``run``
        agree on stage, conclusiveness and outcomes, and on the fidelity up
        to rounding.

        After the controlled shift the register t[b, m, j] vanishes unless
        b = m, where it equals w_b psi[(b - j) mod D] with w the Schmidt
        weights.  Stage operators act on m and so only rescale w, and every
        readout probability and the corrected receiver state follow from
        (w, psi): a trial never needs its (D, D, D) register.

        Returns (stage_reached, conclusive, outcomes, fidelity) per row;
        outcomes are (-1, -1) and fidelity NaN for discarded trials.
        """
        B, D = inputs.shape
        if D != self.D or uniforms.shape != (B, self.draws_per_trial):
            raise ValueError(
                f"expected inputs (B, {self.D}) and uniforms (B, {self.draws_per_trial}), "
                f"got {inputs.shape} and {uniforms.shape}"
            )
        w = np.tile(self._weights, (B, 1))
        stages = np.zeros(B, dtype=np.int64)
        conclusive = np.full(B, self.cfg.kind != KIND_SMC)
        live = np.arange(B)
        for s, (ks, kf) in enumerate(self._filters, start=1):
            stages[live] = s
            ws = w[live] * ks
            p_s = np.einsum("ij,ij->i", ws, ws)
            hit = uniforms[live, s - 1] < p_s
            w[live[hit]] = ws[hit] / np.sqrt(p_s[hit])[:, None]
            conclusive[live[hit]] = True
            live = live[~hit]
            wf = w[live] * kf
            w[live] = wf / np.sqrt(np.einsum("ij,ij->i", wf, wf))[:, None]

        outcomes = np.full((B, 2), -1, dtype=np.int64)
        fids = np.full(B, np.nan)
        rows = np.arange(B) if self.cfg.fallback != "discard" else np.flatnonzero(conclusive)
        # Minimum-error readout for conclusive trials and the ``me``
        # fallback; ``guess`` reads the sender index m directly.
        me = conclusive[rows] | (self.cfg.fallback == "me")
        w = w[rows]
        w2 = w**2
        q = np.abs(inputs[rows]) ** 2
        first = stages[rows]
        # Sender outcome o: l after the Fourier rotation, else m.  g[b] is
        # the weight receiver index b carries into outcome o.
        probs1 = np.where(me[:, None], w2 @ self._rot_weights.T, w2)
        o1 = _sample_rows(probs1, uniforms[rows, first])
        g = np.where(me[:, None], self._rot_weights[o1], np.arange(D) == o1[:, None])
        p1 = np.take_along_axis(probs1, o1[:, None], axis=1)[:, 0]
        probs2 = np.matmul((g * w2)[:, None, :], q[:, self._diff])[:, 0] / p1[:, None]
        o2 = _sample_rows(probs2, uniforms[rows, first + 1])
        p2 = np.take_along_axis(probs2, o2[:, None], axis=1)[:, 0]
        # After X^-k Z^l the receiver holds coef[s] w_s psi[n] / sqrt(p1 p2)
        # at index n, with s = n + k mod D (l = 0 for ``guess``).
        phases, shifts = _correction_tables(D)
        coef = np.where(me[:, None], phases[o1] * self._finv[o1], g)
        amp = np.take_along_axis(coef * w, shifts[o2], axis=1)
        outcomes[rows] = np.stack((o1, o2), axis=1)
        fids[rows] = np.abs(np.einsum("rn,rn->r", q, amp)) ** 2 / (p1 * p2)
        return stages, conclusive, outcomes, fids


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise ``ProtocolRunner._sample_axis``: one outcome per row."""
    cum = np.cumsum(probs, axis=1)
    # Counting over all but the last column clamps the outcome at D - 1.
    return (cum[:, :-1] <= (u * cum[:, -1])[:, None]).sum(axis=1)


def run_protocol(
    channel: SchmidtChannel,
    input_state: QuditState,
    cfg: StrategyConfig,
    rng: np.random.Generator,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> TeleportRecord:
    """Run the full protocol once on a given input state."""
    return ProtocolRunner(channel, cfg, tie_tolerance).run(input_state, rng)


# ---------------------------------------------------------------------------
# Monte Carlo sampling


@dataclass(frozen=True)
class AggregateStats:
    """Per-bucket and overall summaries of a batch of protocol runs.

    Buckets are the conclusive stages in order, then the terminal bucket
    (exhausted or discarded attempts); for the deterministic strategy there
    is a single bucket.  Counts over all buckets sum to ``trials``.
    Fidelity columns hold NaN where a bucket is empty or carries no output
    state (discarded attempts).
    """

    trials: int
    labels: tuple[str, ...]
    counts: np.ndarray
    probabilities: np.ndarray
    mean_fidelity: np.ndarray
    stderr_fidelity: np.ndarray
    min_fidelity: np.ndarray
    max_fidelity: np.ndarray
    conclusive_probability: float
    overall_mean_fidelity: float
    overall_stderr_fidelity: float

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def stage_count(self, k: int) -> int:
        return int(self.counts[self.index(f"stage{k}")])

    def stage_probability(self, k: int) -> float:
        return float(self.probabilities[self.index(f"stage{k}")])

    def stage_mean_fidelity(self, k: int) -> float:
        return float(self.mean_fidelity[self.index(f"stage{k}")])

    def stage_stderr_fidelity(self, k: int) -> float:
        return float(self.stderr_fidelity[self.index(f"stage{k}")])


def _bucket_labels(cfg: StrategyConfig) -> tuple[str, ...]:
    if cfg.kind == KIND_DETERMINISTIC:
        return ("deterministic",)
    terminal = {"me": "exhausted-me", "guess": "exhausted-guess", "discard": "discarded"}
    return tuple(f"stage{k}" for k in range(1, cfg.k_max + 1)) + (terminal[cfg.fallback],)


def block_size(D: int) -> int:
    """Trials per Monte Carlo block at dimension D (at least 1)."""
    return max(1, BLOCK_ENTRIES // (D * D))


# Generator streams under one seed: the blocks, and the replayed trial.
_BLOCK_STREAM, _REPLAY_STREAM = 0, 1


def _generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _draw(runner: ProtocolRunner, rng: np.random.Generator, n: int):
    """Inputs, then uniforms, of ``n`` trials for ``run_block``."""
    return haar_random_states(runner.D, n, rng), rng.random((n, runner.draws_per_trial))


def _run_blocks(runner: ProtocolRunner, seed: int, trials: int, first: int, stop: int):
    """(stage_reached, conclusive, fidelity) of blocks [first, stop), in
    block order.  Block i draws from its own generator, keyed by
    (seed, i), so the result does not depend on how blocks are shared."""
    size = block_size(runner.D)
    parts = []
    for block in range(first, stop):
        n = min(size, trials - block * size)
        rng = _generator(seed, _BLOCK_STREAM, block)
        stages, conclusive, _, fids = runner.run_block(*_draw(runner, rng, n))
        parts.append((stages, conclusive, fids))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _replay_check(runner: ProtocolRunner, seed: int) -> None:
    """Run one trial through ``run_haar``, and the same input and uniforms
    (re-drawn from an equal generator) through ``run_block``; raise
    AssertionError if stage, conclusiveness, outcomes or fidelity differ."""
    rec = runner.run_haar(_generator(seed, _REPLAY_STREAM))
    batch = runner.run_block(*_draw(runner, _generator(seed, _REPLAY_STREAM), 1))
    stage, conclusive, outcomes, fid = (a[0] for a in batch)
    want = (rec.stage_reached, rec.conclusive, rec.alice_outcomes or (-1, -1))
    got = (int(stage), bool(conclusive), tuple(outcomes.tolist()))
    if rec.run_fidelity is None:
        same_fid = bool(np.isnan(fid))
    else:
        same_fid = abs(fid - rec.run_fidelity) <= REPLAY_ATOL
    if got != want or not same_fid:
        raise AssertionError(
            f"replayed trial disagrees: (stage, conclusive, outcomes) is {want} "
            f"with F={rec.run_fidelity!r} from run, {got} with F={fid!r} from run_block"
        )


def _summarize(values: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, standard error, min, max of a fidelity sample (NaN if empty)."""
    values = values[~np.isnan(values)]
    if values.size == 0:
        return np.nan, np.nan, np.nan, np.nan
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else np.nan
    return mean, stderr, float(values.min()), float(values.max())


def monte_carlo(
    channel: SchmidtChannel,
    cfg: StrategyConfig,
    trials: int,
    seed: int,
    workers: int = 1,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> AggregateStats:
    """Sample ``trials`` protocol runs on fresh Haar inputs.

    Trials run in blocks of ``block_size(D)``; block i draws its inputs
    and uniforms from one generator keyed by (seed, i).  The result is
    deterministic given ``seed`` and bit-identical for any ``workers``:
    each worker (at most ``os.cpu_count()`` and the number of blocks) gets
    whole blocks, and aggregation folds them in block order.  One more
    trial, from a generator of its own, is replayed through
    ``ProtocolRunner.run_haar`` and ``run_block``; AssertionError if the
    two disagree.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    runner = ProtocolRunner(channel, cfg, tie_tolerance)
    _replay_check(runner, seed)

    n_blocks = ceil(trials / block_size(channel.D))
    workers = min(workers, os.cpu_count() or 1, n_blocks)
    if workers <= 1:
        stages, conclusive, fids = _run_blocks(runner, seed, trials, 0, n_blocks)
    else:
        bounds = np.linspace(0, n_blocks, workers + 1).astype(int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(partial(_run_blocks, runner, seed, trials),
                                  bounds[:-1], bounds[1:]))
        stages, conclusive, fids = (np.concatenate(p) for p in zip(*parts))

    labels = _bucket_labels(cfg)
    counts = np.zeros(len(labels), dtype=int)
    stats = np.full((len(labels), 4), np.nan)
    for i, label in enumerate(labels):
        if label == "deterministic":
            mask = np.ones(trials, dtype=bool)
        elif label.startswith("stage"):
            mask = conclusive & (stages == int(label[5:]))
        else:
            mask = ~conclusive
        counts[i] = int(mask.sum())
        stats[i] = _summarize(fids[mask])

    overall_mean, overall_stderr, _, _ = _summarize(fids)
    return AggregateStats(
        trials=trials,
        labels=labels,
        counts=counts,
        probabilities=counts / trials,
        mean_fidelity=stats[:, 0],
        stderr_fidelity=stats[:, 1],
        min_fidelity=stats[:, 2],
        max_fidelity=stats[:, 3],
        conclusive_probability=float(np.mean(conclusive)),
        overall_mean_fidelity=overall_mean,
        overall_stderr_fidelity=overall_stderr,
    )


# ---------------------------------------------------------------------------
# Exact branch enumeration


def _branch_sums(t: np.ndarray, rotate: bool) -> tuple[float, float]:
    """(Q, T) of the D^2 branch operators C_lk R_lk of one readout.

    ``t[b, s, k, i]`` is the register entering the sender's readout for
    basis input i.  With ``rotate`` the readout is the minimum-error one,
    R_lk = (F^+ t)[:, l, k, :] with F^+ acting on s and C_lk = X^-k Z^l;
    without it (``guess``) R_lk = t[:, l, k, :] and C_lk = X^-k.  Since
    tr(C_lk R_lk) = sum_i phases[l, i + k] R_lk[i + k, i], the rotation is
    applied to those D^3 entries only, and T = sum |t|^2 because C_lk and
    F^+ are unitary.
    """
    D = t.shape[0]
    phases, shifts = _correction_tables(D)
    # diag[k, i, s] = t[(i + k) mod D, s, k, i]
    diag = t[shifts, :, np.arange(D)[:, None], np.arange(D)]
    if rotate:
        finv = fourier(D).dagger().entries
        diag = np.tensordot(diag, finv, axes=([2], [1])) * phases[shifts]
    traces = diag.sum(axis=1)
    return float(np.vdot(traces, traces).real), float(np.vdot(t, t).real)


def _branch_sets(
    channel: SchmidtChannel, cfg: StrategyConfig, tie_tolerance: float
) -> dict[str, tuple[float, float]]:
    """All measurement branches of a strategy, as (Q, T) per branch set.

    Everything before the measurements is linear in the input state, so
    feeding the D basis states through the pipeline and projecting on each
    outcome yields, branch by branch, a D x D operator M_i (receiver
    correction included).  A set of branches is kept as its pair
    Q = sum |tr M_i|^2, T = sum tr(M_i^+ M_i): its Haar-averaged fidelity
    is (Q + T) / ((D + 1) T) and its total probability T/D.  The sets are
    "deterministic", or "stage1".."stage{k_max}" plus the exhausted
    branches finished by the minimum-error readout ("exhausted-me") or
    read out directly ("exhausted-guess").
    """
    D = channel.D
    tensor = _post_shift(channel_state(channel).amplitudes, np.eye(D, dtype=complex))
    if cfg.kind == KIND_DETERMINISTIC:
        sets = {"deterministic": _branch_sums(tensor, rotate=True)}
    else:
        plan = build_stage_plan(channel, tie_tolerance)
        if cfg.k_max > plan.M:
            raise ValueError(
                f"k_max={cfg.k_max} exceeds the {plan.M} stage(s) "
                f"this channel admits"
            )
        sets = {}
        for k, stage in enumerate(plan.stages[: cfg.k_max], start=1):
            sets[f"stage{k}"] = _branch_sums(
                tensor * stage.K_s[None, :, None, None], rotate=True
            )
            tensor *= stage.K_f[None, :, None, None]
        sets["exhausted-me"] = _branch_sums(tensor, rotate=True)
        sets["exhausted-guess"] = _branch_sums(tensor, rotate=False)
    total = sum(t for label, (_, t) in sets.items() if label != "exhausted-guess") / D
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"branch probabilities sum to {total!r}, not 1")
    return sets


def exact_average_fidelity(
    channel: SchmidtChannel,
    cfg: StrategyConfig,
    condition: str = "overall",
    stage: int | None = None,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> float:
    """Haar-averaged teleportation fidelity by exact branch enumeration.

    ``condition`` selects which branches count:

    * ``overall``: every branch the strategy produces.  With the
      ``discard`` fallback this is conditioned on a conclusive outcome,
      since discarded attempts deliver no state.
    * ``conclusive-at-stage``: branches conclusive at stage ``stage``.
    * ``inconclusive-then-me``: the attempt filtered inconclusive through
      all ``k_max`` stages and was then finished with the minimum-error
      completion (whatever ``cfg.fallback`` says).

    Raises ValueError when the condition has no probability mass for the
    channel, e.g. a stage beyond ``k_max`` or an inconclusive branch that
    cannot occur.
    """
    sets = _branch_sets(channel, cfg, tie_tolerance)
    if condition == "overall":
        if cfg.kind == KIND_DETERMINISTIC:
            chosen = ["deterministic"]
        else:
            chosen = [f"stage{k}" for k in range(1, cfg.k_max + 1)]
            if cfg.fallback != "discard":
                chosen.append(f"exhausted-{cfg.fallback}")
    elif cfg.kind == KIND_DETERMINISTIC:
        raise ValueError(f"condition {condition!r} needs the staged strategy")
    elif condition == "conclusive-at-stage":
        if stage is None:
            raise ValueError("condition 'conclusive-at-stage' requires a stage")
        if f"stage{stage}" not in sets:
            raise ValueError(f"stage {stage} is outside the executed range")
        chosen = [f"stage{stage}"]
    elif condition == "inconclusive-then-me":
        chosen = ["exhausted-me"]
    else:
        raise ValueError(f"unknown condition {condition!r}")
    q = sum(sets[label][0] for label in chosen)
    t = sum(sets[label][1] for label in chosen)
    if t / channel.D < MIN_BRANCH_MASS:
        raise ValueError(
            f"condition {condition!r} has ~zero probability on this channel; "
            f"fidelity undefined"
        )
    return (q + t) / ((channel.D + 1) * t)


def exact_branch_probabilities(
    channel: SchmidtChannel,
    cfg: StrategyConfig,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> dict[str, float]:
    """Haar-averaged probability of each branch bucket, from enumeration."""
    sets = _branch_sets(channel, cfg, tie_tolerance)
    if cfg.kind == KIND_DETERMINISTIC:
        return {"deterministic": 1.0}
    out = {k: t / channel.D for k, (_, t) in sets.items() if k.startswith("stage")}
    out["exhausted"] = sets["exhausted-me"][1] / channel.D
    return out
