"""End-to-end teleportation protocol: sampled runs and exact averages.

The register t[b, m, j] is indexed by the receiver's half b of the
entangled pair, the sender's half m and the unknown input j; no kernel
holds it whole.  Every object is kept in one form: ``_post_shift`` builds the register after the
controlled shift from the Schmidt weights, as its b = m diagonal (it
vanishes elsewhere), stage operators are rows of the plan's (M, D)
Kraus diagonal arrays, and every kernel reads its D x D tables (F^+ and
the phases of the correction X^-k Z^l) from one cache, ``_tables``;
nothing of size D^3 is cached.

Two evaluation routes are provided for every strategy.  ``monte_carlo``
samples full protocol runs (Haar-random inputs, Born-rule measurements)
in groups of ``group_size(D)`` trials, each group drawn from one
generator of its own and run by one ``ProtocolRunner.run_block`` call.
The kernel reads only the squared moduli |psi_n|^2 of an input, which
for a Haar state are uniform on the simplex, so a group draws them
directly: D standard exponentials per trial divided by their sum.  A
trial's end class (the stage it is conclusive at, or exhausted) is its
bucket in every route, named only by ``_bucket_labels``.  All trials of a
class carry the same filtered Schmidt weights and the same readout, so
the runner decides both once per class, in (k_max + 1, D) and
(k_max + 1,) tables, sorts a call's trials by class once, and a group
needs no array larger than (rows, D), at most ``BLOCK_ENTRIES`` entries.  The kernel
keeps its NumPy passes few and wide, with the bits of its row-major form:
the class index takes one comparison per stage into an ``int16`` array,
the running sums of the second outcome are laid out (D, rows), so the
search for each trial's outcome runs along trials rather than along D,
and each bucket's mean and standard error come from one shared sum
(``_summarize``).  From about 280 (1 - 3.7 / D) rows a class forms those
sums as D - 1 adds of whole rows along trials, not ``np.cumsum`` along the
short D axis (``_running_sums``).  A minimum-error class reads its two
circulants, w_c^2[(i + j) mod D] and w_c[(n + o2) mod D], as views of its
weights repeated twice, built in the call, so the runner keeps no view.
``ProtocolRunner.run`` is the single-run reference, on the (D, D)
diagonal of the register, reading the same per-class readout tables; it
returns its trial as a row of ``run_block`` (a ``TeleportRecord``), and
every ``monte_carlo`` call replays one trial through both and requires
the two rows to agree.
``exact_average_fidelity`` treats every measurement branch as a linear
operator on the input and sums, per branch set, the squared traces Q and
the squared norms T of those operators; the Haar-averaged fidelity is
(Q + T) / ((D + 1) T).  It involves no sampling and serves as the oracle
the sampled statistics are checked against, read by the same labels.  It
applies the plan's Kraus diagonals to the D Schmidt weights (the register
after the controlled shift vanishes unless b = m) and reads each set's
(Q, T) from their trace identity in O(D).  The one enumeration,
``_branch_sets``, is cached, so every oracle row reads the same sets.

The sampler and the oracle both take their stage operators from
``build_stage_plan``, which caches the last plan it built, so one plan
serves every call on the same channel and tie tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import ceil
from types import MappingProxyType

import numpy as np

# ``make_channel`` is unused here but stays importable from this module:
# the benchmark's layer trace (perfbench/layers.py) wraps it by this name.
from .channels import DEFAULT_TIE_TOL, SchmidtChannel, make_channel  # noqa: F401
from .discrimination import (
    KIND_DETERMINISTIC,
    KIND_SMC,
    StrategyConfig,
    build_stage_plan,
)
from .qudit import (
    _phase_table,
    check_allocation,
    check_index,
    haar_random_state,
    haar_random_states,
    map_slices,
)

# Branch sets with less Haar-averaged probability than this are treated as
# unreachable when conditioning.
MIN_BRANCH_MASS = 1e-12

# Monte Carlo group size, BLOCK_ENTRIES // D trials (``group_size``), so no
# (rows, D) array of a kernel call holds more than BLOCK_ENTRIES entries.
# Group g draws from generator (seed, 0, g), so the size is part of what
# defines the samples.
BLOCK_ENTRIES = 2**16

# A class's running sums take whole-row adds from about
# SUM_ADD_ROWS (1 - 3.7 / D) rows (``_sum_add_rows``); the samples do not
# depend on it.
SUM_ADD_ROWS = 280

# Largest deviation of an input's squared norm from 1 that ``run`` accepts.
INPUT_NORM_ATOL = 1e-12

# Largest fidelity difference the replayed trial may show between
# ``ProtocolRunner.run`` and ``ProtocolRunner.run_block``.
REPLAY_ATOL = 1e-12


@dataclass(frozen=True)
class TeleportRecord:
    """One protocol run, as a row of ``ProtocolRunner.run_block``.

    ``end_class`` is s - 1 for a run conclusive at stage s, else the last
    class, k_max (the deterministic strategy's one class is 0).
    ``outcomes`` are the sender's readout outcomes and ``bob_state`` the
    receiver's amplitude array; a discarded attempt has outcomes (-1, -1),
    fidelity NaN and no ``bob_state``.
    """

    end_class: int
    outcomes: tuple[int, int]
    fidelity: float
    bob_state: np.ndarray | None


# A verify works at one D and a benchmark process at two at most (D = 24
# and 32), so four entries of a few D x D arrays each cover the traffic.
@lru_cache(maxsize=4)
def _tables(D: int) -> tuple[np.ndarray, ...]:
    """Read-only (finv, rot, phases, diff): F^+, |F^+|^2,
    phases[l, n] = exp(2 pi i l n / D) and diff[b, j] = (b - j) mod D.

    X^-k Z^l v is ``np.roll(phases[l] * v, -k)``, row l of the symmetric
    ``phases`` being the diagonal of Z^l, and F^+ = (phases / sqrt(D))^+
    is the inverse of the Fourier matrix F[m, n] = exp(2 pi i m n / D) / sqrt(D).
    """
    n = np.arange(D)
    phases = _phase_table(D)[np.multiply.outer(n, n) % D]
    finv = (phases / np.sqrt(D)).conj().T
    tables = (finv, np.abs(finv) ** 2, phases, np.subtract.outer(n, n) % D)
    for table in tables:
        table.setflags(write=False)
    return tables


def _post_shift(w: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Diagonal t[b, j] = t[b, b, j] = w[b] psi[(b - j) mod D] of the
    register t[b, m, j] after the controlled shift (sender half m controls
    the input j), for the Schmidt weights ``w`` padded to D and the input
    ``psi``; the register vanishes off b = m."""
    return w[:, None] * psi[_tables(psi.size)[3]]


def _stage_filters(channel: SchmidtChannel, cfg: StrategyConfig,
                   tie_tolerance: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(K_s, K_f) diagonals of the first ``cfg.k_max`` filtering stages (none
    for the deterministic strategy); ValueError if there are fewer."""
    if cfg.kind != KIND_SMC:
        return []
    plan = build_stage_plan(channel, tie_tolerance)
    if cfg.k_max > plan.M:
        raise ValueError(f"k_max={cfg.k_max} exceeds the {plan.M} stage(s) this channel admits")
    return list(zip(plan.K_s[: cfg.k_max], plan.K_f[: cfg.k_max]))


class ProtocolRunner:
    """Prepared protocol for one channel and strategy; reusable across runs.

    ``run`` works on the raw (D, D) diagonal t[b, j] = t[b, b, j] of the
    register, the only entries the controlled shift leaves nonzero, with
    the stage operators rescaling its rows; it draws from the generator in
    exactly the same order and with the same Born weights as the paper's
    circuit on the full (D, D, D) register (``tests/reference_circuit.py``),
    so a run is reproducible either way.  The input must be a finite unit
    vector of D amplitudes; ``make_state`` normalizes raw amplitudes.
    ``run_block`` is the same process for a block of trials at once.  Both
    read each end class's readout (minimum error, ``guess`` or none) from
    the per-class tables built here, and ``run`` returns its trial as a
    row of ``run_block``.
    """

    def __init__(
        self,
        channel: SchmidtChannel,
        cfg: StrategyConfig,
        tie_tolerance: float = DEFAULT_TIE_TOL,
    ):
        self.D = D = channel.D
        # No array here or in a run is larger than D x D: a run, the tables
        # included, peaks at about 7 complex (D, D) arrays.
        check_allocation(f"the (D, D) arrays of a single run at D={D}", 8 * 16 * D**2)
        self._filters = _stage_filters(channel, cfg, tie_tolerance)
        # Uniforms one trial may consume: one per stage, then l and k.
        self.draws_per_trial = len(self._filters) + 2
        # The Schmidt weights padded to D: all a kernel reads of the channel.
        self._weights = np.zeros(D)
        self._weights[: channel.N] = channel.coeffs

        # ``run`` and ``run_block`` read the following per-class tables.  A
        # trial's end class is the stage s it is conclusive at (class s - 1)
        # or, once every stage failed, class k_max; the deterministic
        # strategy has the one class 0.  All trials of a class carry the same
        # filtered weights ``_class_w``.  ``_p_end[s - 1]`` is the success
        # probability of stage s given that a trial reaches it.
        w, rows, p_end = self._weights, [], []
        for ks, kf in self._filters:
            ws = w * ks
            p_end.append(np.einsum("j,j->", ws, ws))
            rows.append(ws / np.sqrt(p_end[-1]))
            wf = w * kf
            norm = np.sqrt(np.einsum("j,j->", wf, wf))
            # A stage that cannot fail leaves no trial to exhaust the budget:
            # the last class keeps zero weights rather than 0/0.
            w = wf / norm if norm > 0 else wf
        self._p_end = np.array(p_end)
        self._class_w = np.array(rows + [w])
        # Per class: conclusive; read out by minimum error (Fourier basis,
        # correction X^-k Z^l) rather than ``guess`` (sender index m,
        # correction X^-k); delivers a state.
        k = len(self._filters)
        fallback = cfg.fallback if cfg.kind == KIND_SMC else "me"
        self._conclusive = np.array([True] * k + [cfg.kind != KIND_SMC])
        self._me = np.array([True] * k + [fallback == "me"])
        self._delivers = np.array([True] * k + [fallback != "discard"])
        # Every readout, and the oracle's trace identity, rests on
        # phases[l, s] F^+[l, s] = 1/sqrt(D) (4.5e-16 off at most for D <= 1024).
        finv, rot, phases = _tables(D)[:3]
        deviation = float(np.abs(np.sqrt(D) * phases * finv - 1).max())
        if not deviation <= 1e-12:
            raise AssertionError(f"the correction phases and F^+ disagree at D={D}: "
                                 f"|sqrt(D) phases F^+ - 1| reaches {deviation:.3g}")
        # Each class's sender-outcome distribution and its running sum.
        self._probs1 = np.where(self._me[:, None], self._class_w**2 @ rot.T, self._class_w**2)
        self._cum1 = np.cumsum(self._probs1, axis=1)

    def run(self, amps, rng: np.random.Generator) -> TeleportRecord:
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (self.D,):
            raise ValueError(
                f"input must be a single qudit of dimension {self.D}, got "
                f"amplitudes of shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("input amplitudes must be finite")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > INPUT_NORM_ATOL:
            raise ValueError(
                f"input state is not normalized: its squared norm is {norm2!r}; "
                "make_state builds a normalized state from raw amplitudes"
            )
        t = _post_shift(self._weights, amps)

        end = len(self._filters)
        for s, (ks, kf) in enumerate(self._filters):
            psi = t * ks[:, None]
            p_s = np.vdot(psi, psi).real
            if rng.random() < p_s:
                t, end = psi / np.sqrt(p_s), s
                break
            psi = t * kf[:, None]
            t = psi / np.sqrt(np.vdot(psi, psi).real)
        if not self._delivers[end]:
            return TeleportRecord(end, (-1, -1), np.nan, None)

        # Minimum-error readout (Fourier basis, correction X^-k Z^l), or for
        # ``guess`` a computational readout corrected by X^-k.
        me = self._me[end]
        finv, rot, phases, _ = _tables(self.D)
        # (F^+ t)[b, l, j] = F^+[l, b] t[b, j], so outcome l has probability
        # |F^+|^2 @ (row sums of |t|^2); ``guess`` reads m = b directly and
        # keeps row l alone.
        rows = (np.abs(t) ** 2).sum(axis=1)
        probs_l = rot @ rows if me else rows
        l = int(_sample_shared(np.cumsum(probs_l), rng.random()))
        readout = finv[l] if me else np.arange(self.D) == l
        slice_l = readout[:, None] * t / np.sqrt(probs_l[l])
        probs_k = (np.abs(slice_l) ** 2).sum(axis=0)
        k = int(_sample_shared(np.cumsum(probs_k), rng.random()))
        v = slice_l[:, k] / np.sqrt(probs_k[k])
        bob = np.roll(phases[l if me else 0] * v, -k)
        return TeleportRecord(end, (l, k), float(np.abs(np.vdot(amps, bob)) ** 2), bob)

    def run_haar(self, rng: np.random.Generator) -> TeleportRecord:
        return self.run(haar_random_state(self.D, rng), rng)

    def run_block(
        self, probs: np.ndarray, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a block of trials at once: ``run`` vectorised over rows.

        ``probs`` holds the squared moduli |psi_n|^2 of one unit input
        vector per row, shape (B, D): all the kernel reads of an input.
        ``uniforms`` holds each trial's uniform numbers, shape
        (B, draws_per_trial), taken in the order ``run`` draws them: one
        per stage decision the trial makes, then one for each readout
        outcome.  Given the |psi|^2 of the same input and the same numbers,
        a row here and ``run`` agree on end class and outcomes, and on the
        fidelity up to rounding.

        After the controlled shift the register t[b, m, j] vanishes unless
        b = m, where it equals w_b psi[(b - j) mod D] with w the Schmidt
        weights.  Stage operators act on m and so only rescale w: a trial's
        weights w_c, and so the distribution of its first outcome o1, are
        fixed by its end class c (the tables built in ``__init__``).  The
        second outcome j has probability sum_i |psi_i|^2 w_c^2[(i + j) mod D]
        after the minimum-error readout, as |F^+|^2 = 1/D: one
        (rows, D) x (D, D) product per class.  After ``guess`` it has
        probability |psi[(o1 - j) mod D]|^2.  The receiver's overlap with
        the input is real, as phases[l, s] F^+[l, s] = 1/sqrt(D): one dot
        of |psi|^2 with the shifted w_c per row, or one entry for ``guess``.
        Every array is (B, D) or smaller: a trial never needs its register.

        Returns (end class, outcomes, fidelity) per row; outcomes are
        (-1, -1) and fidelity NaN for discarded trials.
        """
        B, D = probs.shape
        if D != self.D or uniforms.shape != (B, self.draws_per_trial):
            raise ValueError(
                f"expected probs (B, {self.D}) and uniforms (B, {self.draws_per_trial}), "
                f"got {probs.shape} and {uniforms.shape}"
            )
        diff = _tables(D)[3]
        k = len(self._filters)
        # The first stage whose uniform falls below its success probability:
        # stages set in reverse, so the first success wins; a trial every
        # stage failed keeps class k.  k <= D - 1 <= 1023 fits int16, whose
        # stable sort is a radix sort.
        ends = np.full(B, k, dtype=np.int16)
        for s in range(k - 1, -1, -1):
            ends[uniforms[:, s] < self._p_end[s]] = s

        outcomes = np.full((B, 2), -1, dtype=np.int64)
        fids = np.full(B, np.nan)
        # Rows sorted by end class, in trial order within a class: each class
        # is one slice, whose trials all read their readout uniforms from
        # the columns after their last stage, ``first`` and ``first + 1``.
        order = np.argsort(ends, kind="stable")
        edges = np.cumsum(np.bincount(ends, minlength=k + 1)).tolist()
        for c, (lo, hi) in enumerate(zip([0] + edges[:-1], edges)):
            if lo == hi or not self._delivers[c]:
                continue
            rows = order[lo:hi]
            q = probs.take(rows, axis=0)  # take: a faster gather than a[rows]
            first = min(c + 1, k)
            # Sender outcome o1: l after the Fourier rotation, else m.
            o1 = _sample_shared(self._cum1[c], uniforms[:, first].take(rows))
            p1 = self._probs1[c].take(o1)
            # Receiver outcome o2: one product with the class's circulant
            # w_c^2[(i + j) mod D] for minimum error, a gather for ``guess``.
            # Row j of w_c's circulant is w_c repeated twice, from index j.  The
            # product reads its (D, D) strided view squared into a new array:
            # the view itself rounds differently on one row.
            if self._me[c]:
                wc = np.concatenate((self._class_w[c], self._class_w[c]))
                probs2 = q @ np.ndarray((D, D), float, wc, strides=(8, 8))**2
            else:
                probs2 = np.take_along_axis(q, diff.take(o1, axis=0), axis=1)
            o2 = _sample_rows(_running_sums(probs2), uniforms[:, first + 1].take(rows))
            p2 = probs2.take(np.arange(0, rows.size * D, D) + o2)  # flat [arange, o2]
            # After X^-k Z^l the receiver holds phases[l, s] F^+[l, s] w_s psi[n]
            # / sqrt(p1 p2) at index n, with s = n + k mod D, and that phase
            # product is 1/sqrt(D) for every s: the overlap with the input is
            # the real sum_n q[n] w[(n + k) mod D] / sqrt(D).  ``guess`` leaves
            # w_m psi[n] at n = (m - k) mod D alone.  A shifted w_c is a row of
            # that circulant, one of D overlapping records: one index copies it.
            if self._me[c]:
                records = np.ndarray(D, f"V{8 * D}", wc, strides=(8,))  # void, 8D bytes
                shifted = records[o2].view(np.float64).reshape(rows.size, D)
                overlap = np.einsum("rn,rn->r", q, shifted) / np.sqrt(D)
            else:
                overlap = q[np.arange(rows.size), diff[o1, o2]] * self._class_w[c, o1]
            outcomes[rows, 0], outcomes[rows, 1] = o1, o2
            fids[rows] = overlap**2 / (p1 * p2)
        return ends, outcomes, fids


def _sum_add_rows(D: int) -> int:
    """The fewest rows of a class whose running sums ``_running_sums``
    forms as whole-row adds: 1 at D <= 3, 21 at D = 4, 151 at D = 8, 216
    at D = 16, 248 at D = 32 and 276 at D = 256 (above its 256-row group).

    On a 2-vCPU Xeon VM (NumPy 2.4), ``np.cumsum`` along the short D axis
    costs about 2.5 us plus 3.4 ns an entry and the D - 1 adds about
    0.7 us an add plus 0.9 ns an entry.  The adds measured faster from
    22 rows at D = 4, 64 at D = 5, 128 at D = 8, about 185 at D = 16 and
    190 to 380 at D = 24 to 200.
    """
    return max(1, ceil(SUM_ADD_ROWS * (1 - 3.7 / D)))


def _running_sums(probs: np.ndarray) -> np.ndarray:
    """Running sums of each row of ``probs`` (rows, D), laid out (D, rows),
    so ``_sample_rows`` compares and counts along trials.

    A small class takes ``np.cumsum`` along D; from ``_sum_add_rows(D)``
    rows, D - 1 adds of whole rows along trials,
    ``cum[j] = cum[j - 1] + probs[:, j]``.  Both make the additions of a
    row-wise ``np.cumsum`` in its order, so they return the same bits.
    """
    rows, D = probs.shape
    if rows < _sum_add_rows(D):
        return np.cumsum(probs.T, axis=0, out=np.empty((D, rows)))
    cum = np.empty((D, rows))
    cum[0] = probs[:, 0]
    for j in range(1, D):
        np.add(cum[j - 1], probs[:, j], out=cum[j])
    return cum


def _sample_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The single run's outcome draw per trial on running sums ``cum`` of
    the outcome probabilities, laid out (D, trials): one outcome per column."""
    # Counting over all but the last sum clamps the outcome at D - 1.
    return (cum[:-1] <= u * cum[-1]).sum(axis=0)


def _sample_shared(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_sample_rows`` for rows that all share the running sums ``cum``:
    one binary search per row, clamped at D - 1."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)


# ---------------------------------------------------------------------------
# Monte Carlo sampling


@dataclass(frozen=True)
class AggregateStats:
    """Per-bucket and overall summaries of a batch of protocol runs.

    Bucket c is end class c: the conclusive stages in order, then the
    terminal bucket (exhausted or discarded attempts), or the deterministic
    strategy's single bucket, so stage k is at index k - 1 of every
    column.  Counts over all buckets sum to ``trials``.  Fidelity columns
    hold NaN where a bucket is empty or carries no output state (discarded
    attempts).
    """

    trials: int
    counts: np.ndarray
    probabilities: np.ndarray
    mean_fidelity: np.ndarray
    stderr_fidelity: np.ndarray
    conclusive_probability: float
    overall_mean_fidelity: float
    overall_stderr_fidelity: float


def _bucket_labels(cfg: StrategyConfig) -> tuple[str, ...]:
    """The name of each end class, in class order."""
    if cfg.kind == KIND_DETERMINISTIC:
        return ("deterministic",)
    terminal = {"me": "exhausted-me", "guess": "exhausted-guess", "discard": "discarded"}
    return tuple(f"stage{k}" for k in range(1, cfg.k_max + 1)) + (terminal[cfg.fallback],)


def group_size(D: int) -> int:
    """Trials per kernel call, and per generator, at dimension D (at least 1)."""
    return max(1, BLOCK_ENTRIES // D)


# Generator streams under one seed: the groups, and the replayed trial.
_BLOCK_STREAM, _REPLAY_STREAM = 0, 1


def _generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _draw(runner: ProtocolRunner, rng: np.random.Generator, n: int):
    """|psi|^2 rows, then uniforms, of ``n`` trials for ``run_block``.

    The squared moduli of a Haar state are uniform on the simplex
    (Dirichlet(1, ..., 1)): D standard exponentials e, as e / sum(e).  A
    row of zeros, the only row whose sum is 0 (probability about 2^-53D),
    is redrawn before the uniforms, so every row can be normalised.
    """
    probs, uniforms = np.empty((n, runner.D)), np.empty((n, runner.draws_per_trial))
    rng.standard_exponential(out=probs)
    # The row sums that normalise the rows also find the rows of zeros.
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(sums == 0)
    while bad.size:
        probs[bad] = rng.standard_exponential((bad.size, runner.D))
        sums[bad] = probs[bad].sum(axis=1)
        bad = bad[sums[bad] == 0]
    rng.random(out=uniforms)
    probs /= sums[:, None]
    return probs, uniforms


def _group_draws(runner: ProtocolRunner, seed: int, trials: int, group: int):
    """``_draw`` of group ``group``: its ``group_size(D)`` trials (fewer
    in the last group) from one generator keyed by (seed, 0, group)."""
    size = group_size(runner.D)
    n = min(size, trials - group * size)
    return _draw(runner, _generator(seed, _BLOCK_STREAM, group), n)


def _run_blocks(runner: ProtocolRunner, seed: int, trials: int, groups: range):
    """(end class, fidelity) of ``groups``, in trial order, one
    ``run_block`` call per group.  Groups sit at fixed trial positions, so
    the result does not depend on how they are shared."""
    parts = []
    for group in groups:
        ends, _, fids = runner.run_block(*_group_draws(runner, seed, trials, group))
        parts.append((ends, fids))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _replay_check(runner: ProtocolRunner, seed: int) -> None:
    """Run one Haar trial through ``run_haar``, and the |psi|^2 of the
    same input with the same uniforms (re-drawn from the same generator,
    its state restored) through ``run_block``; raise AssertionError if
    end class, outcomes or fidelity differ."""
    rng = _generator(seed, _REPLAY_STREAM)
    start = rng.bit_generator.state
    rec = runner.run_haar(rng)
    rng.bit_generator.state = start
    probs = np.abs(haar_random_states(runner.D, 1, rng)) ** 2
    batch = runner.run_block(probs, rng.random((1, runner.draws_per_trial)))
    end, outcomes, fid = (a[0] for a in batch)
    want, got = (rec.end_class, rec.outcomes), (int(end), tuple(outcomes.tolist()))
    same_fid = abs(fid - rec.fidelity) <= REPLAY_ATOL or (np.isnan(fid) and np.isnan(rec.fidelity))
    if got != want or not same_fid:
        raise AssertionError(
            f"replayed trial disagrees: (end class, outcomes) is {want} "
            f"with F={rec.fidelity!r} from run, {got} with F={fid!r} from run_block"
        )


def _summarize(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a fidelity sample (NaN if empty).

    ``ndarray.mean`` and ``.std(ddof=1)`` step for step, from one shared
    sum of the sample: the same bits, with one reduction fewer."""
    values = values[~np.isnan(values)]
    n = values.size
    if n == 0:
        return np.nan, np.nan
    mean = np.add.reduce(values) / n
    stderr = np.nan
    if n > 1:
        dev = values - mean
        stderr = float(np.sqrt(np.add.reduce(dev * dev) / (n - 1)) / np.sqrt(n))
    return float(mean), stderr


def monte_carlo(
    channel: SchmidtChannel,
    cfg: StrategyConfig,
    trials: int,
    seed: int,
    workers: int = 1,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> AggregateStats:
    """Sample ``trials`` protocol runs on fresh Haar inputs.

    Trials run in groups of ``group_size(D)``, one ``run_block`` call
    each; group g draws its inputs, as |psi|^2 rows, and then its uniforms
    (``_draw``) from one generator keyed by (seed, 0, g).  The result is
    deterministic given ``seed`` and bit-identical for any ``workers``:
    each worker (``map_slices``: at most one per CPU and per group) gets
    whole groups, and aggregation folds them in trial order.  One more
    trial, from a generator of its own, is replayed through
    ``ProtocolRunner.run_haar`` and ``run_block``; AssertionError if the
    two disagree.
    """
    trials = check_index("trials", trials)
    seed = check_index("seed", seed)
    workers = check_index("workers", workers)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # The largest result array: 8 B per trial for the end classes and for
    # the fidelities (about 34 B per trial at peak in all).
    check_allocation(f"the per-trial results of {trials:,} trials", 8 * trials)
    runner = ProtocolRunner(channel, cfg, tie_tolerance)
    _replay_check(runner, seed)

    D = channel.D
    n_groups = ceil(trials / group_size(D))
    parts = map_slices(partial(_run_blocks, runner, seed, trials), range(n_groups), workers)
    ends, fids = parts[0] if len(parts) == 1 else (np.concatenate(p) for p in zip(*parts))

    classes = len(runner._filters) + 1
    counts = np.bincount(ends, minlength=classes)
    stats = np.array([_summarize(fids[ends == c]) for c in range(classes)])
    overall_mean, overall_stderr = _summarize(fids)
    return AggregateStats(
        trials=trials,
        counts=counts,
        probabilities=counts / trials,
        mean_fidelity=stats[:, 0],
        stderr_fidelity=stats[:, 1],
        conclusive_probability=float(counts[runner._conclusive].sum() / trials),
        overall_mean_fidelity=overall_mean,
        overall_stderr_fidelity=overall_stderr,
    )


# ---------------------------------------------------------------------------
# Exact branch enumeration


def _branch_sums(w: np.ndarray, rotate: bool) -> tuple[float, float]:
    """(Q, T) of the D^2 branch operators C_lk R_lk of one readout.

    ``w`` holds the Schmidt weights times the stage diagonals applied so
    far.  For basis input i the register t[b, s, j] entering the readout is
    w[s] at b = s, j = (s - i) mod D, else 0.  With ``rotate`` the readout
    is the minimum-error one, R_lk = (F^+ t)[:, l, k] with F^+ acting on s
    and C_lk = X^-k Z^l; without it (``guess``) R_lk = t[:, l, k] and
    C_lk = X^-k.  tr(C_lk R_lk) is the sum of w[s] phases[l, s] F^+[l, s] =
    w[s] / sqrt(D) over s, or w[l]: Q = D (sum w)^2, or D sum w^2, and
    T = D sum w^2, as C_lk and F^+ are unitary.
    """
    D, norm = w.size, float(w @ w)
    return (D * float(w.sum()) ** 2 if rotate else D * norm), D * norm


def _set_labels(cfg: StrategyConfig) -> tuple[str, ...]:
    """The sets of ``_branch_sets``: the stage buckets and, whatever the
    fallback, both exhausted readouts; or "deterministic"."""
    labels = _bucket_labels(cfg)
    staged = cfg.kind == KIND_SMC
    return (*labels[:-1], "exhausted-me", "exhausted-guess") if staged else labels


@lru_cache(maxsize=1)
def _branch_sets(
    channel: SchmidtChannel, cfg: StrategyConfig, tie_tolerance: float,
) -> MappingProxyType[str, tuple[float, float]]:
    """Measurement branches of a strategy, as (Q, T) per branch set.

    Everything before the measurements is linear in the input state, so
    feeding the D basis states through the pipeline and projecting on each
    outcome yields, branch by branch, a D x D operator M_i (receiver
    correction included).  A set of branches is kept as its pair
    Q = sum |tr M_i|^2, T = sum tr(M_i^+ M_i): its Haar-averaged fidelity
    is (Q + T) / ((D + 1) T) and its total probability T/D.  The sets are
    named by ``_set_labels``.

    The last result is cached by (channel identity, strategy, tie
    tolerance) and returned read-only; errors are not cached.
    """
    D = channel.D
    # The padded weights and at most two products of them are held at once.
    check_allocation(f"the oracle's length-D weights at D={D}", 3 * 8 * D)
    w = np.zeros(D)
    w[: channel.N] = channel.coeffs
    sums = []
    for ks, kf in _stage_filters(channel, cfg, tie_tolerance):
        sums.append(_branch_sums(w * ks, True))
        w = w * kf
    sums.append(_branch_sums(w, True))
    if cfg.kind == KIND_SMC:
        sums.append(_branch_sums(w, False))
    sets = dict(zip(_set_labels(cfg), sums))
    total = sum(t for label, (_, t) in sets.items() if label != "exhausted-guess") / D
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"branch probabilities sum to {total!r}, not 1")
    return MappingProxyType(sets)


def exact_average_fidelity(
    channel: SchmidtChannel,
    cfg: StrategyConfig,
    bucket: str | None = None,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> float:
    """Haar-averaged teleportation fidelity by exact branch enumeration.

    ``bucket`` names one set of the cached ``_branch_sets`` enumeration:
    "stage{k}" (conclusive at stage k), "exhausted-me" or "exhausted-guess"
    (every stage failed, then the minimum-error or the direct readout,
    whatever ``cfg.fallback`` says), or "deterministic".  ``None`` sums
    every bucket that delivers a state, in label order (so with the
    ``discard`` fallback it is conditioned on a conclusive outcome).

    Raises ValueError for a bucket this strategy has no set of, before any
    enumeration, or for one with ~zero probability on the channel.
    """
    if bucket is not None and bucket not in _set_labels(cfg):
        raise ValueError(f"unknown bucket {bucket!r}; this strategy's sets are "
                         f"{', '.join(_set_labels(cfg))}")
    sets = _branch_sets(channel, cfg, tie_tolerance)
    # A discarded attempt has no set: it delivers no state.
    chosen = ([bucket] if bucket is not None
              else [label for label in _bucket_labels(cfg) if label in sets])
    q = sum(sets[label][0] for label in chosen)
    t = sum(sets[label][1] for label in chosen)
    if t / channel.D < MIN_BRANCH_MASS:
        raise ValueError(f"bucket {bucket or 'overall'!r} has ~zero probability on this "
                         "channel; fidelity undefined")
    return (q + t) / ((channel.D + 1) * t)


def exact_branch_probabilities(
    channel: SchmidtChannel,
    cfg: StrategyConfig,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> dict[str, float]:
    """Haar-averaged probability T/D of each set of the cached
    ``_branch_sets``, under its label."""
    sets = _branch_sets(channel, cfg, tie_tolerance)
    return {label: t / channel.D for label, (_, t) in sets.items()}
