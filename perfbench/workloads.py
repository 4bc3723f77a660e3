"""Seeded inputs of the two benchmark workloads.

Every workload is one closed-loop client issuing CLI commands one at a
time.  A workload is a *cycle* of commands; the timed loop repeats the cycle
until the run's time is up, so repeated commands must print identical
output.  Each cycle runs all four subcommands, so every layer is measured
on every workload, and each subcommand has its own metrics:

* ``small_d`` -- the Python-bound regime: ``verify`` at D=4 (per-trial
  overhead in the Monte Carlo engine), the two paper-size ``sweep`` grids
  and hundreds of ``report``/``plan`` (``channel_report``, coefficient
  grouping and CLI formatting).
* ``large_d`` -- the array-bound regime: ``verify`` at D=24 and D=32
  (array-bound trials and the D^4 branch enumeration), with ``report``,
  ``plan`` and small sweeps at the same sizes.

``report``/``plan`` channels come from a fixed pool (``POOL_SEED``) whose
outputs were recorded as SHA-256 digests on the seed commit
(``digests.json``); every cycle uses the whole pool at its dimensions, in an
order drawn from the workload seed.
Sweeps are fixed commands with recorded digests.  ``verify`` channels and
Monte Carlo seeds are drawn from the workload seed; a verify passes on its
own statistical gate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

PAPER_SQUARED = "0.5,0.3,0.2"
POOL_SEED = 1207_2188
POOL_DIMS = (4, 8, 16, 24, 32)
POOL_PER_D = 48

# Every sweep (D, N, grid) any workload runs; their digests are recorded.
# large_d runs several small sweeps so that sweep timings are sampled at
# several points of each cycle.
SWEEPS = {
    "small_d": [(4, 3, 101), (5, 4, 31)],
    "large_d": [(32, 3, 41), (24, 3, 41), (32, 2, 401), (24, 4, 15)],
}


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``D`` is its dimension; verify ops also carry the
    channel amplitudes and strategy so the layer trace can rebuild them."""

    kind: str
    argv: tuple[str, ...]
    D: int
    amplitudes: tuple[float, ...] = ()
    k_max: int = 0
    fallback: str = ""

    @property
    def key(self) -> str:
        """Lookup key of the recorded stdout digest."""
        return hashlib.sha256(" ".join(self.argv).encode()).hexdigest()[:20]

    @property
    def trials(self) -> int:
        return int(self.argv[self.argv.index("--trials") + 1]) if self.kind == "verify" else 0


@dataclass
class Workload:
    cycle: list[Op]
    warmup: list[Op]


def _coeff_text(values) -> str:
    return ",".join(format(float(v), ".12g") for v in values)


def _staircase_amplitudes(stage_probs: np.ndarray) -> np.ndarray:
    """Amplitudes of a rank-N channel whose k-th filtering stage succeeds
    with probability ``stage_probs[k-1]``: stage k succeeds with
    (N-k+1) * (a_k^2 - a_{k-1}^2) on the ascending squares, so the squares
    are partial sums of stage_probs / (N-k+1)."""
    n = stage_probs.size
    squares = np.cumsum(stage_probs / (n - np.arange(n)))
    squares /= squares.sum()
    return np.sqrt(squares[::-1])


def _verify_op(D, amplitudes, k_max, fallback, trials, seed, squared_text=None) -> Op:
    coeffs = ["--coeffs", squared_text, "--squared"] if squared_text else \
        ["--coeffs", _coeff_text(amplitudes)]
    argv = ("verify", "--D", str(D), *coeffs, "--trials", str(trials),
            "--seed", str(seed), "--k-max", str(k_max), "--fallback", fallback,
            "--workers", "1")
    return Op("verify", argv, D, tuple(float(a) for a in amplitudes), k_max, fallback)


def _paper_amplitudes() -> np.ndarray:
    return np.sqrt([float(x) for x in PAPER_SQUARED.split(",")])


def _sweep_op(D, N, grid) -> Op:
    return Op("sweep", ("sweep", "--D", str(D), "--N", str(N), "--grid", str(grid),
                        "--workers", "1"), D)


def _channel_op(kind, D, amplitudes) -> Op:
    return Op(kind, (kind, "--D", str(D), "--coeffs", _coeff_text(amplitudes)), D)


def _paper_report(D) -> Op:
    return Op("report", ("report", "--D", str(D), "--coeffs", PAPER_SQUARED, "--squared"), D)


def pool_channels() -> dict[int, list[np.ndarray]]:
    """The fixed report/plan channel pool: random rank, random groups of
    exactly tied coefficients, so grouping and stage counts vary."""
    rng = np.random.default_rng(POOL_SEED)
    pool = {}
    for D in POOL_DIMS:
        members = []
        for _ in range(POOL_PER_D):
            N = int(rng.integers(2, D + 1))
            d = int(rng.integers(1, N + 1))
            cuts = np.sort(rng.choice(np.arange(1, N), size=d - 1, replace=False))
            mults = np.diff(np.concatenate(([0], cuts, [N])))
            levels = np.sort(rng.uniform(0.05, 1.0, size=d))[::-1]
            squares = np.repeat(levels, mults)
            members.append(np.sqrt(squares / squares.sum()))
        pool[D] = members
    return pool


def recorded_ops() -> list[Op]:
    """Every command whose stdout digest is recorded on the seed commit."""
    ops = [_sweep_op(*s) for sweeps in SWEEPS.values() for s in sweeps]
    sweep_dims = {s[0] for sweeps in SWEEPS.values() for s in sweeps}
    ops += [_paper_report(D) for D in sorted(sweep_dims | set(POOL_DIMS))]
    for D, members in pool_channels().items():
        for amps in members:
            ops += [_channel_op("report", D, amps), _channel_op("plan", D, amps)]
    return ops


def pool_fingerprint() -> str:
    """SHA-256 over the recorded commands, so stale digests are detected."""
    return hashlib.sha256("\n".join(" ".join(op.argv) for op in recorded_ops()).encode()).hexdigest()


def _pool_ops(pool, dims) -> list[Op]:
    """Every pool channel of these dimensions, each as a report and a plan.
    The whole pool is used, so the seed sets only the order of these
    commands, not which channels set the latency percentiles."""
    return [_channel_op(kind, D, amps) for D in dims for amps in pool[D]
            for kind in ("report", "plan")]


def _warmup(cycle: list[Op]) -> list[Op]:
    """One untimed command per distinct D: the cheapest verify at that D (it
    fills the engine's per-D caches), else a report on the paper's
    coefficients."""
    out = []
    for D in sorted({op.D for op in cycle}):
        verifies = [op for op in cycle if op.D == D and op.kind == "verify"]
        out.append(min(verifies, key=lambda op: (op.k_max, op.trials, op.argv))
                   if verifies else _paper_report(D))
    return out


def _small_d(rng, pool) -> list[Op]:
    seed = int(rng.integers(0, 2**31))
    paper = _paper_amplitudes()
    ops = [_verify_op(4, paper, k, fb, 3000, seed, PAPER_SQUARED)
           for k in (1, 2) for fb in ("me", "guess", "discard")]
    # Random D=4 channels whose every verify bucket expects >= 300 hits;
    # the concentrated Dirichlet keeps the per-trial cost close across seeds.
    for N, fallback in ((3, "me"), (4, "guess")):
        stage_probs = 0.1 + (1.0 - 0.1 * N) * rng.dirichlet(np.full(N, 8.0))
        ops.append(_verify_op(4, _staircase_amplitudes(stage_probs), 2, fallback,
                              3000, int(rng.integers(0, 2**31))))
    ops += _pool_ops(pool, (4, 8, 16, 32))
    ops += [_sweep_op(*s) for s in SWEEPS["small_d"]]
    return ops


def _large_d(rng, pool) -> list[Op]:
    channels = {}
    for D in (32, 24):
        # Full rank; stages 1-3 each succeed with 0.14-0.18, so with 1000
        # trials every verify bucket expects >= 140 hits (exhausted >= 460).
        head = 0.14 + 0.04 * rng.random(3)
        tail = (1.0 - head.sum()) * rng.dirichlet(np.ones(D - 3))
        channels[D] = (_staircase_amplitudes(np.concatenate((head, tail))),
                       int(rng.integers(0, 2**31)))
    # An odd number of verify configurations, so that the median verify
    # time falls inside one configuration's cluster, not between two.
    ops = [_verify_op(D, channels[D][0], k, "me", 1000, channels[D][1])
           for D, k in ((32, 1), (32, 2), (32, 3), (24, 1), (24, 3))]
    ops += _pool_ops(pool, (24, 32))
    ops += [_sweep_op(*s) for s in SWEEPS["large_d"]]
    return ops


BUILDERS = {"small_d": _small_d, "large_d": _large_d}


def build(name: str, seed: int) -> Workload:
    """The workload's command cycle and warm-up, all drawn from ``seed``."""
    rng = np.random.default_rng(seed % 2**64)
    cycle = BUILDERS[name](rng, pool_channels())
    # Interleave the command kinds so that each kind is timed throughout the
    # cycle, not in one burst that shares a single noisy stretch of time.
    cycle = [cycle[i] for i in rng.permutation(len(cycle))]
    return Workload(cycle, _warmup(cycle))


def self_test_op() -> Op:
    """A verify the program must fail (``--self-test-corrupt``)."""
    op = _verify_op(4, _paper_amplitudes(), 1, "me", 1000, 7, PAPER_SQUARED)
    return Op("verify", op.argv + ("--self-test-corrupt",), 4)
