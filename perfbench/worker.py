"""Run one workload in this (fresh) process; print its raw results as JSON.

Modes:
  setup  import, input generation and warm-up only; report their time
  run    then repeat the workload's cycle for --seconds; end-to-end numbers,
         each command's time scaled to the host's reference speed by the
         probe timed between commands (probe.py); raw numbers beside them
  trace  cold runner build under tracemalloc, warm-up, one untraced cycle,
         then one traced cycle; per-layer numbers

Started by run.py, which sets BLAS/OpenMP threads to 1 before NumPy loads.
Timing uses only time.perf_counter, tracemalloc and resource.getrusage.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from layers import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = ("verify", "sweep", "report", "plan")


class OpRunner:
    """Drives ``mcteleport.cli.main(argv)`` with stdout captured and checks
    each result: verify must exit 0 and print ``verdict: PASS``; report,
    plan and sweep must print the bytes recorded on the seed commit; and a
    repeated command must print what it printed the first time."""

    def __init__(self, cli, digests: dict[str, str]):
        self.cli = cli
        self.digests = digests
        self.tracer = None  # a layers.Tracer while the traced cycle runs
        self.first_seen: dict[str, str] = {}

    def run(self, op):
        """Returns (seconds, stdout, failure or None)."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(op.argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.call_op(op.kind, self.cli.main, argv)
            except Exception as exc:  # an escaping exception is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        stdout = out.getvalue()
        failure = self.check(op, rc, stdout, self.digests.get(op.key))
        if failure and err.getvalue():
            failure += f" ({err.getvalue().strip()[-300:]})"
        return seconds, stdout, failure

    def check(self, op, rc, stdout: str, expected: str | None) -> str | None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if rc != 0:
            return f"exit {rc}"
        if op.kind == "verify":
            if not stdout.rstrip().endswith("verdict: PASS"):
                return "verify verdict is not PASS"
        elif digest != expected:
            return "stdout differs from the digest recorded on the seed commit"
        if self.first_seen.setdefault(op.key, digest) != digest:
            return "stdout differs from the first run of the same command"
        return None


def _items(op, stdout: str) -> int:
    """Monte Carlo trials of a verify, feasible CSV rows of a sweep."""
    if op.kind == "sweep":
        return sum(1 for line in stdout.splitlines() if line and not line.startswith("#")) - 1
    return op.trials


def _timing_metrics(ops) -> dict[str, float]:
    """End-to-end timing metrics from (kind, seconds, items) records."""
    by_kind = {k: [s for kind, s, _ in ops if kind == k] for k in KINDS}

    def rate(kind):
        return sum(i for k, _, i in ops if k == kind) / sum(by_kind[kind])

    return {
        "verify_p50_s": statistics.median(by_kind["verify"]),
        "verify_trials_per_s": rate("verify"),
        "sweep_rows_per_s": rate("sweep"),
        "report_p50_ms": statistics.median(by_kind["report"]) * 1e3,
        "report_p90_ms": percentile(by_kind["report"], 90) * 1e3,
        "plan_p50_ms": statistics.median(by_kind["plan"]) * 1e3,
        "plan_p90_ms": percentile(by_kind["plan"], 90) * 1e3,
    }


def _self_check(runner: OpRunner, sample) -> bool:
    """The harness must be able to fail: a wrong expected digest and a
    verify that corrupts its own analytic value must both be caught."""
    from workloads import self_test_op

    op, stdout = sample
    wrong = runner.digests[op.key][::-1]
    caught_digest = runner.check(op, 0, stdout, wrong) is not None
    caught_verify = runner.run(self_test_op())[2] is not None
    return caught_digest and caught_verify


def _cold_runner_alloc_mb(mt, workload) -> float:
    """tracemalloc peak of the first ProtocolRunner build at the workload's
    largest verify dimension, before any warm-up fills its caches."""
    import tracemalloc

    op = max((o for o in workload.cycle if o.kind == "verify"), key=lambda o: o.D)
    channel = mt.make_channel(op.D, op.amplitudes)
    cfg = mt.StrategyConfig(kind="mc-smc", k_max=op.k_max, fallback=op.fallback)
    tracemalloc.start()
    try:
        mt.ProtocolRunner(channel, cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--budget", type=float, default=float("inf"),
                    help="start no cycle expected to end later than this (s)")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import mcteleport as mt
    import mcteleport.cli
    import numpy as np

    import workloads
    from layers import Tracer, layer_metrics
    from probe import Probe

    if Path(mt.__file__).resolve().parent != src / "mcteleport":
        raise SystemExit(f"imported mcteleport from {mt.__file__}, not from {src}")
    digests = json.loads((HERE / "digests.json").read_text())
    if digests["pool_sha256"] != workloads.pool_fingerprint():
        raise SystemExit("digests.json was recorded for a different input pool")
    workload = workloads.build(args.workload, args.seed)
    runner = OpRunner(mt.cli, digests["ops"])
    cold_alloc = _cold_runner_alloc_mb(mt, workload) if args.mode == "trace" else None
    for op in workload.warmup:
        failure = runner.run(op)[2]
        if failure:
            raise SystemExit(f"warm-up {' '.join(op.argv)} failed: {failure}")
    result = {"setup_s": perf_counter() - t0, "numpy": np.__version__}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ops = []  # (kind, start, seconds, items, failure)
    sample = None
    probe = Probe()

    def run_cycle():
        nonlocal sample
        start = perf_counter()
        for op in workload.cycle:
            probe.maybe_sample()
            op_start = perf_counter()
            seconds, stdout, failure = runner.run(op)
            ops.append((op.kind, op_start, seconds, _items(op, stdout), failure))
            if sample is None and op.key in runner.digests:
                sample = (op, stdout)
        probe.sample()
        return perf_counter() - start

    if args.mode == "run":
        # Whole cycles only, as many as come nearest to --seconds, and none
        # that would end after --budget (seconds from this process's start).
        cycles, elapsed = 0, 0.0
        while cycles == 0 or (elapsed + elapsed / cycles / 2 < args.seconds
                              and perf_counter() - t0 + elapsed / cycles < args.budget):
            elapsed += run_cycle()
            cycles += 1
    else:
        plain_s = run_cycle()
        tracer = Tracer()
        tracer.install(mt)
        runner.tracer = tracer
        try:
            traced_s = run_cycle()
        finally:
            tracer.uninstall()
            runner.tracer = None
        result["metrics"] = layer_metrics(tracer.spans, cold_alloc, traced_s / plain_s)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op", "extra"],
                 "ops": [" ".join(op.argv) for op in workload.cycle],
                 "spans": tracer.spans}))

    failures = [f"{kind}: {failure}" for kind, _, _, _, failure in ops if failure]
    if args.mode == "run":
        scaled = [(kind, seconds * probe.scale(start, start + seconds), items)
                  for kind, start, seconds, items, _ in ops]
        result["metrics"] = dict(
            _timing_metrics(scaled),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            success_rate=1.0 - len(failures) / len(ops))
        result["raw_metrics"] = _timing_metrics(
            [(kind, seconds, items) for kind, _, seconds, items, _ in ops])
    result.update(
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:20],
        samples={k: sum(op[0] == k for op in ops) for k in KINDS},
        ops=[op[:4] for op in ops],
        probe=[probe.times, probe.seconds],
        self_check=_self_check(runner, sample),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
