"""mcteleport benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload small_d --seed 1 --seconds 45 --trace 0

Runs from any directory; builds nothing (the package is imported from the
checkout's ``src/``).  With ``--trace 0`` it starts two set-up-only worker
processes and one measuring worker and prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` one worker runs an untraced and a traced
cycle and prints the per-layer metrics.  The last stdout line is the
result object; the line before it records the environment.  Raw results
and spans go to ``.bench_out/`` in the checkout.

Exit codes: 0 with a result line, 2 when the checkout has no source tree,
a worker fails or the metric names disagree with BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # every run must end within 180 s
SETUP_SAMPLES = 3  # set-up is measured in this many fresh processes
RESULT_MARGIN_S = 20  # time a measuring worker leaves for its self-check and exit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def _machine() -> dict:
    """Python, CPU count and cache sizes, read from /proc and /sys only."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "timers": "time.perf_counter, tracemalloc, resource.getrusage "
                  "(no system-wide tracing, no cache dropping)",
    }


def _worker(args, mode: str, started: float, spans_out: Path | None = None) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    budget = DEADLINE_S - (perf_counter() - started)
    cmd += ["--budget", str(budget - RESULT_MARGIN_S)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(budget, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mcteleport" / "__init__.py").is_file():
        return _fail(f"no mcteleport source tree under {ROOT / 'src'}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            main_run = _worker(args, "trace", started, out_dir / f"{tag}-spans.json")
            metrics = dict(main_run["metrics"])
        else:
            setups = [_worker(args, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            main_run = _worker(args, "run", started)
            setups.append(main_run["setup_s"])
            metrics = dict(main_run["metrics"], setup_s=statistics.median(setups))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return _fail(str(exc))

    if set(metrics) != set(declared):
        return _fail(f"metric names differ from BENCHMARK.json: printed-only "
                     f"{sorted(set(metrics) - set(declared))}, declared-only "
                     f"{sorted(set(declared) - set(metrics))}")

    env = dict(_machine(), numpy=main_run["numpy"], samples=main_run["samples"],
               raw_metrics=main_run.get("raw_metrics"),
               setup_samples=SETUP_SAMPLES if not args.trace else 0,
               failures=main_run["failures"], self_check=main_run["self_check"])
    result = {
        "correct": main_run["failed"] == 0 and main_run["self_check"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, "ops": main_run["ops"], "probe": main_run["probe"]}))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
