"""Every ``verify`` the benchmark issues must pass its own gate.

``perfbench/workloads.py`` draws its verify channels and Monte Carlo
seeds from the workload seed.  This replays the verify commands of the
``large_d`` workload for seeds 1-30 and of ``small_d`` for seeds 1-10,
so a statistical gate that fails a correct program shows up here rather
than first in a benchmark run.
"""

import contextlib
import io
from pathlib import Path

from mcteleport.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_verify_commands_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops = [op for name, seeds in (("large_d", range(1, 31)), ("small_d", range(1, 11)))
           for seed in seeds for op in workloads.build(name, seed).cycle if op.kind == "verify"]
    assert len(ops) == 230
    failed = []
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(op.argv))
        if code != 0 or "verdict: PASS" not in out.getvalue():
            failed.append(" ".join(op.argv))
    assert not failed, failed
