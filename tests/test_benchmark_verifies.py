"""Every ``verify`` the benchmark issues must pass its own gate and print
the recorded bytes.

``perfbench/workloads.py`` draws its verify channels and Monte Carlo
seeds from the workload seed.  This replays the verify commands of the
``large_d`` workload for seeds 1-30 and of ``small_d`` for seeds 1-10,
so a statistical gate that fails a correct program shows up here rather
than first in a benchmark run.  ``verify_digests.json`` holds the stdout
SHA-256 of each of these commands, keyed as ``perfbench/digests.json``
keys its commands, so any change to a printed verify byte fails here too.

Regenerate the file (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_benchmark_verifies.py > tests/verify_digests.json``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from mcteleport.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("verify_digests.json")


def _verify_ops():
    import workloads

    ops = [op for name, seeds in (("large_d", range(1, 31)), ("small_d", range(1, 11)))
           for seed in seeds for op in workloads.build(name, seed).cycle if op.kind == "verify"]
    assert len(ops) == 230
    return ops


def _run(op) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(op.argv))
    return code, out.getvalue()


def test_benchmark_verify_commands_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    recorded = json.loads(DIGESTS.read_text())
    failed, changed = [], []
    for op in _verify_ops():
        code, text = _run(op)
        if code != 0 or "verdict: PASS" not in text:
            failed.append(" ".join(op.argv))
        if hashlib.sha256(text.encode()).hexdigest() != recorded[op.key]:
            changed.append(" ".join(op.argv))
    assert not failed, failed
    assert not changed, changed


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    digests = {op.key: hashlib.sha256(_run(op)[1].encode()).hexdigest()
               for op in _verify_ops()}
    print(json.dumps(digests, indent=0, sort_keys=True))
