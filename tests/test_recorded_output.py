"""Printed output must stay byte-identical to the recorded reference.

``perfbench/digests.json`` holds the stdout SHA-256 of every report, plan
and sweep command the benchmark issues, recorded when the benchmark was
introduced.  This replays every recorded command (each ``report``, ``plan``
and all six sweeps) and compares digests, so an output change fails here
and not only in the benchmark.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from mcteleport.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_recorded_commands_print_identical_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert recorded["pool_sha256"] == workloads.pool_fingerprint()
    ops = workloads.recorded_ops()
    assert sum(op.kind == "sweep" for op in ops) == 6

    changed = []
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(op.argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != recorded["ops"][op.key]:
            changed.append(" ".join(op.argv))
    assert not changed, changed
