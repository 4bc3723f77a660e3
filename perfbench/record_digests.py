"""Record the stdout SHA-256 of every report/plan/sweep command the
workloads can issue, as printed by the code in ``src/``.

    python3 perfbench/record_digests.py

Run it once on the commit whose output is the reference (the digests in
``digests.json`` were recorded on the commit that introduced the
benchmark); the benchmark then counts any later difference as a failed
operation, which enforces the byte-identical CSV and report output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from mcteleport.cli import main  # noqa: E402

import workloads  # noqa: E402


def record() -> dict:
    ops = {}
    for op in workloads.recorded_ops():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(list(op.argv))
        if rc != 0:
            raise SystemExit(f"{' '.join(op.argv)} exited {rc}")
        ops[op.key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"pool_sha256": workloads.pool_fingerprint(), "ops": ops}


if __name__ == "__main__":
    (HERE / "digests.json").write_text(json.dumps(record(), indent=0, sort_keys=True) + "\n")
