"""The benchmark's layer trace must find every layer it reports.

``perfbench/layers.py`` wraps public functions of the package by name and
derives the per-layer metrics of BENCHMARK.json from the recorded spans.
A layer that a change leaves uncalled yields no spans, and its metric
fails to compute.  This runs one small command of each kind under the
tracer and checks that every declared per-layer metric comes out finite.
"""

import json
import math
from pathlib import Path

import mcteleport
import mcteleport.cli

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    ("report", ["report", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"]),
    ("plan", ["plan", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"]),
    ("sweep", ["sweep", "--D", "3", "--N", "2", "--grid", "5"]),
    ("verify", ["verify", "--D", "3", "--coeffs", "0.5,0.3,0.2", "--squared",
                "--trials", "1000", "--k-max", "2"]),
]


def test_every_declared_layer_metric_is_finite(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers

    tracer = layers.Tracer()
    tracer.install(mcteleport)
    try:
        codes = [tracer.call_op(kind, mcteleport.cli.main, argv) for kind, argv in COMMANDS]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
    assert "verdict: PASS" in capsys.readouterr().out

    metrics = layers.layer_metrics(tracer.spans, cold_runner_alloc_mb=0.0, overhead_ratio=1.0)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in declared if name not in metrics]
    assert not missing
    assert all(math.isfinite(metrics[name]) for name in declared), {
        name: metrics[name] for name in declared if not math.isfinite(metrics[name])
    }
    # One replayed single-run trial per Monte Carlo call.
    assert metrics["engine.monte_carlo.calls"] == 1
    assert metrics["engine.run_haar.calls"] == 1
    assert metrics["qudit.haar_random_state.calls"] == 1
