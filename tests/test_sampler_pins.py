"""The Monte Carlo sampler must keep drawing the very same samples.

``sampler_pins.json`` holds, for a fixed list of ``monte_carlo`` calls,
each bucket's count and each bucket's and the overall mean fidelity to 12
significant digits; any kernel that draws the same samples must
reproduce them exactly.  The calls cover D in {2, 4, 8, 24, 32}, the
deterministic strategy and every fallback at k_max 1-3, tied channels
whose last stage cannot fail, and two seeds.

Regenerate the file (only when the samples are meant to change) with
``PYTHONPATH=src python tests/test_sampler_pins.py > tests/sampler_pins.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mcteleport import StrategyConfig, make_channel, monte_carlo

PINS = Path(__file__).with_name("sampler_pins.json")
SEEDS = (3, 11)


def _linspace_channel(D, top):
    weights = np.linspace(top, 1.0, D)
    return make_channel(D, np.sqrt(weights / weights.sum()))


# (name, channel, k_max values, trials); every channel also runs the
# deterministic strategy.
CHANNELS = [
    ("D2", make_channel(2, [0.8, 0.6]), (1,), 4000),
    ("D2-tied", make_channel(2, np.sqrt([0.5, 0.5])), (1,), 4000),
    ("D4-example", make_channel(4, np.sqrt([0.5, 0.3, 0.2])), (1, 2), 4000),
    ("D4-tied-N2", make_channel(4, [0.707106781187, 0.707106781187]), (1,), 4000),
    ("D8-linspace", _linspace_channel(8, 3.0), (1, 2, 3), 4000),
    ("D8-groups", make_channel(8, np.sqrt(np.array([4, 4, 3, 3, 3, 2, 1, 1]) / 21)),
     (1, 2, 3), 4000),
    ("D24-linspace", _linspace_channel(24, 2.0), (1, 3), 1500),
    ("D32-linspace", _linspace_channel(32, 2.0), (1, 2, 3), 1500),
]


def _calls():
    for name, channel, k_maxes, trials in CHANNELS:
        cfgs = [("det", StrategyConfig(kind="deterministic-me"))]
        cfgs += [(f"k{k}-{fb}", StrategyConfig(kind="mc-smc", k_max=k, fallback=fb))
                 for k in k_maxes for fb in ("me", "guess", "discard")]
        for label, cfg in cfgs:
            for seed in SEEDS:
                yield f"{name} {label} seed={seed}", channel, cfg, trials, seed


def _summary(channel, cfg, trials, seed):
    stats = monte_carlo(channel, cfg, trials, seed)
    return {
        "counts": stats.counts.tolist(),
        "means": [format(m, ".12g") for m in stats.mean_fidelity],
        "overall": format(stats.overall_mean_fidelity, ".12g"),
    }


CALLS = list(_calls())


def test_the_call_list_covers_every_dimension_and_strategy():
    assert {channel.D for _, channel, *_ in CALLS} == {2, 4, 8, 24, 32}
    cfgs = {(cfg.kind, cfg.k_max, cfg.fallback) for _, _, cfg, *_ in CALLS}
    assert {k for kind, k, _ in cfgs if kind == "mc-smc"} == {1, 2, 3}
    assert {fb for kind, _, fb in cfgs if kind == "mc-smc"} == {"me", "guess", "discard"}
    assert json.loads(PINS.read_text()).keys() == {key for key, *_ in CALLS}


@pytest.mark.parametrize("key,channel,cfg,trials,seed", CALLS, ids=[c[0] for c in CALLS])
def test_monte_carlo_reproduces_the_pinned_samples(key, channel, cfg, trials, seed):
    assert _summary(channel, cfg, trials, seed) == json.loads(PINS.read_text())[key]


if __name__ == "__main__":
    pins = {key: _summary(channel, cfg, trials, seed)
            for key, channel, cfg, trials, seed in CALLS}
    print(json.dumps(pins, indent=1))
