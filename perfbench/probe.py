"""Machine-speed probe, run in the measuring process between commands.

The benchmark's host is a shared VM whose CPU throughput drifts by up to
2x over seconds to minutes, for interpreter and NumPy code alike.  A fixed
probe kernel, which touches no mcteleport code, is timed between commands
at least every ``PERIOD_S``.  Each command's time is then scaled by
``REFERENCE_S`` over the median probe time just before and just after it,
which gives the time the command takes at the host's reference speed.
The probe cannot run during a command, so a command of several seconds is
scaled by the speed at its two ends.  Raw times are kept beside the scaled
ones.
"""

from __future__ import annotations

import argparse
import bisect
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05  # at most this long between probes, except during a command
TIMED_RUNS = 2  # timed kernel runs per probe
NEIGHBOURS = 4  # timed runs on each side of a command that set its scale
# Median probe time on an Intel Xeon 2-vCPU VM (Python 3.11.7, NumPy 2.4.6);
# it only sets the scale of the reported times.
REFERENCE_S = 2.0e-3


class _Counter:
    def __init__(self, step: float):
        self.step = step

    def advance(self, value: float) -> float:
        return value * self.step + 1.5


class Probe:
    """Times a kernel with the program's mix of work: building and running an
    argparse parser (every CLI command does), integer loops, method calls
    and dict stores, many small NumPy calls, and passes over arrays of
    256 KB and of 4 MB (near the size of a D=32 enumeration tensor)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((4, 4)) / 4
        self._mid = rng.standard_normal(2**15)
        self._big = rng.standard_normal(2**19)
        self._mid_out = np.empty_like(self._mid)
        self._big_out = np.empty_like(self._big)
        self.times: list[float] = []  # probe end times, ascending
        self.seconds: list[float] = []

    def _kernel(self) -> None:
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command")
        for name in ("first", "second"):
            command = sub.add_parser(name)
            for option in ("--alpha", "--beta", "--gamma", "--delta"):
                command.add_argument(option, type=float, default=None)
        parser.parse_args(["second", "--alpha", "0.5", "--gamma", "2"])
        acc = 0
        for i in range(750):
            acc += (i * i) % 7
        counter, table, total = _Counter(0.5), {}, 0.0
        for i in range(200):
            total += counter.advance(i)
            table[i & 31] = total
        m = self._small
        for _ in range(20):
            m = np.tanh(m @ self._small) + self._small
        for _ in range(2):
            np.multiply(self._mid, 1.000001, out=self._mid_out)
            float(self._mid_out.sum())
        np.multiply(self._big, 1.000001, out=self._big_out)
        float(self._big_out.sum())

    def sample(self) -> None:
        # The first run refills the caches the last command evicted; only
        # the warm runs after it are timed.
        self._kernel()
        for _ in range(TIMED_RUNS):
            start = perf_counter()
            self._kernel()
            end = perf_counter()
            self.times.append(end)
            self.seconds.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median of the ``NEIGHBOURS`` timed runs
        before ``start`` and the ``NEIGHBOURS`` after ``end``."""
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        picked = {*range(max(before - NEIGHBOURS, 0), before),
                  *range(after, min(after + NEIGHBOURS, len(self.times)))}
        return REFERENCE_S / statistics.median(self.seconds[i] for i in picked)
