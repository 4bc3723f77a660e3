"""Layer spans recorded from outside the program.

``Tracer.install`` replaces public functions with timing wrappers at the
names the program looks them up by (the modules import by name, so e.g.
``channel_report`` is patched in ``mcteleport.cli``, not in
``mcteleport.analytics``).  Each call records a span
``[name, start, end, parent, op, extra]`` in memory; ``layer_metrics``
turns the spans into the per-layer metrics of BENCHMARK.json.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import statistics
import tracemalloc
from time import perf_counter

NAME, START, END, PARENT, OP, EXTRA = range(6)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * q / 100) - 1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def wrap(self, name, fn, extra=None, track_alloc=False):
        """``fn`` timed as span ``name``; ``extra(args, result)`` is stored
        on the span; ``track_alloc`` stores the tracemalloc peak of the call
        in MB."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_alloc:
                tracemalloc.start()
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
                if track_alloc:
                    span[EXTRA] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self, mt) -> None:
        """Wrap the public functions named in the per-layer table."""
        cli, analytics, engine = mt.cli, mt.analytics, mt.engine
        self.patch(cli, "channel_report", "analytics.channel_report")
        self.patch(analytics, "multiplicity_profile", "channels.multiplicity_profile")
        self.patch(mt.discrimination, "multiplicity_profile", "channels.multiplicity_profile")
        self.patch(analytics, "f_me_after_fail", "analytics.f_me_after_fail")
        for fn in ("f_mc_conclusive", "stage_probabilities", "overall_fidelity"):
            self.patch(cli, fn, "analytics.closed_forms")
        for module in (cli, engine):
            self.patch(module, "make_channel", "channels.make_channel")
            self.patch(module, "build_stage_plan", "discrimination.build_stage_plan")
        self.patch(engine.ProtocolRunner, "__init__", "engine.ProtocolRunner.init")
        self.patch(engine.ProtocolRunner, "run_haar", "engine.run_haar")
        self.patch(engine, "haar_random_state", "qudit.haar_random_state")
        self.patch(cli, "monte_carlo", "engine.monte_carlo",
                   extra=lambda args, _: args[2])
        for fn in ("exact_average_fidelity", "exact_branch_probabilities"):
            self.patch(cli, fn, "engine.oracle", track_alloc=True)
        self.patch(cli, "sweep_points", "cli.sweep_points",
                   extra=lambda _, r: (len(r[0]) + r[1], len(r[0])))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call_op(self, kind: str, fn, *args):
        """Run one CLI command as a root span named ``cli.<kind>``."""
        self.op += 1
        return self.wrap(f"cli.{kind}", fn)(*args)


def layer_metrics(spans: list[list], cold_runner_alloc_mb: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from one traced cycle."""
    duration = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(duration[i] - child[i] for i in by_name.get(name, ()))

    def durations(name, scale=1.0):
        return [duration[i] * scale for i in by_name.get(name, ())]

    def under(i, ancestor):
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
            if spans[i][NAME] == ancestor:
                return True
        return False

    reports = calls("analytics.channel_report")
    profiles_in_reports = sum(under(i, "analytics.channel_report")
                              for i in by_name.get("channels.multiplicity_profile", ()))
    mc = by_name.get("engine.monte_carlo", ())
    trials = sum(spans[i][EXTRA] for i in mc)
    walked = sum(spans[i][EXTRA][0] for i in by_name.get("cli.sweep_points", ()))
    feasible = sum(spans[i][EXTRA][1] for i in by_name.get("cli.sweep_points", ()))
    oracle = by_name.get("engine.oracle", ())

    return {
        "qudit.haar_random_state.calls": calls("qudit.haar_random_state"),
        "qudit.haar_random_state.us_p50": statistics.median(durations("qudit.haar_random_state", 1e6)),
        "channels.make_channel.calls": calls("channels.make_channel"),
        "channels.multiplicity_profile.calls": calls("channels.multiplicity_profile"),
        "channels.multiplicity_profile.per_report": profiles_in_reports / reports,
        "channels.multiplicity_profile.self_s": self_s("channels.multiplicity_profile"),
        "discrimination.build_stage_plan.calls": calls("discrimination.build_stage_plan"),
        "discrimination.build_stage_plan.self_s": self_s("discrimination.build_stage_plan"),
        "engine.ProtocolRunner.init_calls": calls("engine.ProtocolRunner.init"),
        "engine.ProtocolRunner.init_s_p50": statistics.median(durations("engine.ProtocolRunner.init")),
        "engine.ProtocolRunner.cold_peak_alloc_mb": cold_runner_alloc_mb,
        "engine.run_haar.calls": calls("engine.run_haar"),
        "engine.run_haar.us_p50": statistics.median(durations("engine.run_haar", 1e6)),
        "engine.run_haar.us_p99": percentile(durations("engine.run_haar", 1e6), 99),
        "engine.monte_carlo.calls": len(mc),
        "engine.monte_carlo.overhead_us_per_trial": self_s("engine.monte_carlo") / trials * 1e6,
        "engine.oracle.calls": len(oracle),
        "engine.oracle.per_verify": len(oracle) / calls("cli.verify"),
        "engine.oracle.self_s": self_s("engine.oracle"),
        "engine.oracle.s_p50": statistics.median(durations("engine.oracle")),
        "engine.oracle.peak_alloc_mb": max(spans[i][EXTRA] for i in oracle),
        "analytics.channel_report.calls": reports,
        "analytics.channel_report.us_p50": statistics.median(durations("analytics.channel_report", 1e6)),
        "analytics.channel_report.us_p99": percentile(durations("analytics.channel_report", 1e6), 99),
        "analytics.channel_report.self_s": self_s("analytics.channel_report"),
        "analytics.f_me_after_fail.self_s": self_s("analytics.f_me_after_fail"),
        "analytics.closed_forms.self_s": self_s("analytics.closed_forms"),
        "cli.sweep_points.walked": walked,
        "cli.sweep_points.feasible_ratio": feasible / walked,
        "cli.sweep.self_s": self_s("cli.sweep"),
        "cli.verify.self_s": self_s("cli.verify"),
        "cli.report.self_s": self_s("cli.report"),
        "cli.plan.self_s": self_s("cli.plan"),
        "trace.overhead_ratio": overhead_ratio,
    }
