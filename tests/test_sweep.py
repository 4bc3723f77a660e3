"""The array-form sweep: grid enumeration and batched closed forms.

``sweep`` enumerates only the feasible grid points and evaluates every
closed form on whole arrays (``analytics.report_blocks``).  These tests pin
it to the per-point reference: the full ``itertools.product`` walk for the
points, and the scalar route for every value: the profile-level functions
that the public ``f_me``, ``f_mc_conclusive``, ``stage_probabilities``,
``overall_fidelity`` and ``f_me_after_fail`` wrap, ``confidence_at_stage``
and the stage plan's useful flags.
``channel_report`` shares the array evaluator, so it is no independent
reference; it is checked as the one-row case: batching rows of mixed tie
patterns must not change any row's value.
"""

import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcteleport import (
    StrategyConfig,
    analytics,
    build_stage_plan,
    channel_report,
    cli,
    confidence_at_stage,
    f_clas,
    make_channel,
    multiplicity_profile,
)
from mcteleport.channels import DEFAULT_TIE_TOL
from mcteleport.cli import SweepSpec, main, report_quantity, sweep_points

ROOT = Path(__file__).resolve().parents[1]


def _walked_points(spec):
    """Reference enumeration: walk every grid tuple, skip infeasible ones."""
    axis = np.linspace(cli.SWEEP_EPS, 1.0 - cli.SWEEP_EPS, spec.resolution)
    points, skipped = [], 0
    for free in product(axis, repeat=spec.N - 1):
        last = 1.0 - sum(free)
        if last < cli.SWEEP_EPS:
            skipped += 1
            continue
        points.append(tuple(free) + (last,))
    return points, skipped


def _names(N):
    """Every flat quantity and every stage quantity up to stage N + 1."""
    stages = [f"{prefix}{k}" for prefix in cli._STAGE_FIELDS for k in range(1, N + 2)]
    return (*cli._FLAT_QUANTITIES, *stages)


def _same_bits(a, b):
    return (np.isnan(a) & np.isnan(b)) | (a.view(np.uint64) == b.view(np.uint64))


def _scalar_quantities(D, point, tie_tol):
    """Every quantity ``report_quantity`` resolves at one sweep point, by
    name, from the scalar route; names it omits read NaN.

    The point is grouped once, and the profile-level functions that the
    public ones wrap read that grouping (the public wrappers are checked
    against the report in ``test_analytics``)."""
    ch = make_channel(D, np.sqrt(point))
    profile = multiplicity_profile(ch, tie_tol)
    M, d = profile.M, profile.d
    cascade = analytics._stage_cascade(profile)
    p_fail, p_success, cumulative, _ = cascade
    f_mc = analytics._f_mc_stages(profile, D)
    useful = build_stage_plan(ch, tie_tol).useful_flags

    def overall(k_max, fallback):
        return analytics._overall_fidelity(
            profile, D, StrategyConfig("mc-smc", k_max, fallback), cascade)

    values = {
        "D": D, "N": ch.N, "d": d, "M": M, "F_me": analytics._f_me(profile, D),
        "f_me": analytics._sum_amplitudes(profile) ** 2 / D, "F_clas": f_clas(D),
        "overall_me": overall(1, "me"), "overall_smc": overall(M, "guess"),
    }
    if d >= 2:
        values["F_me_after_fail"] = analytics._f_me_after_fail(profile, D, cascade)
    for k in range(1, M + 1):
        values.update({
            f"F_mc_s{k}": float(f_mc[k - 1]),
            f"f_mc_s{k}": confidence_at_stage(profile, D, k),
            f"p_fail_s{k}": p_fail[k - 1], f"P_stage{k}": p_success[k - 1],
            f"P_smc_s{k}": float(cumulative[k - 1]), f"useful_s{k}": float(useful[k - 1]),
        })
    values["P_smc_overall"] = values[f"P_smc_s{M}"]
    if M + 1 == d:  # a lone top coefficient: the surface continues classically
        values.update({f"F_mc_s{d}": f_clas(D), f"f_mc_s{d}": 1.0 / D})
    return values


def _assert_matches_references(D, N, grid, tie_tol):
    """Every sweep value equals, bit for bit, both the scalar route and
    the point's own one-row ``channel_report``."""
    points, _ = sweep_points(SweepSpec(D=D, N=N, resolution=grid, quantities=(),
                                       out=None, tie_tol=tie_tol))
    names = _names(N)
    table = cli._sweep_table(D, tie_tol, names, points)
    assert table[:, :N].tobytes() == points.tobytes()
    scalar = np.array([[float(ref.get(q, np.nan)) for q in names]
                       for ref in (_scalar_quantities(D, p, tie_tol) for p in points)])
    reports = [channel_report(make_channel(D, np.sqrt(p)), tie_tol) for p in points]
    one_row = np.array([[float(report_quantity(rep, q)) for q in names] for rep in reports])
    for route, expected in (("scalar route", scalar), ("channel_report", one_row)):
        same = _same_bits(table[:, N:], expected)
        if not same.all():
            i, j = np.argwhere(~same)[0]
            pytest.fail(f"{names[j]} at {points[i].tolist()} ({route}): "
                        f"{table[i, N + j]!r} != {expected[i, j]!r}")


@pytest.mark.parametrize("N,grid", [
    (2, 2), (2, 3), (2, 11), (2, 1000), (3, 2), (3, 3), (3, 11), (3, 101),
    (4, 2), (4, 5), (4, 31), (5, 2), (5, 3), (5, 12), (5, 21),
])
def test_enumeration_equals_the_product_walk(N, grid):
    spec = SweepSpec(D=5, N=N, resolution=grid, quantities=(), out=None)
    points, skipped = sweep_points(spec)
    walked, walked_skipped = _walked_points(spec)
    assert points.shape == (len(walked), N)
    assert points.tobytes() == np.array(walked).tobytes()
    assert skipped == walked_skipped == grid ** (N - 1) - len(points)


def test_every_recorded_sweep_point_equals_its_channel_report(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    sweeps = [s for runs in workloads.SWEEPS.values() for s in runs]
    assert len(sweeps) == 6
    for D, N, grid in sweeps:
        _assert_matches_references(D, N, grid, DEFAULT_TIE_TOL)


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_sweep_columns_equal_channel_reports(D, data):
    N = data.draw(st.integers(min_value=2, max_value=min(5, D)))
    grid = data.draw(st.integers(min_value=2, max_value=12 if N < 4 else 6))
    tie_tol = data.draw(st.sampled_from([0.0, DEFAULT_TIE_TOL]))
    _assert_matches_references(D, N, grid, tie_tol)


def test_sweep_calls_no_per_point_report(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-point call")

    monkeypatch.setattr(cli, "channel_report", forbidden)
    monkeypatch.setattr(cli, "make_channel", forbidden)
    assert main(["sweep", "--D", "4", "--N", "3", "--grid", "11"]) == 0
    assert capsys.readouterr().out.count("\n") == 8 + 55


@pytest.mark.parametrize("patch,message", [
    (("_f_me_after_fail_double_sums", lambda values, mults, D: (values[:, 0] + 1.0,
                                                                 0.0 * values[:, 0])),
     "failure-fidelity forms disagree: "),
    (("IDENTITY_ATOL", -1.0), "stage-fidelity forms disagree: "),
], ids=["failure-fidelity", "stage-fidelity"])
def test_failed_identity_in_the_array_path_exits_2(monkeypatch, capsys, patch, message):
    monkeypatch.setattr(analytics, *patch)
    code = main(["sweep", "--D", "4", "--N", "3", "--grid", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: internal cross-check failed: {message}")
    assert " at point [" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,what", [
    (("--D", "8", "--N", "6", "--grid", "1000"),
     "a sweep over 8,416,958,750,200 candidate grid points would need 12,329,529,419 MiB"),
    (("--D", "4", "--N", "2", "--grid", "100000000"),
     "a sweep over 100,000,000 candidate grid points would need 109,863 MiB"),
    # The smallest N=2 grid whose 12 CSV cells per row pass the limit.
    (("--D", "4", "--N", "2", "--grid", "116509"),
     "a sweep over 116,509 candidate grid points would need 128 MiB"),
], ids=["N6", "grid1e8", "grid-at-limit"])
def test_oversized_sweep_is_a_usage_error_before_allocating(capsys, argv, what):
    tracemalloc.start()
    try:
        code = main(["sweep", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {what}, more than the 128 MiB limit (qudit.MAX_ARRAY_BYTES)\n"
    assert peak < 2**20


def test_sweep_holds_less_than_its_guard_charges_per_row(capsys):
    # About 500 B per row here: the point arrays, the evaluated blocks and
    # the row text.  The guard charges SWEEP_CELL_BYTES per CSV cell.
    tracemalloc.start()
    try:
        code = main(["sweep", "--D", "4", "--N", "2", "--grid", "50000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    rows = out.count("\n") - 8
    assert rows == 50000
    assert peak / rows < cli.SWEEP_CELL_BYTES * (2 + len(cli.DEFAULT_QUANTITIES))


@pytest.mark.parametrize("argv,err", [
    (("--tie-tol", "1e-3"), "error: tie tolerance must be finite and in [0, 1e-06], got 0.001\n"),
    (("--tie-tol", "nan"), "error: tie tolerance must be finite and in [0, 1e-06], got nan\n"),
    (("--quantities", "F_me,bogus"), "error: unknown quantity 'bogus'\n"),
], ids=["tie-tol-large", "tie-tol-nan", "quantity"])
def test_options_are_checked_before_enumerating(monkeypatch, capsys, argv, err):
    def forbidden(spec):
        raise AssertionError("enumerated")

    monkeypatch.setattr(cli, "sweep_points", forbidden)
    assert main(["sweep", "--D", "4", "--N", "3", "--grid", "5", *argv]) == 1
    assert capsys.readouterr().err == err


def test_evaluator_splits_rows_by_tie_pattern():
    points = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.25, 0.5, 0.25], [0.6, 0.2, 0.2]])
    blocks = analytics.report_blocks(4, points)
    assert sorted(b.rows.tolist() for b in blocks) == [[0, 2, 3], [1]]
    tied = next(b for b in blocks if b.rows.size == 3)
    assert (tied.d, tied.M) == (2, 1)
    assert tied.p_success.shape == (3, 1) and tied.F_mc_s.shape == (1,)
