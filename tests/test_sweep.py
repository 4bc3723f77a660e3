"""The array-form sweep: grid enumeration and batched closed forms.

``sweep`` enumerates only the feasible grid points and evaluates every
closed form on whole arrays (``analytics.report_blocks``), once per
distinct channel.  These tests pin the points to the full
``itertools.product`` walk, and every value to the point's own one-row
``channel_report``: batching rows of mixed tie patterns must not change
any row's bits.  The values themselves are checked against the 60-digit
reference in ``test_analytics``.
"""

import tracemalloc
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcteleport import analytics, channel_report, cli, make_channel
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


def _assert_matches_references(D, N, grid, tie_tol):
    """Every sweep value equals, bit for bit, the point's own one-row
    ``channel_report``."""
    points, _ = sweep_points(SweepSpec(D=D, N=N, resolution=grid, quantities=(),
                                       out=None, tie_tol=tie_tol))
    names = _names(N)
    channels, channel = cli._sweep_table(D, tie_tol, names, points)
    # One row per channel, the channels numbered by first occurrence.
    ids, first = np.unique(channel, return_index=True)
    assert ids.tolist() == list(range(len(channels)))
    assert (first[1:] > first[:-1]).all()
    table = channels[channel]
    reports = [channel_report(make_channel(D, np.sqrt(p), tie_tol)) for p in points]
    one_row = np.array([[float(report_quantity(rep, q)) for q in names] for rep in reports])
    same = _same_bits(table, one_row)
    if not same.all():
        i, j = np.argwhere(~same)[0]
        pytest.fail(f"{names[j]} at {points[i].tolist()}: {table[i, j]!r} != {one_row[i, j]!r}")


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


@pytest.mark.usefixtures("fresh_reports")
def test_each_distinct_channel_is_evaluated_once(monkeypatch, capsys):
    # Points that swap free axes normalise to the same sorted amplitudes:
    # the 5,050 points of the paper's D=4, N=3 sweep are 2,550 channels.
    evaluate, evaluated = analytics._pattern_block, []

    def counted(D, profile, points, rows):
        evaluated.append(rows.size)
        return evaluate(D, profile, points, rows)

    monkeypatch.setattr(analytics, "_pattern_block", counted)
    assert main(["sweep", "--D", "4", "--N", "3", "--grid", "101"]) == 0
    assert capsys.readouterr().out.count("\n") == 8 + 5050
    assert sum(evaluated) == 2550


def test_duplicate_points_print_their_own_channel_report():
    # Exact and permuted duplicates of two points.  The squared amplitudes
    # of ``base`` sum to 1.0 in some orders and to 1 - 2**-53 in others, so
    # its permutations normalise to two channels one ulp apart.
    base, other = (0.144, 0.362, 0.494), (0.5, 0.3, 0.2)
    points = np.array([base, other, base, *permutations(base), other[::-1], base])
    channels_of = [make_channel(4, np.sqrt(p)) for p in points]
    coeffs = [ch.coeffs.tobytes() for ch in channels_of]
    assert len(set(coeffs[3:9])) == 2
    first_seen = list(dict.fromkeys(coeffs))
    names = _names(3)
    channels, channel = cli._sweep_table(4, DEFAULT_TIE_TOL, names, points)
    assert channel.tolist() == [first_seen.index(c) for c in coeffs]
    reports = [channel_report(ch) for ch in channels_of]
    expected = np.array([[float(report_quantity(rep, q)) for q in names] for rep in reports])
    assert _same_bits(channels[channel], expected).all()
    assert cli._csv_text(points, channels, channel) == _per_row_lines(np.hstack((points, expected)))
    # The two channels one ulp apart differ in some quantity's bits, so
    # reading both from one evaluation would fail above.
    a, b = sorted(set(channel[3:9].tolist()))
    assert not _same_bits(channels[a], channels[b]).all()


@pytest.mark.parametrize("patch,message", [
    (("_f_me_after_fail_double_sums", lambda values, mults, D: (values[:, 0] + 1.0,
                                                                 0.0 * values[:, 0])),
     "failure-fidelity forms disagree: "),
    (("IDENTITY_ATOL", -1.0), "stage-fidelity forms disagree: "),
], ids=["failure-fidelity", "stage-fidelity"])
@pytest.mark.usefixtures("fresh_reports")
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
     "a sweep over 8,416,958,750,200 candidate grid points would need 12,329,529,420 MiB"),
    (("--D", "4", "--N", "2", "--grid", "100000000"),
     "a sweep over 100,000,000 candidate grid points would need 109,864 MiB"),
    # The smallest N=2 grid whose 12 CSV cells per row pass the limit.
    (("--D", "4", "--N", "2", "--grid", "116509"),
     "a sweep over 116,509 candidate grid points would need 129 MiB"),
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


# ---------------------------------------------------------------------------
# CSV text: one formatted string per distinct value, one text per block


def _per_row_lines(table):
    """Reference formatter: every cell of every row through "%.15g"."""
    line = ",".join(["%.15g"] * table.shape[1])
    return "".join(line % tuple(values) + "\n" for values in table.tolist())


# NaNs of both signs and with payloads, the two zeros, both infinities,
# subnormals, the largest finite float and integer-valued floats.
_SPECIAL_FLOATS = (
    *np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
               0xFFF4000000000123], dtype=np.uint64).view(np.float64).tolist(),
    0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, 1.0, -3.0, 4.0, 1e15, 1e16, 123456789012345678.0,
)


def _pooled(data, rows, cols):
    """A (rows, cols) table drawn from a small pool per column, so values
    repeat as in a sweep."""
    value = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(),
                      st.integers(min_value=-10**6, max_value=10**6).map(float))
    table = np.empty((rows, cols))
    for j in range(cols):
        pool = data.draw(st.lists(value, min_size=1, max_size=5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
        table[:, j] = [pool[i] for i in picks]
    return table


@settings(max_examples=300)
@given(st.data())
def test_block_text_equals_per_row_formatting(data):
    rows = data.draw(st.integers(min_value=1, max_value=40))
    cols = data.draw(st.integers(min_value=1, max_value=6))
    # The first n columns are the point's, the others its channel's row.
    n = data.draw(st.integers(min_value=1, max_value=cols))
    count = data.draw(st.integers(min_value=1, max_value=rows))
    points, channels = _pooled(data, rows, n), _pooled(data, count, cols - n)
    channel = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=rows,
                                          max_size=rows)), dtype=np.intp)
    table = np.hstack((points, channels[channel]))
    assert cli._csv_text(points, channels, channel) == _per_row_lines(table)


def test_block_text_keeps_each_bit_pattern_of_a_value():
    # Equal as values, apart as bits: the zeros print apart, the NaNs alike,
    # among the points and in the channel rows the points index.
    nan, neg_nan, payload_nan = _SPECIAL_FLOATS[:3]
    table = np.array([[0.0, nan], [-0.0, neg_nan], [0.0, payload_nan], [-0.0, 1.0]])
    expected = "0,nan\n-0,nan\n0,nan\n-0,1\n"
    assert _per_row_lines(table) == expected
    assert cli._csv_text(table, np.empty((1, 0)), np.zeros(4, dtype=np.intp)) == expected
    channels, channel = table[[3, 1, 0, 2], 1:], np.array([2, 1, 3, 0])
    assert cli._csv_text(table[:, :1], channels, channel) == expected


def test_sweep_text_equals_per_row_formatting_across_blocks(monkeypatch, capsys):
    quantities = ("F_me", "F_mc_s2", "F_me_after_fail", "useful_s1", "P_smc_overall", "M")
    argv = ["sweep", "--D", "5", "--N", "3", "--grid", "40", "--quantities", ",".join(quantities)]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    points, _ = sweep_points(SweepSpec(D=5, N=3, resolution=40, quantities=quantities, out=None))
    channels, channel = cli._sweep_table(5, DEFAULT_TIE_TOL, quantities, points)
    assert whole.split("\n", 8)[-1] == _per_row_lines(np.hstack((points, channels[channel])))
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 7)
    blocks = cli._sweep_chunk(5, DEFAULT_TIE_TOL, quantities, points)
    assert len(blocks) == -(-len(points) // 7)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole


def test_failed_identity_prints_nothing_even_after_earlier_blocks(monkeypatch, capsys):
    # The first blocks evaluate; a later one fails its cross-check.
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 10)
    evaluate = cli._sweep_table
    calls = []

    def fail_third(*args):
        calls.append(1)
        if len(calls) == 3:
            raise AssertionError("forced")
        return evaluate(*args)

    monkeypatch.setattr(cli, "_sweep_table", fail_third)
    assert main(["sweep", "--D", "4", "--N", "3", "--grid", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal cross-check failed: forced\n"


# ---------------------------------------------------------------------------
# Tie-pattern grouping with codes of several bytes (N - 1 > 8 gaps)


def _tied_rows(rng, N, patterns, rows_each):
    """Squared coefficients, shuffled within each row: ``patterns`` random
    multiplicity patterns of N, each given ``rows_each`` rows of random
    well-separated group levels, so each row's tie pattern is exact."""
    out = []
    for _ in range(patterns):
        cuts = np.flatnonzero(rng.random(N - 1) < rng.uniform(0.1, 0.9)) + 1
        mults = np.diff(np.concatenate(([0], cuts, [N])))
        for _ in range(rows_each):
            levels = np.cumsum(rng.uniform(0.5, 1.5, size=mults.size))
            row = np.repeat(levels, mults)
            out.append(rng.permutation(row / row.sum()))
    return np.array(out)


def _unique_rows_groups(squared, tie_tol=DEFAULT_TIE_TOL):
    """Reference grouping: np.unique over the bool gap rows, as in
    report_blocks before its rows were packed into one code each."""
    amps = np.sqrt(squared)
    amps = np.sort(amps / np.sqrt(np.sum(amps**2, axis=1))[:, None], axis=1)
    patterns, which = np.unique(np.diff(amps, axis=1) > tie_tol, axis=0, return_inverse=True)
    which = which.ravel()
    return patterns, [np.flatnonzero(which == g).tolist() for g in range(len(patterns))]


@pytest.mark.parametrize("gaps", [8, 9, 16, 17, 40])
def test_packed_pattern_codes_group_as_unique_rows(gaps):
    N = gaps + 1
    rng = np.random.default_rng(N)
    squared = _tied_rows(rng, N, patterns=25, rows_each=3)
    squared = squared[rng.permutation(len(squared))]
    patterns, groups = _unique_rows_groups(squared)
    blocks, channel = analytics.report_blocks(N, squared)
    # A block's rows index channels; the rows of squared are those of its channels.
    assert [np.isin(channel, b.rows).nonzero()[0].tolist() for b in blocks] == groups
    assert [b.d for b in blocks] == [int(p.sum()) + 1 for p in patterns]


@pytest.mark.parametrize("N", range(10, 18))
def test_report_blocks_equal_channel_reports_with_multibyte_codes(N):
    # Up to N groups per row: row sums of 8 or more terms, which add in
    # another order over a column-major block than over one row.
    D = N + 1
    rng = np.random.default_rng(100 + N)
    grid, _ = sweep_points(SweepSpec(D=D, N=N, resolution=3, quantities=(), out=None))
    squared = np.concatenate((_tied_rows(rng, N, patterns=6, rows_each=2), grid[::7]))
    names = _names(N)
    channels, channel = cli._sweep_table(D, DEFAULT_TIE_TOL, names, squared)
    table = channels[channel]
    reports = [channel_report(make_channel(D, np.sqrt(p))) for p in squared]
    one_row = np.array([[float(report_quantity(rep, q)) for q in names] for rep in reports])
    assert _same_bits(table, one_row).all()


@pytest.mark.parametrize("patch,message", [
    (("_f_me_after_fail_double_sums", lambda values, mults, D: (values[:, 0] + 1.0,
                                                                 0.0 * values[:, 0])),
     "failure-fidelity forms disagree: "),
    (("IDENTITY_ATOL", -1.0), "stage-fidelity forms disagree: "),
], ids=["failure-fidelity", "stage-fidelity"])
@pytest.mark.usefixtures("fresh_reports")
def test_failed_identity_names_the_first_point_of_the_first_pattern(monkeypatch, capsys,
                                                                    patch, message):
    # Both checks fail on every row they test: the first is the first row of
    # the first pattern (in np.unique order) the check applies to.
    points, _ = sweep_points(SweepSpec(D=12, N=10, resolution=3, quantities=(), out=None))
    patterns, groups = _unique_rows_groups(points)
    tied = [g for p, g in zip(patterns, groups) if p.any() or patch[0] == "IDENTITY_ATOL"]
    monkeypatch.setattr(analytics, *patch)
    assert main(["sweep", "--D", "12", "--N", "10", "--grid", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: internal cross-check failed: {message}")
    assert err.endswith(f" at point {points[tied[0][0]].tolist()}\n")


@pytest.mark.parametrize("quantities,joined_bytes", [("", 86.8), ("F_me", 75.6)],
                         ids=["no-quantity", "F_me"])
def test_sweep_to_a_file_holds_one_block_of_scratch(tmp_path, quantities, joined_bytes):
    # Seven blocks of SWEEP_BLOCK_ROWS points.  Joining every row into one
    # text before writing, the sweep peaked at ``joined_bytes`` per
    # candidate cell here (tracemalloc); writing the block texts in turn
    # takes about 52 and 40 B.  The bound is a fifth below the joined peak.
    grid = 100_000
    tracemalloc.start()
    try:
        code = main(["sweep", "--D", "4", "--N", "2", "--grid", str(grid),
                     "--quantities", quantities, "--out", str(tmp_path / "sweep.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert grid > 6 * cli.SWEEP_BLOCK_ROWS
    cells = grid * (2 + len(cli._parse_names(quantities)))
    assert peak / cells < min(0.8 * joined_bytes, cli.SWEEP_CELL_BYTES)


def test_evaluator_splits_rows_by_tie_pattern():
    # Rows 0 and 2 are one channel: their sorted amplitudes are the same bits.
    points = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.25, 0.5, 0.25], [0.6, 0.2, 0.2]])
    blocks, channel = analytics.report_blocks(4, points)
    assert channel.tolist() == [0, 1, 0, 2]
    assert sorted(np.isin(channel, b.rows).nonzero()[0].tolist() for b in blocks) == [[0, 2, 3], [1]]
    tied = next(b for b in blocks if b.rows.size == 2)
    assert tied.rows.tolist() == [0, 2]
    assert (tied.d, tied.M) == (2, 1)
    assert tied.p_success.shape == (2, 1) and tied.F_mc_s.shape == (1,)
