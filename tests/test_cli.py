import concurrent.futures
import dataclasses
import errno
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import InlinePool, conjugated_tables
from mcteleport import (
    StrategyConfig,
    build_stage_plan,
    channel_report,
    cli,
    make_channel,
    monte_carlo,
    qudit,
)
from mcteleport.cli import _COMMANDS, main, report_quantity

SRC = Path(__file__).resolve().parents[1] / "src"


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Inverse of the CLI's CSV writer: (metadata, header, rows)."""
    metadata: list[str] = []
    header: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            metadata.append(line[1:].strip())
        elif not header:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return metadata, header, rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_example_channel(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"
    )
    assert code == 0
    assert "F_clas           0.4" in out
    assert "F_mc_s=0.8" in out
    assert "M=2" in out


def test_report_bell_channel_is_faithful(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--D", "2", "--coeffs", "0.5,0.5", "--squared"
    )
    assert code == 0
    assert "F_me             1" in out


def test_report_rank_one_degenerates_to_classical(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--D", "4", "--coeffs", "1.0", "--squared"
    )
    assert code == 0
    assert "F_clas           0.4" in out
    assert "F_mc_s1          0.4" in out

    # No stage: the overall success probability reads NaN.
    code, out, _ = run_cli(capsys, "report", "--D", "3", "--coeffs", "1", "--out", "-")
    assert code == 0
    _, header, rows = parse_csv(out[out.index("# mcteleport"):])
    assert dict(zip(header, rows[0]))["P_smc_overall"] == "nan"


def test_report_csv_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "report", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--out", str(out_path),
    )
    assert code == 0
    metadata, header, rows = parse_csv(out_path.read_text())
    assert any(m.startswith("mcteleport") for m in metadata)
    assert len(rows) == 1
    rep = channel_report(make_channel(4, np.sqrt([0.5, 0.3, 0.2])))
    parsed = dict(zip(header, rows[0]))
    for name in header:
        expected = report_quantity(rep, name)
        assert float(parsed[name]) == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_report_malformed_channel_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "report", "--D", "4", "--coeffs", "0.9,0.4")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--D", "3", "--coeffs", "nan"],
        ["--D", "3", "--coeffs", "0.5,nan,0.3"],
        ["--D", "3", "--coeffs", "0.6,0.3,0.1", "--squared", "--tie-tol", "nan"],
        ["--D", "3", "--coeffs", "0.6,0.3,0.1", "--squared", "--tie-tol", "inf"],
        ["--D", "4", "--coeffs", "0.5,0.25,0.25", "--squared", "--tie-tol", "-1"],
        ["--D", "3", "--coeffs", "0.6,0.3,0.1", "--squared", "--tie-tol", "10"],
    ],
)
def test_report_rejects_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, "report", *argv)
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_report_missing_dimension_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "report", "--coeffs", "0.5,0.5", "--squared")
    assert code == 1
    assert "missing --D" in err


@pytest.mark.parametrize("path", ["missing/x.csv", ""], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ("report", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"), ("sweep", "--grid", "5"),
], ids=["report", "sweep"])
def test_unwritable_out_prints_nothing(tmp_path, capsys, argv, path):
    # report once printed the whole report before failing to open the file.
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("report", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"),
    ("plan", "--D", "4", "--coeffs", "0.8164965639173801,0.4082483329897253,0.40824828195869006"),
], ids=["report", "plan"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(capsys, monkeypatch, argv):
    # ``plan ... | head -1`` once printed "error: [Errno 32] Broken pipe"
    # and exited 1.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(list(argv)) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_the_entry_point_exits_141_when_its_reader_closes_the_pipe(unbuffered):
    # With buffered output the write fails only at the last flush, after
    # main has returned; the reader's end is closed before the child starts
    # writing.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "mcteleport.cli", "plan", "--D", "4",
            "--coeffs", "0.5,0.3,0.2", "--squared"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (141, b"")


def test_a_command_with_one_worker_loads_no_process_pool():
    # qudit.map_slices imports the pool only where it starts one, so a
    # command at --workers 1 never loads multiprocessing.
    script = ("import sys\nfrom mcteleport import cli\n"
              "assert cli.main(['verify', '--D', '4', '--coeffs', '0.5,0.3,0.2', '--squared',"
              " '--trials', '1000']) == 0\n"
              "assert 'concurrent.futures.process' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                   check=True, capture_output=True)


def test_plan_example_channel(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip().startswith(("1", "2"))]
    assert len(lines) == 2
    assert "yes" in lines[0]
    assert "no" in lines[1]
    # worst-case resources: message bits plus one bit and one ancilla per stage
    assert lines[0].split()[-2:] == ["5", "1"]
    assert lines[1].split()[-2:] == ["6", "2"]


def test_plan_equal_coefficients_single_stage(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--D", "4", "--coeffs", "0.3333333333,0.3333333333,0.3333333334",
        "--squared",
    )
    assert code == 0
    stage_lines = [ln for ln in out.splitlines() if ln.strip().startswith("1")]
    assert len(stage_lines) == 1
    assert "no" in stage_lines[0]


def test_plan_cumulative_probability_grows_with_useful_stage2(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--D", "4", "--coeffs", "0.9025,0.095,0.0025", "--squared"
    )
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln.strip().startswith(("1", "2"))]
    assert rows[0][4] == "yes" and rows[1][4] == "yes"
    assert float(rows[1][5]) > float(rows[0][5])


def test_sweep_constant_stage1_fidelity(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--D", "4", "--N", "3", "--grid", "11", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    metadata, header, rows = parse_csv(out_path.read_text())
    col = {name: i for i, name in enumerate(header)}
    assert rows, "sweep produced no feasible rows"
    for row in rows:
        sq = [float(row[col[f"a{i}_sq"]]) for i in range(3)]
        assert all(s > 0 for s in sq)
        assert sum(sq) == pytest.approx(1.0, abs=1e-12)
        assert float(row[col["F_mc_s1"]]) == pytest.approx(0.8, abs=1e-12)
        f_me_v = float(row[col["F_me"]])
        overall_me = float(row[col["overall_me"]])
        overall_smc = float(row[col["overall_smc"]])
        assert f_me_v - overall_me >= -1e-12
        assert overall_me - overall_smc >= -1e-12
    assert any(m.startswith("skipped_infeasible:") for m in metadata)


def test_sweep_tied_minimum_lines_hit_classical_value(tmp_path, capsys):
    # where the two smallest squared coefficients tie, only one filtering
    # stage exists and the continued stage-2 surface sits at F_clas
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--D", "4", "--N", "3", "--grid", "11",
        "--out", str(out_path),
    )
    assert code == 0
    _, header, rows = parse_csv(out_path.read_text())
    col = {name: i for i, name in enumerate(header)}
    tie_rows = 0
    for row in rows:
        a0, a1, a2 = (float(row[col[f"a{i}_sq"]]) for i in range(3))
        f2 = float(row[col["F_mc_s2"]])
        if a0 == a1 and a0 < a2:
            tie_rows += 1
            assert f2 == pytest.approx(0.4, abs=1e-12)
        elif a0 == a1 and a0 > a2:
            assert f2 == pytest.approx(0.6, abs=1e-12)
    assert tie_rows >= 3


def test_sweep_f_me_maximum_and_stage1_dominance(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--D", "2", "--N", "2", "--grid", "11",
        "--quantities", "F_me,F_mc_s1", "--out", str(out_path),
    )
    assert code == 0
    _, header, rows = parse_csv(out_path.read_text())
    col = {name: i for i, name in enumerate(header)}
    best = max(rows, key=lambda r: float(r[col["F_me"]]))
    assert float(best[col["a0_sq"]]) == pytest.approx(0.5, abs=1e-12)
    assert float(best[col["F_me"]]) == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert float(row[col["F_mc_s1"]]) >= float(row[col["F_me"]]) - 1e-12
        if float(row[col["a0_sq"]]) != pytest.approx(0.5, abs=1e-12):
            assert float(row[col["F_me"]]) < 1.0 - 1e-6


def test_sweep_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(
            capsys, "sweep", "--D", "4", "--N", "3", "--grid", "7", "--seed", "3",
            "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_worker_pool_invariance(tmp_path, capsys, monkeypatch):
    # 45 points in nine blocks, split among three workers in this process.
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 5)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(qudit.os, "cpu_count", lambda: 3)
    InlinePool.sizes = []
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    base = ["sweep", "--D", "4", "--N", "3", "--grid", "9", "--seed", "3"]
    assert run_cli(capsys, *base, "--workers", "1", "--out", str(serial))[0] == 0
    assert run_cli(capsys, *base, "--workers", "3", "--out", str(pooled))[0] == 0
    assert InlinePool.sizes == [3]
    assert serial.read_bytes() == pooled.read_bytes()


def test_sweep_quantity_selection_and_unknown_name(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--D", "4", "--N", "3", "--grid", "5",
        "--quantities", "F_me,useful_s2", "--out", str(out_path),
    )
    assert code == 0
    _, header, _ = parse_csv(out_path.read_text())
    assert header == ["a0_sq", "a1_sq", "a2_sq", "F_me", "useful_s2"]

    # Stage indices start at 1 and are not zero-padded.
    for name in ("bogus", "F_mc_s0", "F_mc_s01"):
        code, _, err = run_cli(
            capsys, "sweep", "--D", "4", "--N", "3", "--grid", "5",
            "--quantities", f"F_me,{name}", "--out", str(out_path),
        )
        assert code == 1
        assert err == f"error: unknown quantity {name!r}\n"

    # Stage names beyond the channel's M are accepted and read NaN.
    code, _, _ = run_cli(
        capsys, "sweep", "--D", "4", "--N", "3", "--grid", "5",
        "--quantities", "F_mc_s7", "--out", str(out_path),
    )
    assert code == 0
    _, _, rows = parse_csv(out_path.read_text())
    assert {row[-1] for row in rows} == {"nan"}


def test_verify_passes_and_is_deterministic(capsys):
    args = (
        "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "3000", "--seed", "11", "--k-max", "2", "--fallback", "me",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verdict: PASS" in out1


def test_verify_corrupt_mode_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "1000", "--seed", "11", "--self-test-corrupt",
    )
    assert code == 2
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("trials, bias", [(10**4, 0.05), (10**4, 0.0), (10**5, 0.005),
                                          (10**5, 0.0)],
                         ids=["0.05", "0.0", "1e5-0.005", "1e5-0.0"])
def test_the_empirical_band_alone_can_fail_a_verify(capsys, monkeypatch, trials, bias):
    # --self-test-corrupt moves the analytic value, which the oracle note
    # always catches.  Here only the sampled stage-1 mean moves, so the
    # empirical band is the one check that can see it.  About 60 % of the
    # trials land in F_mc_s1, whose band is then about 0.014 at 10^4
    # trials and 0.0036 at 10^5.
    sampled = cli.monte_carlo

    def biased(*args, **kwargs):
        stats = sampled(*args, **kwargs)
        mean = stats.mean_fidelity.copy()
        mean[0] += bias
        return dataclasses.replace(stats, mean_fidelity=mean)

    monkeypatch.setattr(cli, "monte_carlo", biased)
    code, out, err = run_cli(capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2",
                             "--squared", "--trials", str(trials), "--k-max", "1",
                             "--seed", "3")
    lines = out.splitlines()
    rows = {line.split()[0]: line for line in lines[1:-1]}
    assert list(rows) == ["F_mc_s1", "P_stage1", "P_smc_overall", "overall_me"]
    assert "oracle!=analytic" not in out and err == ""
    failed = {name: line for name, line in rows.items() if not line.endswith(" pass")}
    if bias:
        assert list(failed) == ["F_mc_s1"]
        assert failed["F_mc_s1"].endswith(" FAIL empirical out of band")
        assert (code, lines[-1]) == (2, "verdict: FAIL")
    else:
        assert failed == {}
        assert (code, lines[-1]) == (0, "verdict: PASS")


@pytest.mark.parametrize("fallback", ["me", "guess", "discard"])
@pytest.mark.parametrize("table", [0, 2], ids=["finv", "phases"])
def test_verify_fails_on_a_conjugated_fourier_or_phase_table(capsys, monkeypatch, table,
                                                              fallback):
    # F^+ and the correction phases feed the single run but not the block
    # kernel or the oracle, which both rely on phases F^+ = 1/sqrt(D); the
    # runner checks that before any trial.
    from mcteleport import engine

    monkeypatch.setattr(engine, "_tables", conjugated_tables(table))
    code, out, err = run_cli(capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2",
                             "--squared", "--trials", "1000", "--k-max", "2",
                             "--fallback", fallback)
    assert code == 2 and out == ""
    assert err.startswith("error: internal cross-check failed: the correction phases "
                          "and F^+ disagree at D=4")


SPARSE_STAGE1 = (
    "verify", "--D", "4", "--coeffs", "0.4999,0.4999,0.0001,0.0001", "--squared",
    "--trials", "1000", "--k-max", "2",
)


def test_verify_sparse_bucket_is_not_a_failure(capsys):
    # Stage 1 succeeds with p = 0.0004: about 0.4 hits in 1000 trials.
    code, out, _ = run_cli(capsys, *SPARSE_STAGE1)
    assert code == 0
    rows = {line.split()[0]: line for line in out.splitlines()}
    # fewer than two fidelities have no sample variance, so no band
    assert rows["F_mc_s1"].split()[-1] in ("n=0", "n=1")
    assert rows["F_mc_s1"].split()[-2] == "sparse"
    assert "+-nan " in rows["F_mc_s1"]
    # the count itself is tested by the band of 1000 0/1 hits, none of
    # them here: 7L/(3 * 999) with L = ln(4/BAND_TAIL)
    assert rows["P_stage1"].endswith("pass")
    assert "empirical=0+-0.0258 " in rows["P_stage1"]
    assert "verdict: PASS" in out

    code, out, _ = run_cli(capsys, *SPARSE_STAGE1, "--self-test-corrupt")
    assert code == 2
    assert "verdict: FAIL" in out


def test_failed_internal_cross_check_exits_2_without_traceback(capsys, monkeypatch):
    from mcteleport.engine import ProtocolRunner

    kernel = ProtocolRunner.run_block

    def flipped(self, probs, uniforms):
        ends, outcomes, fids = kernel(self, probs, uniforms)
        return ends, outcomes, 1.0 - fids

    monkeypatch.setattr(ProtocolRunner, "run_block", flipped)
    code, out, err = run_cli(
        capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "1000",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal cross-check failed: replayed trial")
    assert "Traceback" not in err


def test_sweep_caps_workers_at_cpus_and_blocks(monkeypatch, tmp_path, capsys):
    InlinePool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(qudit.os, "cpu_count", lambda: 3)
    outputs = []
    default = cli.SWEEP_BLOCK_ROWS
    # Blocks per sweep: 1, 1, 3 and 5 of 9 points, then 2 of 3 points.
    for rows, grid, workers in ((default, "9", "1"), (default, "9", "64"), (3, "9", "64"),
                                (2, "9", "64"), (2, "3", "64")):
        monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", rows)
        path = tmp_path / f"sweep{rows}-{grid}-{workers}.csv"
        assert run_cli(capsys, "sweep", "--D", "4", "--N", "2", "--grid", grid,
                       "--workers", workers, "--out", str(path))[0] == 0
        outputs.append(path.read_bytes())
    # One block starts no pool; then one worker per block, at most 3 CPUs.
    assert InlinePool.sizes == [3, 3, 2]
    assert outputs[1:4] == outputs[:1] * 3


def test_one_slice_counts_no_cpus(monkeypatch, capsys):
    def no_cpu_count():
        raise AssertionError("os.cpu_count called for one slice")

    monkeypatch.setattr(qudit.os, "cpu_count", no_cpu_count)
    cfg = StrategyConfig(kind="mc-smc", k_max=1, fallback="me")
    assert monte_carlo(make_channel(4, [0.6, 0.8]), cfg, 3000, seed=1, workers=1).trials == 3000
    # One block of 55 points at --workers 4: one slice, so no pool either.
    code, out, err = run_cli(capsys, "sweep", "--D", "4", "--N", "3", "--grid", "11",
                             "--workers", "4")
    assert (code, err) == (0, "")
    assert "feasible_points: 55" in out


def test_verify_rejects_excess_stage_budget_before_sampling(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "1000", "--k-max", "5",
    )
    assert code == 1
    assert err == "error: k_max=5 exceeds the 2 stage(s) this channel admits\n"

    code, _, err = run_cli(capsys, "verify", "--D", "4", "--coeffs", "1", "--trials", "1000")
    assert code == 1
    assert err == "error: rank-1 channels admit no discrimination stages\n"


def test_verify_requires_enough_trials(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "10",
    )
    assert code == 1
    assert "1000" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment manifest\n"
        "D = 4\n"
        "coeffs = 0.5,0.3,0.2\n"
        "squared = true\n"
        "tie_tol = 1e-9\n"
    )
    code, out, _ = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 0
    assert "M=2" in out

    # flags beat the file: override the coefficient list
    code, out, _ = run_cli(
        capsys, "report", "--config", str(cfg), "--coeffs", "0.5,0.5", "--D", "2"
    )
    assert code == 0
    assert "F_me             1" in out


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in err


def test_config_file_rejects_a_duplicate_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("D = 4\ncoeffs = 0.5,0.3,0.2\nsquared = true\nD = 5\n")
    code, out, err = run_cli(capsys, "report", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}:4: duplicate key 'D'\n"


def test_config_file_reads_only_what_no_flag_sets(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # A key that a flag sets is never parsed.
    cfg.write_text("D = x\ncoeffs = 0.5,0.3,0.2\nsquared = true\n")
    assert run_cli(capsys, "report", "--config", str(cfg), "--D", "4")[0] == 0
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 1 and "invalid literal for int()" in err

    # Keys of the other subcommands are ignored, unparsed.
    cfg.write_text("D = 4\ncoeffs = 0.5,0.3,0.2\nsquared = true\n"
                   "trials = x\ngrid = x\nfallback = x\n")
    plain = run_cli(capsys, "plan", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared")
    assert run_cli(capsys, "plan", "--config", str(cfg)) == plain
    assert plain[0] == 0

    # --self-test-corrupt and --config are flags only.
    for key in ("self_test_corrupt", "config"):
        cfg.write_text(f"D = 4\ncoeffs = 0.5,0.3,0.2\nsquared = true\n{key} = true\n")
        assert run_cli(capsys, "verify", "--config", str(cfg), "--trials", "1000") == \
            (1, "", f"error: unknown config key {key!r}\n")

    # squared = false is read as false; the bare flag still wins.
    cfg.write_text("D = 2\ncoeffs = 0.36,0.64\nsquared = false\n")
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert (code, err) == (1, "error: squared coefficients sum to 0.5392, "
                              "more than 1e-06 away from 1\n")
    code, out, _ = run_cli(capsys, "report", "--config", str(cfg), "--squared")
    assert code == 0 and out.startswith("channel: D=2 N=2 coeffs=['0.8', '0.6']")


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_lists_every_option_with_its_default(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    entries = {}  # flag -> its help entry, wrapped lines joined
    for line in out.split("options:\n")[1].splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = ""
        entries[flag] += "".join(line.split())
    for dest, default in _COMMANDS[command][1].items():
        entry = entries.pop("--" + dest.replace("_", "-"))
        if default is None:
            assert "(default:" not in entry
        else:
            shown = ",".join(default) if isinstance(default, tuple) else str(default)
            assert entry.endswith(f"(default:{shown})")
    extra = {"verify": {"--self-test-corrupt"}}.get(command, set())
    assert set(entries) == {"-h", "--config"} | extra


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


ROUNDED_STAGE1 = (
    "verify", "--D", "10", "--coeffs",
    "0.24320488431,0.263346895805,0.367813583591,0.367100376041,0.374033821154,"
    "0.396194618802,0.352262127011,0.27584226302,0.245531230487,0.210037276882",
    "--trials", "1000", "--seed", "346", "--k-max", "1", "--fallback", "me",
)


def test_verify_band_covers_rounding_of_an_exact_bucket(capsys):
    # Full rank: every stage-1 fidelity is 1 up to rounding, so the bucket's
    # stderr (~1e-17) is smaller than the rounding error of its mean.
    code, out, _ = run_cli(capsys, *ROUNDED_STAGE1)
    assert code == 0, out
    assert "verdict: PASS" in out
    # The band of 442 samples is its 7L/(3 * 441) term; the stderr adds
    # nothing visible.
    assert "empirical=1+-0.0585 " in out.splitlines()[1]
    code, out, _ = run_cli(capsys, *ROUNDED_STAGE1, "--self-test-corrupt")
    assert code == 2


@pytest.mark.parametrize("stderr", [0.0, 1e-3])
@pytest.mark.parametrize("n", [2, 1000, 10**5])
def test_verify_judges_a_row_by_its_empirical_bernstein_band(capsys, monkeypatch, n, stderr):
    # Maurer and Pontil's bound for a mean of n values in [0, 1], on each
    # tail at BAND_TAIL/2; the printed +- is this band.
    L = math.log(4 / cli.BAND_TAIL)
    band = math.sqrt(2 * L) * stderr + 7 * L / (3 * (n - 1))
    cases = [(0.5 + (1 - 1e-9) * band, 0, "pass"),
             (0.5 - (1 - 1e-9) * band, 0, "pass"),
             (0.5 + (1 + 1e-9) * band, 2, "FAIL empirical out of band"),
             (0.5 - (1 + 1e-9) * band, 2, "FAIL empirical out of band"),
             (math.nan, 2, "FAIL empirical out of band")]
    for empirical, expected, status in cases:
        row = ("F_mc_s1", 0.5, 0.5, empirical, stderr, n)
        monkeypatch.setattr(cli, "_verify_rows", lambda *args, row=row: [row])
        code, out, _ = run_cli(capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2",
                               "--squared", "--trials", "1000")
        line = out.splitlines()[1]
        assert (code, line.endswith(status)) == (expected, True), line
        assert f"+-{band:.3g} " in line


@pytest.mark.parametrize("argv,what", [
    (("verify", "--D", "3000", "--coeffs", "0.6,0.8", "--trials", "1000"),
     "the (D, D) arrays of a single run at D=3000 would need 1,099 MiB"),
    (("plan", "--D", "100000000", "--coeffs", "0.6,0.8"),
     "the Kraus diagonals of 1 stage(s) at D=100000000 would need 1,526 MiB"),
    (("verify", "--D", "4", "--coeffs", "0.6,0.8", "--trials", str(2**24 + 1)),
     "the per-trial results of 16,777,217 trials would need 129 MiB"),
    # The oracle pads the Schmidt weights to length D before the plan's
    # and the runner's guards run: 795 MB at D = 10^8 without its own.
    (("verify", "--D", "100000000", "--coeffs", "0.5,0.3,0.2", "--squared",
      "--trials", "1000"),
     "the oracle's length-D weights at D=100000000 would need 2,289 MiB"),
], ids=["verify", "plan", "verify-trials", "verify-oracle"])
def test_oversized_dimension_is_a_usage_error_before_allocating(capsys, argv, what):
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err.startswith(f"error: {what}, more than the 128 MiB limit")
    assert err.count("\n") == 1
    assert peak < 2**20


def test_report_and_verify_still_run_at_large_dimension(capsys):
    code, out, _ = run_cli(capsys, "report", "--D", "100000000", "--coeffs", "0.6,0.8")
    assert code == 0 and "stage 1:" in out
    code, out, _ = run_cli(capsys, "verify", "--D", "1024", "--coeffs", "0.6,0.8",
                           "--trials", "1000")
    assert code == 0 and "verdict: PASS" in out


def test_non_string_argument_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "report", "--D", 4, "--coeffs", "0.6,0.8")
    assert code == 1
    assert out == ""
    assert err == "error: command-line arguments must be strings, got 4 (int)\n"


def test_type_error_in_a_command_is_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise TypeError("unsupported operand type(s) for +: 'int' and 'str'")

    monkeypatch.setattr(cli, "channel_report", broken)
    code, out, err = run_cli(capsys, "report", "--D", "4", "--coeffs", "0.6,0.8")
    assert code == 1
    assert out == ""
    assert err == "error: unsupported operand type(s) for +: 'int' and 'str'\n"


@pytest.mark.parametrize("argv", [
    ("report", "--D", "4", "--coeffs", "0.4999875249376247,0.5000124750623753", "--squared"),
    ("report", "--D", "7", "--coeffs", "0.7071067811869012,0.707106781186194", "--tie-tol", "0"),
    ("sweep", "--D", "4", "--N", "2", "--grid", "100000", "--quantities", "F_me_after_fail"),
], ids=["report", "report-tie-tol-0", "sweep"])
def test_near_tied_smallest_group_passes_the_failure_fidelity_check(tmp_path, capsys, argv):
    # p_fail = 1 - N a_min^2 cancels to ~1e-5 (~1e-12 at --tie-tol 0), and
    # 1/p_fail magnifies the normalisation residual between the two
    # F_me_after_fail forms past 1e-12; the check budgets that term.
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] == "sweep" else []
    code, _, err = run_cli(capsys, *argv, *out)
    assert (code, err) == (0, "")


ONE_ULP = ("--D", "4", "--coeffs", "0.5773502691896257,0.5773502691896258,0.5773502691896258",
           "--tie-tol", "0")


@pytest.mark.parametrize("argv", [("report",), ("plan",), ("verify", "--k-max", "1")],
                         ids=["report", "plan", "verify"])
def test_one_ulp_smallest_group_fails_its_cross_check_without_a_warning(capsys, argv):
    # The smallest group lies one ulp below the other two, so p_fail = 1 -
    # N a_min^2 is exactly 0 and the double-sum form divides by it.  That
    # division once raised a RuntimeWarning, a traceback under
    # -W error::RuntimeWarning; the cross-check then fails as it should
    # (until the two forms are normalised alike).
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv, *ONE_ULP)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: internal cross-check failed: failure-fidelity forms "
                        r"disagree: nan vs inf at point \[.*\]\n", err)


@pytest.mark.usefixtures("fresh_reports")
def test_corrupted_failure_form_exits_2_naming_plain_floats(capsys, monkeypatch):
    from mcteleport import analytics

    forms = analytics._f_me_after_fail_double_sums
    monkeypatch.setattr(analytics, "_f_me_after_fail_double_sums",
                        lambda *args: (forms(*args)[0] + 1e-9, forms(*args)[1]))
    code, out, err = run_cli(capsys, "report", "--D", "4", "--coeffs", "0.5,0.3,0.2",
                             "--squared")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: internal cross-check failed: failure-fidelity forms "
                        r"disagree: 0\.57320508\d+ vs 0\.57320508\d+ at point \[.*\]\n", err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--D", "4", "--N", "2", "--grid", "5", "--workers", "-3"],
         "error: workers must be >= 1, got -3\n"),
        (["verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
          "--trials", "1000", "--workers", "0"],
         "error: workers must be >= 1, got 0\n"),
        (["sweep", "--D", "4", "--N", "2", "--grid", "5", "--seed", "-1"],
         "error: seed must be a non-negative integer, got -1\n"),
    ],
)
def test_fewer_than_one_worker_and_a_negative_sweep_seed_are_usage_errors(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", message)


_COEFFS = ("--coeffs", "0.5,0.3,0.2", "--squared")


@pytest.mark.parametrize("argv, config, message", [
    (["report", "--D", "4", "--coeffs", "a,b"], None,
     "argument --coeffs: cannot parse coefficient list from 'a,b'"),
    (["report", "--D", "4"], "coeffs = a,b", "cannot parse coefficient list from 'a,b'"),
    (["report", "--D", "4", "--coeffs", "0.5,0.5"], "squared = maybe",
     "cannot parse boolean from 'maybe'"),
    (["report"], "D 4", "{cfg}:1: expected key=value, got 'D 4'"),
    (["report", "--D", "4"], None, "missing --coeffs"),
    (["report", "--D", "4", "--coeffs", "0.5,0.5,0", "--squared"], None,
     "squared coefficients must be strictly positive"),
    # Squares above the largest float: inf, with no overflow warning.
    (["report", "--D", "4", "--coeffs", "1e200"], None,
     "squared coefficients sum to inf, more than 1e-06 away from 1"),
    (["sweep", "--N", "1"], None, "need 2 <= N <= D, got N=1, D=4"),
    (["sweep", "--grid", "1"], None, "grid resolution must be >= 2"),
    (["report", "--D", "1", "--coeffs", "1"], None, "dimension must be >= 2, got 1"),
    # Above 2**53, D + 1 is not exact in float64; at 10^400, 2.0/(D + 1)
    # raised OverflowError and the oracle's pad a NumPy TypeError.
    *[pytest.param([command, "--D", str(10**400), *rest], None,
                   f"dimension must be <= {2**53}, got {10**400}", id=f"{command}-D-1e400")
      for command, rest in [("report", _COEFFS), ("plan", _COEFFS),
                            ("verify", (*_COEFFS, "--trials", "1000")), ("sweep", ("--N", "2"))]],
    pytest.param(["report", "--D", str(2**53 + 1), "--coeffs", "1"], None,
                 f"dimension must be <= {2**53}, got {2**53 + 1}", id="report-D-2**53+1"),
])
def test_bad_input_exits_1_with_one_error_line(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config + "\n")
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "error: " + message.format(cfg=cfg)


def test_fewer_than_one_worker_from_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 0\n")
    code, out, err = run_cli(capsys, "sweep", "--D", "4", "--N", "2", "--grid", "5",
                             "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: workers must be >= 1, got 0\n")


_CHANNEL = ["--D", "4", *_COEFFS]


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0),
    *[([command, "-h"], 0) for command in _COMMANDS],
    (["verify", *_CHANNEL, "--bogus"], 1),  # a bad flag
    (["report", "--D"], 1),  # a missing value
    (["verify", *_CHANNEL, "--fallback", "retry"], 1),
    (["report", "--D", "4", "--coef", "0.5,0.3,0.2", "--squared"], 0),  # an abbreviation
    ([], 1),
    (["frobnicate", *_CHANNEL], 1),
    (["plan", *_CHANNEL, "extra"], 1),  # a stray positional
    (["report", "--", *_CHANNEL], 1),
    (["report", "--D", "four", "--coeffs", "0.6,0.8"], 1),
    (["sweep", "--grid", "1.5"], 1),
], ids=lambda value: (" ".join(value) or "no-command") if isinstance(value, list) else None)
def test_a_command_parsed_by_its_own_parser_prints_what_the_full_parser_prints(
        capsys, monkeypatch, argv, code):
    own = run_cli(capsys, *argv)
    assert own[0] == code
    # With no command known, every argv takes the full parser.
    monkeypatch.setattr(cli._parser(), "commands", {})
    assert run_cli(capsys, *argv) == own


def test_a_known_command_runs_only_its_own_parser(capsys, monkeypatch):
    def full_parse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    parser = cli._parser()
    monkeypatch.setattr(parser, "parse_args", full_parse)
    monkeypatch.setattr(parser, "parse_known_args", full_parse)
    assert run_cli(capsys, "report", *_CHANNEL)[0] == 0
    code, out, err = run_cli(capsys, "report", *_CHANNEL, "--bogus")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["usage: mcteleport [-h] {report,plan,sweep,verify} ...",
                                "error: unrecognized arguments: --bogus"]


def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch):
    argv = ["verify", *_CHANNEL, "--trials", "1000", "--bogus"]
    want = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["mcteleport", *argv])
    code = main()
    assert (code, *capsys.readouterr()) == want


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    build_parser = cli.build_parser
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("D = 4\ncoeffs = 0.5,0.3,0.2\nsquared = true\nk_max = 2\n")
    channel = ["--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared"]
    sequence = [
        ["report", "--D", "x"],
        ["verify", "--config", str(cfg), "--trials", "1000"],
        ["report", *channel],
        ["plan", *channel],
        ["sweep", "--D", "3", "--N", "2", "--grid", "5"],
        ["verify", *channel, "--trials", "1000", "--k-max", "2"],
    ]
    try:
        first = [run_cli(capsys, *argv) for argv in sequence]
        second = [run_cli(capsys, *argv) for argv in sequence]
        assert second == first
        assert [code for code, _, _ in first] == [1, 0, 0, 0, 0, 0]
        assert first[0][2].startswith("usage: mcteleport report")
        assert "k_max=2" in first[1][1]
        assert builds == [1]

        # The handler is looked up when the command runs, not when the
        # parser was built.
        monkeypatch.setattr(cli, "cmd_report", lambda args: 7)
        assert run_cli(capsys, *sequence[2]) == (7, "", "")
        assert builds == [1]
    finally:
        cli._parser.cache_clear()


def test_verify_builds_one_plan_and_one_branch_enumeration(capsys, monkeypatch):
    # One plan build for the sampler and the oracle, and one branch
    # enumeration that every oracle row reads: k_max rotated conclusive
    # stages, the rotated exhausted-me set and the unrotated exhausted-guess.
    from mcteleport import engine

    rotated = []
    sums = engine._branch_sums

    def counted_sums(w, rotate):
        rotated.append(rotate)
        return sums(w, rotate)

    monkeypatch.setattr(engine, "_branch_sums", counted_sums)
    builds = engine.build_stage_plan.cache_info().misses
    enumerations = engine._branch_sets.cache_info().misses
    k_max = 3
    code, out, _ = run_cli(capsys, "verify", "--D", "5", "--coeffs", "0.4,0.3,0.2,0.1",
                           "--squared", "--trials", "1000", "--k-max", str(k_max),
                           "--fallback", "me")
    assert code == 0 and "verdict: PASS" in out
    assert engine.build_stage_plan.cache_info().misses - builds == 1
    assert engine._branch_sets.cache_info().misses - enumerations == 1
    assert rotated == [True] * (k_max + 1) + [False]


def test_verify_groups_the_channel_once(capsys, monkeypatch):
    # ``channels.group_rows`` is the one grouping of every route: the plan
    # the sampler and the oracle read and the closed forms of one
    # ``verify``, ``report`` or ``plan`` share the channel's cached
    # profile, so each command calls it once.  ``plan`` prints every stage
    # from the plan's arrays.
    from mcteleport import channels

    weights = np.linspace(2.0, 1.0, 32)
    coeffs = ",".join(map(str, (weights / weights.sum()).tolist()))
    groupings = []
    group = channels.group_rows

    def counted(*args):
        groupings.append(1)
        return group(*args)

    monkeypatch.setattr(channels, "group_rows", counted)
    code, out, _ = run_cli(capsys, "verify", "--D", "32", "--coeffs", coeffs, "--squared",
                           "--trials", "1000", "--k-max", "3")
    assert code == 0 and "verdict: PASS" in out
    assert len(groupings) == 1
    code, out, _ = run_cli(capsys, "report", "--D", "32", "--coeffs", coeffs, "--squared")
    assert code == 0 and "M=31" in out
    assert len(groupings) == 2
    code, out, _ = run_cli(capsys, "plan", "--D", "32", "--coeffs", coeffs, "--squared")
    assert code == 0 and "M=31" in out
    assert len(groupings) == 3
    stages = [line.split()[0] for line in out.splitlines()[2:]]
    assert stages[:-1] == [str(k) for k in range(1, 32)] and stages[-1] == "expected"


def test_verify_evaluates_the_stage_probabilities_once(capsys, monkeypatch):
    # One closed-form cascade gives every P_stage row and P_smc_overall.
    calls = []
    probabilities = cli.stage_probabilities

    def counted(channel, k):
        calls.append(k)
        return probabilities(channel, k)

    monkeypatch.setattr(cli, "stage_probabilities", counted)
    code, out, _ = run_cli(capsys, "verify", "--D", "5", "--coeffs", "0.4,0.3,0.2,0.1",
                           "--squared", "--trials", "1000", "--k-max", "3")
    assert code == 0 and "verdict: PASS" in out
    assert calls == [3]


@pytest.mark.parametrize("argv, coefficient", [
    (["plan", "--D", "4", "--coeffs", "1,1e-200"], "1e-200"),
    (["verify", "--D", "4", "--coeffs", "1,1e-200", "--trials", "1000"], "1e-200"),
    (["report", "--D", "4", "--coeffs", "1,1e-163"], "1e-163"),
    (["report", "--D", "4", "--coeffs", "1,1e-160"], "1e-160"),
    (["plan", "--D", "4", "--coeffs", "1,1e-320", "--squared"], "9.99994433575849e-161"),
], ids=["plan", "verify", "report-zero-square", "report-subnormal-square", "squared"])
def test_coefficient_whose_square_underflows_is_a_usage_error(capsys, argv, coefficient):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: coefficient {coefficient} is too small: its square ")
    assert "Traceback" not in err


def test_coefficient_just_above_the_underflow_bound_still_plans(capsys):
    code, out, _ = run_cli(capsys, "plan", "--D", "4", "--coeffs", "1,1e-150")
    assert code == 0
    assert out.endswith("expected channel copies until a conclusive run: 5e+299\n")


# The NumPy wrappers that report and plan no longer call: each one only
# dispatches to a ufunc or ndarray method, which they call directly.
REMOVED_WRAPPERS = ("diff", "flatnonzero", "sum", "cumsum", "mean", "repeat", "take",
                    "all", "any", "max", "sort", "ones", "argwhere")
# The channel options of four channels, which the CI also runs.  The
# near-tied one has its top two groups one ulp apart, so at tie tolerance 0
# its stage 2 cannot fail and stage 3 divides by a zero survival.
DISPATCH_CHANNELS = {
    "tied": ["--D", "8", "--coeffs", "0.2,0.2,0.15,0.15,0.15,0.1,0.05", "--squared"],
    "near-tied": ["--D", "8", "--coeffs", "0.15973927121342632,0.4935796200290799,"
                  "0.4935796200290799,0.49357962002907996,0.49357962002907996", "--tie-tol", "0"],
    "rank-1": ["--D", "5", "--coeffs", "1"],
    "full-rank": ["--D", "32", "--coeffs", ",".join(str(k / 528) for k in range(1, 33)),
                  "--squared"],  # M = 31
}


class WrapperCalled(Exception):
    """Not one of the exceptions ``main`` maps to an exit code."""


@pytest.mark.parametrize("name", DISPATCH_CHANNELS)
def test_report_and_plan_call_no_removed_numpy_wrapper(name, capsys, monkeypatch, tmp_path):
    args = DISPATCH_CHANNELS[name]
    options = cli._resolve("report", vars(cli._parser().parse_args(["report", *args])))
    csv = tmp_path / "report.csv"
    commands = [["report", *args], ["report", *args, "--out", str(csv)], ["plan", *args]]

    def run_all():
        ch = cli._build_channel(options)  # a new channel misses the one-entry caches
        plan = build_stage_plan(ch) if ch.N > 1 else None
        runs = [run_cli(capsys, *argv) for argv in commands]
        return channel_report(ch), plan, runs, csv.read_text()

    expected = run_all()
    csv.unlink()

    def wrapper(name):
        def called(*args, **kwargs):
            raise WrapperCalled(f"np.{name}")
        return called

    for attr in REMOVED_WRAPPERS:
        monkeypatch.setattr(np, attr, wrapper(attr))
    got = run_all()
    monkeypatch.undo()
    assert got[0] == expected[0]
    assert got[2:] == expected[2:]
    assert [code for code, _, _ in got[2]] == [0, 0, 0]
    if name == "full-rank":
        assert got[0].M == 31
    if expected[1] is not None:
        for field in ("K_s", "K_f", "p_fail"):
            assert np.array_equal(getattr(got[1], field), getattr(expected[1], field))
