import numpy as np
import pytest

from conftest import InlinePool
from mcteleport import channel_report, make_channel
from mcteleport.cli import main, parse_csv, report_quantity


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


def test_sweep_worker_pool_invariance(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    base = ["sweep", "--D", "4", "--N", "3", "--grid", "9", "--seed", "3"]
    assert run_cli(capsys, *base, "--workers", "1", "--out", str(serial))[0] == 0
    assert run_cli(capsys, *base, "--workers", "3", "--out", str(pooled))[0] == 0
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

    code, _, err = run_cli(
        capsys, "sweep", "--D", "4", "--N", "3", "--grid", "5",
        "--quantities", "not_a_quantity", "--out", str(out_path),
    )
    assert code == 1
    assert "unknown quantity" in err


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


SPARSE_STAGE1 = (
    "verify", "--D", "4", "--coeffs", "0.4999,0.4999,0.0001,0.0001", "--squared",
    "--trials", "1000", "--k-max", "2",
)


def test_verify_sparse_bucket_is_not_a_failure(capsys):
    # Stage 1 succeeds with p = 0.0004: about 0.4 hits in 1000 trials.
    code, out, _ = run_cli(capsys, *SPARSE_STAGE1)
    assert code == 0
    rows = {line.split()[0]: line for line in out.splitlines()}
    assert rows["F_mc_s1"].split()[-1] in ("n=0", "n=1")
    assert rows["F_mc_s1"].split()[-2] == "sparse"
    # the count itself is tested against the band of the analytic p
    assert rows["P_stage1"].endswith("pass")
    assert "+-0.000632" in rows["P_stage1"]
    assert "verdict: PASS" in out

    code, out, _ = run_cli(capsys, *SPARSE_STAGE1, "--self-test-corrupt")
    assert code == 2
    assert "verdict: FAIL" in out


def test_failed_internal_cross_check_exits_2_without_traceback(capsys, monkeypatch):
    from mcteleport.engine import ProtocolRunner

    kernel = ProtocolRunner.run_block

    def flipped(self, inputs, uniforms):
        stages, conclusive, outcomes, fids = kernel(self, inputs, uniforms)
        return stages, conclusive, outcomes, 1.0 - fids

    monkeypatch.setattr(ProtocolRunner, "run_block", flipped)
    code, out, err = run_cli(
        capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "1000",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal cross-check failed: replayed trial")
    assert "Traceback" not in err


def test_sweep_caps_workers_at_cpus_and_points(monkeypatch, tmp_path, capsys):
    from mcteleport import cli

    InlinePool.sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    outputs = []
    for grid, workers in (("9", "1"), ("9", "64"), ("2", "64")):
        path = tmp_path / f"sweep{grid}-{workers}.csv"
        assert run_cli(capsys, "sweep", "--D", "4", "--N", "2", "--grid", grid,
                       "--workers", workers, "--out", str(path))[0] == 0
        outputs.append(path.read_bytes())
    # 9 points: min(64, 3 cpus); 2 points: one worker per point
    assert InlinePool.sizes == [3, 2]
    assert outputs[0] == outputs[1]


def test_verify_rejects_excess_stage_budget_before_sampling(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--D", "4", "--coeffs", "0.5,0.3,0.2", "--squared",
        "--trials", "1000", "--k-max", "5",
    )
    assert code == 1
    assert "k_max" in err


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


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
