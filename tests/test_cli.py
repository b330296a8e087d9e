import math

import numpy as np
import pytest

from dtqsw.cli import CSV_HEADER, main, parse_angle, parse_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle():
    assert parse_angle("0.2892pi") == pytest.approx(0.2892 * math.pi)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("1.25") == 1.25


def test_parse_list():
    assert parse_list("0.1,0.5,0.9") == [0.1, 0.5, 0.9]
    assert parse_list("0:1:0.25") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_list("2,4", int) == [2, 4]
    assert parse_list("2,,6,", int) == [2, 6]


def test_recur_csv_shape_and_order(capsys):
    code, out, _ = run_cli(
        capsys, "recur", "--theta", "0.25pi,0.4pi", "--p", "0.5,0.1",
        "--z", "0.9,0.5", "--nmax", "4", "--grid", "64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2
    # lexicographic (theta, p, z) ordering regardless of input order
    keys = [tuple(float(f) for f in ln.split(",")[1:4]) for ln in lines[1:]]
    assert keys == sorted(keys)
    for ln in lines[1:]:
        fields = ln.split(",")
        assert fields[0] == "balanced" and fields[6] == "rtilde"
        assert 0.0 < float(fields[8]) <= 1.0


def test_recur_deterministic_and_jobs_agree(capsys):
    args = ["recur", "--theta", "0.3pi", "--p", "0.2,0.7",
            "--z", "0.5,0.9", "--nmax", "4", "--grid", "64"]
    _, serial, _ = run_cli(capsys, *args)
    _, serial2, _ = run_cli(capsys, *args)
    assert serial == serial2  # byte-identical reruns
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert parallel == serial  # worker count changes nothing


def test_recur_usage_errors(capsys):
    code, _, err = run_cli(capsys, "recur", "--theta", "0.25pi",
                           "--p", "0.5", "--z", "1.5")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "recur", "--theta", "0.7pi", "--p", "0.5")
    assert code == 1 and "theta" in err


def test_recur_partial_failure_exit_2(capsys):
    # grid not a multiple of 4 fails inside the point evaluation
    code, out, _ = run_cli(
        capsys, "recur", "--theta", "0.25pi", "--p", "0.5",
        "--z", "0.5", "--nmax", "4", "--grid", "66",
    )
    assert code == 2
    row = out.strip().splitlines()[1].split(",")
    assert row[8] == "nan" and "ParameterError" in row[9]


def test_evolve_hadamard_first_steps(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--theta", "0.25pi", "--p", "0", "--tmax", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    rt = {int(ln.split(",")[7]): float(ln.split(",")[8])
          for ln in lines[1:] if ln.split(",")[6] == "rt"}
    # Hadamard from |R>: no return at t=1, q_2 = 1/2
    assert rt[0] == 0.0 and rt[1] == 0.0 and rt[2] == pytest.approx(0.5)
    qhat = {int(ln.split(",")[7]): float(ln.split(",")[8])
            for ln in lines[1:] if ln.split(",")[6] == "qhat"}
    assert qhat[1] == 0.0 and qhat[2] == pytest.approx(0.5)


def test_evolve_tmax_cap(capsys):
    code, _, err = run_cli(capsys, "evolve", "--theta", "0.25pi",
                           "--p", "0", "--tmax", "301")
    assert code == 1 and "tmax" in err


def test_slope_csv_and_warning(capsys):
    code, out, err = run_cli(capsys, "slope", "--theta", "0.25pi,0.49pi",
                             "--t", "2,6")
    assert code == 0
    assert "warning" in err  # 0.49pi exceeds the uniformity threshold
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[6] == "bt" for r in rows)
    assert len(rows) == 4


def test_fit_roundtrip_on_recur_output(capsys, tmp_path):
    recur_path = tmp_path / "recur.csv"
    code, _, _ = run_cli(
        capsys, "recur", "--theta", "0.25pi", "--p", "0.5",
        "--nmax", "8", "--grid", "256", "--out", str(recur_path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "--input", str(recur_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("model,theta,p,form,a")
    fields = lines[1].split(",")
    a_fit, c_fit = float(fields[4]), float(fields[8])
    assert 0.5 < a_fit <= 1.0
    assert 0.1 <= c_fit <= 2.0


def test_fit_rejects_non_recur_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    code, _, err = run_cli(capsys, "fit", "--input", str(bad))
    assert code == 1 and "not a recur CSV" in err


def test_minima_csv(capsys):
    code, out, _ = run_cli(
        capsys, "minima", "--theta", "0.39pi", "--z", "0.999",
        "--nmax", "4", "--grid", "64", "--iterations", "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("model,theta,z,nmax,p_min")
    fields = lines[1].split(",")
    p_min = float(fields[4])
    assert 0.0 <= p_min <= 1.0


def test_oracle_subcommands(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--which", "eq20",
                           "--theta", "0.25pi,0.5pi")
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(2 / math.pi)
    assert float(lines[2].split(",")[1]) == pytest.approx(1.0)

    code, out, _ = run_cli(capsys, "oracle", "--which", "pihalf",
                           "--zvalue", "0.9", "--pvalue", "0.3")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("z,p,q_rr")
    values = [float(v) for v in row.split(",")]
    assert values[0] == 0.9 and values[1] == 0.3

    code, out, _ = run_cli(capsys, "oracle", "--which", "catalan", "--m", "2,4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "2,0.5"
    assert lines[2] == "4,0.125"


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax=4\ngrid=64\nmodel=balanced\n")
    args = ["--config", str(cfg), "recur", "--theta", "0.25pi",
            "--p", "0.5", "--z", "0.5"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "4" and row[5] == "64"
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, *args, "--nmax", "6")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[4] == "6"


def test_config_equals_form_is_read(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax=4\ngrid=64\n")
    code, out, _ = run_cli(capsys, f"--config={cfg}", "recur", "--theta", "0.25pi",
                           "--p", "0.5", "--z", "0.5")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "4" and row[5] == "64"


def test_config_without_path_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--config")
    assert code == 1 and "--config" in err


def test_config_values_reach_commands_as_numbers(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("zvalue=0.9\npvalue=0.3\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "oracle", "--which", "pihalf")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("0.9,0.3,")


@pytest.mark.parametrize(
    "argv",
    [
        ["recur", "--theta", "abc", "--p", "0.5"],
        ["recur", "--theta", "0.25pi", "--p", "0:1"],
        ["slope", "--theta", "0.25pi", "--t", "x"],
        ["slope", "--theta", "0.25pi", "--t", ","],
    ],
    ids=["angle", "range-shape", "int", "empty"],
)
def test_malformed_list_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "error" in err


def test_config_prefix_is_not_config(capsys):
    """A prefix of --config is left to the subcommand (here evolve's --coin),
    and before the subcommand it is a usage error, not an ignored file."""
    evolve = ["evolve", "--theta", "0.25pi", "--p", "0", "--tmax", "2"]
    code, out, _ = run_cli(capsys, *evolve, "--co", "mixed")
    assert code == 0 and out.strip().splitlines()[1]
    code, _, err = run_cli(capsys, "--conf", "run.cfg", *evolve)
    assert code == 1 and "error" in err


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "--config", "/nonexistent.cfg",
                           "recur", "--theta", "0.25pi", "--p", "0.5")
    assert code == 1 and "config" in err


def test_cli_matches_library(capsys):
    from dtqsw import WalkParams, recurrence_estimate

    code, out, _ = run_cli(
        capsys, "recur", "--theta", "0.3pi", "--p", "0.4",
        "--z", "0.9", "--nmax", "8", "--grid", "256",
    )
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[8])
    ref = recurrence_estimate(WalkParams(0.3 * math.pi, 0.4), 0.9,
                              n_max=8, grid_n=256)
    assert value == pytest.approx(ref, abs=1e-12)
