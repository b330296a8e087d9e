import concurrent.futures
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dtqsw import cli, directsim, genfun
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


@pytest.mark.parametrize(
    "argv",
    [
        # below Z_MIN the renewal cancels: z = 1e-8 used to print 0 for 8.7e-10
        ["recur", "--theta", "0.3", "--p", "0", "--z", "1e-8"],
        ["minima", "--theta", "0.39pi", "--z", "1e-3"],
        ["minima", "--theta", "0.39pi", "--iterations", "0"],
        ["minima", "--theta", "0.39pi", "--iterations", "-2"],
        # a truncation that cannot run: n_max odd or grid not a multiple of 4
        ["recur", "--theta", "0.3", "--p", "0", "--z", "0.5", "--nmax", "3"],
        ["recur", "--theta", "0.3", "--p", "0", "--z", "0.5", "--grid", "66"],
        ["minima", "--theta", "0.39pi", "--nmax", "3"],
        ["minima", "--theta", "0.39pi", "--grid", "66"],
    ],
    ids=["recur-small-z", "minima-small-z", "iterations-0", "iterations-negative",
         "recur-nmax-odd", "recur-grid-66", "minima-nmax-odd", "minima-grid-66"],
)
def test_inputs_with_no_valid_answer_exit_1(capsys, argv):
    """Each is refused before any point is computed."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")
    assert "Traceback" not in err


def test_recur_usage_errors(capsys):
    code, _, err = run_cli(capsys, "recur", "--theta", "0.25pi",
                           "--p", "0.5", "--z", "1.5")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "recur", "--theta", "0.7pi", "--p", "0.5")
    assert code == 1 and "theta" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_recur_jobs_below_one_is_usage_error(capsys, monkeypatch, jobs):
    """A worker count below 1 is refused, not run serially; no pool is started."""

    def no_pool(*_args, **_kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, "recur", "--theta", "0.25pi", "--p", "0.5",
                             "--z", "0.5", "--nmax", "4", "--grid", "64", "--jobs", jobs)
    assert code == 1 and "jobs" in err and out == ""


def test_recur_partial_failure_exit_2(capsys, monkeypatch):
    """One point fails and one does not: exit 2, a good row and a nan row."""
    inv, estimate = np.linalg.inv, genfun.recurrence_estimate
    scale = {}  # by size: the renewal's block stack is wider than A0's 4 x 4 stack

    def estimate_failing_at_0_9(params, z, *args):
        scale[True] = 1e15 if z == 0.9 else 1.0  # past the condition limit at z = 0.9 only
        return estimate(params, z, *args)

    monkeypatch.setattr(genfun, "recurrence_estimate", estimate_failing_at_0_9)
    monkeypatch.setattr(np.linalg, "inv", lambda m: inv(m) * scale.get(np.shape(m)[-1] > 4, 1.0))
    code, out, _ = run_cli(
        capsys, "recur", "--theta", "0.25pi", "--p", "0.5",
        "--z", "0.5,0.9", "--nmax", "4", "--grid", "64",
    )
    assert code == 2
    good, bad = (line.split(",") for line in out.strip().splitlines()[1:])
    assert 0.0 < float(good[8]) <= 1.0 and good[9] == ""
    assert bad[8] == "nan" and bad[9].startswith("ConditioningError")


def test_recur_error_with_comma_stays_in_its_column(capsys, monkeypatch, tmp_path):
    """A ConditioningError names "z=..., n_max=...": its "," must not add a field."""
    inv = np.linalg.inv
    # the renewal inverse (the stack wider than A0's 4 x 4 ones) scaled past the condition limit
    monkeypatch.setattr(np.linalg, "inv", lambda m: inv(m) * (1e15 if np.shape(m)[-1] > 4 else 1))
    out_path = tmp_path / "recur.csv"
    code, _, _ = run_cli(
        capsys, "recur", "--theta", "0.25pi", "--p", "0.5",
        "--z", "0.5,0.9", "--nmax", "4", "--grid", "64", "--out", str(out_path),
    )
    assert code == 2
    header, *rows = out_path.read_text().splitlines()
    assert header == CSV_HEADER and len(rows) == 2
    for line in rows:
        row = line.split(",")
        assert len(row) == len(CSV_HEADER.split(","))
        assert row[8] == "nan"
        assert row[9].startswith("ConditioningError: condition estimate")
        assert row[9].endswith("; n_max=4")
    # fit reads the failed rows as rows, and has no finite value to fit
    code, out, _ = run_cli(capsys, "fit", "--input", str(out_path))
    assert code == 0 and out.strip() == "model,theta,p,form,a,a_err,b,b_err,c,c_err,residual_norm"


def test_slope_over_memory_cap_is_typed_error(capsys, monkeypatch):
    """A slope stack over the memory cap exits 1 with "error: ...", not a traceback."""
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", 1000)
    code, out, err = run_cli(capsys, "slope", "--theta", "0.25pi", "--t", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: slope series would need") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["recur", "--theta", "0.3", "--p", "0", "--z", "0.5"],
    ["minima", "--theta", "0.39pi"],
], ids=["recur", "minima"])
def test_genfun_tables_over_memory_cap_exit_1(capsys, monkeypatch, command):
    """A truncation whose genfun tables would pass the memory cap exits 1 with
    "error: ...", before any point and without a traceback."""
    genfun._tables.cache_clear()
    monkeypatch.setattr(directsim, "DEFAULT_MEMORY_CAP", genfun._table_bytes(50, 384) - 1)
    code, out, err = run_cli(capsys, *command, "--nmax", "50")
    assert code == 1 and out == ""
    assert err.startswith("error: genfun tables for n_max=50") and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, where):
    """--out to a directory or under a missing directory exits 1 with
    "error: cannot write ...", not a traceback."""
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "oracle", "--which", "catalan", "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def test_fresh_process_skips_costly_imports(tmp_path):
    """recur with --jobs 1, fit and minima in a fresh process import none of
    numpy.ma, numpy.polynomial and concurrent.futures: each costs 5 to 11 ms of
    start-up."""
    script = f"""
import sys
from dtqsw.cli import main
recur = {str(tmp_path / "recur.csv")!r}
assert main(["recur", "--theta", "0.25pi", "--p", "0.5", "--z", "0.9,0.99,0.995,0.999",
             "--nmax", "4", "--grid", "64", "--jobs", "1", "--out", recur]) == 0
assert main(["fit", "--input", recur]) == 0
assert main(["minima", "--theta", "0.39pi", "--z", "0.999", "--nmax", "4", "--grid", "64",
             "--iterations", "8"]) == 0
print("imported:", *(m for m in ("numpy.ma", "numpy.polynomial", "concurrent.futures")
                    if m in sys.modules))
"""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "imported:"


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


@pytest.mark.parametrize(
    "row, reason",
    [
        ("balanced,0.785398163397", "expected 10, got 2"),
        ("balanced,0.785398163397,0.5,0.99,4,64,rtilde,,0.9", "expected 10, got 9"),
        ("balanced,0.785398163397,0.5,0.99,4,64,rtilde,,0.9,,x", "too many values"),
        ("balanced,quarter,0.5,0.99,4,64,rtilde,,0.9,", "could not convert"),
        ("balanced,0.785398163397,0.5,0.99,4,64,rtilde,,high,", "could not convert"),
    ],
    ids=["short", "one-short", "long", "theta", "value"],
)
def test_fit_malformed_row_is_usage_error(capsys, tmp_path, row, reason):
    """A header-valid recur CSV with a bad row names the row's line, with no traceback."""
    bad = tmp_path / "bad.csv"
    good = "balanced,0.785398163397,0.5,0.9,4,64,rtilde,,0.8,"
    bad.write_text(f"{CSV_HEADER}\n{good}\n\n{row}\n")
    code, out, err = run_cli(capsys, "fit", "--input", str(bad))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and reason in err
    assert err.splitlines()[0].endswith("at line 4")


@pytest.mark.parametrize("z", ["nan", "-inf"])
def test_fit_non_finite_z_is_error(capsys, tmp_path, z):
    """A recur row with a non-finite z is refused with a typed error, no traceback."""
    rows = [f"balanced,0.785398163397,0.5,{zv},4,64,rtilde,,{0.5 + i / 10},"
            for i, zv in enumerate(["0.9", "0.95", "0.99", z])]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    code, out, err = run_cli(capsys, "fit", "--input", str(bad))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and "finite" in err


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
        # a start:stop:step range with start > stop has no value
        ["recur", "--theta", "0.5:0.1:0.1", "--p", "0"],
        ["slope", "--theta", "0.3", "--t", "10:5:1"],
        # a range with a non-finite end or step has no value count
        ["recur", "--theta", "0.25pi", "--p", "0:inf:0.1"],
        ["recur", "--theta", "0.25pi", "--p", "0:1:nan"],
        ["recur", "--theta", "nan:1:0.1", "--p", "0"],
    ],
    ids=["angle", "range-shape", "int", "empty", "empty-theta-range", "empty-t-range",
         "inf-stop", "nan-step", "nan-start"],
)
def test_malformed_list_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "error" in err and "Traceback" not in err


def test_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmx=4\ngrid=64\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "recur", "--theta", "0.25pi",
                             "--p", "0.5", "--z", "0.5")
    assert code == 1 and out == "" and "nmx" in err
    # a key of another subcommand is fine: one file serves recur and evolve
    cfg.write_text("nmax=4\ngrid=64\ncoin=mixed\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "recur", "--theta", "0.25pi",
                           "--p", "0.5", "--z", "0.5")
    assert code == 0 and out.strip().splitlines()[1].split(",")[4] == "4"


@pytest.mark.parametrize(
    "line, argv",
    [
        ("model=foo", ["slope", "--theta", "0.25pi", "--t", "2"]),
        ("coin=up", ["evolve", "--theta", "0.25pi", "--p", "0", "--tmax", "2"]),
    ],
    ids=["model", "coin"],
)
def test_config_value_outside_choices_is_usage_error(capsys, tmp_path, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 1 and out == "" and line.partition("=")[0] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--which", "catalan", "--model", "correlated"],
        ["fit", "--input", "recur.csv", "--model", "correlated"],
    ],
    ids=["oracle", "fit"],
)
def test_model_flag_only_where_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "--model" in err


def test_config_prefix_is_not_config(capsys):
    """A prefix of --config is left to the subcommand (here evolve's --coin),
    and before the subcommand it is a usage error, not an ignored file."""
    evolve = ["evolve", "--theta", "0.25pi", "--p", "0", "--tmax", "2"]
    code, out, _ = run_cli(capsys, *evolve, "--co", "mixed")
    assert code == 0 and out.strip().splitlines()[1]
    code, _, err = run_cli(capsys, "--conf", "run.cfg", *evolve)
    assert code == 1 and "error" in err


def test_config_run_leaves_default_parser_intact(capsys, tmp_path, monkeypatch):
    """The parser without --config is built once per process; a --config run
    builds its own, so a default run after it still reads the flags' defaults."""
    cli._default_parser()
    built = []
    build_parser = cli.build_parser

    def counting(config=None):
        built.append(config)
        return build_parser(config)

    monkeypatch.setattr(cli, "build_parser", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax=4\ngrid=64\n")
    argv = ["recur", "--theta", "0.25pi", "--p", "0.5", "--z", "0.5"]
    code, before, _ = run_cli(capsys, *argv)
    assert code == 0 and before.splitlines()[1].split(",")[4:6] == ["20", str(genfun.DEFAULT_GRID)]
    code, configured, _ = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 0 and configured.splitlines()[1].split(",")[4:6] == ["4", "64"]
    code, after, _ = run_cli(capsys, *argv)
    assert code == 0 and after == before
    assert built == [{"nmax": "4", "grid": "64"}]


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


def test_default_grid_is_genfun_default(capsys):
    """recur and minima read genfun.DEFAULT_GRID; a recur row without --grid
    says so in its grid column and holds the library's default value."""
    from dtqsw import WalkParams, genfun, recurrence_estimate

    parser = cli.build_parser()
    for argv in (["recur", "--theta", "0.3pi", "--p", "0.4"], ["minima", "--theta", "0.3pi"]):
        assert parser.parse_args(argv).grid == genfun.DEFAULT_GRID
    code, out, _ = run_cli(capsys, "recur", "--theta", "0.3pi", "--p", "0.4", "--z", "0.999")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[4:6] == ["20", str(genfun.DEFAULT_GRID)]
    ref = recurrence_estimate(WalkParams(0.3 * math.pi, 0.4), 0.999)
    assert fields[8] == cli._fmt(ref)
