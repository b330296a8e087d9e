"""Tiny-size runs of every workload, traced and untraced (about a minute)."""

import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_an_op_missing_its_input_fails_and_the_pass_goes_on():
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from dtqsw import oracles
    from perfbench import checks, run, workloads

    class BrokenCli:
        @staticmethod
        def main(argv):
            raise RuntimeError("broken")

    rundir = ROOT / "perfbench" / "out" / "test-missing-input"
    rundir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build("recur", 3, tiny=True)
    refs = checks.References(ROOT / "perfbench" / "references.json")
    result = run.run_pass(ops, rundir, BrokenCli, None, refs, oracles)
    assert [f["op"] for f in result.failed_ops] == [op.name for op in ops]
    errors = {f["op"]: f["error"] for f in result.failed_ops}
    assert "missing input" in errors["fit"]
    assert result.attempted == len(ops)
    assert list(result.values) == [op.name for op in ops]
    assert all(len(v) == 1 and not v[0].ok for v in result.values.values())
