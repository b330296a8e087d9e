"""dtqsw benchmark: drives the `dtqsw` CLI in-process and checks every value.

    python3 perfbench/run.py --workload recur --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ./src. One
pass runs the workload's ops (workloads.py) one after another, each
waiting for the previous one (a closed loop, one caller, --jobs 1, one
BLAS thread). After every op, and outside its timing, the values it wrote
are checked (checks.py).

--trace 0 runs one whole pass, then repeats the ops in the same order
while the next one is expected to end within --seconds, and prints the
end-to-end metrics from each op's median time over the run. --trace 1
alternates whole untraced and traced passes and prints the per-layer
metrics from the spans of the traced ones (spans.py), plus the tracing
overhead. The last stdout line is
the result as JSON; the full record, with provenance and every failed
value, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field

# One BLAS thread, set before numpy loads: the caller is a single closed
# loop, and a second BLAS thread spinning on another core of a shared host
# would add that core's load to every timing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench import checks, hostspeed, provenance, spans, workloads  # noqa: E402

SETUP_SAMPLES = 9
HOST_SAMPLES = 40


@dataclass
class PassResult:
    wall: float = 0.0
    op_times: dict = field(default_factory=dict)  # op name -> seconds
    values: dict = field(default_factory=dict)  # op name -> checked values
    failed_ops: list = field(default_factory=list)
    attempted: int = 0
    cut: bool = False  # stopped before an op that would end past the deadline


def import_dtqsw():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "dtqsw" / "__init__.py").is_file():
        raise SystemExit(f"error: no dtqsw package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dtqsw
    from dtqsw import cli, oracles, perturbation

    if pathlib.Path(dtqsw.__file__).resolve().parent != SRC / "dtqsw":
        raise SystemExit(f"error: imported dtqsw from {dtqsw.__file__}, not {SRC}")
    return cli, oracles, perturbation


def warm_up(workload: str, cli) -> None:
    """One tiny call per route the workload uses."""
    csv = str(OUT / f"warmup-{os.getpid()}.csv")
    tiny = ["--nmax", "2", "--grid", "16", "--out", csv]
    calls = {
        "recur": [
            ["recur", "--theta", "0.25pi", "--p", "0.5", "--z", "0.5,0.6,0.7,0.8"] + tiny,
            ["fit", "--input", csv, "--out", csv + ".fit"],
            ["recur", "--model", "correlated", "--theta", "0.25pi", "--p", "0.5",
             "--z", "0.5"] + tiny,
        ],
        "timeseries": [
            [cmd, "--model", model, "--theta", "0.25pi"] + args + ["--out", csv]
            for model in ("balanced", "correlated")
            for cmd, args in (("evolve", ["--p", "0.5", "--tmax", "2"]),
                              ("slope", ["--t", "2"]))
        ],
    }[workload]
    try:
        for argv in calls:
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up {argv} failed")
    finally:
        for path in (csv, csv + ".fit"):
            if os.path.exists(path):
                os.remove(path)


class BetweenOps:
    """Samples taken before each op, outside its timing: the host-speed
    kernel (hostspeed.py) once, or once for every `seconds / HOST_SAMPLES`
    since its last sample, and about every `seconds / SETUP_SAMPLES` a
    set-up probe, the wall time of a fresh process that imports dtqsw and
    warms up. Spread over the run, both see the host as the op times do.
    """

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.setup_every = seconds / SETUP_SAMPLES
        self.setup_samples = []
        self.setup_last = None
        self.host = hostspeed.HostSpeed()
        self.host_every = seconds / HOST_SAMPLES
        self.host_last = None

    def probe(self) -> None:
        start = time.perf_counter()
        # no timeout: with one, subprocess polls in sleeps of up to 50 ms,
        # which would round every sample up to that step
        subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
             "--workload", self.workload],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        self.setup_last = time.perf_counter()
        self.setup_samples.append(self.setup_last - start)

    def __call__(self) -> None:
        owed = 1
        if self.host_last is not None:
            owed = max(1, round((time.perf_counter() - self.host_last) / self.host_every))
        for _ in range(owed):
            self.host.sample()
        self.host_last = time.perf_counter()
        now = time.perf_counter()
        if self.setup_last is None or now - self.setup_last >= self.setup_every:
            self.probe()

    def setup_median(self) -> float:
        while len(self.setup_samples) < SETUP_SAMPLES:
            self.probe()
        return statistics.median(self.setup_samples)


def run_pass(ops, rundir, cli, perturbation, refs, oracles, recorder=None,
             deadline=None, expected=None, between=None):
    """The ops in order; with a deadline, stop before the first op that is
    expected (`expected[name]`, seconds) to end past it. `between` is
    called before each op, outside its timing."""
    result = PassResult()
    for op in ops:
        if between is not None:
            between()
        if deadline is not None and time.perf_counter() + expected[op.name] > deadline:
            result.cut = True
            break
        result.attempted += 1
        out_csv = rundir / f"{op.name}.csv"
        argv = list(op.argv) + ["--out", str(out_csv)]
        missing = [name for name in op.inputs if not (rundir / f"{name}.csv").exists()]
        if missing:  # an earlier op wrote no CSV: this one fails without running
            result.failed_ops.append({"op": op.name, "error": f"missing input {missing}"})
            result.values[op.name] = [checks.Value(f"{op.name}: no input", False,
                                                   str(missing))]
            continue
        if op.inputs:  # concatenate the CSVs of earlier ops, outside the timing
            frames = [(rundir / f"{name}.csv").read_text().splitlines() for name in op.inputs]
            combined = rundir / f"{op.name}-input.csv"
            combined.write_text("\n".join(frames[0] + [
                line for frame in frames[1:] for line in frame[1:]]) + "\n")
            argv += ["--input", str(combined)]
        if recorder is not None:
            recorder.run_id = f"{len(recorder.spans)}:{op.name}"
        out_csv.unlink(missing_ok=True)
        output, error = None, None
        start = time.perf_counter()
        try:
            if op.theta_star_t:
                output = (op.theta_star_t, perturbation.theta_star(op.theta_star_t))
            elif (code := cli.main(argv)) != 0:
                error = f"exit code {code}"
        except Exception:  # noqa: BLE001 - a crashed op is counted, the run goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        result.op_times[op.name] = elapsed
        result.wall += elapsed
        if error:
            result.failed_ops.append({"op": op.name, "error": error})
        if output is None and out_csv.exists():
            output = out_csv.read_text()
        if output is None:
            result.values[op.name] = [checks.Value(f"{op.name}: no output", False, error)]
        else:
            result.values[op.name] = checks.check_op(op.kind, output, refs, oracles)
    return result


def measure(ops, seconds, trace, rundir, cli, perturbation, refs, oracles,
            between=None):
    """Without trace: one whole pass, then the ops again in order while the
    next one is expected (its median time so far) to end within `seconds`;
    the last pass may stop early.

    With trace: whole passes while the next one is expected to end within
    `seconds`, even ones untraced and odd ones traced, at least one of each.
    Without trace, `between` takes its samples before each op.
    """
    recorder = spans.SpanRecorder() if trace else None
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and (len(passes) + len(traced)) % 2 == 1
        if use_trace:
            with spans.instrument(recorder):
                result = run_pass(ops, rundir, cli, perturbation, refs, oracles, recorder)
        elif trace:
            result = run_pass(ops, rundir, cli, perturbation, refs, oracles)
        elif not passes:
            result = run_pass(ops, rundir, cli, perturbation, refs, oracles,
                              between=between)
        else:
            result = run_pass(ops, rundir, cli, perturbation, refs, oracles,
                              deadline=start + seconds, expected=op_medians(passes),
                              between=between)
        (traced if use_trace else passes).append(result)
        elapsed = time.perf_counter() - start
        if not trace:
            if result.cut or elapsed >= seconds:
                return passes, traced, recorder
            continue
        typical = statistics.median(p.wall for p in passes + traced)
        if len(passes) + len(traced) >= 2 and elapsed + typical > seconds:
            return passes, traced, recorder


def fail_fraction(passes) -> float:
    """Failed values over values of one pass, each op's failures averaged
    over its runs, so that a last pass cut short does not change the mix."""
    runs, attempted, failed = Counter(), Counter(), Counter()
    for result in passes:
        for name, values in result.values.items():
            runs[name] += 1
            attempted[name] += len(values)
            failed[name] += sum(not v.ok for v in values)
    return sum(failed[n] / runs[n] for n in runs) / sum(attempted[n] / runs[n] for n in runs)


def op_medians(passes) -> dict:
    """Op name -> median of its times over the passes that ran it."""
    times = {}
    for result in passes:
        for name, elapsed in result.op_times.items():
            times.setdefault(name, []).append(elapsed)
    return {name: statistics.median(v) for name, v in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap ops, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_average = os.getloadavg()
    cli, oracles, perturbation = import_dtqsw()
    OUT.mkdir(parents=True, exist_ok=True)
    warm_up(args.workload, cli)
    if args.setup_probe:
        return 0

    refs = checks.References(ROOT / "perfbench" / "references.json")
    ops = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    rundir = OUT / tag
    rundir.mkdir(exist_ok=True)

    between = None if args.trace else BetweenOps(args.workload, args.seconds)
    passes, traced, recorder = measure(ops, args.seconds, args.trace, rundir, cli,
                                       perturbation, refs, oracles, between)
    every = passes + traced
    values = [v for p in every for op_values in p.values.values() for v in op_values]
    failed_values = [v for v in values if not v.ok]
    failed_ops = [f for p in every for f in p.failed_ops]
    ops_attempted = sum(p.attempted for p in every)
    correct = not failed_ops and all(v.known_defect for v in failed_values)
    fail_frac = fail_fraction(every)

    raw = {}
    if args.trace:
        untraced_wall = statistics.median(p.wall for p in passes)
        traced_wall = statistics.median(p.wall for p in traced)
        layer = spans.layer_metrics(recorder.spans, len(traced))
        self_total = sum(spans.self_times(recorder.spans)) / len(traced)
        mean_traced = sum(p.wall for p in traced) / len(traced)
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
        metrics["trace.wall_s"] = (mean_traced, "s")
        metrics["trace.other_s"] = (mean_traced - self_total, "s")
        recorder.write(rundir / "spans.jsonl")
    else:
        # times at the reference host speed (hostspeed.py); out/ keeps the raw ones
        per_op = list(op_medians(passes).values())
        raw = {"setup_s": between.setup_median(), "wall_s": sum(per_op),
               "op_p50_s": statistics.median(per_op)}
        scale = between.host.scale()
        metrics = {name: (value * scale, "s") for name, value in raw.items()}
        metrics |= {
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "pass_frac": (1.0 - fail_frac, "ratio"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "ops": [asdict(op) for op in ops],
        "passes": len(passes), "traced_passes": len(traced),
        "pass_walls_s": [p.wall for p in passes],
        "traced_pass_walls_s": [p.wall for p in traced],
        "op_times_s": [p.op_times for p in every],
        "setup_samples_s": between.setup_samples if between else [],
        "host_kernel_s": between.host.samples if between else [],
        "raw_s": raw,
        "values_attempted": len(values), "values_failed": len(failed_values),
        "fail_frac": fail_frac,
        "failed_values": list({v.label: asdict(v) for v in failed_values}.values()),
        "failed_ops": failed_ops,
        "references": refs.provenance,
        "provenance": provenance.collect(ROOT, load_average),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": ops_attempted,
        "failed": len(failed_ops),
        "metrics": record["metrics"],
    }))
    return 0


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "state_mb": "MB", "points_per_s": "1/s"}.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
