"""Per-stage cost of one genfun point, and page faults per point in a recur pass.

    python benchmarks/point_cost.py [--src DIR ...]

Each --src is a source tree holding the dtqsw package (default: this
checkout's src/). For every tree, PROCESSES fresh processes are started,
alternating between the trees, each with one BLAS thread. A process times
every stage CALLS times at the default point (theta = pi/4, p = 0.35,
z = 0.999, n_max = 20, grid 384) and keeps the best call; the record is the
best over the processes, in ms:

    eta        genfun._eta_parts, the closed-form eta coefficients
    stieltjes  genfun.stieltjes_matrix: eta, the xi fold and its index
    fold       stieltjes - eta: the xi fold and its ket-bra swap check
    renewal    genfun._split_renewal: the blocks, the inverse and kappa_1
    point      genfun.recurrence_estimate

Each process also runs perfbench's recur workload at seed SEED with
perfbench/run.py's run_pass, one warm pass and then PASSES passes, and
reports the median pass wall time (run_pass's, so the CSV joins and value
checks are outside it), the minor page faults (resource.getrusage) inside
the CLI calls per genfun point, and the tracemalloc peak of one warm
default point. The last stdout line is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROCESSES, CALLS, SEED, PASSES = 8, 60, 5, 5


def _child(src: str) -> dict:
    import math
    import resource
    import statistics
    import tempfile
    import time
    import tracemalloc
    from types import SimpleNamespace

    sys.path.insert(0, src)
    from dtqsw import WalkParams, cli, genfun, kraus_family, oracles, perturbation

    sys.path.insert(0, str(ROOT))
    from perfbench import checks, run, workloads

    params, z, n_max = WalkParams(math.pi / 4, 0.35), 0.999, 20
    family = kraus_family(params)
    blocks = genfun._laurent_blocks(family)
    tables = genfun._tables(n_max, genfun.DEFAULT_GRID)
    s = genfun.stieltjes_matrix(family, z, n_max)
    stages = {
        "eta": lambda: genfun._eta_parts(blocks, z, tables.phase),
        "stieltjes": lambda: genfun.stieltjes_matrix(family, z, n_max),
        "renewal": lambda: genfun._split_renewal(s.values, s.renewal),
        "point": lambda: genfun.recurrence_estimate(params, z, n_max),
    }
    best = dict.fromkeys(stages, math.inf)
    for _ in range(CALLS):
        for name, stage in stages.items():
            start = time.perf_counter()
            stage()
            best[name] = min(best[name], time.perf_counter() - start)
    costs = {name: 1e3 * value for name, value in best.items()}
    costs["fold"] = costs["stieltjes"] - costs["eta"]

    tracemalloc.start()
    genfun.recurrence_estimate(params, z, n_max)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    points = faults = 0
    estimate = genfun.recurrence_estimate

    def counted(*args, **kwargs):
        nonlocal points
        points += 1
        return estimate(*args, **kwargs)

    def main(argv):
        nonlocal faults
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return cli.main(argv)
        finally:
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    genfun.recurrence_estimate = counted
    refs = checks.References(ROOT / "perfbench" / "references.json")
    ops = workloads.build("recur", SEED)
    walls = []
    with tempfile.TemporaryDirectory() as out:
        for i in range(PASSES + 1):
            if i == 1:
                points = faults = 0
            result = run.run_pass(ops, pathlib.Path(out), SimpleNamespace(main=main),
                                  perturbation, refs, oracles)
            values = [v for op_values in result.values.values() for v in op_values]
            if result.failed_ops or not all(v.ok or v.known_defect for v in values):
                raise SystemExit(f"error: a recur pass failed in {src}")
            walls.append(result.wall)
    return {
        "stage_ms": costs,
        "point_traced_peak_kb": peak / 1024,
        "pass_s": statistics.median(walls[1:]),
        "faults_per_point": faults / points,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", help="source tree with the dtqsw package")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0
    trees = [str(pathlib.Path(src).resolve()) for src in args.src or [ROOT / "src"]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {tree: [] for tree in trees}
    for i in range(PROCESSES):
        for tree in trees[i % len(trees):] + trees[: i % len(trees)]:
            out = subprocess.run([sys.executable, __file__, "--child", tree],
                                 env=env, check=True, capture_output=True, text=True).stdout
            runs[tree].append(json.loads(out.splitlines()[-1]))
    result = {}
    for tree, records in runs.items():
        stages = records[0]["stage_ms"]
        result[tree] = {
            "stage_ms": {name: round(min(r["stage_ms"][name] for r in records), 4)
                         for name in stages},
            "point_traced_peak_kb": round(min(r["point_traced_peak_kb"] for r in records), 1),
            "pass_s": round(min(r["pass_s"] for r in records), 4),
            "faults_per_point": [round(r["faults_per_point"], 2) for r in records],
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
