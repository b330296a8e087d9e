"""Command-line surface: parameter sweeps emitted as deterministic CSV.

Every figure-style dataset is produced by one subcommand; plotting is a
separate concern (the CSV is diffable and byte-identical across runs and
worker counts). Exit codes: 0 success, 1 usage/config error, 2 partial
per-point numerical failure (failed rows carry value=nan and the error
column, "Type: message" with any "," written as ";"; a fit group that
cannot be fitted gets nan in every fitted column and is named on stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import genfun, oracles
from .directsim import return_series
from .errors import DtqswError, FitDegenerateError
from .fitting import FitForm, find_minimum, fit_power_law
from .model import Model, WalkParams
from .perturbation import NONUNIFORM_THETA_WARNING, slope_series

CSV_HEADER = "model,theta,p,z,nmax,grid,kind,t,value,error"

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def parse_angle(text: str) -> float:
    """Parse '0.2892pi', 'pi', or a plain radian value."""
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2]
        factor = float(head) if head else 1.0
        return factor * math.pi
    return float(text)


def parse_list(text: str, convert=float) -> list:
    """Comma list or inclusive 'start:stop:step' range."""
    try:
        if ":" not in text:
            values = [convert(part) for part in text.split(",") if part.strip()]
            if not values:
                raise _UsageError(f"empty list {text!r}")
            return values
        start, stop, step = (convert(part) for part in text.split(":"))
    except ValueError as exc:
        raise _UsageError(f"bad list or start:stop:step range {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"range ends and step must be finite in {text!r}")
    if step <= 0:
        raise _UsageError(f"range step must be positive in {text!r}")
    n = int(round((stop - start) / step))
    values = [v for v in (start + i * step for i in range(n + 1)) if v <= stop + 1e-12]
    if not values:
        raise _UsageError(f"empty range {text!r}")
    return values


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _row(model, theta, p, z, nmax, grid, kind, t, value, error=""):
    fields = [_fmt(f) for f in (model, theta, p, z, nmax, grid, kind, t, value)]
    # readers split rows on ",", so a "," in the error text becomes ";"
    return ",".join(fields + [_fmt(error).replace(",", ";")])


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_bounds(values, name, lo, hi):
    for v in values:
        if not lo <= v <= hi:
            raise _UsageError(f"{name}={v} outside [{lo}, {hi}]")


def _recur_point(point) -> genfun.SweepPoint:
    model, theta, p, z, nmax, grid = point
    return genfun.z_sweep(WalkParams(theta, p, Model(model)), [z], nmax, grid)[0]


def cmd_recur(args) -> int:
    thetas = sorted(parse_list(args.theta, parse_angle))
    ps = sorted(parse_list(args.p))
    zs = sorted(parse_list(args.z)) if args.z else list(genfun.DEFAULT_Z_SAMPLES)
    if args.jobs < 1:
        raise _UsageError(f"jobs must be >= 1, got {args.jobs}")
    _check_bounds(thetas, "theta", 0.0, math.pi / 2)
    _check_bounds(ps, "p", 0.0, 1.0)
    for z in zs:
        if not genfun.Z_MIN <= z <= genfun.Z_CAP:
            raise _UsageError(f"z={z} outside [{genfun.Z_MIN}, {genfun.Z_CAP}]")
    genfun._tables(args.nmax, args.grid)  # ParameterError (exit 1) before any point
    points = [
        (args.model, theta, p, z, args.nmax, args.grid)
        for theta in thetas for p in ps for z in zs
    ]
    if args.jobs > 1:
        import concurrent.futures  # here, not at the top: the import costs about 6 ms

        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            results = list(pool.map(_recur_point, points))
    else:
        results = [_recur_point(pt) for pt in points]

    lines = [CSV_HEADER]
    for (model, theta, p, z, nmax, grid), res in zip(points, results):
        lines.append(_row(model, theta, p, z, nmax, grid, "rtilde", None, res.value,
                          res.error))
    _emit(lines, args.out)
    return 2 if any(res.error for res in results) else 0


_COIN_DENSITIES = {
    "R": np.diag([1.0, 0.0]),
    "L": np.diag([0.0, 1.0]),
    "mixed": np.eye(2) / 2,
}


def cmd_evolve(args) -> int:
    if args.tmax > 300:
        raise _UsageError("tmax capped at 300 (direct simulation resource cap)")
    if args.tmax < 1:
        raise _UsageError("tmax must be >= 1")
    thetas = sorted(parse_list(args.theta, parse_angle))
    ps = sorted(parse_list(args.p))
    _check_bounds(thetas, "theta", 0.0, math.pi / 2)
    _check_bounds(ps, "p", 0.0, 1.0)
    coin = _COIN_DENSITIES[args.coin]
    lines = [CSV_HEADER]
    for theta in thetas:
        for p in ps:
            series = return_series(
                WalkParams(theta, p, Model(args.model)), args.tmax, coin
            )
            for t in range(args.tmax + 1):
                lines.append(_row(args.model, theta, p, None, None, None,
                                  "st", t, float(series.survival[t])))
            for t in range(args.tmax + 1):
                lines.append(_row(args.model, theta, p, None, None, None,
                                  "rt", t, float(series.return_prob[t])))
            for t in range(1, args.tmax + 1):
                lines.append(_row(args.model, theta, p, None, None, None,
                                  "qhat", t, float(series.first_return[t - 1])))
    _emit(lines, args.out)
    return 0


def cmd_slope(args) -> int:
    thetas = sorted(parse_list(args.theta, parse_angle))
    ts = sorted(parse_list(args.t, int))
    _check_bounds(thetas, "theta", 0.0, math.pi / 2)
    if min(ts) < 1:
        raise _UsageError("t must be >= 1")
    lines = [CSV_HEADER]
    for theta in thetas:
        if theta > NONUNIFORM_THETA_WARNING:
            print(
                f"warning: near theta=pi/2 the large-t limit of B_t may not "
                f"equal R'(0) (theta={theta:.6g})",
                file=sys.stderr,
            )
        series = slope_series(theta, max(ts), Model(args.model))
        for t in ts:
            lines.append(_row(args.model, theta, 0.0, None, None, None,
                              "bt", t, float(series.values[t - 1])))
    _emit(lines, args.out)
    return 0


def cmd_fit(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            rows = [(n, line.strip().split(",")) for n, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        raise _UsageError(f"cannot read {args.input}: {exc}") from exc
    if not rows or rows[0][1] != CSV_HEADER.split(","):
        raise _UsageError(f"{args.input} is not a recur CSV")
    groups: dict = {}
    for line_no, row in rows[1:]:
        try:  # a row of the wrong length fails to unpack, a non-number to convert
            model, theta, p, z, _, _, kind, _, value, _ = row
            if kind == "rtilde" and value != "nan":
                groups.setdefault((model, float(theta), float(p)), []).append(
                    (float(z), float(value)))
        except ValueError as exc:
            raise _UsageError(f"{args.input}: {exc} at line {line_no}") from exc
    form = FitForm(args.form)
    lines = ["model,theta,p,form,a,a_err,b,b_err,c,c_err,residual_norm"]
    failed = False
    for (model, theta, p), pts in sorted(groups.items()):
        try:
            if len(pts) < 4:  # fit_power_law's ParameterError would end the run: this group only
                raise FitDegenerateError("need at least 4 points")
            fit = fit_power_law(pts, form)
            fitted = (fit.a_fit, fit.a_err, fit.b_fit, fit.b_err, fit.c_fit, fit.c_err,
                      fit.residual_norm)
        except FitDegenerateError as exc:  # this group only: its row is nan, exit 2
            print(f"error: fit of {model} theta={_fmt(theta)} p={_fmt(p)}: {exc}",
                  file=sys.stderr)
            failed, fitted = True, (math.nan,) * 7
        lines.append(",".join(_fmt(v) for v in (model, theta, p, form.value, *fitted)))
    _emit(lines, args.out)
    return 2 if failed else 0


def cmd_minima(args) -> int:
    thetas = sorted(parse_list(args.theta, parse_angle))
    _check_bounds(thetas, "theta", 0.0, math.pi / 2)
    if not genfun.Z_MIN <= args.z <= genfun.Z_CAP:
        raise _UsageError(f"z={args.z} outside [{genfun.Z_MIN}, {genfun.Z_CAP}]")
    genfun._tables(args.nmax, args.grid)  # ParameterError (exit 1) before any point
    lines = ["model,theta,z,nmax,p_min,r_min,lo_1e2,hi_1e2,lo_1e3,hi_1e3,monotone"]
    for theta in thetas:
        def profile(p, _theta=theta):
            return genfun.recurrence_estimate(
                WalkParams(_theta, p, Model(args.model)), args.z, n_max=args.nmax,
                grid_n=args.grid,
            )
        est = find_minimum(profile, iterations=args.iterations)
        lines.append(",".join(_fmt(v) for v in (
            args.model, theta, args.z, args.nmax, est.p_min, est.r_min,
            est.interval_1e2[0], est.interval_1e2[1],
            est.interval_1e3[0], est.interval_1e3[1],
            int(est.monotone),
        )))
    _emit(lines, args.out)
    return 0


def cmd_oracle(args) -> int:
    lines = []
    if args.which == "eq20":
        thetas = sorted(parse_list(args.theta, parse_angle))
        lines.append("theta,value")
        for theta in thetas:
            lines.append(f"{_fmt(theta)},{_fmt(oracles.recurrence_unitary(theta))}")
    elif args.which == "pihalf":
        _, q_mat = oracles.pi_half_genfun(args.zvalue, args.pvalue)
        lines.append("z,p,q_rr,q_rl,q_lr,q_ll")
        lines.append(",".join(_fmt(v) for v in (
            args.zvalue, args.pvalue,
            q_mat[0, 0], q_mat[0, 1], q_mat[1, 0], q_mat[1, 1],
        )))
    else:  # catalan
        ms = sorted(parse_list(args.m, int))
        lines.append("m,value")
        for m in ms:
            lines.append(f"{m},{_fmt(oracles.classical_first_return(m))}")
    _emit(lines, args.out)
    return 0


def _load_config(path: str) -> dict:
    config = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(f"bad config line: {line!r}")
                key, _, value = line.partition("=")
                config[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    return config


def build_parser(config=None) -> _Parser:
    """The dtqsw parser; config maps flag names to defaults that flags override."""
    parser = _Parser(prog="dtqsw", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="key=value file mirroring the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", choices=["balanced", "correlated"],
                           default="balanced")
        p.add_argument("--out", help="output CSV path (default stdout)")

    p_recur = sub.add_parser("recur", help="generating-function recurrence sweep")
    common(p_recur)
    p_recur.add_argument("--theta", required=True)
    p_recur.add_argument("--p", required=True)
    p_recur.add_argument("--z", help="default: the ten standard samples")
    p_recur.add_argument("--nmax", type=int, default=20)
    p_recur.add_argument("--grid", type=int, default=genfun.DEFAULT_GRID)
    p_recur.add_argument("--jobs", type=int, default=1)

    p_evolve = sub.add_parser("evolve", help="direct monitored evolution series")
    common(p_evolve)
    p_evolve.add_argument("--theta", required=True)
    p_evolve.add_argument("--p", required=True)
    p_evolve.add_argument("--tmax", type=int, required=True)
    p_evolve.add_argument("--coin", choices=["R", "L", "mixed"], default="R")

    p_slope = sub.add_parser("slope", help="first derivative B_t at p=0")
    common(p_slope)
    p_slope.add_argument("--theta", required=True)
    p_slope.add_argument("--t", required=True)

    p_fit = sub.add_parser("fit", help="power-law fit of a recur CSV")
    common(p_fit, model=False)
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--form", choices=["aminusb", "oneminusb"],
                       default="aminusb")

    p_min = sub.add_parser("minima", help="minimum of the recurrence over p")
    common(p_min)
    p_min.add_argument("--theta", required=True)
    p_min.add_argument("--z", type=float, default=genfun.Z_CAP)
    p_min.add_argument("--nmax", type=int, default=20)
    p_min.add_argument("--grid", type=int, default=genfun.DEFAULT_GRID)
    p_min.add_argument("--iterations", type=int, default=15)

    p_orc = sub.add_parser("oracle", help="closed-form reference values")
    common(p_orc, model=False)
    p_orc.add_argument("--which", choices=["eq20", "pihalf", "catalan"],
                       required=True)
    p_orc.add_argument("--theta", default="0.25pi")
    p_orc.add_argument("--zvalue", type=float, default=0.999)
    p_orc.add_argument("--pvalue", type=float, default=0.5)
    p_orc.add_argument("--m", default="2,4,6")
    # argparse converts string defaults with each flag's type
    config = config or {}
    known = {p: {action.dest for action in p._actions} for p in sub.choices.values()}
    unknown = set(config).difference(*known.values())
    if unknown:
        raise _UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for p, dests in known.items():
        # argparse checks choices only on the command line, not on defaults
        for action in p._actions:
            value = config.get(action.dest)
            if value is not None and action.choices and value not in action.choices:
                raise _UsageError(
                    f"config {action.dest}={value!r}: choose from "
                    f"{', '.join(map(str, action.choices))}"
                )
        p.set_defaults(**{k: v for k, v in config.items() if k in dests})
    return parser


# the parser without --config, built once per process (a build takes about 1.7 ms)
_default_parser = functools.lru_cache(maxsize=1)(build_parser)


_COMMANDS = {
    "recur": cmd_recur,
    "evolve": cmd_evolve,
    "slope": cmd_slope,
    "fit": cmd_fit,
    "minima": cmd_minima,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = _default_parser()
    try:
        # first pass: --config only; the file's keys are the second pass's defaults
        pre = _Parser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        config_path = pre.parse_known_args(argv)[0].config
        if config_path is not None:
            parser = build_parser(_load_config(config_path))
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DtqswError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
