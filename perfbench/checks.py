"""Check every value an op produces against a closed form or a reference.

Tolerances are the acceptance gate's (tests/test_acceptance.py) wherever
the gate pins one, and never looser. Values with no closed form are
checked against perfbench/references.json (see make_references.py).
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

from . import workloads as wl

TOL_PI_HALF = 1e-6  # acceptance 06: theta = pi/2 rows vs the closed form
TOL_CLASSICAL = 1e-6  # balanced p=1 rows vs (1 - sqrt(1 - z^2)) / z
TOL_UNITARY_9999 = 5e-3  # acceptance 01 at z = 0.9999
TOL_UNITARY_ZCAP = 1e-3  # acceptance 01 at z = Z_CAP
TOL_CROSS_ROUTE = 5e-6  # acceptance 05: genfun vs directsim at small z
TOL_REFINED = 2e-5  # acceptance 10: default vs refined truncation
TOL_FIT_A = 1e-3  # fit limit a, as acceptance 01 at Z_CAP
TOL_FIT_C = 0.1  # acceptance 09: fit exponent c
TOL_PARITY = 1e-14  # acceptance 11: odd-step first returns vanish
TOL_SLOPE = 1e-9  # relative; both routes are exact in p
TOL_CSV = 2e-12  # the CLI prints 12 significant digits
THETA_STAR_BRACKET = (0.2885 * math.pi, 0.2895 * math.pi)  # acceptance 04, t=100
# theta_star bisects to a width of 1e-4, so its midpoint is within half of
# that of the root; the reference root is bisected to 1e-7
TOL_THETA_STAR = 0.5e-4 + 1e-7
B40_PI_HALF, TOL_B40 = -1.0, 0.05  # acceptance 08
# a direct-simulation series is summed only where its tail z^t_max is negligible
MAX_TAIL = 1e-7

# Known seed defect: balanced p=1 rows at these z miss (1 - sqrt(1 - z^2)) / z
# by 3.53e-6, 5.01e-5, 8.58e-5 and 4.59e-3 (at every theta), and the fit of a
# p=1 sweep, which uses them, misses the limit a of the reference fit by
# 2.36e-3. They count as failed values. They do not make a run incorrect
# while the gap stays within the seed gap plus about 5% (below); a larger
# gap, or a fit exponent c off by more than TOL_FIT_C, does.
KNOWN_DEFECT_GAP = {0.9999: 3.7e-6, 0.99995: 5.3e-5, 0.99998: 9.0e-5, 0.99999: 4.8e-3}
KNOWN_DEFECT_FIT_A = 2.5e-3


@dataclass(frozen=True)
class Value:
    label: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


def _key(*xs):
    return tuple(round(float(x), 8) for x in xs)


class References:
    def __init__(self, path: pathlib.Path):
        doc = json.loads(path.read_text())
        self.provenance = doc["provenance"]
        self.recur_balanced = {_key(t, p, z): v for t, p, z, v in doc["recur_balanced"]}
        self.recur_correlated = {
            _key(t, p, z): v for t, p, z, v in doc["recur_correlated"]}
        self.evolve_correlated = {
            _key(t, p, z): v for t, p, z, v in doc["evolve_correlated"]}
        self.fit = {_key(t, p): (a, c) for t, p, a, c in doc["fit"]}
        self.slope = {(m,) + _key(t, n): v for m, t, n, v in doc["slope"]}
        self.theta_star = {t: v for t, v in doc["theta_star"]}


def parse_csv(text: str) -> list:
    lines = [line.split(",") for line in text.splitlines() if line.strip()]
    header = lines[0]
    return [dict(zip(header, line)) for line in lines[1:]]


def _close(label, value, ref, tol, excused=0.0):
    """A value within `tol` of `ref`; a miss by at most `excused` is a known defect."""
    gap = abs(value - ref)
    ok = math.isfinite(value) and gap <= tol
    known_defect = not ok and math.isfinite(value) and gap <= excused
    return Value(label, ok, f"{value!r} vs {ref!r}: gap {gap:.3e} (tol {tol:g})",
                 known_defect)


def _is_pi_half(theta):
    return abs(theta - math.pi / 2) < 1e-9


def classical_balanced(z):
    return (1.0 - math.sqrt(1.0 - z * z)) / z


def check_recur(rows, refs: References, oracles) -> list:
    out = []
    for row in rows:
        model, theta, p, z = row["model"], float(row["theta"]), float(row["p"]), float(
            row["z"])
        value = float(row["value"])
        label = f"recur {model} theta={row['theta']} p={row['p']} z={row['z']}"
        if row["error"] or not math.isfinite(value):
            out.append(Value(label, False, f"value {row['value']} {row['error']}"))
            continue
        checks = []
        if model == "balanced" and _is_pi_half(theta):
            checks.append((oracles.pi_half_weighted_return(z, p), TOL_PI_HALF))
        if model == "balanced" and p == 1.0:
            checks.append((classical_balanced(z), TOL_CLASSICAL))
        if p == 0.0 and z >= 0.9999:
            tol = TOL_UNITARY_ZCAP if z >= wl.Z_CAP else TOL_UNITARY_9999
            checks.append((oracles.recurrence_unitary(theta), tol))
        if not checks:
            table = refs.recur_balanced if model == "balanced" else refs.recur_correlated
            tol = TOL_REFINED if model == "balanced" else TOL_CROSS_ROUTE
            checks.append((table[_key(theta, p, z)], tol))
        excused = KNOWN_DEFECT_GAP.get(z, 0.0) if model == "balanced" and p == 1.0 else 0.0
        results = [_close(label, value, ref, tol, excused) for ref, tol in checks]
        out.append(next((r for r in results if not r.ok), results[0]))
    return out


def check_fit(rows, refs: References) -> list:
    out = []
    for row in rows:
        theta, p = float(row["theta"]), float(row["p"])
        label = f"fit {row['model']} theta={row['theta']} p={row['p']}"
        a, c = float(row["a"]), float(row["c"])
        a_ref, c_ref = refs.fit[_key(theta, p)]
        gap_a, gap_c = abs(a - a_ref), abs(c - c_ref)
        finite = math.isfinite(a) and math.isfinite(c)
        ok = finite and gap_a <= TOL_FIT_A and gap_c <= TOL_FIT_C
        known = (not ok and finite and row["model"] == "balanced" and p == 1.0
                 and gap_a <= KNOWN_DEFECT_FIT_A and gap_c <= TOL_FIT_C)
        out.append(Value(label, ok, f"a={a!r} vs {a_ref!r} (gap {gap_a:.2e}, tol "
                                    f"{TOL_FIT_A:g}); c={c!r} vs {c_ref!r} (gap "
                                    f"{gap_c:.2e}, tol {TOL_FIT_C:g})", known))
    return out


def check_evolve(rows, refs: References, oracles) -> list:
    model, theta, p = rows[0]["model"], float(rows[0]["theta"]), float(rows[0]["p"])
    head = f"evolve {model} theta={rows[0]['theta']} p={rows[0]['p']}"
    series = {"st": {}, "rt": {}, "qhat": {}}
    for row in rows:
        series[row["kind"]][int(row["t"])] = float(row["value"])
    st, rt, qhat = series["st"], series["rt"], series["qhat"]
    t_max = max(st)
    out = []
    for t, s in sorted(st.items()):
        ok = math.isfinite(s) and -TOL_CSV <= s <= 1.0 + TOL_CSV
        if t == 0:
            ok = ok and abs(s - 1.0) <= TOL_CSV
        else:
            ok = ok and s <= st[t - 1] + TOL_CSV
        out.append(Value(f"{head} st t={t}", ok, f"S_t={s!r}"))
    for t, r in sorted(rt.items()):
        out.append(_close(f"{head} rt t={t}", r, 1.0 - st[t], TOL_CSV))
    for m, q in sorted(qhat.items()):
        label = f"{head} qhat m={m}"
        value = _close(label, q, rt[m] - rt[m - 1], TOL_CSV)
        if value.ok and q < -TOL_CSV:
            value = Value(label, False, f"negative first return {q!r}")
        if value.ok and m % 2:
            value = _close(label, q, 0.0, TOL_PARITY)
        if value.ok and model == "balanced" and p == 1.0 and m % 2 == 0:
            value = _close(label, q, oracles.classical_first_return(m), TOL_CSV)
        out.append(value)
    for z in wl.SMALL_Z:
        if z**t_max > MAX_TAIL:
            continue
        weighted = sum(q * z ** (m - 1) for m, q in qhat.items())
        label = f"{head} weighted return z={z}"
        if model == "balanced" and _is_pi_half(theta):
            out.append(_close(label, weighted, oracles.pi_half_weighted_return(z, p),
                              TOL_PI_HALF))
        if model == "balanced" and p == 1.0:
            out.append(_close(label, weighted, classical_balanced(z), TOL_CLASSICAL))
        if model == "correlated":
            out.append(_close(label, weighted, refs.evolve_correlated[
                _key(theta, p, z)], TOL_CROSS_ROUTE))
    return out


def check_slope(rows, refs: References) -> list:
    out = []
    for row in rows:
        model, theta, t = row["model"], float(row["theta"]), int(row["t"])
        value = float(row["value"])
        label = f"slope {model} theta={row['theta']} t={t}"
        ref = refs.slope[(model,) + _key(theta, t)]
        result = _close(label, value, ref, TOL_SLOPE * max(1.0, abs(ref)))
        if result.ok and model == "balanced" and t == 40 and _is_pi_half(theta):
            result = _close(label, value, B40_PI_HALF, TOL_B40)
        out.append(result)
    return out


def check_theta_star(t: int, value: float, refs: References) -> list:
    label = f"theta_star({t})"
    result = _close(label, value, refs.theta_star[t], TOL_THETA_STAR)
    lo, hi = THETA_STAR_BRACKET
    if result.ok and t == 100 and not lo <= value <= hi:
        result = Value(label, False, f"{value / math.pi!r} pi (need [0.2885, 0.2895] pi)")
    return [result]


def check_op(kind: str, output, refs: References, oracles) -> list:
    """Values of one op: `output` is the CSV text, or theta_star's (t, value)."""
    if kind == "theta_star":
        return check_theta_star(*output, refs)
    rows = parse_csv(output)
    if kind == "recur":
        return check_recur(rows, refs, oracles)
    if kind == "fit":
        return check_fit(rows, refs)
    if kind == "evolve":
        return check_evolve(rows, refs, oracles)
    return check_slope(rows, refs)
