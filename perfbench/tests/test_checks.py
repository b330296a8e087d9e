import contextlib
import io
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from dtqsw import cli, oracles  # noqa: E402
from perfbench import checks  # noqa: E402

REFS = checks.References(ROOT / "perfbench" / "references.json")
HEADER = "model,theta,p,z,nmax,grid,kind,t,value,error"


def _recur_csv(rows):
    lines = [HEADER]
    for model, theta, p, z, value in rows:
        lines.append(f"{model},{theta!r},{p!r},{z!r},20,1024,rtilde,,{value!r},")
    return "\n".join(lines) + "\n"


def _check(rows):
    return checks.check_op("recur", _recur_csv(rows), REFS, oracles)


def test_exact_values_pass_and_perturbed_values_fail():
    z, p = 0.999, 0.35
    exact = oracles.pi_half_weighted_return(z, p)
    assert _check([("balanced", math.pi / 2, p, z, exact)])[0].ok
    [bad] = _check([("balanced", math.pi / 2, p, z, exact + 2e-6)])
    assert not bad.ok and not bad.known_defect


def test_refined_reference_is_used_off_the_closed_forms():
    theta, p, z = math.pi / 4, 0.35, 0.999
    ref = REFS.recur_balanced[checks._key(theta, p, z)]
    assert _check([("balanced", theta, p, z, ref + 1e-5)])[0].ok
    assert not _check([("balanced", theta, p, z, ref + 3e-5)])[0].ok


def test_nan_and_error_rows_fail():
    text = HEADER + "\nbalanced,1.5707963268,0.5,0.99,20,1024,rtilde,,nan,SingularKernelError: x\n"
    [value] = checks.check_op("recur", text, REFS, oracles)
    assert not value.ok


def test_known_defect_rows_still_fail():
    z = 0.99999
    [value] = _check([("balanced", math.pi / 4, 1.0, z, checks.classical_balanced(z) - 4.6e-3)])
    assert not value.ok and value.known_defect
    [other] = _check([("balanced", math.pi / 4, 1.0, 0.999, 0.5)])
    assert not other.ok and not other.known_defect


def test_known_defect_rows_beyond_their_seed_gap_are_not_excused():
    seed_gaps = {0.9999: 3.53e-6, 0.99995: 5.01e-5, 0.99998: 8.58e-5, 0.99999: 4.59e-3}
    for z, gap in seed_gaps.items():
        for theta in (math.pi / 4, math.pi / 2):
            exact = checks.classical_balanced(z)
            [seed] = _check([("balanced", theta, 1.0, z, exact - gap)])
            assert not seed.ok and seed.known_defect
            [worse] = _check([("balanced", theta, 1.0, z, exact - 10 * gap)])
            assert not worse.ok and not worse.known_defect


def _fit_value(theta, p, a_gap, c_gap):
    a_ref, c_ref = REFS.fit[checks._key(theta, p)]
    text = ("model,theta,p,form,a,a_err,b,b_err,c,c_err,residual_norm\n"
            f"balanced,{theta!r},{p!r},aminusb,{a_ref + a_gap!r},0,1,0,{c_ref + c_gap!r},0,0\n")
    [value] = checks.check_op("fit", text, REFS, oracles)
    return value


def test_known_defect_fit_is_excused_only_up_to_its_seed_gap():
    theta = math.pi / 4
    assert _fit_value(theta, 1.0, 0.0, 0.0).ok
    seed = _fit_value(theta, 1.0, -2.36e-3, 0.02)
    assert not seed.ok and seed.known_defect
    for a_gap, c_gap in ((-2.36e-2, 0.02), (-2.36e-3, 0.2)):
        worse = _fit_value(theta, 1.0, a_gap, c_gap)
        assert not worse.ok and not worse.known_defect
    interior = _fit_value(theta, 0.0, -2.36e-3, 0.0)
    assert not interior.ok and not interior.known_defect


def test_perturbed_evolve_and_slope_values_fail():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["evolve", "--theta", "0.5pi", "--p", "1", "--tmax", "30"])
    text = buf.getvalue()
    assert all(v.ok for v in checks.check_op("evolve", text, REFS, oracles))
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if ",qhat,4," in line)
    fields = lines[i].split(",")
    fields[8] = repr(float(fields[8]) + 1e-9)
    lines[i] = ",".join(fields)
    failed = [v for v in checks.check_op("evolve", "\n".join(lines), REFS, oracles)
              if not v.ok]
    assert [v.label for v in failed][0].endswith("qhat m=4")

    slope = HEADER + "\nbalanced,1.5707963268,0,,,,bt,40,-0.5,\n"
    [value] = checks.check_op("slope", slope, REFS, oracles)
    assert not value.ok


def test_theta_star_off_its_reference_or_outside_the_bracket_fails():
    for t in (100, 120):
        ref = REFS.theta_star[t]
        assert checks.check_theta_star(t, ref + 4e-5, REFS)[0].ok
        assert not checks.check_theta_star(t, ref + 1e-4, REFS)[0].ok
    assert not checks.check_theta_star(100, 0.2884 * math.pi, REFS)[0].ok
