"""Every dtqsw name the benchmark under perfbench/ reaches still resolves.

perfbench looks dtqsw functions up by name (spans.LAYER_SPANS), imports
them in its scripts and calls make_references.tangent_slope on the
directsim state API. A src change that removes or renames one of them
breaks every benchmark run; these checks fail first. They read perfbench
and change nothing there.
"""

import ast
import importlib
import math
import pathlib
import sys

import numpy as np
import pytest

from dtqsw import directsim, genfun
from dtqsw.model import Model, WalkParams
from dtqsw.perturbation import slope_series

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def _submodule(module, name):
    """The module `from module import name` binds, or None for any other name."""
    try:
        return importlib.import_module(f"{module}.{name}").__name__
    except ImportError:
        return None


def _dtqsw_names(path):
    """(module, attr, line) of every dtqsw name a perfbench script imports or
    reads from an imported dtqsw module, as `module.attr`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dtqsw"):
            for alias in node.names:
                names.append((node.module, alias.name, node.lineno))
                submodule = _submodule(node.module, alias.name)
                if submodule is not None:
                    modules[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr, node.lineno))
    return names


SCRIPTS = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_perfbench_script_names_resolve(path):
    missing = [
        f"{path.name}:{line}: {module}.{attr}"
        for module, attr, line in _dtqsw_names(path)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_scripts_reach_the_pinned_names():
    """The scan sees the names the benchmark is known to read."""
    found = {(m, a) for path in SCRIPTS for m, a, _ in _dtqsw_names(path)}
    assert {
        ("dtqsw._kernels", "USING_NUMBA"),
        ("dtqsw.directsim", "initial_state"),
        ("dtqsw.directsim", "MonitoredDensityState"),
        ("dtqsw.directsim", "step_monitored"),
        ("dtqsw.directsim", "return_series"),
        ("dtqsw.genfun", "recurrence_estimate"),
        ("dtqsw.oracles", "pi_half_weighted_return"),
        ("dtqsw.cli", "main"),
        ("dtqsw.perturbation", "theta_star"),
    } <= found


def test_layer_spans_resolve():
    from perfbench import spans

    missing = [
        f"{name}: {module}.{attr}"
        for name, (module, attr, *_) in spans.LAYER_SPANS.items()
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


@pytest.mark.parametrize("model", [Model.BALANCED, Model.CORRELATED])
def test_make_references_tangent_slope_runs(model):
    """make_references builds directsim states by hand, positionally: its
    density-matrix tangent still runs and matches slope_series."""
    from perfbench import make_references

    theta, t_max = 0.3 * math.pi, 20
    values = make_references.tangent_slope(theta, model, t_max)
    assert np.max(np.abs(np.array(values) - slope_series(theta, t_max, model).values)) < 1e-13


def test_spans_see_the_memoised_names():
    """kraus_family and shift_blocks are memoised, but every route still calls
    the names perfbench wraps: one genfun point records one span each of
    kraus_family, recurrence_estimate and stieltjes_matrix, and a monitored
    evolution one step_monitored span per step."""
    from perfbench.spans import SpanRecorder, instrument

    params = WalkParams(0.3 * math.pi, 0.35)
    with instrument(SpanRecorder()) as recorder:
        genfun.recurrence_estimate(params, 0.99, 4, 64)
    names = [span.name for span in recorder.spans]
    for name in ("model.kraus_family", "genfun.recurrence_estimate",
                 "genfun.stieltjes_matrix"):
        assert names.count(name) == 1, name
    with instrument(SpanRecorder()) as recorder:
        directsim.return_series(params, 5)
    assert [span.name for span in recorder.spans].count("directsim.step_monitored") == 5
