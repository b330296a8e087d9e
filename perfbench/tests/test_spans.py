import math
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, "run")


def test_self_time_of_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0, None),  # 0
        _span("a", 1.0, 4.0, 0),  # 1
        _span("a.leaf", 2.0, 3.0, 1),  # 2
        _span("b", 5.0, 9.0, 0),  # 3
        _span("b.first", 5.0, 6.5, 3),  # 4
        _span("b.second", 7.0, 8.0, 3),  # 5
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.0])
    # self times partition the root: nothing counted twice, nothing lost
    assert sum(selfs) == pytest.approx(tree[0].duration)


def test_overlapping_children_are_counted_once():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("x", 1.0, 6.0, 0),
        _span("y", 4.0, 12.0, 0),  # overlaps x and runs past the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_instrument_records_nested_layers_and_restores():
    from dtqsw import cli, directsim, model

    originals = (cli.return_series, directsim.step_monitored, model.kraus_family)
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        assert cli.return_series is not originals[0]
        cli.return_series(model.WalkParams(math.pi / 4, 0.5), 3)
    assert (cli.return_series, directsim.step_monitored, model.kraus_family) == originals

    names = [s.name for s in recorder.spans]
    assert names.count("directsim.return_series") == 1
    assert names.count("directsim.step_monitored") == 3
    root = names.index("directsim.return_series")
    assert all(s.parent == root for s in recorder.spans if s.name != names[root])
    metrics = spans.layer_metrics(recorder.spans, passes=1)
    assert metrics["directsim.step_monitored.calls"] == 3
    assert metrics["directsim.step_monitored.state_mb"] > 0
    assert metrics["genfun.recurrence_estimate.calls"] == 0


def test_error_is_recorded_and_raised():
    from dtqsw import genfun
    from dtqsw.errors import DtqswError
    from dtqsw.model import WalkParams

    recorder = spans.SpanRecorder()
    with spans.instrument(recorder), pytest.raises(DtqswError):
        genfun.recurrence_estimate(WalkParams(math.pi / 4, 0.5), 1.5)
    metrics = spans.layer_metrics(recorder.spans, passes=1)
    assert metrics["genfun.recurrence_estimate.errors"] == 1
