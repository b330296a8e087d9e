"""In-memory span recorder and the wrappers that place spans on dtqsw layers.

A wrapper replaces a public function at every name in the dtqsw package
that refers to it, which is where its callers look it up (for instance
dtqsw.cli.return_series for directsim.return_series). The originals are
put back when the instrumentation context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    run_id: str
    error: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; `run_id` tags the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), math.nan, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span.extra = extra(*args, **kwargs)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _grid_samples(xi, eta, *_args, **_kwargs):
    return {"samples": np.size(xi) * np.size(eta)}


def _matrices(mats, *_args, **_kwargs):
    return {"matrices": int(np.shape(mats)[0])}


def _kernel_samples(_family, k1, k2, *_args, **_kwargs):
    return {"samples": int(np.broadcast(np.asarray(k1), np.asarray(k2)).size)}


def _state_mb(state, *_args, **_kwargs):
    return {"state_mb": state.rho.nbytes / 1e6}


# span name -> (module, function, extra(*args) -> counts, reported count names)
LAYER_SPANS = {
    "cli.main": ("dtqsw.cli", "main", None, ()),
    "genfun.recurrence_estimate": ("dtqsw.genfun", "recurrence_estimate", None,
                                   ("errors",)),
    "genfun.stieltjes_matrix": ("dtqsw.genfun", "stieltjes_matrix", None, ()),
    "genfun.fourier_blocks": ("dtqsw.genfun", "fourier_blocks", None, ()),
    "kernels.determinant_grid": ("dtqsw._kernels", "determinant_grid", _grid_samples,
                                 ("samples",)),
    "kernels.invert_grid_4x4": ("dtqsw._kernels", "invert_grid_4x4", _matrices,
                                ("matrices",)),
    "model.momentum_kernel": ("dtqsw.model", "momentum_kernel", _kernel_samples,
                              ("samples",)),
    "model.kraus_family": ("dtqsw.model", "kraus_family", None, ()),
    "directsim.return_series": ("dtqsw.directsim", "return_series", None, ("errors",)),
    "directsim.step_monitored": ("dtqsw.directsim", "step_monitored", _state_mb,
                                 ("state_mb",)),
    "perturbation.theta_star": ("dtqsw.perturbation", "theta_star", None, ()),
    "perturbation.slope_series": ("dtqsw.perturbation", "slope_series", None, ()),
    "perturbation.monitored_trajectory": (
        "dtqsw.perturbation", "monitored_trajectory", None, ()),
    "fitting.fit_power_law": ("dtqsw.fitting", "fit_power_law", None, ()),
}


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every LAYER_SPANS function at each dtqsw name bound to it."""
    patched = []
    try:
        for name, (module_name, attr, extra, _) in LAYER_SPANS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = recorder.wrap(name, original, extra)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "dtqsw" and not mod_name.startswith("dtqsw."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield recorder
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass .calls, .self_s and counts of every LAYER_SPANS name."""
    selfs = self_times(spans)
    out = {}
    for name, (*_, counts) in LAYER_SPANS.items():
        mine = [(s, t) for s, t in zip(spans, selfs) if s.name == name]
        out[f"{name}.calls"] = len(mine) / passes
        out[f"{name}.self_s"] = sum(t for _, t in mine) / passes
        for count in counts:
            if count == "errors":
                total = sum(s.error for s, _ in mine)
            else:
                total = sum(s.extra.get(count, 0) for s, _ in mine)
            out[f"{name}.{count}"] = total / passes
    estimates = [s for s in spans if s.name == "genfun.recurrence_estimate"]
    busy = sum(s.duration for s in estimates)
    out["genfun.points_per_s"] = len(estimates) / busy if busy > 0 else 0.0
    return out
