"""In-process spans around the public calls of each qqual module.

The tracer lives in the benchmark, not in the package: while installed it
replaces each listed function or method, everywhere the package holds a
reference to it, by a wrapper that records a span (name, start, end,
parent).  Spans stay in memory and are written out at the end.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _run_circuit_bytes(args, kwargs, result) -> dict:
    # computed, not measured: each gate pass reads and writes the whole
    # (B, 2**n) complex128 state block once, 16 B each way per amplitude
    spec = args[0]
    feats = np.asarray(args[2] if len(args) > 2 else kwargs.get("features", ()))
    rows = 1 if feats.ndim <= 1 else feats.shape[0]
    n_gates = sum(len(layer) for layer in spec.layers)
    return {"qsim.state_bytes_computed": n_gates * rows * 2 ** spec.n_qubits * 32}


def _contour_points(args, kwargs, result) -> dict:
    return {"geometry.zero_contour.points": sum(len(poly) for poly in result)}


def _campaign_cells(args, kwargs, result) -> dict:
    sets, lams = args[0], args[2]
    return {"dvcs.cells_ok": len(result[0]), "dvcs.cells": len(sets) * len(lams)}


def _svg_bytes(args, kwargs, result) -> dict:
    return {"svgplot.bytes_written": os.path.getsize(args[1])}


# (module, attribute or Class.method, span name, counter hook)
TARGETS = (
    ("qqual.cli", "main", "cli", None),
    ("qqual.qsim", "run_circuit", "qsim.run_circuit", _run_circuit_bytes),
    ("qqual.qdnn", "QdnnModel.loss_and_grad", "qdnn.loss_and_grad", None),
    ("qqual.qdnn", "QdnnModel.forward", "qdnn.forward", None),
    ("qqual.cdnn", "MlpModel.loss_and_grad", "cdnn.loss_and_grad", None),
    ("qqual.cdnn", "MlpModel.forward", "cdnn.forward", None),
    ("qqual.optim", "fit", "optim.fit", None),
    ("qqual.dvcs", "run_campaign", "dvcs.run_campaign", _campaign_cells),
    ("qqual.dvcs", "extract_cffs", "dvcs.extract_cffs", None),
    ("qqual.dvcs", "make_pseudodata", "dvcs.make_pseudodata", None),
    ("qqual.complexity", "characterize", "complexity.characterize", None),
    ("qqual.qualifier", "fit_qualifier", "qualifier.fit_qualifier", None),
    ("qqual.qualifier", "eval_qualifier", "qualifier.eval_qualifier", None),
    ("qqual.geometry", "build_surface", "geometry.build_surface", None),
    ("qqual.geometry", "zero_contour", "geometry.zero_contour", _contour_points),
    ("qqual.geometry", "area_fractions", "geometry.area_fractions", None),
    ("qqual.geometry", "sign_agreement", "geometry.sign_agreement", None),
    ("qqual.svgplot", "regime_map", "svgplot.regime_map", None),
    ("qqual.svgplot", "SvgCanvas.save", "svgplot.save", _svg_bytes),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, error or None]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1, None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][4] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[key] += value
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper in all loaded qqual modules
        (``from x import f`` makes copies that must be swapped too)."""
        for module, _, _, _ in TARGETS:
            importlib.import_module(module)
        patches = []
        for module, attr, name, hook in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            holders = [owner] + [m for key, m in list(sys.modules.items())
                                 if key.startswith("qqual") and m is not owner
                                 and getattr(m, attr, None) is original]
            for holder in holders:
                patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    # -- reduction -------------------------------------------------------

    def _children_time(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def _outermost(self, idx: int) -> bool:
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def summary(self) -> dict:
        """Per span name: calls, total_s (outermost spans only), self_s."""
        child = self._children_time()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        for idx, (name, start, end, parent, error) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[idx]
            if error is not None:
                entry["errors"] += 1
            if self._outermost(idx):
                entry["total_s"] += end - start
        return dict(out)

    def layer_metrics(self) -> dict:
        s = self.summary()

        def get(name, key):
            return s[name][key] if name in s else 0

        fits = get("optim.fit", "calls")
        cells = self.counts.get("dvcs.cells", 0)
        return {
            "qsim.run_circuit.calls": get("qsim.run_circuit", "calls"),
            "qsim.run_circuit.self_s": get("qsim.run_circuit", "self_s"),
            "qsim.state_bytes_computed": self.counts.get("qsim.state_bytes_computed", 0),
            "qdnn.loss_and_grad.self_s": get("qdnn.loss_and_grad", "self_s"),
            "qdnn.forward.total_s": get("qdnn.forward", "total_s"),
            "cdnn.loss_and_grad.total_s": get("cdnn.loss_and_grad", "total_s"),
            "optim.fit.self_s": get("optim.fit", "self_s"),
            "optim.diverged_frac": get("optim.fit", "errors") / fits if fits else 0.0,
            "dvcs.extract_cffs.total_s": get("dvcs.extract_cffs", "total_s"),
            "dvcs.make_pseudodata.total_s": get("dvcs.make_pseudodata", "total_s"),
            "dvcs.cells_ok_frac": self.counts.get("dvcs.cells_ok", 0) / cells if cells else 0.0,
            "complexity.characterize.calls": get("complexity.characterize", "calls"),
            "complexity.characterize.total_s": get("complexity.characterize", "total_s"),
            "qualifier.fit_qualifier.total_s": get("qualifier.fit_qualifier", "total_s"),
            "qualifier.eval_qualifier.calls": get("qualifier.eval_qualifier", "calls"),
            "geometry.build_surface.total_s": get("geometry.build_surface", "total_s"),
            "geometry.zero_contour.total_s": get("geometry.zero_contour", "total_s"),
            "geometry.zero_contour.points": self.counts.get("geometry.zero_contour.points", 0),
            "svgplot.regime_map.total_s": get("svgplot.regime_map", "total_s"),
            "svgplot.bytes_written": self.counts.get("svgplot.bytes_written", 0),
            "cli.self_s": get("cli", "self_s"),
        }

    def dump(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "error"],
                       "spans": [[n, round(a - t0, 7), round(b - t0, 7), p, e]
                                 for n, a, b, p, e in self.spans],
                       "summary": self.summary(), "counts": dict(self.counts),
                       "layer_metrics": self.layer_metrics()}, fh)
