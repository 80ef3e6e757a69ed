"""Timing spans around the library's layer boundaries, installed from outside.

``install`` replaces each boundary function, wherever a ``sswim`` module
holds a reference to it (``from .x import f`` copies included), by a wrapper
that records a span: name, start, end and parent span. The recorder keeps
spans in memory; the run writes them out when it ends. Counts that must be
exact are computed from argument shapes, never measured: Cholesky flops
n^3/3, feature Gram flops N*F^2, and tape nodes per backward pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Every wrapped boundary as module.function, and whether other wrapped
# boundaries run inside it (those also report self time).
BOUNDARIES = (
    ("train.train", True),
    ("model.build_model", True),
    ("model.apply_parameters", True),
    ("model.objective", True),
    ("model.value_and_gradient", True),
    ("model.predict_f", True),
    ("model.save", False),
    ("model.load", True),
    ("warp_stack.propagate", True),
    ("warping.warp_point", True),
    ("warping.warp_gaussian", True),
    ("features.feature_map", False),
    ("features.expected_feature_map", False),
    ("ssgp.fit_from_features", True),
    ("ssgp.posterior_nlml", True),
    ("ssgp.predict", True),
    ("autodiff.chol_psd", False),
    ("autodiff.psd_solve", True),
    ("autodiff.psd_logdet", True),
    ("autodiff.backward", False),  # Tensor.backward
)


def _chol_flops(counts, args):
    n = np.shape(args[0])[0]
    counts["autodiff.chol_psd.n_cubed"] += n ** 3


def _gram_flops(counts, args):
    rows, cols = args[1].shape
    counts["ssgp.fit_from_features.gram_flops"] += rows * cols * cols


def _tape_nodes(counts, args):
    root = args[0]
    seen, todo = {id(root)}, [root]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    counts["autodiff.tape_nodes"] = max(counts["autodiff.tape_nodes"], len(seen))


COUNTERS = {
    "autodiff.chol_psd": _chol_flops,
    "ssgp.fit_from_features": _gram_flops,
    "autodiff.backward": _tape_nodes,
}


class Recorder:
    """In-memory span log of one traced run plus its shape-derived counts."""

    def __init__(self):
        self.spans = []  # [run_id, name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.run_id = None
        self._open = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, args)
            span = [self.run_id, name, 0.0, 0.0, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (run_id, name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "run": run_id, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


@contextlib.contextmanager
def install(recorder: Recorder):
    """Patch every boundary to record into ``recorder``; restore on exit."""
    autodiff = importlib.import_module("sswim.autodiff")
    modules = [m for key, m in sys.modules.items() if key == "sswim" or key.startswith("sswim.")]
    patched = []  # (owner, attribute, original)
    try:
        for name, _ in BOUNDARIES:
            mod_name, fn_name = name.split(".")
            if fn_name == "backward":
                original = autodiff.Tensor.backward
                autodiff.Tensor.backward = recorder.wrap(name, original)
                patched.append((autodiff.Tensor, "backward", original))
                continue
            original = getattr(importlib.import_module(f"sswim.{mod_name}"), fn_name)
            wrapper = recorder.wrap(name, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    patched.append((mod, fn_name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def layer_metrics(recorder: Recorder) -> dict:
    """Per-boundary calls, inclusive and self seconds, and the exact counts."""
    child_s = defaultdict(float)
    for _, _, start, end, parent in recorder.spans:
        if parent is not None:
            child_s[parent] += end - start
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    for i, (_, name, start, end, _) in enumerate(recorder.spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_s[i]
        durations[name].append(end - start)
    out = {}
    for name, has_children in BOUNDARIES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (total[name], "s")
        if has_children and name != "train.train":
            out[f"{name}.self_s"] = (own[name], "s")
    steps = durations["model.value_and_gradient"]
    p50, p90 = (np.percentile(steps, [50, 90]) if steps else (0.0, 0.0))
    out["model.value_and_gradient.p50_s"] = (float(p50), "s")
    out["model.value_and_gradient.p90_s"] = (float(p90), "s")
    out["train.adam_self_s"] = (own["train.train"], "s")
    out["autodiff.chol_psd.flops"] = (recorder.counts["autodiff.chol_psd.n_cubed"] / 3, "flop")
    out["ssgp.fit_from_features.gram_flops"] = (
        recorder.counts["ssgp.fit_from_features.gram_flops"], "flop")
    out["autodiff.tape_nodes"] = (recorder.counts["autodiff.tape_nodes"], "count")
    out["trace.self_sum_s"] = (sum(own.values()), "s")
    return out
