"""Fingerprint the outputs of two source trees and print how far apart they are.

    python -m bench fingerprint TREE_A TREE_B

Each tree runs in its own subprocess with one BLAS thread. The subprocess
imports the tree's ``src/sswim`` and its ``perfbench/workloads.py`` (without
writing bytecode into the tree) and, for every workload at seed 11, job 0,
records the pipeline's outputs:

- the objective and gradient of ``value_and_gradient`` at the built model,
  and at a depth-0 model built from the same seed (no benchmark workload
  runs depth 0);
- the ``train`` trace's objectives and the trained theta;
- the means and variances of ``predict_f`` on the prediction batch, and of
  a second ``predict_f`` on it, which reuses the posteriors' factor inverses;
- the saved model document, byte for byte;
- the loaded model's ``predict_f`` at one point (the batch's first row as a
  1-D input, the loaded model's first prediction), then on the held-out
  split, and its objective.

For each output the table gives the SHA-256 of its float64 bytes (of the
document's bytes for the document) in both trees and the max-norm relative
delta max|a - b| / max|a|; for the document, the largest such delta over
the float arrays it holds.
"""

from __future__ import annotations

import base64
import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED, JOB = 11, 0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DOCUMENT = "saved document"


class TreeError(RuntimeError):
    """A tree is not a source checkout, lacks the workload asked for, or its run failed."""


def checkout(tree, needs=("src/sswim/__init__.py", "perfbench/workloads.py")) -> Path:
    """The resolved root of a source checkout that holds every file of ``needs``."""
    tree = Path(tree).resolve()
    for need in needs:
        if not (tree / need).is_file():
            raise TreeError(f"{tree} has no {need}; give the root of a source checkout")
    return tree


def subprocess_env() -> dict:
    """This environment without ``PYTHONPATH``, at one BLAS thread, writing no bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS}, PYTHONDONTWRITEBYTECODE="1")
    return env


def collect(tree, overrides=None) -> dict:
    """Every workload's outputs in ``tree``, keyed ``workload/output``.

    ``overrides`` maps a workload name to ``Workload`` fields to replace,
    for runs at shrunken sizes.
    """
    tree = checkout(tree)
    env = subprocess_env()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outputs.npz"
        run = subprocess.run(
            [sys.executable, __file__, str(tree), str(out), json.dumps(overrides or {})],
            env=env, cwd=tmp, capture_output=True, text=True)
        if run.returncode != 0:
            raise TreeError(f"the run of {tree} failed:\n{run.stderr[-4000:]}")
        with np.load(out) as arrays:
            return {key: arrays[key] for key in arrays.files}


def document_arrays(raw) -> list:
    """The float arrays of a model document, in document order."""
    found = []

    def walk(node):
        if isinstance(node, dict) and "<f8" in node:
            found.append(np.frombuffer(base64.b64decode(node["<f8"]), "<f8"))
        elif isinstance(node, (dict, list)):
            for value in (node.values() if isinstance(node, dict) else node):
                walk(value)

    walk(json.loads(bytes(raw)))
    return found


def compare(a: dict, b: dict) -> list:
    """Rows ``(workload, output, sha256 in a, sha256 in b, max-norm relative delta)``.

    An output whose shapes differ, or that only one tree has, gets delta inf.
    """
    rows = []
    for key in sorted(a.keys() | b.keys()):
        workload, output = key.split("/", 1)
        hashes = [hashlib.sha256(side[key].tobytes()).hexdigest() if key in side else "-"
                  for side in (a, b)]
        delta = np.inf
        if key in a and key in b:
            parts_a, parts_b = (document_arrays(side[key]) if output == DOCUMENT else [side[key]]
                                for side in (a, b))
            if len(parts_a) == len(parts_b):
                delta = max(map(_relative_delta, parts_a, parts_b), default=0.0)
        rows.append((workload, output, *hashes, delta))
    return rows


def _relative_delta(a, b) -> float:
    if a.shape != b.shape:
        return np.inf
    if a.size == 0:
        return 0.0
    diff = float(np.max(np.abs(a - b)))
    scale = float(np.max(np.abs(a)))
    return diff / scale if scale > 0 else diff


def format_table(rows) -> str:
    lines = [f"{'workload':<15}{'output':<27}{'sha256 A':<14}{'sha256 B':<14}max-norm rel delta"]
    for workload, output, hash_a, hash_b, delta in rows:
        lines.append(f"{workload:<15}{output:<27}{hash_a[:12]:<14}{hash_b[:12]:<14}{delta:.3g}")
    return "\n".join(lines)


def _outputs(workloads, w, path) -> dict:
    """The pipeline's outputs for workload ``w`` at seed 11, job 0."""
    model_mod, train_mod = workloads.model_mod, workloads.train_mod
    s = workloads.set_up(w, SEED, JOB)
    x, y = s.train.X, s.train.y
    # on a copy: the evaluation installs its fit on the model it is given
    value, grad = model_mod.value_and_gradient(copy.copy(s.model), x, y)
    model_seed = workloads.job_seeds(SEED, JOB)[2]
    plain = model_mod.build_model(x, n_layers=0, M=w.M, seed=model_seed, **dict(w.model_kwargs))
    plain_value, plain_grad = model_mod.value_and_gradient(plain, x, y)
    model, trace = train_mod.train(
        s.model, x, y, train_mod.TrainConfig(steps=w.steps, learning_rate=w.learning_rate))
    mean, var = model_mod.predict_f(model, s.batch)
    repeat_mean, repeat_var = model_mod.predict_f(model, s.batch)
    model_mod.save(model, path)
    document = path.read_bytes()
    loaded = model_mod.load(path)
    point_mean, point_var = model_mod.predict_f(loaded, s.batch[0])
    loaded_mean, loaded_var = model_mod.predict_f(loaded, s.test.X)
    return {
        "built objective": np.array([value]),
        "built gradient": grad,
        "depth-0 objective": np.array([plain_value]),
        "depth-0 gradient": plain_grad,
        "train trace": np.asarray(trace.objectives, dtype=float),
        "trained theta": model.theta,
        "predict_f mean": mean,
        "predict_f variance": var,
        "repeat predict_f mean": repeat_mean,
        "repeat predict_f variance": repeat_var,
        DOCUMENT: np.frombuffer(document, dtype=np.uint8),
        "point predict_f mean": np.asarray(point_mean, dtype=float),
        "point predict_f variance": np.asarray(point_var, dtype=float),
        "loaded predict_f mean": loaded_mean,
        "loaded predict_f variance": loaded_var,
        "loaded objective": np.array([model_mod.objective(loaded, x, y)]),
    }


def _run_tree(tree, out, overrides):
    """Subprocess side of :func:`collect`: run one tree and save its outputs to ``out``."""
    tree = Path(tree)
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import workloads  # the tree's own

    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in workloads.WORKLOADS.items():
            w = dataclasses.replace(w, **overrides.get(name, {}))
            for key, value in _outputs(workloads, w, Path(tmp) / "model.json").items():
                arrays[f"{name}/{key}"] = value
    np.savez(out, **arrays)


if __name__ == "__main__":
    _run_tree(sys.argv[1], sys.argv[2], json.loads(sys.argv[3]))
