"""Self-test of ``python -m bench fingerprint`` at shrunken workload sizes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import fingerprint  # noqa: E402

SMALL = {
    "chirp_deep": dict(n=120, M=16, n_pseudo=12, n_predict=50, steps=2),
    "concrete_wide": dict(n=120, M=16, n_pseudo=24, n_predict=50),
    "gramacy_tall": dict(n=300, M=8, n_pseudo=8, n_predict=200),
}
OUTPUTS = {"built objective", "built gradient", "depth-0 objective", "depth-0 gradient",
           "train trace", "trained theta",
           "predict_f mean", "predict_f variance",
           "repeat predict_f mean", "repeat predict_f variance", "saved document",
           "point predict_f mean", "point predict_f variance",
           "loaded predict_f mean", "loaded predict_f variance", "loaded objective"}


def test_a_tree_against_itself_gives_zero_deltas():
    first, second = (fingerprint.collect(ROOT, SMALL) for _ in range(2))
    rows = fingerprint.compare(first, second)
    assert {(w, o) for w, o, *_ in rows} == {(w, o) for w in SMALL for o in OUTPUTS}
    for workload, output, hash_a, hash_b, delta in rows:
        assert hash_a == hash_b and delta == 0.0, (workload, output)


def test_deltas_are_max_norm_relative():
    a = {"w/built gradient": np.array([2.0, -4.0]), "w/trained theta": np.ones(3)}
    b = {"w/built gradient": np.array([2.0, -4.0 + 4e-9]), "w/trained theta": np.ones(2)}
    rows = {output: delta for _, output, _, _, delta in fingerprint.compare(a, b)}
    assert rows["built gradient"] == pytest.approx(1e-9)
    assert rows["trained theta"] == np.inf  # shapes differ


def test_cli_rejects_a_directory_that_is_not_a_checkout(tmp_path):
    run = subprocess.run([sys.executable, "-m", "bench", "fingerprint", str(tmp_path), str(ROOT)],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "src/sswim" in run.stderr and run.stdout == ""
