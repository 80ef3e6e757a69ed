"""Property tests: the loaders turn any malformed input into ``ValueError``.

Hypothesis mutates or deletes one field, anywhere in a small saved document,
and ``load`` must either return a model or raise ``ValueError``. Likewise it inserts and deletes
characters in small CSV texts, and ``load_csv`` must return a dataset or
raise ``ValueError``. Any other exception is a crash the command line would
report as a traceback. The searches are derandomized and small so the suite
stays deterministic and fast.
"""

import base64
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sswim.data import load_csv  # noqa: E402
from sswim.model import build_model, load, objective, save  # noqa: E402

# integers at and past the bounds of the C and numpy integer types
HUGE = (2**31, 2**63 - 1, 2**63, 2**64, 2**80, -(2**63) - 1)


def blobs():
    """Well-formed array blobs of small random shapes."""
    def blob(shape):
        raw = np.zeros(int(np.prod(shape)), dtype="<f8").tobytes()
        return {"shape": shape, "<f8": base64.b64encode(raw).decode("ascii")}
    return st.lists(st.integers(0, 4), max_size=3).map(blob)


INTEGERS = st.one_of(st.integers(), st.sampled_from(HUGE))
SCALARS = st.one_of(st.none(), st.booleans(), INTEGERS,
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
VALUES = st.one_of(
    INTEGERS, blobs(),
    st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                 | st.dictionaries(st.text(max_size=3), kids, max_size=2), max_leaves=5))


def paths(node, prefix=()):
    """Every key or index path into a JSON tree, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += paths(child, prefix + (key,))
    return out


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (12, 1))
    model = build_model(x, n_layers=1, M=3, M_w=2, n_pseudo=2, seed=1)
    objective(model, x, np.sin(3 * x[:, 0]))
    return save(model, tmp_path_factory.mktemp("doc") / "small.model.json").read_text()


@pytest.fixture(scope="module")
def mutated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "mutated.model.json"


@settings(max_examples=200)
@given(data=st.data())
def test_load_raises_only_value_error(document, mutated_path, data):
    doc = json.loads(document)
    # header fields are few among all paths, so half the draws go to them
    *parents, key = data.draw(st.one_of(st.sampled_from([(k,) for k in doc]),
                                        st.sampled_from(paths(doc))))
    part = doc
    for step in parents:
        part = part[step]
    if data.draw(st.integers(0, 3)) == 0:
        del part[key]
    else:
        part[key] = data.draw(VALUES)
    mutated_path.write_text(json.dumps(doc))
    try:
        load(mutated_path)
    except ValueError:
        pass


CSV_TEXTS = ("a,b,y\n1,2,10\n3,4,20\n5,6,30\n", "x1,y\r\n0.5,-1\r\n2e3,1e-9\r\n")
# quoting, separators, a NUL, a byte-order mark, a lone surrogate (invalid
# UTF-8 once encoded), non-finite words and a field past csv's 128 KiB limit
PIECES = st.one_of(st.text(max_size=4), st.sampled_from(
    ['"', ",", "\n", "\r", "\x00", "\ufeff", "\udcff", "inf", "nan", "a" * (130 * 1024)]))


@settings(max_examples=100)
@given(data=st.data())
def test_load_csv_raises_only_value_error(mutated_path, data):
    text = data.draw(st.sampled_from(CSV_TEXTS))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:i] + data.draw(PIECES) + text[i:]
        else:
            text = text[:i] + text[i + data.draw(st.integers(1, 4)):]
    path = mutated_path.with_suffix(".csv")
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        load_csv(path, data.draw(st.sampled_from(["y", 0, -1])))
    except ValueError:
        pass
