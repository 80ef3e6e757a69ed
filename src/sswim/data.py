"""Dataset ingestion, target transforms, splitting, and standardization.

CSV is the single ingestion format: comma-separated, header row, "." decimal
separator. Per-dataset preprocessing lives in small manifest files (flat
key=value text) naming the csv path, the target column, drop rules, and the
target transform, so adding a dataset needs no code changes. Column
references accept names or zero-based indices into the original header
(negative indices count from the end).

Standardization statistics come from the training split only; the test
split never influences them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TARGET_TRANSFORMS = ("none", "log1p")

MANIFEST_KEYS = ("path", "target", "drop_columns", "target_transform")


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    name: str
    columns: list

    def __len__(self):
        return len(self.y)


@dataclass
class Preprocessing:
    drop_columns: tuple = ()
    target_transform: str = "none"


@dataclass
class Scaler:
    """Column statistics of a training split, applied to any split."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def transform_x(self, x):
        return (np.asarray(x, dtype=float) - self.x_mean) / self.x_std

    def transform_y(self, y):
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_std

    def apply(self, dataset: Dataset) -> Dataset:
        return Dataset(self.transform_x(dataset.X), self.transform_y(dataset.y),
                       dataset.name, list(dataset.columns))


def _resolve_column(header, ref, path):
    """A column reference is a name or a (possibly negative) integer index."""
    if isinstance(ref, (int, np.integer)):
        idx = int(ref)
    else:
        ref = str(ref).strip()
        if ref in header:
            return header.index(ref)
        try:
            idx = int(ref)
        except ValueError:
            raise ValueError(f"{path}: no column named {ref!r}") from None
    if not -len(header) <= idx < len(header):
        raise ValueError(f"{path}: column index {idx} out of range for {len(header)} columns")
    return idx % len(header)


def _parse_rows_strict(path, header, rows):
    """Slow path: locate and report the first non-numeric cell."""
    out = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {i + 2}, "
                    f"column {header[j]!r}") from None
    return out


def load_csv(path, target_column, preprocessing: Preprocessing = None, name=None) -> Dataset:
    """Load one CSV file and apply its declared preprocessing.

    After the declared drops and the target transform, feature columns that
    are constant over the file are always dropped, with a warning naming
    them: no model can use them, and standardization would divide by zero.
    """
    pp = preprocessing if preprocessing is not None else Preprocessing()
    if pp.target_transform not in TARGET_TRANSFORMS:
        raise ValueError(f"unknown target_transform {pp.target_transform!r}; "
                         f"expected one of {TARGET_TRANSFORMS}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        header_line = f.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: empty file")
        try:
            header = [h.strip() for h in next(csv.reader([header_line]))]
            try:
                # fast path; fall back to the cell-by-cell parser for diagnostics
                raw = np.loadtxt(f, delimiter=",", ndmin=2)
                if raw.size and raw.shape[1] != len(header):
                    raise ValueError("column count mismatch")
            except Exception:
                f.seek(0)
                rows = list(csv.reader(f))[1:]
                raw = _parse_rows_strict(path, header, rows)
        except csv.Error as e:
            raise ValueError(f"{path}: not a readable CSV file: {e}") from None
    if raw.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 data rows, found {raw.shape[0]}")

    target_idx = _resolve_column(header, target_column, path)
    drop = {_resolve_column(header, c, path) for c in pp.drop_columns}
    if target_idx in drop:
        raise ValueError(f"{path}: target column {header[target_idx]!r} is also dropped")
    keep = [i for i in range(len(header)) if i != target_idx and i not in drop]
    if not keep:
        raise ValueError(f"{path}: no feature columns left after drops")

    y = raw[:, target_idx]
    if pp.target_transform == "log1p":
        if np.any(y <= -1):
            raise ValueError(f"{path}: log1p transform needs targets > -1")
        y = np.log1p(y)
    x = raw[:, keep]
    columns = [header[i] for i in keep]

    constant = np.flatnonzero(x.min(axis=0) == x.max(axis=0))
    if constant.size:
        names = [columns[i] for i in constant]
        warnings.warn(f"{path}: dropping constant column(s) {names}")
        live = [i for i in range(x.shape[1]) if i not in set(constant)]
        x, columns = x[:, live], [columns[i] for i in live]
        if x.shape[1] == 0:
            raise ValueError(f"{path}: all feature columns are constant")
    bad = ~np.isfinite(x)
    if bad.any() or not np.all(np.isfinite(y)):
        i, j = map(int, np.argwhere(bad)[0]) if bad.any() else (int(np.flatnonzero(~np.isfinite(y))[0]), -1)
        col = columns[j] if j >= 0 else header[target_idx]
        raise ValueError(f"{path}: non-finite value at row {i + 2}, column {col!r}")
    return Dataset(x, y, name if name is not None else path.stem, columns)


def read_key_value_file(path) -> dict:
    """Parse a flat key=value text file; '#' starts a comment."""
    result = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        result[key] = value
    return result


def load_manifest(path) -> dict:
    """Read and validate a dataset manifest; csv path resolves relative to it."""
    path = Path(path)
    raw = read_key_value_file(path)
    unknown = set(raw) - set(MANIFEST_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown manifest key(s) {sorted(unknown)}")
    for key in ("path", "target"):
        if key not in raw:
            raise ValueError(f"{path}: manifest is missing required key {key!r}")
    csv_path = Path(raw["path"])
    if not csv_path.is_absolute():
        csv_path = path.parent / csv_path
    drop = tuple(c.strip() for c in raw.get("drop_columns", "").split(",") if c.strip())
    return {
        "csv_path": csv_path,
        "target": raw["target"],
        "preprocessing": Preprocessing(
            drop_columns=drop,
            target_transform=raw.get("target_transform", "none"),
        ),
        "name": path.stem,
    }


def load_from_manifest(path) -> Dataset:
    spec = load_manifest(path)
    if not spec["csv_path"].exists():
        raise FileNotFoundError(f"dataset file {spec['csv_path']} (named by {path}) does not exist")
    return load_csv(spec["csv_path"], spec["target"], spec["preprocessing"], name=spec["name"])


def split(dataset: Dataset, train_fraction=2.0 / 3.0, seed=0):
    """Random disjoint train/test split; train size is floor(fraction * N)."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = max(1, int(np.floor(train_fraction * n)))
    tr, te = perm[:n_train], perm[n_train:]
    return (Dataset(dataset.X[tr], dataset.y[tr], dataset.name, list(dataset.columns)),
            Dataset(dataset.X[te], dataset.y[te], dataset.name, list(dataset.columns)))


def standardize(train: Dataset, test: Dataset):
    """Scale both splits with the training split's statistics."""
    x_mean, x_std = train.X.mean(axis=0), train.X.std(axis=0)
    dead = np.flatnonzero(x_std == 0)
    if dead.size:
        names = [train.columns[i] for i in dead]
        raise ValueError(f"zero-variance training column(s) {names}; drop them before scaling")
    y_std = float(train.y.std())
    if y_std == 0:
        raise ValueError("training target is constant; nothing to standardize")
    scaler = Scaler(x_mean, x_std, float(train.y.mean()), y_std)
    return scaler.apply(train), scaler.apply(test), scaler


def subsample(dataset: Dataset, n, seed=0) -> Dataset:
    """Uniform subsample without replacement (identity when n >= len)."""
    if n >= len(dataset):
        return Dataset(dataset.X.copy(), dataset.y.copy(), dataset.name, list(dataset.columns))
    idx = np.random.default_rng(seed).choice(len(dataset), size=n, replace=False)
    return Dataset(dataset.X[idx], dataset.y[idx], dataset.name, list(dataset.columns))
