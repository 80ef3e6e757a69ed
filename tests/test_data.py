"""CSV ingestion, manifests, splitting, standardization."""

from pathlib import Path

import numpy as np
import pytest

from sswim.data import (TARGET_TRANSFORMS, Dataset, Preprocessing, load_csv, load_from_manifest,
                        load_manifest, read_key_value_file, split, standardize,
                        subsample)

ROOT = Path(__file__).resolve().parent.parent


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASIC = "a,b,y\n1,2,10\n3,4,20\n5,6,30\n"


# -- load_csv ----------------------------------------------------------------


def test_load_csv_by_name_and_index(tmp_path):
    path = write(tmp_path / "t.csv", BASIC)
    by_name = load_csv(path, "y")
    np.testing.assert_array_equal(by_name.X, [[1, 2], [3, 4], [5, 6]])
    np.testing.assert_array_equal(by_name.y, [10, 20, 30])
    assert by_name.columns == ["a", "b"]
    assert by_name.name == "t"
    by_index = load_csv(path, -1)
    np.testing.assert_array_equal(by_index.X, by_name.X)
    np.testing.assert_array_equal(by_index.y, by_name.y)


def test_load_csv_is_reproducible(tmp_path):
    path = write(tmp_path / "t.csv", BASIC)
    a, b = load_csv(path, "y"), load_csv(path, "y")
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_log1p_transform_fixed_point(tmp_path):
    path = write(tmp_path / "t.csv", "a,y\n1,0\n2,3\n")
    ds = load_csv(path, "y", Preprocessing(target_transform="log1p"))
    assert ds.y[0] == 0.0
    assert ds.y[1] == pytest.approx(np.log1p(3.0))


def test_log1p_rejects_out_of_domain_targets(tmp_path):
    path = write(tmp_path / "t.csv", "a,y\n1,-2\n2,3\n")
    with pytest.raises(ValueError, match="log1p"):
        load_csv(path, "y", Preprocessing(target_transform="log1p"))


def test_unknown_target_transform(tmp_path):
    path = write(tmp_path / "t.csv", BASIC)
    for transform in ("sqrt", "log"):
        with pytest.raises(ValueError, match="target_transform"):
            load_csv(path, "y", Preprocessing(target_transform=transform))


def test_constant_column_dropped_and_named(tmp_path):
    path = write(tmp_path / "t.csv", "a,c,y\n1,7,10\n2,7,20\n3,7,30\n")
    with pytest.warns(UserWarning, match="'c'"):
        ds = load_csv(path, "y")
    assert ds.columns == ["a"]
    assert ds.X.shape == (3, 1)


def test_wide_file_with_leading_drops(tmp_path):
    # 22 raw columns, target at index 5, first five dropped -> 16 features
    header = ",".join(f"c{i}" for i in range(22))
    rng = np.random.default_rng(0)
    rows = "\n".join(",".join(f"{v:.4f}" for v in rng.uniform(1, 2, 22)) for _ in range(6))
    path = write(tmp_path / "wide.csv", header + "\n" + rows + "\n")
    ds = load_csv(path, 5, Preprocessing(drop_columns=(0, 1, 2, 3, 4)))
    assert ds.X.shape == (6, 16)
    assert ds.columns == [f"c{i}" for i in range(6, 22)]


def test_load_csv_strict_errors(tmp_path):
    with pytest.raises(ValueError, match="empty file"):
        load_csv(write(tmp_path / "e.csv", "\n"), "y")
    with pytest.raises(ValueError, match="no column named 'z'"):
        load_csv(write(tmp_path / "t.csv", BASIC), "z")
    with pytest.raises(ValueError, match="row 3, column 'b'"):
        load_csv(write(tmp_path / "bad.csv", "a,b,y\n1,2,10\n3,oops,20\n"), "y")
    with pytest.raises(ValueError, match="row 3 has 2 cells"):
        load_csv(write(tmp_path / "short.csv", "a,b,y\n1,2,10\n3,4\n"), "y")
    with pytest.raises(ValueError, match="at least 2 data rows"):
        load_csv(write(tmp_path / "one.csv", "a,y\n1,2\n"), "y")
    with pytest.raises(ValueError, match="also dropped"):
        load_csv(write(tmp_path / "t2.csv", BASIC), "y", Preprocessing(drop_columns=("y",)))
    with pytest.raises(ValueError, match="no feature columns"):
        load_csv(write(tmp_path / "t3.csv", "a,y\n1,2\n3,4\n"), "y",
                 Preprocessing(drop_columns=("a",)))
    with pytest.raises(ValueError, match="column index 9"):
        load_csv(write(tmp_path / "t4.csv", BASIC), 9)


def test_oversized_field_is_a_value_error(tmp_path):
    # the csv module's field limit is 128 KiB; past it the header parse and
    # the cell-by-cell parser raise csv.Error, which must surface as ValueError
    big = "a" * (200 * 1024)
    for name, text in (("header.csv", f"{big},y\n1,2\n3,4\n"),
                       ("cell.csv", f"a,y\n1,2\n{big},4\n")):
        with pytest.raises(ValueError, match=f"{name}: not a readable CSV file: field larger"):
            load_csv(write(tmp_path / name, text), "y")


def test_non_finite_cell_reported(tmp_path):
    path = write(tmp_path / "t.csv", "a,b,y\n1,2,10\n3,inf,20\n")
    with pytest.raises(ValueError, match="non-finite value at row 3"):
        load_csv(path, "y")


# -- manifests ---------------------------------------------------------------


def test_read_key_value_file(tmp_path):
    path = write(tmp_path / "c.conf", "# comment\nkey = value  # trailing\n\nn = 5\n")
    assert read_key_value_file(path) == {"key": "value", "n": "5"}
    with pytest.raises(ValueError, match="key=value"):
        read_key_value_file(write(tmp_path / "bad.conf", "just words\n"))


def test_manifest_round_trip(tmp_path):
    write(tmp_path / "d.csv", "a,b,y\n1,2,0\n3,4,5\n")
    manifest = write(tmp_path / "mydata.manifest",
                     "path = d.csv\ntarget = y\ntarget_transform = log1p\n")
    spec = load_manifest(manifest)
    assert spec["csv_path"] == tmp_path / "d.csv"
    assert spec["name"] == "mydata"
    ds = load_from_manifest(manifest)
    assert ds.name == "mydata"
    assert ds.y[0] == 0.0  # log1p applied


def test_manifest_drop_columns_list(tmp_path):
    write(tmp_path / "d.csv", "a,b,c,y\n1,2,3,0\n4,5,6,7\n")
    manifest = write(tmp_path / "m.manifest", "path = d.csv\ntarget = y\ndrop_columns = a, c\n")
    ds = load_from_manifest(manifest)
    assert ds.columns == ["b"]


def test_manifest_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown manifest key"):
        load_manifest(write(tmp_path / "a.manifest", "path = x.csv\ntarget = y\ncolor = red\n"))
    # constant columns are always dropped; the switch that kept them is gone
    with pytest.raises(ValueError, match=r"unknown manifest key\(s\) \['drop_constant'\]"):
        load_manifest(write(tmp_path / "a.manifest",
                            "path = x.csv\ntarget = y\ndrop_constant = false\n"))
    with pytest.raises(ValueError, match="missing required key 'target'"):
        load_manifest(write(tmp_path / "b.manifest", "path = x.csv\n"))
    missing = write(tmp_path / "c.manifest", "path = nowhere.csv\ntarget = y\n")
    with pytest.raises(FileNotFoundError, match="nowhere.csv"):
        load_from_manifest(missing)


def test_every_shipped_manifest_is_valid():
    # data/README: one CSV per dataset under data/, named as its manifest;
    # most of the CSVs are not bundled, so only the manifests are checked
    manifests = sorted((ROOT / "manifests").glob("*.manifest"))
    assert manifests
    for manifest in manifests:
        spec = load_manifest(manifest)  # raises on an unknown or a missing key
        assert spec["csv_path"].resolve() == ROOT / "data" / f"{manifest.stem}.csv", manifest
        assert spec["name"] == manifest.stem
        pp = spec["preprocessing"]
        assert pp.target_transform in TARGET_TRANSFORMS, manifest
        assert spec["target"] and spec["target"] not in pp.drop_columns, manifest


# -- split -------------------------------------------------------------------


def make_dataset(n=30, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.standard_normal(n), "toy",
                   [f"x{i}" for i in range(d)])


def test_split_floor_rule():
    train, test = split(make_dataset(n=1030), train_fraction=2.0 / 3.0, seed=0)
    assert len(train) == 686 and len(test) == 344


def test_split_partition_and_determinism():
    ds = make_dataset(n=50)
    tr1, te1 = split(ds, seed=5)
    tr2, te2 = split(ds, seed=5)
    np.testing.assert_array_equal(tr1.X, tr2.X)
    np.testing.assert_array_equal(te1.y, te2.y)
    # rows of the two splits together are exactly the original multiset
    merged = np.vstack([tr1.X, te1.X])
    order_orig = np.lexsort(ds.X.T)
    order_merged = np.lexsort(merged.T)
    np.testing.assert_array_equal(merged[order_merged], ds.X[order_orig])


def test_split_validation():
    with pytest.raises(ValueError, match="between 0 and 1"):
        split(make_dataset(), train_fraction=1.0)
    tiny = Dataset(np.zeros((1, 2)), np.zeros(1), "t", ["a", "b"])
    with pytest.raises(ValueError, match="at least 2"):
        split(tiny)


# -- standardize -------------------------------------------------------------


def test_standardize_train_statistics():
    train, test = split(make_dataset(n=200, seed=3), seed=1)
    strain, stest, scaler = standardize(train, test)
    assert np.max(np.abs(strain.X.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(strain.X.std(axis=0) - 1)) <= 1e-10
    assert abs(strain.y.mean()) <= 1e-10
    assert abs(strain.y.std() - 1) <= 1e-10
    # test is scaled with the SAME train statistics
    np.testing.assert_allclose(stest.X, (test.X - scaler.x_mean) / scaler.x_std)
    # a test point sitting at the train mean maps to the origin
    np.testing.assert_allclose(scaler.transform_x(scaler.x_mean), np.zeros(2), atol=1e-15)


def test_standardize_rejects_degenerate_columns():
    x = np.ones((10, 2))
    x[:, 0] = np.arange(10)
    bad = Dataset(x, np.arange(10.0), "t", ["good", "stuck"])
    with pytest.raises(ValueError, match="'stuck'"):
        standardize(bad, bad)
    const_y = Dataset(np.arange(20.0).reshape(10, 2), np.ones(10), "t", ["a", "b"])
    with pytest.raises(ValueError, match="target is constant"):
        standardize(const_y, const_y)


# -- subsample ---------------------------------------------------------------


def test_subsample():
    ds = make_dataset(n=40)
    small = subsample(ds, 10, seed=3)
    assert len(small) == 10
    again = subsample(ds, 10, seed=3)
    np.testing.assert_array_equal(small.X, again.X)
    full = subsample(ds, 100, seed=3)
    np.testing.assert_array_equal(full.X, ds.X)
