"""Command-line driver: exit codes, output artifacts, determinism."""

import argparse
import base64
import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

import sswim.warp_stack as warp_stack
from sswim.cli import _COERCERS, RunConfig, _build_parser, main
from sswim.data import load_csv
from sswim.model import PREDICT_CHUNK_ROWS, load, predict_f

FAST = ["--synthetic", "steps_chirp_1d", "--n", "40", "--noise-std", "0.05",
        "--M", "4", "--M-w", "3", "--n-pseudo", "3", "--steps", "2",
        "--repeats", "2", "--seed", "0"]


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_train_writes_report_and_models(tmp_path):
    code = main(["train", *FAST, "--depth", "1", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "steps_chirp_1d_train_report.csv")
    assert len(rows) == 4  # 2 repeats + mean + std
    assert [r["repeat"] for r in rows] == ["0", "1", "mean", "std"]
    assert rows[0]["wall_seconds"] != "" and rows[2]["wall_seconds"] == ""
    for r in range(2):
        model = load(tmp_path / f"steps_chirp_1d_depth1_repeat{r}.model.json")
        assert model.depth == 1 and model.top_post is not None


def test_train_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "synthetic = steps_chirp_1d\nn = 40\nnoise_std = 0.05\n"
        "M = 4\nM_w = 3\nn_pseudo = 3\nsteps = 1\nrepeats = 1\ndepth = 0\n"
        f"output_dir = {tmp_path}\n")
    assert main(["train", "--config", str(config)]) == 0
    rows = read_rows(tmp_path / "steps_chirp_1d_train_report.csv")
    assert rows[0]["M"] == "4" and rows[0]["depth"] == "0"
    # flags win over the config file
    assert main(["train", "--config", str(config), "--M", "6"]) == 0
    rows = read_rows(tmp_path / "steps_chirp_1d_train_report.csv")
    assert rows[0]["M"] == "6"


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--manifest", str(tmp_path / "nope.manifest")]) == 2
    assert "nope.manifest" in capsys.readouterr().err
    # exactly one data source required
    assert main(["train", "--synthetic", "steps_chirp_1d",
                 "--manifest", "x.manifest"]) == 2
    assert main(["train"]) == 2
    assert main(["train", "--synthetic", "moebius"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    config = tmp_path / "bad.conf"
    config.write_text("synthetic = steps_chirp_1d\nwarp_speed = 9\n")
    assert main(["train", "--config", str(config)]) == 2
    assert "warp_speed" in capsys.readouterr().err
    # non-finite float settings, from a flag or a config file, name their key
    for flag, value in (("--learning-rate", "nan"), ("--noise-var", "nan"),
                        ("--noise-var", "inf"), ("--warp-noise-var", "nan"),
                        ("--lengthscale", "nan"), ("--sigma-gamma", "nan")):
        assert main(["train", *FAST, flag, value, "--output-dir", str(tmp_path)]) == 2
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    config.write_text("synthetic = steps_chirp_1d\nnoise_var = nan\n")
    assert main(["train", "--config", str(config)]) == 2
    assert "noise_var must be finite" in capsys.readouterr().err


def test_removed_gradient_mode_is_rejected(tmp_path, capsys):
    config = tmp_path / "old.conf"
    for key, value in (("gradient_mode", "finite-difference"), ("keep_best", "false")):
        config.write_text(f"synthetic = steps_chirp_1d\n{key} = {value}\n")
        assert main(["train", "--config", str(config)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    manifest = tmp_path / "old.manifest"
    manifest.write_text("path = d.csv\ntarget = y\ndrop_constant = false\n")
    assert main(["train", "--manifest", str(manifest)]) == 2
    assert "unknown manifest key(s) ['drop_constant']" in capsys.readouterr().err
    for flags in (["--gradient-mode", "1"], ["--fd-epsilon", "1"], ["--keep-best"],
                  ["--no-keep-best"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", *FAST, *flags])
        assert exit_info.value.code == 2


def test_run_flags_are_the_run_config_fields():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("train", "sweep-pseudo", "sweep-depth", "overfit-trace"):
        actions = {a.dest: a for a in sub.choices[command]._actions}
        run_flags = [a for a in actions.values()
                     if a.dest not in ("help", "config", "grid", "depths")]
        assert [a.dest for a in run_flags] == [f.name for f in fields(RunConfig)]
        for f, action in zip(fields(RunConfig), run_flags):
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is _COERCERS[f.name]
            assert action.help == f.metadata["help"]


def test_sweep_pseudo_table_and_byte_identical_rerun(tmp_path):
    args = ["sweep-pseudo", *FAST, "--depth", "1", "--grid", "3,5",
            "--output-dir", str(tmp_path)]
    assert main(args) == 0
    path = tmp_path / "steps_chirp_1d_sweep_pseudo.csv"
    rows = read_rows(path)
    assert len(rows) == 4  # 2 grid values x 2 repeats
    assert [r["n_pseudo"] for r in rows] == ["3", "3", "5", "5"]
    first = path.read_bytes()
    assert main(args) == 0
    assert path.read_bytes() == first  # no timing column, fully deterministic


def test_sweep_pseudo_validation(tmp_path, capsys):
    assert main(["sweep-pseudo", *FAST, "--grid", "", "--output-dir", str(tmp_path)]) == 2
    assert main(["sweep-pseudo", *FAST, "--grid", "4,x", "--output-dir", str(tmp_path)]) == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


def test_sweep_depth_reduction_cross_check(tmp_path):
    assert main(["sweep-depth", *FAST, "--depths", "0,1",
                 "--output-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "steps_chirp_1d_sweep_depth.csv")
    assert len(rows) == 5  # 2 depths x 2 repeats + the depth-0 cross-check
    check = rows[-1]
    assert check["repeat"] == "check0" and check["depth"] == "0"
    base = next(r for r in rows if r["depth"] == "0" and r["repeat"] == "0")
    # the rerun reproduces repeat 0 bit-for-bit
    assert check["rmse"] == base["rmse"] and check["mnlp"] == base["mnlp"]


def test_sweep_depth_rejects_unsupported(tmp_path, capsys):
    assert main(["sweep-depth", *FAST, "--depths", "0,5",
                 "--output-dir", str(tmp_path)]) == 2
    assert "unsupported depth(s) [5]" in capsys.readouterr().err


def test_overfit_trace_rows(tmp_path):
    assert main(["overfit-trace", *FAST, "--steps", "3", "--depth", "1",
                 "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / "steps_chirp_1d_overfit_trace.csv"
    rows = read_rows(path)
    assert len(rows) == 6  # steps x repeats
    for r in range(2):
        steps = [int(row["step"]) for row in rows if row["repeat"] == str(r)]
        assert steps == [1, 2, 3]
    # emitted table is loadable by the same ingestion pipeline
    ds = load_csv(path, "objective")
    assert len(ds) == 6 and np.all(np.isfinite(ds.X))


def test_overfit_trace_needs_steps(tmp_path):
    assert main(["overfit-trace", *FAST, "--steps", "0",
                 "--output-dir", str(tmp_path)]) == 2


def test_overfit_trace_single_step_boundary(tmp_path):
    assert main(["overfit-trace", *FAST, "--steps", "1", "--repeats", "1",
                 "--output-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "steps_chirp_1d_overfit_trace.csv")
    assert len(rows) == 1 and rows[0]["step"] == "1"


def test_overfit_trace_rejects_a_step_whose_gradient_is_not_finite(tmp_path):
    # at this learning rate some candidates have a finite objective whose
    # backward pass goes NaN; train rejects them and halves the rate
    args = ["overfit-trace", "--synthetic", "steps_chirp_1d", "--n", "120",
            "--noise-std", "0.05", "--M", "16", "--M-w", "8", "--n-pseudo", "8",
            "--seed", "3", "--depth", "2", "--steps", "8", "--repeats", "2",
            "--learning-rate", "100", "--output-dir", str(tmp_path)]
    assert main(args) == 0  # quietly: any warning fails the suite
    rows = read_rows(tmp_path / "steps_chirp_1d_overfit_trace.csv")
    assert len(rows) == 2 * 8
    # a rejected step records the objective of the last accepted one again
    assert any(a["repeat"] == b["repeat"] and a["objective"] == b["objective"]
               for a, b in zip(rows, rows[1:]))


def trained_model_path(tmp_path, depth):
    args = ["train", *FAST, "--depth", str(depth), "--repeats", "1", "--steps", "1",
            "--output-dir", str(tmp_path)]
    assert main(args) == 0
    return tmp_path / f"steps_chirp_1d_depth{depth}_repeat0.model.json"


def test_export_warp_tables(tmp_path):
    model_path = trained_model_path(tmp_path, depth=1)
    assert main(["export-warp", "--model", str(model_path), "--grid", "0:1:7",
                 "--output-dir", str(tmp_path)]) == 0
    grid_rows = read_rows(tmp_path / "steps_chirp_1d_depth1_repeat0_warp_grid.csv")
    assert len(grid_rows) == 7
    assert list(grid_rows[0]) == ["x1", "warp_mean_1", "warp_var_1", "pred_mean", "pred_var"]
    pseudo_rows = read_rows(tmp_path / "steps_chirp_1d_depth1_repeat0_pseudo.csv")
    assert len(pseudo_rows) == 2 * 3  # two roles x n_pseudo, one layer
    # pseudo positions round-trip against the saved document bit-exactly
    model = load(model_path)
    g_rows = [r for r in pseudo_rows if r["role"] == "g"]
    got = np.array([[float(r["x1"]), float(r["target_1"])] for r in g_rows])
    want = np.column_stack([model.stack.layers[0].Xg, model.stack.layers[0].Yg])
    np.testing.assert_array_equal(got, want)


def test_export_warp_propagates_each_grid_chunk_once(tmp_path, monkeypatch):
    # every propagate call through a depth-1 stack warps its rows once
    model_path = trained_model_path(tmp_path, depth=1)
    calls = []
    counted = warp_stack.warp_point

    def counting(layer, x):
        calls.append(len(x))
        return counted(layer, x)

    monkeypatch.setattr(warp_stack, "warp_point", counting)
    rows = PREDICT_CHUNK_ROWS + 5  # a full chunk and a tail
    for count, chunks in ((7, [7]), (rows, [PREDICT_CHUNK_ROWS, 5])):
        calls.clear()
        assert main(["export-warp", "--model", str(model_path), "--grid", f"0:1:{count}",
                     "--output-dir", str(tmp_path)]) == 0
        assert calls == chunks
        grid_rows = read_rows(tmp_path / "steps_chirp_1d_depth1_repeat0_warp_grid.csv")
        assert len(grid_rows) == count
    mean, var = predict_f(load(model_path), np.linspace(0, 1, rows)[:, None])
    np.testing.assert_array_equal([float(r["pred_mean"]) for r in grid_rows], mean)
    np.testing.assert_array_equal([float(r["pred_var"]) for r in grid_rows], var)


def test_export_warp_depth0_identity(tmp_path):
    model_path = trained_model_path(tmp_path, depth=0)
    assert main(["export-warp", "--model", str(model_path), "--grid=-1:1:9",
                 "--output-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "steps_chirp_1d_depth0_repeat0_warp_grid.csv")
    assert len(rows) == 9
    for row in rows:
        assert float(row["warp_mean_1"]) == float(row["x1"])
        assert float(row["warp_var_1"]) == 0.0


def test_export_warp_validation(tmp_path, capsys):
    assert main(["export-warp", "--model", str(tmp_path / "ghost.model.json"),
                 "--grid", "0:1:5", "--output-dir", str(tmp_path)]) == 2
    assert "ghost.model.json" in capsys.readouterr().err
    model_path = trained_model_path(tmp_path, depth=0)
    for bad in ("0:1:5,0:1:5", "0:1", "1:0:5"):
        assert main(["export-warp", "--model", str(model_path), "--grid", bad,
                     "--output-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    # a non-finite grid point would be predicted as a nan row
    for bad in ("nan:1:3", "0:inf:3", "-inf:0:3", "-1e308:1e308:3"):
        assert main(["export-warp", "--model", str(model_path), f"--grid={bad}",
                     "--output-dir", str(tmp_path)]) == 2
        assert f"bad grid part {bad!r}" in capsys.readouterr().err


def blob(a):
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "<f8": base64.b64encode(a.tobytes()).decode("ascii")}


def drop(part, key):
    del part[key]


def truncate(part, key):
    raw = base64.b64decode(part[key]["<f8"])
    part[key]["<f8"] = base64.b64encode(raw[:-8]).decode("ascii")


def set_entry(part, key, i, value):
    a = np.frombuffer(base64.b64decode(part[key]["<f8"]), dtype="<f8").copy()
    a[i] = value
    part[key] = blob(a.reshape(part[key]["shape"]))


# edit of a saved version-2 document, and the field the error must name
MALFORMED = {
    "missing theta": (lambda d: drop(d, "theta"), "missing field theta"),
    "short base_draws": (lambda d: d["base_draws"].update({"layer0.g": blob(np.ones((2, 1)))}),
                         "base_draws.layer0.g has shape (2, 1), expected (3, 1)"),
    "truncated alpha bytes": (lambda d: truncate(d["top_posterior"], "alpha"),
                              "top_posterior.alpha holds 56 bytes"),
    "short alpha": (lambda d: d["top_posterior"].update({"alpha": blob([0.5, 0.5])}),
                    "top_posterior.alpha has shape (2,)"),
    "wide proj_y": (lambda d: d["top_posterior"].update({"proj_y": blob(np.ones((8, 2)))}),
                    "top_posterior.proj_y has shape (8, 2)"),
    "square factor of the wrong size": (
        lambda d: d["top_posterior"].update({"factor": blob(np.eye(2))}),
        "top_posterior.factor has shape (2, 2), expected (8, 8)"),
    "upper-triangular factor": (
        lambda d: d["top_posterior"].update({"factor": blob(np.ones((8, 8)))}),
        "top_posterior.factor is not a lower Cholesky factor"),
    "non-finite theta": (lambda d: d.update({"theta": blob(np.full(21, np.nan))}),
                         "theta has non-finite values"),
    "unfittable warp amplitude": (lambda d: set_entry(d, "theta", 4, 1e308),
                                  "theta does not give a fittable model: warp layer 0"),
    "overflowing top amplitude": (
        lambda d: set_entry(d, "theta", 1, 1e308),
        "theta does not give a fittable model: non-finite values in the top level's amplitude"),
    "missing noise variance": (lambda d: drop(d["top_posterior"], "noise_var"),
                               "missing field top_posterior.noise_var"),
    "depth out of range": (lambda d: d.update({"n_layers": 7}), "n_layers is 7"),
    "input_dim past uint64": (lambda d: d.update({"input_dim": 2**64}),
                              "schema does not match input_dim"),
    "n_pseudo past uint64": (lambda d: d.update({"n_pseudo": 2**64}),
                            "schema does not match input_dim, n_layers and n_pseudo"),
    "version-1 document": (lambda d: d.update({"version": 1}),
                           "is not a version-2 model document"),
}


@pytest.fixture(scope="module")
def model_document(tmp_path_factory):
    return trained_model_path(tmp_path_factory.mktemp("trained"), depth=1).read_text()


# the theta[.] = 1e308 cases overflow in exp; load rejects them without a
# warning (the suite turns every warning into an error)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_export_warp_names_malformed_model_field(case, model_document, tmp_path, capsys):
    edit, message = MALFORMED[case]
    doc = json.loads(model_document)
    edit(doc)
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        load(path)
    assert main(["export-warp", "--model", str(path), "--grid", "0:1:3",
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_train_saves_byte_identical_models_on_rerun(tmp_path):
    for run in ("first", "second"):
        assert main(["train", *FAST, "--depth", "1", "--output-dir", str(tmp_path / run)]) == 0
    for r in range(2):
        name = f"steps_chirp_1d_depth1_repeat{r}.model.json"
        first, second = (tmp_path / run / name for run in ("first", "second"))
        assert first.read_bytes() == second.read_bytes()


def test_gen_synthetic(tmp_path, capsys):
    out = tmp_path / "chirp.csv"
    assert main(["gen-synthetic", "--kind", "steps_chirp_1d", "--n", "25",
                 "--noise-std", "0.0", "--output", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    ds = load_csv(out, "y")
    assert len(ds) == 25 and ds.columns == ["x1"]
    assert main(["gen-synthetic", "--kind", "donut", "--output", str(out)]) == 2
    for bad in ("nan", "inf", "-1"):
        assert main(["gen-synthetic", "--kind", "gramacy_2d", "--noise-std", bad,
                     "--output", str(tmp_path / "bad.csv")]) == 2
    assert not (tmp_path / "bad.csv").exists()


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SSWIM_OUTPUT_DIR", str(tmp_path / "fromenv"))
    assert main(["gen-synthetic", "--kind", "gramacy_2d", "--n", "10"]) == 0
    assert (tmp_path / "fromenv" / "gramacy_2d.csv").exists()
