"""Command-line driver for experiment protocols and artifact export.

Subcommands: train, sweep-pseudo, sweep-depth, overfit-trace, export-warp,
gen-synthetic. Run settings are the fields of :class:`RunConfig`: defaults,
then an optional key=value config file, then explicit flags (flags win). Each
field is one config key and one flag, named by the field with "_" read as
"-", and carries its help text. A float setting must be finite. All
outputs are CSV with headers, written under --output-dir, the
SSWIM_OUTPUT_DIR environment variable, or the working directory.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import load_from_manifest, read_key_value_file, split, standardize
from .metrics import MetricReport, aggregate, mnlp, report_row, rmse, write_report
from .model import build_model, load, predict_f, save
from .synthetic import KINDS, SyntheticSpec, gen, write_csv
from .train import TrainConfig, train
from .warp_stack import MAX_DEPTH, propagate

OUTPUT_DIR_ENV = "SSWIM_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid configuration; reported with exit code 2."""


def _setting(default, help=None):
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    manifest: str = _setting(None, "dataset manifest path")
    synthetic: str = _setting(None, f"synthetic kind, one of {KINDS}")
    n: int = _setting(400, "synthetic sample count")
    noise_std: float = _setting(0.05, "synthetic target noise std")
    depth: int = _setting(1, f"warp layers, 0..{MAX_DEPTH}")
    M: int = _setting(100, "top-level frequency count")
    M_w: int = _setting(None, "warp frequency count (default: M)")
    n_pseudo: int = _setting(64, "pseudo pairs per warp regressor")
    sigma_gamma: float = _setting(0.1, "pseudo-target init spread")
    lengthscale: float = _setting(1.0, "initial top lengthscale")
    warp_lengthscale: float = _setting(None, "initial warp lengthscale (default: lengthscale)")
    noise_var: float = _setting(0.1, "initial top noise variance")
    warp_noise_var: float = _setting(1e-4, "initial warp noise variance")
    steps: int = _setting(150)
    learning_rate: float = _setting(0.01)
    repeats: int = _setting(10)
    seed: int = _setting(0)
    train_fraction: float = _setting(2.0 / 3.0)
    output_dir: str = _setting(None)


_COERCERS = {f.name: {"str": str, "int": int, "float": float}[f.type] for f in fields(RunConfig)}


def _effective_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        for key, raw in read_key_value_file(path).items():
            if key not in _COERCERS:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            try:
                values[key] = _COERCERS[key](raw)
            except ValueError as e:
                raise ConfigError(f"{path}: bad value for {key}: {e}") from None
    for key in _COERCERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    return replace(RunConfig(), **values)


def _validate_run(cfg: RunConfig):
    if cfg.repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if not 0 <= cfg.depth <= MAX_DEPTH:
        raise ConfigError(f"depth must be in 0..{MAX_DEPTH}")
    if cfg.M < 1 or (cfg.M_w is not None and cfg.M_w < 1) or cfg.n_pseudo < 1:
        raise ConfigError("M, M_w, and n_pseudo must be >= 1")
    if cfg.steps < 0:
        raise ConfigError("steps must be >= 0")
    if cfg.learning_rate <= 0:
        raise ConfigError("learning_rate must be positive")
    if cfg.lengthscale <= 0 or (cfg.warp_lengthscale is not None and cfg.warp_lengthscale <= 0):
        raise ConfigError("lengthscales must be positive")
    if not 0 < cfg.train_fraction < 1:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")


def _output_dir(path_or_none) -> Path:
    path = Path(path_or_none or os.environ.get(OUTPUT_DIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(cfg: RunConfig):
    if (cfg.manifest is None) == (cfg.synthetic is None):
        raise ConfigError("exactly one of manifest= or synthetic= must be given")
    if cfg.manifest is not None:
        path = Path(cfg.manifest)
        if not path.exists():
            raise ConfigError(f"manifest file {path} does not exist")
        return load_from_manifest(path)
    if cfg.n < 2:
        raise ConfigError("synthetic runs need n >= 2")
    return gen(SyntheticSpec(cfg.synthetic, cfg.n, cfg.noise_std, cfg.seed))


def _repeat_seeds(cfg: RunConfig):
    return np.random.SeedSequence(cfg.seed).spawn(cfg.repeats)


def _run_repeat(dataset, cfg: RunConfig, child, with_trace=False):
    """One full repeat: split, standardize, build, train, evaluate.

    With ``with_trace`` the trace also records test RMSE and MNLP per step.
    """
    split_seed, model_seed = child.spawn(2)
    train_raw, test_raw = split(dataset, cfg.train_fraction, split_seed)
    train_set, test_set, _ = standardize(train_raw, test_raw)
    model = build_model(train_set.X, n_layers=cfg.depth, M=cfg.M, M_w=cfg.M_w,
                        n_pseudo=cfg.n_pseudo, sigma_gamma=cfg.sigma_gamma,
                        lengthscale=cfg.lengthscale, warp_lengthscale=cfg.warp_lengthscale,
                        noise_var=cfg.noise_var, warp_noise_var=cfg.warp_noise_var,
                        seed=model_seed)
    config = TrainConfig(steps=cfg.steps, learning_rate=cfg.learning_rate)
    started = time.perf_counter()
    model, trace = train(model, train_set.X, train_set.y, config,
                         (test_set.X, test_set.y) if with_trace else None)
    wall = time.perf_counter() - started
    mu, var = predict_f(model, test_set.X)
    report = MetricReport(rmse(test_set.y, mu), mnlp(test_set.y, mu, var), len(test_set.y))
    return model, trace, report, wall


def cmd_train(cfg: RunConfig) -> int:
    _validate_run(cfg)
    dataset = _load_dataset(cfg)
    out = _output_dir(cfg.output_dir)
    rows, reports, diverged = [], [], False
    for r, child in enumerate(_repeat_seeds(cfg)):
        model, trace, rep, wall = _run_repeat(dataset, cfg, child)
        diverged = diverged or trace.diverged
        save(model, out / f"{dataset.name}_depth{cfg.depth}_repeat{r}.model.json")
        rows.append(report_row(dataset.name, "sswim", cfg.depth, cfg.M, cfg.n_pseudo,
                               r, rep.rmse, rep.mnlp, round(wall, 3)))
        reports.append(rep)
    agg = aggregate(reports)
    for tag, rm, mn in (("mean", agg["rmse_mean"], agg["mnlp_mean"]),
                        ("std", agg["rmse_std"], agg["mnlp_std"])):
        rows.append(report_row(dataset.name, "sswim", cfg.depth, cfg.M, cfg.n_pseudo,
                               tag, rm, mn, ""))
    path = write_report(out / f"{dataset.name}_train_report.csv", rows)
    print(f"{dataset.name}: rmse {agg['rmse_mean']:.4f} +/- {agg['rmse_std']:.4f}, "
          f"mnlp {agg['mnlp_mean']:.4f} ({cfg.repeats} repeats); report {path}")
    return 1 if diverged else 0


def _sweep(cfg: RunConfig, key, values):
    """Every repeat at each value of the ``RunConfig`` field ``key``.

    Returns the dataset, one table row per (value, repeat) and the mean test
    RMSE per value.
    """
    dataset = _load_dataset(cfg)
    rows, mean_rmse = [], {}
    for value in values:
        reports = [_run_repeat(dataset, replace(cfg, **{key: value}), child)[2]
                   for child in _repeat_seeds(cfg)]
        rows += [{key: value, "repeat": r, "rmse": rep.rmse, "mnlp": rep.mnlp}
                 for r, rep in enumerate(reports)]
        mean_rmse[value] = aggregate(reports)["rmse_mean"]
    return dataset, rows, mean_rmse


def cmd_sweep_pseudo(cfg: RunConfig, grid) -> int:
    _validate_run(cfg)
    if not grid:
        raise ConfigError("n_pseudo grid must be nonempty")
    if any(v < 1 for v in grid):
        raise ConfigError("n_pseudo grid values must be >= 1")
    dataset, rows, mean_rmse = _sweep(cfg, "n_pseudo", grid)
    path = write_report(_output_dir(cfg.output_dir) / f"{dataset.name}_sweep_pseudo.csv",
                        rows, ("n_pseudo", "repeat", "rmse", "mnlp"))
    if mean_rmse[max(grid)] > mean_rmse[min(grid)]:
        print(f"warning: mean RMSE at n_pseudo={max(grid)} exceeds n_pseudo={min(grid)}",
              file=sys.stderr)
    print(f"{dataset.name}: pseudo sweep over {sorted(grid)}; table {path}")
    return 0


def cmd_sweep_depth(cfg: RunConfig, depths) -> int:
    _validate_run(cfg)
    if not depths:
        raise ConfigError("depth list must be nonempty")
    unsupported = sorted(d for d in depths if not 0 <= d <= MAX_DEPTH)
    if unsupported:
        raise ConfigError(f"unsupported depth(s) {unsupported}; supported range is 0..{MAX_DEPTH}")
    dataset, rows, mean_rmse = _sweep(cfg, "depth", depths)
    if 0 in depths:
        # independent rerun of the depth-0 first repeat as a reduction cross-check
        rep = _run_repeat(dataset, replace(cfg, depth=0), _repeat_seeds(cfg)[0])[2]
        rows.append({"depth": 0, "repeat": "check0", "rmse": rep.rmse, "mnlp": rep.mnlp})
    path = write_report(_output_dir(cfg.output_dir) / f"{dataset.name}_sweep_depth.csv",
                        rows, ("depth", "repeat", "rmse", "mnlp"))
    if 0 in mean_rmse and 1 in mean_rmse and mean_rmse[1] >= mean_rmse[0]:
        print("warning: one warp layer did not improve mean RMSE over the flat model",
              file=sys.stderr)
    print(f"{dataset.name}: depth sweep over {sorted(set(depths))}; table {path}")
    return 0


def cmd_overfit_trace(cfg: RunConfig) -> int:
    _validate_run(cfg)
    if cfg.steps < 1:
        raise ConfigError("overfit-trace needs steps >= 1")
    dataset = _load_dataset(cfg)
    out = _output_dir(cfg.output_dir)
    rows, diverged = [], False
    for r, child in enumerate(_repeat_seeds(cfg)):
        _, trace, _, _ = _run_repeat(dataset, cfg, child, with_trace=True)
        diverged = diverged or trace.diverged
        for step in range(1, len(trace.objectives)):
            rows.append({"repeat": r, "step": step,
                         "objective": trace.objectives[step],
                         "test_rmse": trace.test_rmse[step],
                         "test_mnlp": trace.test_mnlp[step]})
    path = write_report(out / f"{dataset.name}_overfit_trace.csv", rows,
                        ("repeat", "step", "objective", "test_rmse", "test_mnlp"))
    print(f"{dataset.name}: per-step trace ({len(rows)} rows); table {path}")
    return 1 if diverged else 0


def _parse_grid_spec(text, dim):
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != dim:
        raise ConfigError(f"grid spec needs {dim} comma-separated lo:hi:count parts, got {len(parts)}")
    axes = []
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"bad grid part {part!r}; expected lo:hi:count")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise ConfigError(f"bad grid part {part!r}") from None
        if count < 1 or not (lo <= hi and math.isfinite(hi - lo)):  # rejects nan and inf
            raise ConfigError(f"bad grid part {part!r}")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def cmd_export_warp(model_path, grid_spec, out: Path) -> int:
    path = Path(model_path)
    if not path.exists():
        raise ConfigError(f"model file {path} does not exist")
    model = load(path)
    if model.top_post is None:
        raise ConfigError(f"{path} holds no fitted posterior; train before exporting")
    d = model.input_dim
    grid = _parse_grid_spec(grid_spec, d)
    gi = propagate(model.stack, grid)
    mu, var = predict_f(model, grid)

    stem = path.name.removesuffix(".json").removesuffix(".model")
    coord_cols = [f"x{i + 1}" for i in range(d)]
    grid_cols = (coord_cols + [f"warp_mean_{i + 1}" for i in range(d)]
                 + [f"warp_var_{i + 1}" for i in range(d)] + ["pred_mean", "pred_var"])
    grid_rows = [dict(zip(grid_cols, map(float, row)))
                 for row in np.column_stack([grid, gi.mean, gi.var, mu, var])]
    grid_path = write_report(out / f"{stem}_warp_grid.csv", grid_rows, grid_cols)

    pseudo_cols = (["layer", "role", "index"] + coord_cols
                   + [f"target_{i + 1}" for i in range(d)])
    pseudo_rows = []
    for j, layer in enumerate(model.stack.layers):
        for role, xs, ys in (("g", layer.Xg, layer.Yg), ("h", layer.Xh, layer.Yh)):
            for i, values in enumerate(np.column_stack([xs, ys])):
                row = {"layer": j, "role": role, "index": i}
                row.update(zip(pseudo_cols[3:], map(float, values)))
                pseudo_rows.append(row)
    pseudo_path = write_report(out / f"{stem}_pseudo.csv", pseudo_rows, pseudo_cols)
    print(f"exported {grid_path} and {pseudo_path}")
    return 0


def cmd_gen_synthetic(kind, n, noise_std, seed, output, out_dir: Path) -> int:
    dataset = gen(SyntheticSpec(kind, n, noise_std, seed))
    path = Path(output) if output else out_dir / f"{kind}.csv"
    write_csv(dataset, path)
    print(path)
    return 0


def _parse_int_list(text, what):
    if text is None:
        return []
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad {what} list {text!r}; expected comma-separated integers") from None


def _add_run_flags(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file; explicit flags override it")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_COERCERS[f.name],
                            help=f.metadata["help"])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sswim",
        description="Sparse spectrum GP regression with learned measure-valued input warpings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one configuration over repeats")
    _add_run_flags(p)
    p.set_defaults(func=lambda a: cmd_train(_effective_config(a)))

    p = sub.add_parser("sweep-pseudo", help="repeat training over an n_pseudo grid")
    _add_run_flags(p)
    p.add_argument("--grid", help="comma-separated n_pseudo values")
    p.set_defaults(func=lambda a: cmd_sweep_pseudo(_effective_config(a),
                                                   _parse_int_list(a.grid, "grid")))

    p = sub.add_parser("sweep-depth", help="repeat training over warp depths")
    _add_run_flags(p)
    p.add_argument("--depths", help="comma-separated depths from 0..3")
    p.set_defaults(func=lambda a: cmd_sweep_depth(_effective_config(a),
                                                  _parse_int_list(a.depths, "depths")))

    p = sub.add_parser("overfit-trace", help="record per-step test metrics while training")
    _add_run_flags(p)
    p.set_defaults(func=lambda a: cmd_overfit_trace(_effective_config(a)))

    p = sub.add_parser("export-warp", help="export warp surfaces and pseudo points of a saved model")
    p.add_argument("--model", required=True, help="saved model document")
    p.add_argument("--grid", required=True, help="per-dimension lo:hi:count, comma-separated")
    p.add_argument("--output-dir")
    p.set_defaults(func=lambda a: cmd_export_warp(a.model, a.grid, _output_dir(a.output_dir)))

    p = sub.add_parser("gen-synthetic", help="write a synthetic dataset as CSV")
    p.add_argument("--kind", required=True, help=f"one of {KINDS}")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="output file (default: <output-dir>/<kind>.csv)")
    p.add_argument("--output-dir")
    p.set_defaults(func=lambda a: cmd_gen_synthetic(a.kind, a.n, a.noise_std, a.seed,
                                                    a.output, _output_dir(a.output_dir)))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ad.FactorizationError, ad.NonFiniteError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
