"""Command-line entry point.

Subcommands: train, eval, forces, gradcheck, ablate-basis, attn-dump.
All artifacts are files; numeric CSV output keeps 17 significant digits.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
The environment variable ``GEOATTN_OUT_DIR`` overrides the output directory.
The process keeps freed memory for reuse (glibc only); see :func:`_keep_heap`.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .attention import AttentionRecord, format_attention_csv
from .config import KEYS, RunConfig
from .data import (Dataset, load_dataset, parse_xyz_frames, split_dataset,
                   write_xyz_frames)
from .errors import ConfigError, DataError, UsageError
from .geometry import Molecule, distance_matrix
from .gradcheck import THRESHOLD, force_gradcheck
from .model import GeoTModel, ModelConfig, load_checkpoint, save_checkpoint
from .training import (SyntheticSpec, TrainConfig, generate_synthetic, train,
                       training_splits)


@functools.lru_cache(maxsize=1)
def _keep_heap() -> bool:
    """Keep freed memory in the glibc heap, so that a force call does not
    fault in again the pages the previous one freed.  Setting one threshold
    alone turns off glibc's dynamic thresholds, so both are set.  Returns
    whether they were; does nothing where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(-1, 1 << 30) == 1             # M_TRIM_THRESHOLD
            and mallopt(-3, 32 << 20) == 1)       # M_MMAP_THRESHOLD, at glibc's cap


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("run config keys (override the file)")
    for key, (typ, default) in KEYS.items():
        shown = ",".join(map(str, default)) if typ is tuple else repr(default)
        group.add_argument(f"--{key}", dest=f"cfg_{key}", default=None,
                           metavar="V", help=f"{typ.__name__}, default {shown}")


def _run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = RunConfig.load(path)
    else:
        cfg = RunConfig()
    overrides = {key: getattr(args, f"cfg_{key}")
                 for key in KEYS if getattr(args, f"cfg_{key}", None) is not None}
    cfg = cfg.override(overrides)
    env_out = os.environ.get("GEOATTN_OUT_DIR")
    if env_out:
        cfg = cfg.override({"out_dir": env_out})
    return cfg


def _build_dataset(cfg: RunConfig) -> Dataset:
    fractions = (cfg["train_fraction"], cfg["val_fraction"], cfg["test_fraction"])
    if cfg["data_path"]:
        if not Path(cfg["data_path"]).exists():
            raise ConfigError(f"dataset not found: {cfg['data_path']}")
        data = load_dataset(cfg["data_path"], fractions, cfg["seed"])
    else:
        data = generate_synthetic(cfg.build(SyntheticSpec), seed=cfg["seed"])
        data = split_dataset(data, fractions, cfg["seed"])
    training_splits(data)       # refuse unusable data before any output exists
    return data


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = _run_config(args)
    model_cfg, train_cfg = cfg.build(ModelConfig), cfg.build(TrainConfig)
    dataset = _build_dataset(cfg)
    out = _out_dir(cfg)
    model = GeoTModel.init(model_cfg, seed=cfg["seed"])
    result = train(model, dataset, train_cfg)
    (out / "metrics.csv").write_text(result.metrics_csv())
    if result.best_checkpoint is not None:
        (out / "best.npz").write_bytes(result.best_checkpoint)
    if result.stopped == "diverged":
        print("training diverged; last good checkpoint kept", file=sys.stderr)
        return 1
    save_checkpoint(model, out / "final.npz")
    print(f"trained {result.steps_run} steps ({result.stopped}); "
          f"best val MAE {result.best_val_mae:.6g}; artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    with open(args.data) as fh:
        mols = parse_xyz_frames(fh.read())
    forced = [m for m in mols if m.forces is not None]
    scored = [m for m in mols if m.forces is None and m.energy is not None]
    # predictions in frame order, small frames several to a graph
    forced_out = iter(model.energies_and_forces(forced) if forced else [])
    scored_out = iter(model.energies(scored) if scored else [])
    errors = {"energy": [], "forces": []}      # one entry per labeled frame
    for m in mols:
        if m.forces is not None:
            energy, pred = next(forced_out)
            if model.config.force_sign == "paper":
                pred = -pred     # labels are physical forces
            errors["forces"].append(np.mean(np.abs(pred - m.forces)))
        elif m.energy is not None:
            energy = next(scored_out)
        if m.energy is not None:
            errors["energy"].append(abs(energy - m.energy))
    rows = [(t, float(np.mean(errs)), len(errs)) for t, errs in errors.items() if errs]
    if not rows:
        raise UsageError("no labeled molecules to evaluate")
    lines = ["target,mae"] + [f"{t},{v:.17g}" for t, v, _ in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    for t, v, n in rows:
        print(f"MAE[{t}] = {v:.8g} over {n} of {len(mols)} frames")
    return 0


def cmd_forces(args) -> int:
    model = load_checkpoint(args.checkpoint)
    model.config.force_sign = args.sign
    with open(args.xyz) as fh:
        mols = parse_xyz_frames(fh.read())
    out_mols = [Molecule(mol.atomic_numbers, mol.coords, energy=energy, forces=forces)
                for mol, (energy, forces) in zip(mols, model.energies_and_forces(mols))]
    text = write_xyz_frames(out_mols)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 0:
        raise UsageError(f"--trials must be >= 0, got {args.trials}")
    cfg = None
    if args.config:
        cfg = _run_config(args).build(ModelConfig)
    if args.trials == 0:
        print("warning: 0 trials requested; nothing checked, trivially passing")
        return 0
    report = force_gradcheck(n_trials=args.trials, seed=args.seed, config=cfg)
    for i, err in enumerate(report.per_trial):
        print(f"trial {i}: rel err {err:.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}: max rel err {report.max_rel_error:.3e} "
          f"(threshold {THRESHOLD:g})")
    return 0 if report.passed else 1


def cmd_ablate_basis(args) -> int:
    cfg = _run_config(args)
    dataset = _build_dataset(cfg)
    out = _out_dir(cfg)
    rows = []
    for kind in ("gaussian", "linear", "bessel"):
        run = cfg.override({"basis_kind": kind})
        model = GeoTModel.init(run.build(ModelConfig), seed=run["seed"])
        result = train(model, dataset, run.build(TrainConfig))
        rows.append((kind, result.best_val_mae))
        print(f"{kind}: val MAE {result.best_val_mae:.6g}")
    text = "basis,val_mae\n" + "".join(f"{k},{v:.17g}\n" for k, v in rows)
    (out / "ablation.csv").write_text(text)
    return 0


def cmd_attn_dump(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.config.use_softmax_baseline:
        raise ConfigError("attention dump needs the geometry-gated path")
    with open(args.xyz) as fh:
        frames = parse_xyz_frames(fh.read())
    if len(frames) != 1:
        raise UsageError(f"attn-dump takes one XYZ frame, {args.xyz} holds {len(frames)}")
    mol = frames[0]
    trace: list[AttentionRecord] = []
    model.forward_parts(mol, trace=trace)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    attn_path = Path(f"{prefix}_attention.csv")
    attn_path.write_text(format_attention_csv(trace))
    dist = distance_matrix(mol.coords)
    lines = ["layer,i,j,distance,norm"]
    for layer, rec in enumerate(trace):
        norm = rec.norm_map()[0]
        n = norm.shape[0]
        for i in range(n):
            for j in range(n):
                lines.append(f"{layer},{i},{j},{dist[i, j]:.17g},{norm[i, j]:.17g}")
    pairs_path = Path(f"{prefix}_pairs.csv")
    pairs_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {attn_path} and {pairs_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoattn",
        description="Geometry-gated transformer for molecular energies and forces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("config", help="path to a key = value run config")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="report MAE of a checkpoint on an XYZ file")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--out", default=None, help="also write a CSV report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("forces", help="predict energy and forces for XYZ input")
    p.add_argument("checkpoint")
    p.add_argument("xyz")
    p.add_argument("--sign", choices=("paper", "physical"), default="paper")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_forces)

    p = sub.add_parser("gradcheck", help="finite-difference force verification")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="optional run config fixing the architecture")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate-basis",
                       help="train one model per basis family, same budget and seed")
    p.add_argument("config")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_ablate_basis)

    p = sub.add_parser("attn-dump", help="export head-averaged attention maps")
    p.add_argument("checkpoint")
    p.add_argument("xyz")
    p.add_argument("--out-prefix", default="attn")
    p.set_defaults(fn=cmd_attn_dump)

    return parser


def main(argv=None) -> int:
    _keep_heap()    # here only: library code leaves its host's allocator alone
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
