"""Command-line entry point: synth, train, eval, and sweep subcommands.

Exit codes: 0 success, 1 runtime/data error, 2 usage or configuration
error. A JSON config file may supply any config value; explicit flags win.
Each subcommand parses only the flags it reads; eval reads its config from
the checkpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attention import AttentionConfig
from .data import (SplitSpec, SynthSpec, check_snr_db, export_map, inject_noise,
                   load_cube, load_labels, normalize_bands, save_cube, save_labels,
                   stratified_split, synth_scene)
from .errors import AngleAttnError, ConfigError, FormatError, check_int
from .model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from .train import TrainConfig, evaluate, predict, rows_to_csv, sweep, train

# defaults follow the reference training protocol
CONFIG_DEFAULTS = {
    "patch": 16, "dim": 64, "depth": 4, "heads": 4, "mlp_dim": 128,
    "dropout": 0.1, "variant": "cs2", "norm_mode": None, "temperature": 0.5,
    "positional": "learnable", "epochs": 50, "batch": 128, "lr": 3e-4,
    "wd": 2e-4, "clip": 1.0, "clip_mode": "per_tensor", "smoothing": 0.05,
    "train_frac": 0.01, "val_frac": 0.01, "seed": 0, "snr_db": None,
    "classes": None, "cube": None, "labels": None, "out": None,
    "height": 64, "width": 64, "bands": 32, "sites": 24,
    "gain_lo": 0.5, "gain_hi": 1.5,
}


_PATH_KEYS = ("cube", "labels", "out")


def _check_paths(cfg):
    """The one value rule no config dataclass holds: a path is a string or null.
    Without it ``{"cube": 5}`` would make ``open`` read file descriptor 5."""
    for key in _PATH_KEYS:
        if cfg[key] is not None and not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a path string or null, got {cfg[key]!r}")


def load_config_file(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, "
                          f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return doc


def resolve_config(args):
    """defaults < config file < explicit flags."""
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in CONFIG_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    _check_paths(cfg)
    return cfg


def build_configs(cfg, bands, classes, split_seed):
    """(ModelConfig, TrainConfig, SplitSpec) from a resolved config; each checks
    its own values. A checkpoint's split takes its manifest's seed."""
    check_snr_db(cfg["snr_db"])
    attn = AttentionConfig(model_dim=cfg["dim"], heads=cfg["heads"], variant=cfg["variant"],
                           norm_mode=cfg["norm_mode"], temperature=cfg["temperature"])
    model_cfg = ModelConfig(
        bands=bands, num_classes=classes, patch_size=cfg["patch"],
        model_dim=cfg["dim"], depth=cfg["depth"], heads=cfg["heads"],
        mlp_dim=cfg["mlp_dim"], dropout_rate=cfg["dropout"],
        attention=attn, positional=cfg["positional"])
    tcfg = TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch"], lr=cfg["lr"],
        weight_decay=cfg["wd"], clip_norm=cfg["clip"],
        label_smoothing=cfg["smoothing"], seed=cfg["seed"],
        clip_mode=cfg["clip_mode"])
    split_spec = SplitSpec(train_frac=cfg["train_frac"], val_frac=cfg["val_frac"],
                           seed=split_seed)
    return model_cfg, tcfg, split_spec


def _require(cfg, *keys):
    missing = [k for k in keys if not cfg.get(k)]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + k for k in missing)}")


def _load_scene(cfg):
    _require(cfg, "cube", "labels")
    cube = load_cube(cfg["cube"])
    labels = load_labels(cfg["labels"])
    labels.check_pairing(cube)
    cube = normalize_bands(cube)
    if cfg["snr_db"] is not None:
        cube = inject_noise(cube, cfg["snr_db"], cfg["seed"])
    return cube, labels


def cmd_synth(args):
    cfg = resolve_config(args)
    _require(cfg, "out")
    spec = SynthSpec(height=cfg["height"], width=cfg["width"], bands=cfg["bands"],
                     classes=8 if cfg["classes"] is None else cfg["classes"], sites=cfg["sites"],
                     gain_lo=cfg["gain_lo"], gain_hi=cfg["gain_hi"],
                     snr_db=cfg["snr_db"], seed=cfg["seed"])
    cube, labels = synth_scene(spec)
    os.makedirs(cfg["out"], exist_ok=True)
    save_cube(os.path.join(cfg["out"], "scene.npy"), cube)
    save_labels(os.path.join(cfg["out"], "labels.npy"), labels)
    counts = np.bincount(labels.ids.reshape(-1), minlength=spec.classes + 1)
    print(f"wrote {spec.height}x{spec.width}x{spec.bands} scene to {cfg['out']}")
    for k in range(1, spec.classes + 1):
        print(f"  class {k}: {counts[k]} pixels")
    return 0


def cmd_train(args):
    cfg = resolve_config(args)
    _require(cfg, "out")
    cube, labels = _load_scene(cfg)
    classes = labels.num_classes if cfg["classes"] is None else cfg["classes"]
    model_cfg, tcfg, split_spec = build_configs(cfg, cube.bands, classes, cfg["seed"])
    splits = stratified_split(labels, split_spec)
    params, log, best_epoch = train(model_cfg, cube, labels, splits, tcfg)
    manifest_cfg = dict(cfg)
    manifest_cfg["classes"] = classes
    manifest_cfg["scene_bands"] = cube.bands
    save_checkpoint(cfg["out"], params, manifest_cfg, cfg["seed"], best_epoch)
    with open(os.path.join(cfg["out"], "epochs.jsonl"), "w") as f:
        for entry in log:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    final = log[-1]["val_oa"] if log else float("nan")
    print(f"checkpoint written to {cfg['out']} (best epoch {best_epoch}, "
          f"last val OA {100 * final:.2f})")
    return 0


def _params_from_checkpoint(path):
    values, manifest = load_checkpoint(path)
    missing = sorted({"scene_bands", "classes"} - set(manifest["config"]))
    if missing:
        raise FormatError(f"checkpoint config in {path} lacks {', '.join(missing)}")
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(manifest["config"])
    try:
        _check_paths(cfg)
        check_int("epoch", manifest["epoch"], 0)
        model_cfg, _, split_spec = build_configs(cfg, cfg["scene_bands"], cfg["classes"],
                                                 manifest["seed"])
    except ConfigError as exc:
        raise FormatError(f"checkpoint config in {path}: {exc}") from None
    params = init_params(model_cfg, manifest["seed"])
    want = {name: t.shape for name, t in params.named_parameters()}
    got = {name: v.shape for name, v in values.items()}
    mismatched = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    if mismatched:
        raise FormatError(f"checkpoint {path} does not match its config; mismatched params: "
                          f"{', '.join(mismatched[:4])}")
    params.load_values(values)
    return params, model_cfg, split_spec, cfg, manifest


def cmd_eval(args):
    params, model_cfg, split_spec, cfg, manifest = _params_from_checkpoint(args.checkpoint)
    if args.cube:
        cfg["cube"] = args.cube
    if args.labels:
        cfg["labels"] = args.labels
    cube, labels = _load_scene(cfg)
    if cube.bands != model_cfg.bands:
        raise ConfigError(f"cube has {cube.bands} bands, checkpoint expects {model_cfg.bands}")
    _, _, test_idx = stratified_split(labels, split_spec)
    report = evaluate(params, model_cfg, cube, labels, test_idx)
    print(f"OA={100 * report.oa:.2f} AA={100 * report.aa:.2f} kappa={100 * report.kappa:.2f}")
    if args.out:
        row = {"variant": cfg["variant"], "seed": manifest["seed"],
               "epoch_best": manifest["epoch"], "oa": report.oa, "aa": report.aa,
               "kappa": report.kappa, "train_seconds": 0.0, "snr_db": cfg["snr_db"]}
        with open(args.out, "w") as f:
            f.write(rows_to_csv([row]))
    if args.map or args.map_npy:
        flat = np.arange(labels.ids.size)
        preds = predict(params, model_cfg, cube, flat).reshape(labels.ids.shape)
        if args.map:
            export_map(preds, args.map, num_classes=model_cfg.num_classes)
        if args.map_npy:
            np.save(args.map_npy, preds.astype("<u2"))
    return 0


def _parse_list(text, cast, flag):
    try:
        return [cast(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list, got {text!r}") from None


def cmd_sweep(args):
    cfg = resolve_config(args)
    variants = _parse_list(args.variants, str, "--variants")
    seeds = _parse_list(args.seeds, int, "--seeds") if args.seeds else [cfg["seed"]]
    snrs = (_parse_list(args.snr_db_list, float, "--snr-db-list") if args.snr_db_list
            else [cfg["snr_db"]])
    cube, labels = _load_scene(dict(cfg, snr_db=None))  # noise is added per cell
    classes = labels.num_classes if cfg["classes"] is None else cfg["classes"]
    model_cfg, tcfg, split_spec = build_configs(cfg, cube.bands, classes, cfg["seed"])
    rows = sweep(variants, model_cfg, cube, labels, split_spec, tcfg, seeds=seeds, snr_dbs=snrs)
    csv_text = rows_to_csv(rows)
    if cfg["out"]:
        with open(cfg["out"], "w") as f:
            f.write(csv_text)
    print(csv_text, end="")
    return 0


_SCENE_KEYS = ("height", "width", "bands", "sites", "gain_lo", "gain_hi")  # synth's alone
_SYNTH_KEYS = ("out", "seed", "classes", "snr_db") + _SCENE_KEYS
_RUN_KEYS = [key for key in CONFIG_DEFAULTS if key not in _SCENE_KEYS]  # train and sweep
_HELP = {
    "cube": "input cube (.npy, <f4, HxWxC)", "labels": "input labels (.npy, <u2, HxW)",
    "out": "output path", "norm_mode": "none, query, key, or both",
    "variant": "score variant tag (cs2, cs, abscs, tempcs2, dp, sdp, add, msa-cs2, "
               "c-sdp, c-cs2, c-cs, c-add)",
}
# a flag is typed as its default; these two numeric keys default to None
_NULL_DEFAULT_TYPES = {"classes": int, "snr_db": float}


def _add_flags(p, keys):
    """One --flag per config key (``mlp_dim`` -> ``--mlp-dim``), typed as the key's value."""
    for key in keys:
        default = CONFIG_DEFAULTS[key]
        kind = _NULL_DEFAULT_TYPES.get(key) if default is None else type(default)
        p.add_argument("--" + key.replace("_", "-"), type=kind, help=_HELP.get(key))


def _add_config_flags(p, keys):
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_flags(p, keys)


def build_parser():
    parser = argparse.ArgumentParser(prog="angleattn",
                                     description="Angular-attention hyperspectral classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled scene")
    _add_config_flags(p_synth, _SYNTH_KEYS)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model on a cube + label raster")
    _add_config_flags(p_train, _RUN_KEYS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on its test split")
    p_eval.add_argument("--checkpoint", required=True)
    _add_flags(p_eval, _PATH_KEYS)
    p_eval.add_argument("--map", help="write a PPM classification map here")
    p_eval.add_argument("--map-npy", dest="map_npy", help="dump predictions as <u2 NPY")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="cross product of variants x seeds [x SNRs]")
    _add_config_flags(p_sweep, _RUN_KEYS)
    p_sweep.add_argument("--variants", required=True, help="comma-separated variant tags")
    p_sweep.add_argument("--seeds", help="comma-separated integer seeds")
    p_sweep.add_argument("--snr-db-list", dest="snr_db_list",
                         help="comma-separated SNR values in dB")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AngleAttnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
