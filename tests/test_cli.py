import argparse
import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from angleattn import cli as cli_module
from angleattn import parallel
from angleattn import train as train_module
from angleattn.cli import CONFIG_DEFAULTS, main
from angleattn.errors import EvalError
from angleattn.train import SWEEP_CSV_HEADER

FAST = ["--patch", "5", "--dim", "8", "--depth", "1", "--heads", "2",
        "--mlp-dim", "16", "--epochs", "1", "--batch", "32",
        "--train-frac", "0.1", "--val-frac", "0.1"]

SCENE = ["--height", "24", "--width", "24", "--bands", "8",
         "--classes", "3", "--sites", "6"]

HUGE = "99999999999999999999"  # beyond numpy's index as any extent

# no int above 3, so no drawn extent can allocate much; huge finite floats
# reach arithmetic that only overflows near the edge of float64
POOL = [None, True, -1, 0, 3, 0.5, math.nan, math.inf, 1e308, -1e308, "x", [1]]


@pytest.fixture()
def scene_dir(tmp_path):
    out = str(tmp_path / "scene")
    assert main(["synth", "--out", out, "--seed", "0"] + SCENE) == 0
    return out


def run_train(scene_dir, ckpt, extra=()):
    return main(["train", "--cube", os.path.join(scene_dir, "scene.npy"),
                 "--labels", os.path.join(scene_dir, "labels.npy"),
                 "--out", ckpt, "--seed", "0"] + FAST + list(extra))


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    """One checkpoint trained at dim 8, mlp_dim 8, 2 heads, depth 1, patch 3;
    tests edit copies of it."""
    root = tmp_path_factory.mktemp("small")
    scene, ckpt = str(root / "scene"), str(root / "ckpt")
    assert main(["synth", "--out", scene, "--seed", "0"] + SCENE) == 0
    assert run_train(scene, ckpt, ["--mlp-dim", "8", "--patch", "3"]) == 0
    return ckpt


def edited_copy(ckpt, dst, edit):
    """A copy of checkpoint ``ckpt`` at ``dst`` whose manifest ``edit`` changed in place."""
    shutil.copytree(ckpt, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    edit(manifest)
    with open(path, "w") as f:
        json.dump(manifest, f)
    return str(dst)


class TestSynth:
    def test_writes_scene_and_labels(self, scene_dir):
        assert os.path.exists(os.path.join(scene_dir, "scene.npy"))
        assert os.path.exists(os.path.join(scene_dir, "labels.npy"))
        cube = np.load(os.path.join(scene_dir, "scene.npy"))
        labels = np.load(os.path.join(scene_dir, "labels.npy"))
        assert cube.shape == (24, 24, 8) and cube.dtype == np.dtype("<f4")
        assert labels.shape == (24, 24) and labels.dtype == np.dtype("<u2")

    def test_seed_reproducible_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["synth", "--out", out, "--seed", "5"] + SCENE) == 0
        for name in ("scene.npy", "labels.npy"):
            blob_a = open(os.path.join(a, name), "rb").read()
            blob_b = open(os.path.join(b, name), "rb").read()
            assert blob_a == blob_b

    def test_different_seed_differs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--out", a, "--seed", "1"] + SCENE) == 0
        assert main(["synth", "--out", b, "--seed", "2"] + SCENE) == 0
        assert open(os.path.join(a, "scene.npy"), "rb").read() != \
            open(os.path.join(b, "scene.npy"), "rb").read()

    def test_too_many_classes_for_sites(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--classes", "8", "--sites", "4"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--bands", "0"), ("--height", "-3"),
                                            ("--height", "0"), ("--width", "0")])
    def test_degenerate_extent_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--height", "--width", "--bands", "--sites"])
    def test_extent_beyond_numpys_index_exits_2(self, tmp_path, capsys, flag):
        # the cube or the distances to the sites would have more bytes than
        # numpy can index: it refuses such an array before touching memory
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), flag, HUGE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{flag[2:]} {HUGE}" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_missing_out(self):
        assert main(["synth", "--seed", "0"] + SCENE) == 2


class TestTrain:
    def test_happy_path(self, scene_dir, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        manifest = json.load(open(os.path.join(ckpt, "manifest.json")))
        assert manifest["seed"] == 0
        lines = open(os.path.join(ckpt, "epochs.jsonl")).read().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "loss", "val_oa"}

    def test_epochs_zero_ok(self, scene_dir, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt, ["--epochs", "0"]) == 0
        assert open(os.path.join(ckpt, "epochs.jsonl")).read() == ""

    def test_missing_labels_file(self, scene_dir, tmp_path):
        code = main(["train", "--cube", os.path.join(scene_dir, "scene.npy"),
                     "--labels", os.path.join(scene_dir, "nope.npy"),
                     "--out", str(tmp_path / "ckpt")] + FAST)
        assert code == 1

    def test_corrupt_cube(self, tmp_path):
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"garbage bytes, not a tensor")
        code = main(["train", "--cube", str(bad), "--labels", str(bad),
                     "--out", str(tmp_path / "ckpt")] + FAST)
        assert code == 1

    def test_malformed_npy_header_exits_1(self, tmp_path, capsys):
        header = b"{'descr': '<f4', 'fortran_order': False, 'shape': 5}"
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header)
        code = main(["train", "--cube", str(bad), "--labels", str(bad),
                     "--out", str(tmp_path / "ckpt")] + FAST)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: shape 5 at offset 10") and err.count("\n") == 1

    def test_unknown_variant(self, scene_dir, tmp_path):
        assert run_train(scene_dir, str(tmp_path / "c"), ["--variant", "bogus"]) == 2

    def test_manifest_defaults(self, scene_dir, tmp_path):
        # defaults in the manifest mirror the reference protocol
        assert CONFIG_DEFAULTS["epochs"] == 50
        assert CONFIG_DEFAULTS["batch"] == 128
        assert CONFIG_DEFAULTS["lr"] == 3e-4
        assert CONFIG_DEFAULTS["wd"] == 2e-4
        assert CONFIG_DEFAULTS["clip"] == 1.0
        assert CONFIG_DEFAULTS["smoothing"] == 0.05
        assert CONFIG_DEFAULTS["patch"] == 16
        assert CONFIG_DEFAULTS["dim"] == 64
        assert CONFIG_DEFAULTS["depth"] == 4
        assert CONFIG_DEFAULTS["heads"] == 4
        assert CONFIG_DEFAULTS["mlp_dim"] == 128
        assert CONFIG_DEFAULTS["dropout"] == 0.1
        assert CONFIG_DEFAULTS["train_frac"] == 0.01
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        manifest = json.load(open(os.path.join(ckpt, "manifest.json")))
        assert manifest["config"]["variant"] == "cs2"
        assert manifest["config"]["temperature"] == 0.5

    def test_config_file_and_flag_precedence(self, scene_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "dim": 8, "heads": 2,
                                        "patch": 5, "mlp_dim": 16, "batch": 32,
                                        "train_frac": 0.1, "val_frac": 0.1}))
        ckpt = str(tmp_path / "ckpt")
        code = main(["train", "--config", str(cfg_path),
                     "--cube", os.path.join(scene_dir, "scene.npy"),
                     "--labels", os.path.join(scene_dir, "labels.npy"),
                     "--out", ckpt, "--epochs", "1"])
        assert code == 0
        manifest = json.load(open(os.path.join(ckpt, "manifest.json")))
        assert manifest["config"]["epochs"] == 1   # flag beats file
        assert manifest["config"]["dim"] == 8      # file beats default

    def test_unknown_config_key(self, scene_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["train", "--config", str(cfg_path),
                     "--cube", os.path.join(scene_dir, "scene.npy"),
                     "--labels", os.path.join(scene_dir, "labels.npy"),
                     "--out", str(tmp_path / "ckpt")] + FAST)
        assert code == 2

    def test_clip_mode_is_an_unknown_config_key(self, scene_dir, tmp_path, capsys):
        # gradients are clipped per tensor only
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"clip_mode": "per_tensor"}))
        assert run_train(scene_dir, str(tmp_path / "ckpt"), ["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: clip_mode\n"

    @pytest.mark.parametrize("text", ['{"epochs": 2,', '[1, 2]'])
    def test_malformed_config_exits_2(self, scene_dir, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = main(["train", "--config", str(cfg_path),
                     "--cube", os.path.join(scene_dir, "scene.npy"),
                     "--labels", os.path.join(scene_dir, "labels.npy"),
                     "--out", str(tmp_path / "ckpt")] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file") and err.count("\n") == 1

    # each value is refused by the library config that holds it, which names its own field
    WRONG_CONFIG = [({"dim": "x"}, "model_dim"), ({"heads": 2.5}, "heads"),
                    ({"epochs": True}, "epochs"), ({"lr": "0.1"}, "lr"),
                    ({"dropout": None}, "dropout_rate"), ({"variant": 2}, "score variant"),
                    ({"snr_db": "loud"}, "snr_db"),
                    ({"cube": 5}, "cube"), ({"out": ["x"]}, "out"),
                    ({"classes": False}, "num_classes"), ({"classes": 0}, "num_classes"),
                    ({"cube": "a\u0000b"}, "cube")]

    @pytest.mark.parametrize("doc,field", WRONG_CONFIG,
                             ids=[f"doc{i}" for i in range(len(WRONG_CONFIG))])
    def test_wrong_config_type_exits_2(self, scene_dir, tmp_path, capsys, doc, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        paths = {"cube": os.path.join(scene_dir, "scene.npy"),
                 "labels": os.path.join(scene_dir, "labels.npy"), "out": str(tmp_path / "ckpt")}
        flags = [arg for key, path in paths.items() if key not in doc
                 for arg in ("--" + key, path)]
        assert main(["train", "--config", str(cfg_path)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1

    def test_nullable_config_values_accepted(self, scene_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"snr_db": None, "classes": None, "norm_mode": None}))
        assert run_train(scene_dir, str(tmp_path / "ckpt"), ["--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--epochs", "-1"),
                                            ("--lr", "nan"), ("--lr", "0"), ("--clip", "-1"),
                                            ("--wd", "-1"), ("--wd", "inf"),
                                            ("--snr-db", "4000"), ("--snr-db", "-4000")])
    def test_bad_train_settings_exit_2(self, scene_dir, tmp_path, capsys, flag, value):
        assert run_train(scene_dir, str(tmp_path / "ckpt"), [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_clip_inf_turns_clipping_off(self, scene_dir, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt, ["--clip", "inf"]) == 0
        manifest = json.load(open(os.path.join(ckpt, "manifest.json")))
        assert manifest["config"]["clip"] == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,flag,message", [
        ("synth", "--gain-hi=1e308", "gain_hi 1e+308"),
        ("synth", "--snr-db=-3000", "noise at snr_db -3000.0"),
        ("train", "--snr-db=-3000", "noise at snr_db -3000.0")],
        ids=["synth-gain", "synth-snr", "train-snr"])
    def test_cube_beyond_float32_exits_2(self, scene_dir, tmp_path, capsys, command, flag,
                                         message):
        # a value float32 cannot hold is refused as the setting that made it,
        # without a numpy overflow warning
        argv = (["synth", "--out", str(tmp_path / "scene"), flag] + SCENE if command == "synth"
                else ["train", "--cube", os.path.join(scene_dir, "scene.npy"), "--labels",
                      os.path.join(scene_dir, "labels.npy"), "--out", str(tmp_path / "ckpt"),
                      flag] + FAST)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {message} puts the cube beyond float32's range (about 3.4e38)\n")
        assert not os.path.exists(tmp_path / "ckpt")

    def test_negative_seed_with_noise_exits_2(self, scene_dir, tmp_path, capsys):
        # the noise is drawn before any config is built
        assert run_train(scene_dir, str(tmp_path / "ckpt"), ["--snr-db", "20", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be") and err.count("\n") == 1


class TestDivergence:
    def test_names_epoch_and_step_without_warnings(self, scene_dir, tmp_path):
        # a subprocess, so that numpy's RuntimeWarnings would reach its stderr
        argv = ["train", "--cube", os.path.join(scene_dir, "scene.npy"),
                "--labels", os.path.join(scene_dir, "labels.npy"),
                "--patch", "5", "--dim", "8", "--depth", "1", "--heads", "2",
                "--mlp-dim", "16", "--epochs", "3", "--batch", "32",
                "--train-frac", "0.1", "--val-frac", "0.1", "--seed", "9",
                "--out", str(tmp_path / "ckpt"), "--lr", "1e300", "--clip", "1e308",
                "--variant", "dp"]
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from angleattn.cli import main; "
             "sys.exit(main(sys.argv[1:]))"] + argv,
            env=package_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert re.fullmatch(r"error: epoch 0 step 0: .+ after the update\n", done.stderr), done.stderr


class TestEval:
    def test_prints_metrics(self, scene_dir, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OA=")
        assert " AA=" in out and " kappa=" in out

    def test_map_export(self, scene_dir, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        ppm = str(tmp_path / "map.ppm")
        npy = str(tmp_path / "map.npy")
        assert main(["eval", "--checkpoint", ckpt, "--map", ppm,
                     "--map-npy", npy]) == 0
        blob = open(ppm, "rb").read()
        assert blob.startswith(b"P6\n24 24\n255\n")
        assert len(blob) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3
        preds = np.load(npy)
        assert preds.shape == (24, 24) and preds.dtype == np.dtype("<u2")
        assert preds.min() >= 1 and preds.max() <= 3

    def test_map_npy_alone(self, small_ckpt, tmp_path):
        npy = str(tmp_path / "map.npy")
        assert main(["eval", "--checkpoint", small_ckpt, "--map-npy", npy]) == 0
        preds = np.load(npy)
        assert preds.shape == (24, 24) and preds.dtype == np.dtype("<u2")
        assert preds.min() >= 1 and preds.max() <= 3
        assert os.listdir(tmp_path) == ["map.npy"]

    def test_map_predicts_each_pixel_once(self, small_ckpt, tmp_path, capsys, monkeypatch):
        # the report reads the test pixels' ids from the map's: one predict
        # over the scene's H x W pixels, and the report of an eval without a map
        capsys.readouterr()
        assert main(["eval", "--checkpoint", small_ckpt]) == 0
        alone = capsys.readouterr().out
        calls = recording(monkeypatch, train_module, "predict")
        assert main(["eval", "--checkpoint", small_ckpt, "--map", str(tmp_path / "map.ppm"),
                     "--map-npy", str(tmp_path / "map.npy")]) == 0
        assert capsys.readouterr().out == alone
        assert sum(len(args[3]) for args in calls) == 24 * 24

    def test_manifest_holding_clip_mode_evaluates_as_before(self, small_ckpt, tmp_path,
                                                            capsys):
        # checkpoints written while clip_mode was a config key still hold it
        old = edited_copy(small_ckpt, tmp_path / "old",
                          lambda m: m["config"].update(clip_mode="per_tensor"))
        outputs = []
        for ckpt in (small_ckpt, old):
            capsys.readouterr()
            npy = str(tmp_path / f"{os.path.basename(ckpt)}.npy")
            assert main(["eval", "--checkpoint", ckpt, "--map-npy", npy]) == 0
            outputs.append((capsys.readouterr(), np.load(npy).tobytes()))
        assert outputs[0] == outputs[1] and outputs[0][0].out.startswith("OA=")

    @pytest.mark.parametrize("dtype", ["<U2", "<c16"])
    def test_non_real_parameter_exits_1(self, small_ckpt, tmp_path, capsys, dtype):
        # a string array cannot become float64, and a complex one would lose
        # its imaginary part
        ckpt = edited_copy(small_ckpt, tmp_path / "ckpt", lambda m: None)
        entry = json.load(open(os.path.join(ckpt, "manifest.json")))["params"][0]
        np.save(os.path.join(ckpt, entry["file"]), np.ones(entry["shape"], dtype=dtype))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter {entry['name']!r} has dtype ")
        assert err.count("\n") == 1

    def test_missing_checkpoint(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize("damage", [
        lambda m: "{not json", lambda m: "[]", lambda m: {k: m[k] for k in m if k != "params"},
        lambda m: {k: m[k] for k in m if k != "config"},
        lambda m: {k: m[k] for k in m if k != "seed"},
        lambda m: dict(m, params=[{"name": "w_s", "shape": [8, 8]}]),
        lambda m: dict(m, config={k: v for k, v in m["config"].items() if k != "scene_bands"}),
        lambda m: dict(m, params=[dict(m["params"][0], name=5)] + m["params"][1:])])
    def test_malformed_manifest_exits_1(self, scene_dir, tmp_path, capsys, damage):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        path = os.path.join(ckpt, "manifest.json")
        bad = damage(json.load(open(path)))
        with open(path, "w") as f:
            f.write(bad if isinstance(bad, str) else json.dumps(bad))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ckpt in err and err.count("\n") == 1

    WRONG_MANIFEST = [("heads", "x", "heads"), ("dim", 8.5, "model_dim"), ("lr", None, "lr"),
                      ("scene_bands", "8", "bands"), ("classes", None, "num_classes"),
                      ("snr_db", "loud", "snr_db"), ("cube", 5, "cube")]

    @pytest.mark.parametrize("key,value,field", WRONG_MANIFEST,
                             ids=[f"{key}-{value}" for key, value, _ in WRONG_MANIFEST])
    def test_wrong_manifest_config_type_exits_1(self, scene_dir, tmp_path, capsys,
                                                key, value, field):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        path = os.path.join(ckpt, "manifest.json")
        manifest = json.load(open(path))
        manifest["config"][key] = value
        with open(path, "w") as f:
            json.dump(manifest, f)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint config in {ckpt}: ") and field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["x", 1.5, -1, True, None])
    def test_bad_manifest_seed_exits_1(self, scene_dir, tmp_path, capsys, seed):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        path = os.path.join(ckpt, "manifest.json")
        manifest = json.load(open(path))
        manifest["seed"] = seed
        with open(path, "w") as f:
            json.dump(manifest, f)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint config in {ckpt}: seed must be")
        assert err.count("\n") == 1

    DISAGREEING = [("dim", 16), ("mlp_dim", 4), ("classes", 4), ("patch", 5), ("depth", 3),
                   ("variant", "add")]

    @pytest.mark.parametrize("key,value", DISAGREEING,
                             ids=[f"{key}-{value}" for key, value in DISAGREEING])
    def test_config_that_disagrees_with_params_exits_1(self, small_ckpt, tmp_path, capsys,
                                                       key, value):
        # every edit makes a valid config whose parameter shapes or names differ
        ckpt = edited_copy(small_ckpt, tmp_path / "ckpt",
                           lambda m: m["config"].update({key: value}))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ckpt in err and err.count("\n") == 1

    FIELDS = [("config", key) for key in [*CONFIG_DEFAULTS, "scene_bands"]] + [
        (None, "seed"), (None, "epoch")]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(FIELDS), value=st.sampled_from(POOL))
    def test_any_manifest_value_ends_in_an_exit_code(self, small_ckpt, tmp_path, capsys,
                                                      field, value):
        section, key = field
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            ckpt = edited_copy(small_ckpt, os.path.join(work, "ckpt"),
                               lambda m: (m[section] if section else m).update({key: value}))
            capsys.readouterr()
            code = main(["eval", "--checkpoint", ckpt, "--out", os.path.join(work, "row.csv")])
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            else:
                assert err == ""

    def test_out_row_carries_snr(self, scene_dir, tmp_path):
        ckpt, out = str(tmp_path / "ckpt"), str(tmp_path / "row.csv")
        assert run_train(scene_dir, ckpt, ["--snr-db", "25"]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--out", out]) == 0
        header, row = open(out).read().splitlines()
        assert header == SWEEP_CSV_HEADER and row.split(",")[-1] == "25.0"

    def test_eval_reproducible(self, scene_dir, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert run_train(scene_dir, ckpt) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--checkpoint", ckpt]) == 0
        assert capsys.readouterr().out == first


class TestSweep:
    def run_sweep(self, scene_dir, out, variants, seeds=None, snrs=None, extra=()):
        argv = ["sweep", "--cube", os.path.join(scene_dir, "scene.npy"),
                "--labels", os.path.join(scene_dir, "labels.npy"),
                "--out", out, "--variants", variants] + FAST + list(extra)
        if seeds:
            argv += ["--seeds", seeds]
        if snrs:
            argv += ["--snr-db-list", snrs]
        return main(argv)

    def test_row_count_is_cross_product(self, scene_dir, tmp_path):
        out = str(tmp_path / "rows.csv")
        assert self.run_sweep(scene_dir, out, "cs2,dp", "0,1", "20,10") == 0
        lines = open(out).read().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2
        cells = [tuple(line.split(",")[i] for i in (0, 1, 7)) for line in lines[1:]]
        assert cells == [(v, s, snr) for v in ("cs2", "dp") for s in ("0", "1")
                         for snr in ("20.0", "10.0")]

    def test_snr_db_flag_is_one_snr_axis(self, scene_dir, tmp_path):
        flag, axis, clean = (str(tmp_path / n) for n in ("f.csv", "a.csv", "c.csv"))
        assert self.run_sweep(scene_dir, flag, "cs2", "0", extra=["--snr-db", "5"]) == 0
        assert self.run_sweep(scene_dir, axis, "cs2", "0", "5") == 0
        assert self.run_sweep(scene_dir, clean, "cs2", "0") == 0
        flag_rows, axis_rows, clean_rows = (strip_time(p) for p in (flag, axis, clean))
        assert flag_rows == axis_rows
        assert flag_rows[1].endswith(",5.0") and clean_rows[1].endswith(",")
        # the noisy cell trains on other data, so the model and its scores differ
        assert flag_rows[1].split(",")[3:6] != clean_rows[1].split(",")[3:6]

    def test_no_snr_axis(self, scene_dir, tmp_path):
        out = str(tmp_path / "rows.csv")
        assert self.run_sweep(scene_dir, out, "cs2", "0") == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "cs2" and fields[1] == "0"
        assert 0.0 <= float(fields[3]) <= 1.0  # oa
        assert float(fields[6]) > 0            # train_seconds

    def test_unknown_variant_exits_2(self, scene_dir, tmp_path):
        assert self.run_sweep(scene_dir, str(tmp_path / "r.csv"), "cs2,bogus") == 2

    @pytest.mark.parametrize("seeds,snrs", [("a", None), (",", None), ("0", "x"), ("0", ","),
                                            ("-1", "20"), ("-1", None), ("0", "nan")])
    def test_bad_axis_exits_2(self, scene_dir, tmp_path, capsys, seeds, snrs):
        assert self.run_sweep(scene_dir, str(tmp_path / "r.csv"), "cs2", seeds, snrs) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_late_snr_exits_2_before_any_cell_trains(self, scene_dir, tmp_path,
                                                                  capsys, monkeypatch):
        # -3000 dB is a valid SNR, but its noise puts this cube beyond
        # float32's range; each cell's noise is drawn before the first trains
        calls = recording(monkeypatch, train_module, "train")
        out = tmp_path / "r.csv"
        assert self.run_sweep(scene_dir, str(out), "cs2", "0", "20,-3000") == 2
        assert capsys.readouterr().err == ("error: noise at snr_db -3000.0 puts the cube "
                                           "beyond float32's range (about 3.4e38)\n")
        assert calls == [] and not out.exists()

    def test_parallel_matches_serial(self, scene_dir, tmp_path, monkeypatch):
        # on two cores the two cells run at once, one per core
        serial, threaded = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
        assert self.run_sweep(scene_dir, serial, "cs2,dp", "0") == 0
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        assert self.run_sweep(scene_dir, threaded, "cs2,dp", "0") == 0
        assert strip_time(serial) == strip_time(threaded)


def strip_time(path):
    """CSV lines without the train_seconds column (index 6)."""
    return [",".join(f for i, f in enumerate(line.split(",")) if i != 6)
            for line in open(path).read().splitlines()]


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["eval", "--checkpoint", "c", "--snr-db", "5"],
                                      ["eval", "--checkpoint", "c", "--config", "f.json"],
                                      ["synth", "--out", "x", "--dim", "8"]])
    def test_flag_the_subcommand_does_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestConfigFile:
    def test_one_file_drives_synth_and_train(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "height": 24, "width": 24, "bands": 8, "classes": 3, "sites": 6, "seed": 0,
            "patch": 5, "dim": 8, "depth": 1, "heads": 2, "mlp_dim": 16, "epochs": 1,
            "batch": 32, "train_frac": 0.1, "val_frac": 0.1}))
        scene, ckpt = str(tmp_path / "scene"), str(tmp_path / "ckpt")
        assert main(["synth", "--config", str(cfg_path), "--out", scene]) == 0
        assert np.load(os.path.join(scene, "scene.npy")).shape == (24, 24, 8)
        assert main(["train", "--config", str(cfg_path), "--out", ckpt,
                     "--cube", os.path.join(scene, "scene.npy"),
                     "--labels", os.path.join(scene, "labels.npy")]) == 0
        config = json.load(open(os.path.join(ckpt, "manifest.json")))["config"]
        assert (config["dim"], config["classes"], config["scene_bands"]) == (8, 3, 8)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.dictionaries(st.sampled_from(list(CONFIG_DEFAULTS)), st.sampled_from(POOL)))
    @example(doc={"snr_db": 1e308})
    def test_any_config_value_ends_in_an_exit_code(self, scene_dir, tmp_path, capsys, doc):
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            cfg_path = os.path.join(work, "cfg.json")
            with open(cfg_path, "w") as f:
                json.dump(doc, f)
            for argv in (["train", "--cube", os.path.join(scene_dir, "scene.npy"),
                          "--labels", os.path.join(scene_dir, "labels.npy"),
                          "--out", os.path.join(work, "ckpt"), "--epochs", "0"],
                         ["synth", "--out", os.path.join(work, "scene")]):
                capsys.readouterr()
                code = main(argv + ["--config", cfg_path])
                err = capsys.readouterr().err
                assert code in (0, 1, 2)
                if code:
                    assert err.startswith("error: ") and err.count("\n") == 1, err
                else:
                    assert err == ""


def recording(monkeypatch, module, name):
    """The calls of ``module.name`` from now on; each still runs."""
    calls, fn = [], getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def package_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestRefusedBeforeWork:
    """Inputs refused with one ``error:`` line before the work they would spoil."""

    def scene_argv(self, command, scene_dir, out, extra=()):
        return ([command, "--cube", os.path.join(scene_dir, "scene.npy"),
                 "--labels", os.path.join(scene_dir, "labels.npy"), "--out", out]
                + FAST + (["--variants", "cs2"] if command == "sweep" else []) + list(extra))

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_unwritable_out_exits_1_before_training(self, scene_dir, tmp_path, capsys,
                                                    monkeypatch, command):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        out = not_a_dir / "x" if command == "train" else tmp_path / "missing" / "x.csv"
        trainings, sweeps = (recording(monkeypatch, cli_module, fn) for fn in ("train", "sweep"))
        assert main(self.scene_argv(command, scene_dir, str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
        assert trainings == sweeps == []

    def test_refused_sweep_keeps_an_existing_csv_and_makes_none(self, scene_dir, tmp_path):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("kept\n")
        for out in (old, new):
            assert main(self.scene_argv("sweep", scene_dir, str(out), ["--classes", "2"])) == 2
        assert old.read_text() == "kept\n" and not new.exists()

    def test_more_label_classes_than_the_model_exits_2(self, scene_dir, tmp_path, capsys,
                                                       monkeypatch):
        steps = recording(monkeypatch, train_module, "_train_step")
        ckpt = tmp_path / "ckpt"
        assert run_train(scene_dir, str(ckpt), ["--classes", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: num_classes 2 ") and err.count("\n") == 1
        assert steps == [] and not ckpt.exists()

    def test_eval_of_more_label_classes_than_the_checkpoint_exits_2(self, small_ckpt, tmp_path,
                                                                    capsys, monkeypatch):
        cube = json.load(open(os.path.join(small_ckpt, "manifest.json")))["config"]["cube"]
        ids = np.load(os.path.join(os.path.dirname(cube), "labels.npy"))
        ids.reshape(-1)[np.flatnonzero(ids == 3)[:10]] = 4  # enough for every split
        labels = str(tmp_path / "labels.npy")
        np.save(labels, ids)
        forwards = recording(monkeypatch, train_module, "predict")
        assert main(["eval", "--checkpoint", small_ckpt, "--labels", labels]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: num_classes 3 ") and err.count("\n") == 1
        assert forwards == []

    def test_refused_allocation_exits_1(self, scene_dir, tmp_path, capsys):
        # a batch of 2^22 x 2^22-pixel patches is PiBs, beyond any process's
        # address space: numpy refuses it before touching memory (with learnable
        # positions, their 2^44 x 4 table is refused first, with exit 2, as a
        # training state beyond physical memory)
        out = tmp_path / "ckpt"
        assert run_train(scene_dir, str(out), ["--patch", str(2 ** 22), "--dim", "4",
                                               "--positional", "none"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_patch_beyond_numpys_index_exits_2(self, scene_dir, tmp_path, capsys):
        # 10^18 tokens of 16 float64 values is more bytes than numpy can
        # index: it refuses such an array before touching memory
        out = tmp_path / "ckpt"
        assert run_train(scene_dir, str(out), ["--patch", str(10 ** 9)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: patch_size {10 ** 9} ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,field", [("--mlp-dim", "mlp_dim"), ("--dim", "model_dim")])
    def test_width_beyond_numpys_index_names_its_field(self, scene_dir, tmp_path, capsys,
                                                       flag, field):
        out = tmp_path / "ckpt"
        extra = [flag, HUGE] + (["--heads", "1"] if flag == "--dim" else [])
        assert run_train(scene_dir, str(out), extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: patch_size 5 and {field} {HUGE}: ")
        assert err.count("\n") == 1 and not out.exists()

    def test_classes_beyond_numpys_index_exits_2(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "ckpt"
        assert run_train(scene_dir, str(out), ["--classes", HUGE]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: num_classes {HUGE}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unallocatable_confusion_exits_1_before_training(self, scene_dir, tmp_path,
                                                             capsys, monkeypatch):
        # a (K, K) int64 confusion matrix of 182 TiB is beyond any process's
        # address space, whatever the machine's RAM or overcommit setting
        def unreached(*args, **kwargs):
            raise AssertionError("the run went on past its confusion matrix")

        for name in ("_train_step", "predict"):
            monkeypatch.setattr(train_module, name, unreached)
        out = tmp_path / "ckpt"
        assert run_train(scene_dir, str(out), ["--classes", "5000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "(5000000, 5000000)" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "s", "--config", "c\0.json"],
        ["train", "--out", "o", "--config", "c\0.json"],
        ["sweep", "--variants", "cs2", "--config", "c\0.json"],
        ["eval", "--cube", "c\0.npy"], ["eval", "--labels", "l\0.npy"],
        ["eval", "--out", "o\0.csv"], ["eval", "--map", "m\0.ppm"],
        ["eval", "--map-npy", "m\0.npy"]])
    def test_nul_byte_in_argv_exits_2(self, small_ckpt, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "eval":
            argv = argv + ["--checkpoint", small_ckpt]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NUL" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["--out", "--map", "--map-npy"])
    def test_eval_unwritable_output_exits_1_before_evaluating(self, small_ckpt, tmp_path,
                                                              capsys, monkeypatch, bad):
        evaluations = recording(monkeypatch, cli_module, "evaluate")
        argv = ["eval", "--checkpoint", small_ckpt]
        for flag in ("--out", "--map", "--map-npy"):
            argv += [flag, str(tmp_path / ("missing/x" if flag == bad else flag.strip("-")))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err and err.count("\n") == 1
        assert evaluations == [] and list(tmp_path.iterdir()) == []

    def test_failed_eval_removes_only_the_files_it_made(self, small_ckpt, tmp_path,
                                                        monkeypatch):
        old, new = tmp_path / "old.csv", tmp_path / "new.ppm"
        old.write_text("kept\n")

        def failing(*args):
            raise EvalError("prediction failed")

        monkeypatch.setattr(train_module, "predict", failing)
        assert main(["eval", "--checkpoint", small_ckpt, "--out", str(old),
                     "--map", str(new)]) == 1
        assert old.read_text() == "kept\n" and not new.exists()

    def test_map_npy_is_written_at_its_path(self, small_ckpt, tmp_path):
        npy = tmp_path / "map"  # np.save given this path would write map.npy
        assert main(["eval", "--checkpoint", small_ckpt, "--map-npy", str(npy)]) == 0
        assert np.load(npy).dtype == np.dtype("<u2") and list(tmp_path.iterdir()) == [npy]

    def test_run_as_a_module_writes_nothing_to_stderr(self):
        done = subprocess.run([sys.executable, "-m", "angleattn.cli", "--help"],
                              env=package_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stdout.startswith("usage: angleattn")
        assert done.stderr == ""


# every subcommand's flags, as its parser defines them
_SUBPARSERS = next(a for a in cli_module.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
FLAGS = {name: sorted(flag for flag in p._option_string_actions
                      if flag.startswith("--") and flag != "--help")
         for name, p in _SUBPARSERS.items()}

# tiny legal values, bad numbers, bad strings, and existing, missing and
# directory paths (relative to each example's working directory); no
# mid-size extent, so nothing drawn allocates much
ARGV_POOL = ["1", "2", "0.5", "cs2", "none", "0", "-1", "nan", "inf", "-inf", "1e400", HUGE,
             "", "x", ",", "a\0b", "scene/scene.npy", "scene/labels.npy", "ckpt", "cfg.json",
             "missing/x", "dir"]
# nothing refuses a huge epoch count before the work yet, and an epoch
# count above 1 only makes an example slower
BOUNDED = {"--epochs": {HUGE, "2"}}

TINY = ["--patch", "3", "--dim", "4", "--depth", "1", "--heads", "1", "--mlp-dim", "4",
        "--epochs", "1", "--batch", "16", "--train-frac", "0.2", "--val-frac", "0.2"]
RUN = ["--cube", "scene/scene.npy", "--labels", "scene/labels.npy", "--out", "out"] + TINY
BASE_ARGV = {  # a valid call per subcommand, so that drawn flags reach past parsing
    "synth": ["--out", "out", "--height", "16", "--width", "16", "--bands", "8",
              "--classes", "3", "--sites", "6"],
    "train": RUN, "sweep": RUN + ["--variants", "cs2"], "eval": ["--checkpoint", "ckpt"]}


@contextlib.contextmanager
def working_dir(path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@st.composite
def argvs(draw):
    """A subcommand's valid call with up to 4 of its flags drawn from ARGV_POOL."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flag_values = st.sampled_from(FLAGS[command]).flatmap(lambda flag: st.tuples(
        st.just(flag), st.sampled_from([v for v in ARGV_POOL if v not in BOUNDED.get(flag, ())]))
    )
    drawn = draw(st.lists(flag_values, max_size=4, unique_by=lambda fv: fv[0]))
    return [command] + BASE_ARGV[command] + [x for fv in drawn for x in fv]


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def fixtures(self, tmp_path_factory):
        """A 16x16x8 scene, a checkpoint trained on it, and an empty config file."""
        root = tmp_path_factory.mktemp("argv")
        os.makedirs(root / "dir")
        (root / "cfg.json").write_text("{}")
        argv = ["synth"] + BASE_ARGV["synth"]
        assert main(argv[:2] + [str(root / "scene")] + argv[3:]) == 0
        with working_dir(root):
            assert main(["train"] + RUN[:5] + ["ckpt"] + TINY) == 0
        return root

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs())
    @example(argv=["synth"] + BASE_ARGV["synth"] + ["--sites", HUGE])
    @example(argv=["eval"] + BASE_ARGV["eval"] + ["--cube", "a\0b"])
    @example(argv=["train"] + BASE_ARGV["train"] + ["--depth", HUGE])
    def test_any_argv_ends_in_an_exit_code(self, fixtures, tmp_path, capsys, argv):
        # each example runs in a fresh copy, so no example sees what another wrote
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            shutil.copytree(fixtures, work, dirs_exist_ok=True)
            capsys.readouterr()
            with working_dir(work):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert err.count("error:") == (code != 0), (argv, err)
