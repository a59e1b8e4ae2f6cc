"""The three benchmark workloads, driven through angleattn's public API.

Every call into the package goes through a module attribute
(``training.train``, ``data.synth_scene``, ...) so that the tracer, which
rebinds those attributes, sees it. Each workload is a closed loop: one
caller runs a job, waits for it to return, then starts the next.

All three share the synthetic scene ``SynthSpec(seed=0)`` (64x64 px,
8 classes). The workload seed drives the noise, the split, model init,
shuffling and dropout; the scene itself stays fixed, as in the
acceptance suite's ``benchmark_oa`` harness.

A job marks the end of each timed part on the ``Stopwatch`` it is given,
which samples the reference kernel there (see ``reference.py``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from angleattn import attention, data, model
from angleattn import train as training
from reference import Stopwatch

SNR_DB = 20.0
CLASSES = 8

# Calibrated test OA of the benchmark config (tests/test_acceptance.py,
# TestMagnitudeRobustness), rounded to 4 places.
FROZEN_OA = {0: 0.7771, 1: 0.8229, 2: 0.8205, 3: 0.8202, 4: 0.6437}
# Seed kept out of any tuning, so a later gain claim can be re-checked on it.
HELD_OUT_SEED = 1


@dataclass
class Job:
    """What one timed job produced. ``watch`` holds its timed parts:
    ``infer`` (one per predict batch), then ``train`` and ``score`` on the
    train workloads or ``load`` and ``export`` on ``map-paper``;
    ``elapsed_s`` (filled in by the caller) also covers the reference
    samples between them."""

    ops: int                      # the job itself + train steps + predict batches
    watch: Stopwatch
    batches: list = field(default_factory=list)  # pixel indices of each predict batch
    oa: float | None = None
    losses: list = field(default_factory=list)
    preds: np.ndarray | None = None
    elapsed_s: float = 0.0

    @property
    def wall_s(self):
        return self.watch.seconds()

    @property
    def infer_px(self):
        return sum(len(b) for b in self.batches)

    @property
    def infer_s(self):
        return self.watch.seconds("infer")

    @property
    def train_s(self):
        parts = self.watch.part_seconds("train")
        return sum(parts) if parts else None


def _bench_model_config(variant, bands=32):
    """The small benchmark config of the acceptance suite."""
    attn = attention.AttentionConfig(model_dim=32, heads=2, variant=variant)
    return model.ModelConfig(bands=bands, num_classes=CLASSES, patch_size=8, model_dim=32,
                             depth=2, heads=2, mlp_dim=64, dropout_rate=0.1, attention=attn)


def _scene(bands):
    return data.synth_scene(data.SynthSpec(bands=bands, classes=CLASSES, seed=0))


def _batches(n, batch):
    return math.ceil(n / batch)


def _split(indices, batch):
    return [indices[lo:lo + batch] for lo in range(0, len(indices), batch)]


class TrainWorkload:
    """Train the benchmark config, then evaluate it."""

    min_jobs = 2  # the second job re-runs the same seed: a determinism check
    ref_calls = 10  # reference calls around training (seconds); 1 between predict batches

    def __init__(self, seed, workdir, variant, epochs, batch, eval_px, eval_batch):
        self.seed = seed
        self.variant = variant
        self.epochs = epochs
        self.batch = batch
        self.eval_px = eval_px
        self.eval_batch = eval_batch

    def setup(self):
        cube, self.labels = _scene(32)
        self.cube = data.inject_noise(data.normalize_bands(cube), SNR_DB, self.seed)
        self.splits = data.stratified_split(self.labels, data.SplitSpec(0.05, 0.05, seed=self.seed))
        test = self.splits[2]
        if self.eval_px is None:
            self.eval_idx = test
        else:
            rng = np.random.default_rng(self.seed)
            self.eval_idx = np.sort(rng.choice(test, size=self.eval_px, replace=False))
        self.cfg = _bench_model_config(self.variant)
        self.tcfg = training.TrainConfig(epochs=self.epochs, batch_size=self.batch, seed=self.seed)
        self.steps_per_epoch = _batches(len(self.splits[0]), self.batch)

    def job(self, watch):
        n_val = len(self.splits[1])
        ops = (1 + self.epochs * (self.steps_per_epoch + _batches(n_val, 256))
               + _batches(len(self.eval_idx), self.eval_batch))
        params, log, _ = training.train(self.cfg, self.cube, self.labels, self.splits, self.tcfg)
        watch.lap("train")
        # evaluate(), one predict batch at a time, so that a reference call
        # sits between any two batches
        preds = np.empty(len(self.eval_idx), dtype=np.int64)
        batches = _split(self.eval_idx, self.eval_batch)
        lo = 0
        for chunk in batches:
            preds[lo:lo + len(chunk)] = training.predict(params, self.cfg, self.cube, chunk,
                                                         batch_size=len(chunk))
            lo += len(chunk)
            watch.lap("infer", calls=1)
        truth = self.labels.ids.reshape(-1)[self.eval_idx].astype(np.int64)
        confusion = np.zeros((CLASSES, CLASSES), dtype=np.int64)
        np.add.at(confusion, (truth - 1, preds - 1), 1)
        oa = training.metrics_from_confusion(confusion)[0]
        watch.lap("score")
        return Job(ops=ops, watch=watch, batches=batches, oa=oa,
                   losses=[entry["loss"] for entry in log])

    def check(self, jobs):
        """(failed ops, message) for every failed correctness check."""
        failures = []
        for i, j in enumerate(jobs):
            bad = [e for e, loss in enumerate(j.losses) if not math.isfinite(loss)]
            if bad:
                failures.append((len(bad) * self.steps_per_epoch,
                                 f"job {i}: non-finite loss in epochs {bad}"))
            if not math.isfinite(j.oa):
                failures.append((1, f"job {i}: non-finite OA"))
        oas = {j.oa for j in jobs}
        if len(oas) > 1:
            failures.append((len(jobs) - 1, f"same seed gave different OA: {sorted(oas)}"))
        return failures + self.check_oa(jobs[0].oa)

    def check_oa(self, oa):
        return []


class TrainCs2(TrainWorkload):
    """The benchmark training run that users and the tier-1 floors pay for."""

    name = "train-cs2"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, "cs2", epochs=20, batch=128, eval_px=None,
                         eval_batch=256)

    def check_oa(self, oa):
        if self.seed in FROZEN_OA:
            if round(oa, 4) != FROZEN_OA[self.seed]:
                return [(1, f"OA {oa:.4f} differs from the frozen {FROZEN_OA[self.seed]:.4f} "
                            f"for seed {self.seed}")]
            return []
        # no frozen value for this seed: require at least twice chance level
        if oa < 2.0 / CLASSES:
            return [(1, f"OA {oa:.4f} is below twice chance level")]
        return []


class TrainAdd(TrainWorkload):
    """The additive variant: a (B, H, N, N, d_a) broadcast-add and tanh per layer."""

    name = "train-add"

    # a short job, so that a run holds three and its median skips the first
    # job's allocator warm-up
    min_jobs = 3

    def __init__(self, seed, workdir):
        # batch 32 keeps the 5-D additive tensors near 1.7 GiB peak
        super().__init__(seed, workdir, "add", epochs=2, batch=32, eval_px=1024, eval_batch=32)


class MapPaper:
    """``eval --map`` at paper-default model size, from files on disk."""

    name = "map-paper"
    min_jobs = 1
    ref_calls = 1  # reference call between predict batches (a batch takes ~0.14 s)
    pixels = 128
    batch = 4
    sample = 8  # pixels re-checked against single-patch forward

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cube_path = os.path.join(workdir, "scene.npy")
        self.labels_path = os.path.join(workdir, "labels.npy")
        self.ckpt = os.path.join(workdir, "ckpt")
        self.map_path = os.path.join(workdir, "map.ppm")

    def setup(self):
        cube, labels = _scene(200)
        data.save_cube(self.cube_path, cube)
        data.save_labels(self.labels_path, labels)
        _, _, test = data.stratified_split(labels, data.SplitSpec(0.05, 0.05, seed=self.seed))
        rng = np.random.default_rng(self.seed)
        self.pixel_idx = np.sort(rng.choice(test, size=self.pixels, replace=False))
        self.sample_idx = rng.choice(self.pixels, size=self.sample, replace=False)
        config = {"bands": 200, "variant": "cs2"}  # every other extent: paper default
        params = model.init_params(self._config(config), self.seed)
        model.save_checkpoint(self.ckpt, params, config, self.seed, 0)

    @staticmethod
    def _config(config):
        attn = attention.AttentionConfig(model_dim=64, heads=4, variant=config["variant"])
        return model.ModelConfig(bands=config["bands"], num_classes=CLASSES, attention=attn)

    def job(self, watch):
        values, manifest = model.load_checkpoint(self.ckpt)
        cfg = self._config(manifest["config"])
        params = model.init_params(cfg, manifest["seed"])
        params.load_values(values)
        cube = data.load_cube(self.cube_path)
        labels = data.load_labels(self.labels_path)
        labels.check_pairing(cube)
        cube = data.inject_noise(data.normalize_bands(cube), SNR_DB, self.seed)
        preds = np.empty(len(self.pixel_idx), dtype=np.int64)
        watch.lap("load")
        batches = _split(self.pixel_idx, self.batch)
        for i, chunk in enumerate(batches):
            preds[i * self.batch:i * self.batch + len(chunk)] = training.predict(
                params, cfg, cube, chunk, batch_size=self.batch)
            watch.lap("infer")
        full = np.zeros(labels.ids.shape, dtype=np.int64)
        full.reshape(-1)[self.pixel_idx] = preds
        data.export_map(full, self.map_path, num_classes=CLASSES)
        watch.lap("export")
        self._last = (params, cfg, cube)
        return Job(ops=1 + len(batches), watch=watch, batches=batches, preds=preds)

    def check(self, jobs):
        failures = []
        first = jobs[0].preds
        for i, j in enumerate(jobs[1:], 1):
            if not np.array_equal(j.preds, first):
                failures.append((1, f"job {i}: predictions differ from job 0"))
        params, cfg, cube = self._last
        width = cube.width
        rows = [(int(p) // width, int(p) % width) for p in self.pixel_idx[self.sample_idx]]
        patches = np.stack([data.extract_patch(cube, r, c, cfg.patch_size) for r, c in rows])
        batched = model.batched_forward(patches, params, cfg).data
        bad_batches = set()
        for s, (pos, patch) in enumerate(zip(self.sample_idx, patches)):
            _, probs = model.forward(patch, params, cfg)
            for what, row in (("single", probs.data), ("batched", batched[s])):
                if not (np.isfinite(row).all() and abs(row.sum() - 1.0) < 1e-9):
                    bad_batches.add(pos // self.batch)
                    failures.append((0, f"pixel {pos}: {what} probability row is not "
                                        f"finite or does not sum to 1"))
            if int(probs.data.argmax()) + 1 != int(jobs[-1].preds[pos]):
                bad_batches.add(pos // self.batch)
                failures.append((0, f"pixel {pos}: batched prediction {jobs[-1].preds[pos]} "
                                    f"!= single-patch argmax {int(probs.data.argmax()) + 1}"))
        if bad_batches:
            failures.append((len(bad_batches), f"{len(bad_batches)} predict batches failed"))
        with open(self.map_path, "rb") as f:
            head = f.read(32)
        h, w = cube.values.shape[:2]
        if not head.startswith(f"P6\n{w} {h}\n255\n".encode()):
            failures.append((1, "exported map has a wrong PPM header"))
        return failures


WORKLOADS = {w.name: w for w in (TrainCs2, MapPaper, TrainAdd)}
