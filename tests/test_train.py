import contextlib
import contextvars
import gc
import math
import multiprocessing
import os
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from angleattn import attention as attention_module
from angleattn import parallel
from angleattn import tensor as T
from angleattn import train as train_module
from angleattn.attention import VARIANTS, AttentionConfig
from angleattn.data import (HyperCube, SplitSpec, SynthSpec, extract_patch, extract_patches,
                            inject_noise, normalize_bands, stratified_split, synth_scene)
from angleattn.errors import ConfigError, EvalError, LabelError, NumericError
from angleattn.model import ModelConfig, batched_forward, init_params
from angleattn.tensor import Tensor
from angleattn.train import (AdamW, TrainConfig, clip_gradients, evaluate,
                             label_smoothed_ce, metrics_from_confusion, predict,
                             rows_to_csv, sweep, train)
from test_tensor import buffers, poison_lends


class PoisonedAdamW(AdamW):
    """Its update leaves a non-finite value in every parameter from layers.0.attn.w_k on."""

    def step(self):
        super().step()
        for _, t in self.named_params[3:]:
            t.data[0] = np.inf


def tiny_scene(seed=0, snr=None):
    spec = SynthSpec(height=24, width=24, bands=8, classes=3, sites=6,
                     gain_lo=0.5, gain_hi=1.5, snr_db=snr, seed=seed)
    cube, labels = synth_scene(spec)
    return normalize_bands(cube), labels


def predict_threads(monkeypatch, n):
    """Give threaded loops (predict's blocks, the node's chunks, sweep's
    cells) ``n`` threads: as many usable cores, whatever the machine has."""
    monkeypatch.setattr(parallel, "_usable_cores", lambda: n)


def tiny_model(variant="cs2"):
    attn = AttentionConfig(model_dim=8, heads=2, variant=variant)
    return ModelConfig(bands=8, num_classes=3, patch_size=3, model_dim=8, depth=1,
                       heads=2, mlp_dim=16, dropout_rate=0.1, attention=attn)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"batch_size": -3}, {"batch_size": 2.5}, {"epochs": -1},
        {"epochs": 1.5}, {"lr": 0.0}, {"lr": -1e-3}, {"lr": float("nan")},
        {"lr": float("inf")}, {"lr": "0.1"}, {"clip_norm": 0.0}, {"clip_norm": -1.0},
        {"clip_norm": float("nan")}, {"clip_norm": "1"}, {"weight_decay": -1e-4},
        {"weight_decay": float("nan")}, {"seed": 1.5}, {"seed": -1}, {"epochs": True},
        {"label_smoothing": "0.1"}, {"label_smoothing": 1.0}, {"weight_decay": float("inf")}])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    def test_accepts_edges(self):
        TrainConfig(epochs=0, batch_size=1, lr=1e-12, clip_norm=1e-12, weight_decay=0.0)
        TrainConfig(clip_norm=math.inf)
        TrainConfig(epochs=np.int64(2), batch_size=np.int64(4), lr=1)


class TestLabelSmoothedCE:
    def test_uniform_probs(self):
        probs = Tensor(np.full((4, 5), 0.2))
        for eps in (0.0, 0.05, 0.3):
            loss = label_smoothed_ce(probs, np.array([0, 1, 2, 3]), eps)
            assert abs(loss.item() - math.log(5)) < 1e-12

    def test_onehot_target_zero_loss(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = label_smoothed_ce(probs, np.array([0, 1]), 0.0)
        assert loss.item() < 1e-9

    def test_derived_value(self):
        probs = Tensor(np.array([[0.7, 0.3]]))
        loss = label_smoothed_ce(probs, np.array([0]), 0.05)
        expect = -(0.975 * math.log(0.7) + 0.025 * math.log(0.3))
        assert abs(loss.item() - expect) < 1e-10
        assert abs(loss.item() - 0.377857) < 1e-6

    def test_bad_target(self):
        with pytest.raises(LabelError):
            label_smoothed_ce(Tensor(np.full((1, 3), 1 / 3)), np.array([3]), 0.0)


class TestClipGradients:
    def make(self, g):
        t = Tensor(np.zeros_like(np.asarray(g, dtype=float)), requires_grad=True)
        t.grad = np.asarray(g, dtype=float)
        return [("p", t)]

    def test_small_unchanged(self):
        named = self.make([0.3, 0.4])
        clip_gradients(named, 1.0)
        np.testing.assert_array_equal(named[0][1].grad, [0.3, 0.4])

    def test_345_scaling(self):
        named = self.make([3.0, 4.0])
        clip_gradients(named, 1.0)
        np.testing.assert_allclose(named[0][1].grad, [0.6, 0.8])

    def test_postcondition_and_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.normal(size=5) * rng.uniform(0.1, 10)
            named = self.make(g)
            clip_gradients(named, 1.0)
            clipped = named[0][1].grad
            assert np.linalg.norm(clipped) <= 1.0 + 1e-12
            assert np.linalg.norm(clipped) <= np.linalg.norm(g) + 1e-12
            cos = clipped @ g / (np.linalg.norm(clipped) * np.linalg.norm(g))
            assert cos > 1 - 1e-12

    def test_returns_norm_before_clipping(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad, b.grad = np.array([3.0, 4.0]), np.array([12.0])
        assert clip_gradients([("a", a), ("b", b)], 1.0) == 13.0


class TestAdamW:
    def test_zero_grad_no_motion(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        t.grad = np.zeros(2)
        opt = AdamW([("w", t)], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(t.data, [1.0, 2.0])

    def test_first_step_bias_correction(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        t.grad = np.array([1.0])
        opt = AdamW([("w", t)], lr=0.1, weight_decay=0.0)
        opt.step()
        assert abs(t.data[0] - (1.0 - 0.1 * (1.0 / (1.0 + 1e-8)))) < 1e-12

    def test_decoupled_decay(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        t.grad = np.zeros(1)
        opt = AdamW([("w", t)], lr=0.1, weight_decay=0.5)
        opt.step()
        assert abs(t.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12

    def test_no_decay_for_ln_and_bias(self):
        s = Tensor(np.array([2.0]), requires_grad=True)
        s.grad = np.zeros(1)
        opt = AdamW([("layers.0.ln1_scale", s)], lr=0.1, weight_decay=0.5)
        opt.step()
        assert s.data[0] == 2.0

    def test_in_place_matches_out_of_place(self):
        # the step updates parameter and moment buffers in place, bit for bit
        # as the out-of-place expressions would
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        opt = AdamW([("w", w), ("mlp_b1", b)], lr=0.01, weight_decay=0.1)
        buffers = [w.data, b.data, opt.m["w"], opt.v["w"]]
        ref = {"w": w.data.copy(), "mlp_b1": b.data.copy()}
        m = {name: np.zeros_like(x) for name, x in ref.items()}
        v = {name: np.zeros_like(x) for name, x in ref.items()}
        for step in range(1, 4):
            w.grad, b.grad = rng.normal(size=(3, 4)), rng.normal(size=4)
            opt.step()
            for name, g in (("w", w.grad), ("mlp_b1", b.grad)):
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                update = (m[name] / (1.0 - 0.9 ** step)) / (
                    np.sqrt(v[name] / (1.0 - 0.999 ** step)) + 1e-8)
                ref[name] = ref[name] - 0.01 * update
                if name == "w":  # biases skip decay
                    ref[name] = ref[name] - 0.01 * 0.1 * ref[name]
        np.testing.assert_array_equal(w.data, ref["w"])
        np.testing.assert_array_equal(b.data, ref["mlp_b1"])
        assert all(a is c for a, c in zip(buffers, [w.data, b.data, opt.m["w"], opt.v["w"]]))

    def test_quadratic_monotone_descent(self):
        # f(x) = 0.5 x^2: loss must fall over the first 10 small-lr steps
        x = Tensor(np.array([3.0]), requires_grad=True)
        opt = AdamW([("x", x)], lr=0.01, weight_decay=0.0)
        prev = 0.5 * float(x.data[0]) ** 2
        for _ in range(10):
            x.grad = x.data.copy()
            opt.step()
            cur = 0.5 * float(x.data[0]) ** 2
            assert cur < prev
            prev = cur


class TestMetrics:
    def test_perfect_diagonal(self):
        oa, aa, kappa, _ = metrics_from_confusion([[50, 0], [0, 50]])
        assert oa == 1.0 and aa == 1.0 and kappa == 1.0

    def test_chance_agreement(self):
        oa, aa, kappa, _ = metrics_from_confusion([[25, 25], [25, 25]])
        assert kappa == pytest.approx(0.0)

    def test_derived_example(self):
        oa, aa, kappa, _ = metrics_from_confusion([[40, 10], [20, 30]])
        assert oa == pytest.approx(0.7, abs=1e-12)
        assert aa == pytest.approx(0.7, abs=1e-12)
        assert kappa == pytest.approx(0.4, abs=1e-12)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = rng.integers(2, 6)
            conf = rng.integers(0, 40, size=(k, k))
            conf[np.diag_indices(k)] += 1  # keep rows nonempty
            oa, aa, kappa, per_class = metrics_from_confusion(conf)
            # brute force per-pixel recount
            truth, pred = [], []
            for i in range(k):
                for j in range(k):
                    truth += [i] * conf[i, j]
                    pred += [j] * conf[i, j]
            truth, pred = np.array(truth), np.array(pred)
            n = len(truth)
            oa2 = (truth == pred).mean()
            recalls = [(pred[truth == c] == c).mean() for c in range(k)]
            pe = sum((truth == c).sum() * (pred == c).sum() for c in range(k)) / n**2
            assert oa == oa2
            assert aa == pytest.approx(np.mean(recalls), abs=1e-15)
            assert kappa == pytest.approx((oa2 - pe) / (1 - pe), abs=1e-12)
            assert kappa <= oa or pe == 0 or oa == 1.0

    def test_kappa_one_iff_diagonal(self):
        _, _, kappa, _ = metrics_from_confusion(np.diag([3, 5, 9]))
        assert kappa == 1.0
        _, _, kappa2, _ = metrics_from_confusion([[3, 1], [0, 5]])
        assert kappa2 < 1.0

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            metrics_from_confusion(np.zeros((2, 2)))


class TestTrainLoop:
    def test_epochs_zero_returns_initial(self):
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        cfg = tiny_model()
        tcfg = TrainConfig(epochs=0, batch_size=32, seed=0)
        params, log, best = train(cfg, cube, labels, splits, tcfg)
        reference = init_params(cfg, 0)
        for (_, a), (_, b) in zip(params.named_parameters(), reference.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert log == [] and best == 0

    def test_same_seed_identical_logs(self):
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        cfg = tiny_model()
        tcfg = TrainConfig(epochs=2, batch_size=32, seed=3)
        _, log_a, _ = train(cfg, cube, labels, splits, tcfg)
        _, log_b, _ = train(cfg, cube, labels, splits, tcfg)
        assert log_a == log_b

    def test_loss_falls_below_ln_k(self):
        # separable 2-class scene: frozen regression bound from calibration
        spec = SynthSpec(height=24, width=24, bands=8, classes=2, sites=4,
                         gain_lo=1.0, gain_hi=1.0, seed=2)
        cube, labels = synth_scene(spec)
        cube = normalize_bands(cube)
        splits = stratified_split(labels, SplitSpec(0.2, 0.1, seed=0))
        attn = AttentionConfig(model_dim=8, heads=2, variant="cs2")
        cfg = ModelConfig(bands=8, num_classes=2, patch_size=3, model_dim=8, depth=1,
                          heads=2, mlp_dim=16, dropout_rate=0.0, attention=attn)
        tcfg = TrainConfig(epochs=10, batch_size=32, lr=3e-3, seed=0)
        _, log, _ = train(cfg, cube, labels, splits, tcfg)
        assert min(entry["loss"] for entry in log) < math.log(2)
        assert max(entry["val_oa"] for entry in log) >= 0.9

    def test_checkpoint_determinism(self):
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        cfg = tiny_model()
        tcfg = TrainConfig(epochs=2, batch_size=32, seed=7)
        params_a, _, _ = train(cfg, cube, labels, splits, tcfg)
        params_b, _, _ = train(cfg, cube, labels, splits, tcfg)
        for (_, a), (_, b) in zip(params_a.named_parameters(), params_b.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_no_graph_outlives_its_step(self, monkeypatch):
        # every forward, training step or validation, starts with no earlier
        # step's graph alive, so the loop never holds two graphs at once
        alive = []

        def counting_forward(*args, **kwargs):
            alive.append(sum(1 for o in gc.get_objects() if isinstance(o, T._Node) and o.parents))
            return batched_forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "batched_forward", counting_forward)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        train(tiny_model(), cube, labels, splits, TrainConfig(epochs=2, batch_size=16, seed=0))
        assert len(alive) >= 6 and max(alive) == 0

    @pytest.mark.parametrize("target, value, message", [
        ("label_smoothed_ce", lambda *a: Tensor(np.array(np.nan)), "non-finite loss nan"),
        ("clip_gradients", lambda *a: math.inf, "non-finite gradient norm inf"),
        ("AdamW", PoisonedAdamW, r"non-finite values in layers\.0\.attn\.w_k after the update")])
    def test_divergence_names_epoch_and_step(self, monkeypatch, target, value, message):
        monkeypatch.setattr(train_module, target, value)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        with pytest.raises(NumericError, match=f"^epoch 0 step 0: {message}$"):
            train(tiny_model(), cube, labels, splits, TrainConfig(epochs=2, batch_size=16))

    def test_nan_in_validation_names_epoch(self, monkeypatch):
        def poisoned_evaluate(params, *args):
            for _, t in params.named_parameters():
                t.data[...] = np.nan
            return evaluate(params, *args)

        monkeypatch.setattr(train_module, "evaluate", poisoned_evaluate)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        with pytest.raises(NumericError, match="^epoch 0 validation: softmax_rows: NaN input$"):
            train(tiny_model("dp"), cube, labels, splits, TrainConfig(epochs=1, batch_size=16))


class TestStepPool:
    """``train`` lends every step's arrays, forward and backward, from one
    step pool, and ``predict`` outside ``train`` from its calling thread's
    predict pool, its workers too; the floor is lowered so that the tiny
    model's arrays are pooled too, and 57 training pixels in batches of 16
    end in a partial batch of 9."""

    @staticmethod
    def run(variant, monkeypatch, epochs=2):
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        params, log, best = train(tiny_model(variant), cube, labels, splits,
                                  TrainConfig(epochs=epochs, batch_size=16, seed=0))
        return params.copy_values(), log, best

    @pytest.mark.parametrize("variant", [v.value for v in VARIANTS])
    def test_poisoned_recycle_changes_nothing(self, variant, monkeypatch):
        # a buffer is NaN from the moment it is lent again, also when it came
        # back mid-backward, until an op writes it: a pooled array read
        # before it is fully written shows in the result
        clean = self.run(variant, monkeypatch)
        poison_lends(monkeypatch)
        values, log, best = self.run(variant, monkeypatch)
        assert (log, best) == clean[1:]
        for name, value in values.items():
            np.testing.assert_array_equal(value, clean[0][name], err_msg=name)

    def test_pool_stops_growing_after_the_first_epoch(self, monkeypatch):
        # a view that outlives its use, or a request that finds no free
        # buffer, makes the pool map a new one: once every batch shape and a
        # validation have run, forward, backward and validation lends must
        # all find their buffers free. First on one thread, then on two:
        # the 57-pixel validation in two blocks, one per thread, and each
        # node over chunks of 4 samples, the last partial, so that both
        # threads lend in steps and validations alike, each from its own
        # free list
        held, step, evaluate_ = [], train_module._train_step, train_module.evaluate
        forward, ran = train_module.batched_forward, set()

        def recording(fn):
            def recorded(*args):
                out = fn(*args)
                held.append({id(buf) for buf in buffers(T._active_pool.get())})
                return out
            return recorded

        def forward_recording(*args, **kwargs):
            ran.add(threading.current_thread())
            return forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "_train_step", recording(step))
        monkeypatch.setattr(train_module, "evaluate", recording(evaluate_))
        monkeypatch.setattr(train_module, "batched_forward", forward_recording)
        for threads in (1, 2):
            predict_threads(monkeypatch, threads)
            if threads == 2:  # 4 samples' scores: 9 x 9 per head, 2 heads
                monkeypatch.setattr(attention_module, "CHUNK_BUDGET", 4 * 8 * 9 * 9 * 2)
            held.clear(), ran.clear()
            self.run("cs2", monkeypatch, epochs=3)
            assert len(held) == 3 * 5 and held[0]  # 4 steps and a validation per epoch
            assert all(ids == held[4] for ids in held[5:]), f"{threads} threads"
            assert T._active_pool.get() is None and len(ran) == threads

    @staticmethod
    def predict_pixels():
        cube, labels = tiny_scene()
        return cube, np.flatnonzero(labels.ids.reshape(-1))[:100]

    @staticmethod
    def thread_pool():
        return vars(train_module._predict_pools).get("pool")

    def test_predict_pools_only_a_call_of_several_blocks(self, monkeypatch):
        # every lend is poisoned, so a pooled block that read a buffer before
        # writing it would change the ids of an unpooled run; one thread, so
        # that one block is live at a time
        predict_threads(monkeypatch, 1)
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        plain = predict(params, cfg, cube, pixels, batch_size=32)  # every array below the floor
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        monkeypatch.setattr(train_module, "_predict_pools", threading.local())
        poison_lends(monkeypatch)
        np.testing.assert_array_equal(predict(params, cfg, cube, pixels[:32], batch_size=32),
                                      plain[:32])
        assert self.thread_pool() is None
        first = predict(params, cfg, cube, pixels, batch_size=32)  # blocks 32, 32, 32, 4
        pool = self.thread_pool()
        mapped = {id(buf) for buf in buffers(pool)}
        second = predict(params, cfg, cube, pixels, batch_size=32)
        assert mapped and {id(buf) for buf in buffers(self.thread_pool())} == mapped
        np.testing.assert_array_equal(first, plain)
        np.testing.assert_array_equal(second, plain)
        with T._StepPool() as active:  # inside an active pool, that pool alone
            predict(params, cfg, cube, pixels, batch_size=32)
            assert buffers(active) and {id(buf) for buf in buffers(pool)} == mapped
        assert T._active_pool.get() is None

    def test_train_drops_the_threads_predict_pool(self, monkeypatch):
        # kept through a training run, its buffers would only add to the peak
        cube, pixels = self.predict_pixels()
        monkeypatch.setattr(train_module, "_predict_pools", threading.local())
        self.run("cs2", monkeypatch, epochs=0)  # lowers the floor
        predict(init_params(tiny_model(), 0), tiny_model(), cube, pixels, batch_size=32)
        assert buffers(self.thread_pool())
        self.run("cs2", monkeypatch, epochs=0)
        assert self.thread_pool() is None

    def test_predict_pool_keeps_every_buffer_it_maps(self, monkeypatch):
        # a pool keeps each buffer until it is dropped: later calls with one
        # model map nothing, and a thread that switches models keeps the
        # buffers of each; one thread, so that one block is live at a time
        predict_threads(monkeypatch, 1)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        monkeypatch.setattr(train_module, "_predict_pools", threading.local())
        cube, pixels = self.predict_pixels()
        small, wide = tiny_model(), replace(tiny_model(), mlp_dim=64)

        def mapped(cfg):
            predict(init_params(cfg, 0), cfg, cube, pixels, batch_size=32)  # blocks 32, 32, 32, 4
            return {id(buf) for buf in buffers(self.thread_pool())}

        first = mapped(small)
        assert first and all(mapped(small) == first for _ in range(4))
        with_wide = mapped(wide)
        assert with_wide > first and mapped(small) == with_wide

    def test_threaded_predict_lends_from_the_callers_pool(self, monkeypatch):
        # two threads share the blocks and the caller's pool; every lend is
        # poisoned, so a block that read a buffer before writing it, or two
        # blocks lent one buffer at once, would change the ids
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        plain = predict(params, cfg, cube, pixels, batch_size=8)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        monkeypatch.setattr(train_module, "_predict_pools", threading.local())
        predict_threads(monkeypatch, 2)
        poison_lends(monkeypatch)
        forward, ran = train_module.batched_forward, set()

        def recording(*args, **kwargs):
            ran.add(threading.current_thread())
            return forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "batched_forward", recording)
        for _ in range(2):  # the second call on the buffers the first left
            np.testing.assert_array_equal(predict(params, cfg, cube, pixels, batch_size=8),
                                          plain)
        assert len(ran) == 2 and buffers(self.thread_pool())
        with T._StepPool() as active:  # inside an active pool, that pool alone
            mapped = {id(buf) for buf in buffers(self.thread_pool())}
            np.testing.assert_array_equal(predict(params, cfg, cube, pixels, batch_size=8),
                                          plain)
            assert buffers(active)
            assert {id(buf) for buf in buffers(self.thread_pool())} == mapped

    def test_a_block_per_thread_lends_from_no_pool(self, monkeypatch):
        # as in map-paper's calls: no block of the call could reuse the
        # buffers of another, so the call keeps none for the next
        predict_threads(monkeypatch, 2)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        monkeypatch.setattr(train_module, "_predict_pools", threading.local())
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        predict(params, cfg, cube, pixels[:64], batch_size=32)  # blocks 32, 32
        assert self.thread_pool() is None
        predict(params, cfg, cube, pixels[:65], batch_size=32)  # blocks 32, 32, 1
        assert buffers(self.thread_pool())

    def test_threaded_predict_pool_keeps_at_most_two_blocks(self, monkeypatch):
        # two blocks are live at once, so the pool may keep two blocks' buffers
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)

        def retained(threads):
            predict_threads(monkeypatch, threads)
            monkeypatch.setattr(train_module, "_predict_pools", threading.local())
            predict(params, cfg, cube, pixels, batch_size=32)  # blocks 32, 32, 32, 4
            return sum(len(buf) for buf in buffers(self.thread_pool()))

        one = retained(1)
        for _ in range(5):
            assert 0 < retained(2) <= 2 * one

    def test_one_core_or_one_block_starts_no_thread(self, monkeypatch):
        # on several threads a call is split into a block per thread, so
        # only a call of one patch is one block
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        monkeypatch.setattr(parallel, "_workers", [])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        assert parallel.threads() == 1
        predict(params, cfg, cube, pixels, batch_size=8)  # 13 blocks on one core
        predict_threads(monkeypatch, 2)
        predict(params, cfg, cube, pixels[:1], batch_size=8)  # one patch
        assert parallel._workers == [] and threading.active_count() == before

    def test_executor_is_sized_from_the_budget(self, monkeypatch):
        # a first call of two blocks on four cores starts three workers, not
        # one, so that later calls of more blocks still run on every core;
        # cores that grow since start the workers they lack
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        monkeypatch.setattr(parallel, "_workers", [])
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 4)
        before = threading.active_count()
        try:
            want = predict(params, cfg, cube, pixels[:2], batch_size=8)  # two blocks of one
            workers = list(parallel._workers)
            assert len(workers) == 3 and threading.active_count() == before + 3
            np.testing.assert_array_equal(predict(params, cfg, cube, pixels, batch_size=8)[:2],
                                          want)
            assert parallel._workers == workers
            predict_threads(monkeypatch, 6)
            np.testing.assert_array_equal(predict(params, cfg, cube, pixels, batch_size=8)[:2],
                                          want)
            assert parallel._workers[:3] == workers and len(parallel._workers) == 5
        finally:
            for tasks in parallel._workers:
                tasks.put(None)  # ends the worker

    def test_no_worker_keeps_the_pool_of_a_finished_train(self, monkeypatch):
        # a worker's task holds a copy of the caller's context, and so its
        # step pool: each worker drops its task before the caller goes on,
        # so the pool dies when train returns and its buffers are unmapped
        predict_threads(monkeypatch, 2)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)  # the ops of a batch deal too
        made = []

        class Recorded(T._StepPool):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(T, "_StepPool", Recorded)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        train(tiny_model(), cube, labels, splits, TrainConfig(epochs=1, batch_size=16))
        assert len(made) == 1 and made[0]() is None

    def test_threads_predict_at_once(self, monkeypatch):
        # each thread has a predict pool of its own, and a pool is active
        # only in the thread that entered it and in predict's workers for
        # it: one thread predicts inside a pool while two predict outside
        # any, and all give the ids of one call alone
        cube, pixels = self.predict_pixels()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        plain = predict(params, cfg, cube, pixels, batch_size=8)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        poison_lends(monkeypatch)
        start, results = threading.Barrier(3), [[], [], []]

        def run(out, pool):
            with pool as active:
                start.wait()
                out.append(T._active_pool.get() is active)
                for _ in range(3):
                    out.append(predict(params, cfg, cube, pixels, batch_size=8))

        threads = [threading.Thread(target=run, args=(out, pool)) for out, pool in
                   zip(results, (T._StepPool(), contextlib.nullcontext(),
                                 contextlib.nullcontext()))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [out[0] for out in results] == [True, True, True]
        assert [len(out) for out in results] == [4, 4, 4]
        for ids in sum((out[1:] for out in results), []):
            np.testing.assert_array_equal(ids, plain)


class TestGradientTape:
    @pytest.mark.parametrize("variant", [v.value for v in VARIANTS])
    def test_step_never_writes_into_a_gradient(self, monkeypatch, variant):
        # the tape keeps gradients as given and shares them between nodes,
        # so every stored gradient is made read-only: a write into one raises
        accumulate = T._accumulate

        def read_only(node, g):
            accumulate(node, g)
            node.grad.flags.writeable = False

        monkeypatch.setattr(T, "_accumulate", read_only)
        cfg = tiny_model(variant)
        params = init_params(cfg, 0)
        named = params.named_parameters()
        opt = AdamW(named, lr=1e-3, weight_decay=1e-2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 3, 8))
        for budget in (attention_module.CHUNK_BUDGET, 1):  # one chunk, then one per sample
            monkeypatch.setattr(attention_module, "CHUNK_BUDGET", budget)
            params.zero_grads()
            probs = batched_forward(x, params, cfg, training=True, rng=rng)
            label_smoothed_ce(probs, np.array([0, 1, 2, 0]), 0.05).backward()
            assert not any(t.grad.flags.writeable for _, t in named)
            clip_gradients(named, 1e-3)  # small enough to fire
            opt.step()

    @staticmethod
    def depth_2_model(monkeypatch, threads, variant="cs2"):
        """(config, parameters) of a depth-2 model on ``threads`` threads,
        every op dealing its samples when it can."""
        monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
        attn = AttentionConfig(model_dim=8, heads=2, variant=variant)
        cfg = ModelConfig(bands=8, num_classes=3, patch_size=3, model_dim=8, depth=2,
                          heads=2, mlp_dim=16, dropout_rate=0.1, attention=attn)
        return cfg, init_params(cfg, 0)

    @staticmethod
    def training_loss(cfg, params):
        """The loss of a training forward over 6 patches."""
        rng = np.random.default_rng(0)
        probs = batched_forward(rng.normal(size=(6, 3, 3, 8)), params, cfg, training=True,
                                rng=rng)
        return label_smoothed_ce(probs, np.array([0, 1, 2, 0, 1, 2]), 0.05)

    @pytest.mark.parametrize("variant", ["cs2", "c-cs2"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_values_no_backward_reads_die_in_the_forward(self, monkeypatch, threads, variant):
        # no closure reads w_o's output, the dropout outputs, the pre-bias
        # matmul outputs, the residual sums or the first block's input, so
        # none of them (nor an array it views) outlives the forward
        cfg, params = self.depth_2_model(monkeypatch, threads, variant)
        kinds = {id(params.w_c): "pre-bias", id(params.b_c): None, id(params.pos): "block input"}
        for lp in params.layers:
            kinds.update({id(lp.attn.w_o): "w_o", id(lp.mlp_w1): "pre-bias",
                          id(lp.mlp_w2): "pre-bias", id(lp.mlp_b1): None, id(lp.mlp_b2): None})
        make, found = T._make, []

        def owner(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        def recording(data, parents, backward_fn, op):
            out = make(data, parents, backward_fn, op)
            kind = {"dropout": "dropout", "add": "residual"}.get(op)
            if op in ("matmul", "add"):
                kind = kinds.get(id(parents[1]), kind)
            if kind:
                found.append((kind, weakref.ref(owner(out.data))))
            return out

        monkeypatch.setattr(T, "_make", recording)
        loss = self.training_loss(cfg, params)
        assert Counter(kind for kind, _ in found) == {"w_o": 2, "dropout": 4, "pre-bias": 5,
                                                      "residual": 4, "block input": 1}
        assert [kind for kind, ref in found if ref() is not None] == []
        loss.backward()
        assert all(t.grad is not None for _, t in params.named_parameters())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_second_backward_gives_the_same_gradients(self, monkeypatch, threads):
        # no closure consumes what it keeps: backward runs again on one graph
        cfg, params = self.depth_2_model(monkeypatch, threads)
        loss = self.training_loss(cfg, params)
        loss.backward()
        first = [np.array(t.grad) for _, t in params.named_parameters()]
        loss.backward()
        for g, (_, t) in zip(first, params.named_parameters(), strict=True):
            assert t.grad.tobytes() == g.tobytes()

    def test_interior_gradients_released_during_backward(self, monkeypatch):
        # benchmark config, batch 128: interior gradients alive at one time
        # during backward; keeping all of them until the step ends held 114 MiB
        attn = AttentionConfig(model_dim=32, heads=2, variant="cs2")
        cfg = ModelConfig(bands=32, num_classes=8, patch_size=8, model_dim=32, depth=2,
                          heads=2, mlp_dim=64, dropout_rate=0.1, attention=attn)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        probs = batched_forward(rng.normal(size=(128, 8, 8, 32)), params, cfg,
                                training=True, rng=rng)
        loss = label_smoothed_ce(probs, rng.integers(0, 8, size=128), 0.05)
        interior = [n for n in T.Tape.trace(loss).nodes if n.parents]
        accumulate, peak = T._accumulate, [0]

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        def measuring(node, g):
            accumulate(node, g)
            held = {id(b): b.nbytes for b in (owner(n.grad) for n in interior
                                              if n.grad is not None)}
            peak[0] = max(peak[0], sum(held.values()))

        monkeypatch.setattr(T, "_accumulate", measuring)
        loss.backward()
        assert len(interior) > 40 and 0 < peak[0] <= 16 << 20


class TestEvaluate:
    def test_confusion_totals(self):
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        cfg = tiny_model()
        params = init_params(cfg, 0)
        report = evaluate(params, cfg, cube, labels, splits[2])
        assert report.confusion.sum() == len(splits[2])
        assert report.oa == pytest.approx(np.trace(report.confusion) / report.confusion.sum())

    def test_empty_test_set(self):
        cube, labels = tiny_scene()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        with pytest.raises(EvalError):
            evaluate(params, cfg, cube, labels, np.array([], dtype=int))

    def test_more_label_classes_than_the_model_refused_before_any_forward(self, monkeypatch):
        # train and evaluate share the check; at evaluate it used to end in
        # an IndexError from np.add.at after the forward
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        cfg, refusal = replace(tiny_model(), num_classes=2), r"^num_classes 2 is below the 3 "
        monkeypatch.setattr(train_module, "init_params", None)
        with pytest.raises(ConfigError, match=refusal):
            train(cfg, cube, labels, splits, TrainConfig(epochs=1))
        monkeypatch.setattr(train_module, "predict", None)
        with pytest.raises(ConfigError, match=refusal):
            evaluate(init_params(cfg, 0), cfg, cube, labels, splits[2])

    def test_unallocatable_confusion_refused_before_any_forward(self, monkeypatch):
        # (5e6, 5e6) int64 is 182 TiB, beyond any process's address space
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        cfg = replace(tiny_model(), num_classes=5_000_000)
        monkeypatch.setattr(train_module, "predict", None)
        with pytest.raises(MemoryError, match=r"\(5000000, 5000000\)"):
            evaluate(None, cfg, cube, labels, splits[2])


class TestPredict:
    def test_all_zero_pixel_under_cosine_scoring(self):
        # a zero (no-data) pixel without positions gives zero query/key rows
        cube, _ = tiny_scene()
        values = cube.values.copy()
        values[10, 10] = 0.0
        cube = HyperCube(values)
        attn = AttentionConfig(model_dim=8, heads=2, variant="cs2")
        cfg = ModelConfig(bands=8, num_classes=3, patch_size=3, model_dim=8, depth=1,
                          heads=2, mlp_dim=16, attention=attn, positional="none")
        params = init_params(cfg, 0)
        flat = np.array([9 * 24 + 10, 10 * 24 + 10, 10 * 24 + 11])
        preds = predict(params, cfg, cube, flat)
        assert ((preds >= 1) & (preds <= 3)).all()
        probs = batched_forward(extract_patch(cube, 10, 10, 3)[None], params, cfg).data
        assert np.isfinite(probs).all()

    def test_no_pixels_no_ids(self):
        cube, _ = tiny_scene()
        cfg = tiny_model()
        ids = predict(init_params(cfg, 0), cfg, cube, np.array([], dtype=np.int64))
        assert ids.shape == (0,) and ids.dtype == np.int64

    def test_grad_check_after_predict(self):
        cube, labels = tiny_scene()
        cfg = tiny_model()
        params = init_params(cfg, 0)
        predict(params, cfg, cube, np.arange(20))
        x = np.random.default_rng(1).normal(size=(2, 3, 3, 8))

        def f():
            return label_smoothed_ce(batched_forward(x, params, cfg), np.array([0, 2]), 0.05)

        tensors = [t for _, t in params.named_parameters()]
        assert T.grad_check(f, tensors, max_coords=2) <= 1e-4


ALL_TAGS = [v.value for v in VARIANTS]


class TestBlockIndependence:
    """predict's blocks change no bit: each row of a no_grad forward depends on
    its own patch alone, whatever the block and the node's chunks around it."""

    @staticmethod
    def config(variant):
        # 64 tokens and width 64: a default block of 32 patches, and the
        # node's default chunks span 32 samples (2 for the additive variants)
        attn = AttentionConfig(model_dim=16, heads=2, variant=variant)
        return ModelConfig(bands=8, num_classes=3, patch_size=8, model_dim=16, depth=1,
                           heads=2, mlp_dim=64, attention=attn)

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_blocked_forward_equals_full_batch(self, tag):
        cfg = self.config(tag)
        params = init_params(cfg, 0)
        x = np.random.default_rng(5).normal(size=(40, 8, 8, 8))
        block = train_module._predict_block(cfg)
        assert block == 32
        with T.no_grad():
            full = batched_forward(x, params, cfg).data
            for size in (1, 7, block):
                blocked = np.concatenate([batched_forward(x[lo:lo + size], params, cfg).data
                                          for lo in range(0, len(x), size)])
                np.testing.assert_array_equal(blocked, full, err_msg=f"block {size}")

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_predict_ids_do_not_depend_on_batch_size(self, tag):
        cube, _ = tiny_scene()
        cfg = replace(self.config(tag), patch_size=3)
        params = init_params(cfg, 0)
        flat = np.arange(0, 24 * 24, 7)  # 83 pixels, borders included
        with T.no_grad():
            want = batched_forward(extract_patches(cube, flat, 3), params,
                                   cfg).data.argmax(axis=-1) + 1
        for batch_size in (1, 7, 256):
            np.testing.assert_array_equal(predict(params, cfg, cube, flat, batch_size), want,
                                          err_msg=f"batch_size {batch_size}")

    def test_block_follows_chunk_budget(self, monkeypatch):
        assert train_module._predict_block(self.config("cs2")) == 32
        paper = ModelConfig(bands=200, num_classes=8)  # patch 16, dim 64, mlp 128
        assert train_module._predict_block(paper) == 4
        monkeypatch.setattr(attention_module, "CHUNK_BUDGET", 1)
        assert train_module._predict_block(paper) == 1


class TestPredictThreads:
    """predict deals a call's blocks to threads; its ids and errors are
    those of a serial run."""

    def test_nan_in_a_workers_block_names_the_epoch(self, monkeypatch):
        # validation blocks of 8 on two threads; only the worker's patches
        # are NaN, and its error reaches train as a serial run's would
        predict_threads(monkeypatch, 2)
        monkeypatch.setattr(train_module, "_predict_block", lambda cfg: 8)
        caller, forward, poisoned = threading.current_thread(), train_module.batched_forward, []

        def forward_nan_in_workers(patches, *args, **kwargs):
            if threading.current_thread() is not caller:
                poisoned.append(len(patches))
                patches = np.full_like(patches, np.nan)
            return forward(patches, *args, **kwargs)

        monkeypatch.setattr(train_module, "batched_forward", forward_nan_in_workers)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        with pytest.raises(NumericError, match="^epoch 0 validation: softmax_rows: NaN input$"):
            train(tiny_model("dp"), cube, labels, splits, TrainConfig(epochs=1, batch_size=16))
        assert poisoned

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_earliest_failing_block_wins(self, monkeypatch, threads):
        # blocks of 8 over 40 pixels, dealt round-robin: with two threads the
        # caller runs those at 0, 16 and 32 and a worker those at 8 and 24.
        # The block at 8 fails last in time but first in order, so its error
        # is raised, as in a serial run
        predict_threads(monkeypatch, threads)
        cube, _ = tiny_scene()
        cfg = tiny_model()
        gather = train_module.extract_patches

        def failing(cube, indices, patch_size):
            lo = int(indices[0])
            if lo == 8:
                time.sleep(0.2)
            if lo in (8, 16, 24):
                raise NumericError(f"block at {lo}")
            return gather(cube, indices, patch_size)

        monkeypatch.setattr(train_module, "extract_patches", failing)
        with pytest.raises(NumericError, match="^block at 8$"):
            predict(init_params(cfg, 0), cfg, cube, np.arange(40), batch_size=8)

    def test_no_share_hands_work_to_the_executor(self, monkeypatch):
        # a training step's node deals its chunks (one per sample here) and
        # its row-by-row ops their samples to the workers; inside a
        # validation's threaded blocks the nodes run their chunks and the ops
        # their rows serially, so only code outside every share hands work on
        predict_threads(monkeypatch, 2)
        monkeypatch.setattr(attention_module, "CHUNK_BUDGET", 1)
        monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)  # every op of a batch may deal
        queues, deal, handed, dealt, nested = parallel._queues, parallel.deal, [], [], []

        class Recording:
            def __init__(self, tasks):
                self.tasks = tasks

            def put(self, task):
                handed.append((threading.current_thread(), parallel._share.get()))
                self.tasks.put(task)

        def deal_recording(fn, n):
            if fn.__module__ == T.__name__:  # an op's rows
                dealt.append((parallel._share.get(), parallel.threads()))
            return deal(fn, n)

        def forward_recording(*args, training, **kwargs):
            if not training:  # a validation block
                nested.append(parallel.threads())
            return forward(*args, training=training, **kwargs)

        forward = train_module.batched_forward
        monkeypatch.setattr(parallel, "_queues", lambda n: [Recording(q) for q in queues(n)])
        monkeypatch.setattr(parallel, "deal", deal_recording)
        monkeypatch.setattr(train_module, "batched_forward", forward_recording)
        cube, labels = tiny_scene()
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))
        train(tiny_model(), cube, labels, splits, TrainConfig(epochs=1, batch_size=16))
        assert handed and nested and set(nested) == {1}  # blocks of 1: the budget is tiny
        assert all(thread is threading.main_thread() and share is None
                   for thread, share in handed)
        assert dealt and set(dealt) == {(None, 2)}  # no op deals inside a share

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads alive
    def test_child_forked_after_a_threaded_call_predicts(self, monkeypatch):
        # the child has none of its parent's worker threads: handed the
        # parent's task queues, its next threaded call would wait forever
        predict_threads(monkeypatch, 2)
        cube, labels = tiny_scene()
        pixels = np.flatnonzero(labels.ids.reshape(-1))[:100]
        cfg = tiny_model()
        params = init_params(cfg, 0)
        want = predict(params, cfg, cube, pixels, batch_size=8)
        assert parallel._workers

        def child():
            if not (predict(params, cfg, cube, pixels, batch_size=8) == want).all():
                raise SystemExit(1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    def test_sweep_workers_share_the_cores(self, monkeypatch):
        # two cells on two cores run one per core, each cell's loops
        # serially; one cell runs on the caller, its loops on every core.
        # The rows do not depend on the cores
        seen, train = [], train_module.train

        def train_recording(*args):
            seen.append((threading.current_thread(), parallel.threads()))
            return train(*args)

        monkeypatch.setattr(train_module, "train", train_recording)
        cube, labels = tiny_scene()

        def rows(cores, variants):
            predict_threads(monkeypatch, cores)
            seen.clear()
            return [dict(row, train_seconds=None) for row in sweep(
                variants, tiny_model(), cube, labels, SplitSpec(0.1, 0.1, seed=0),
                TrainConfig(epochs=1, batch_size=32, seed=0))]

        serial = rows(1, ["cs2", "dp"])
        assert seen == [(threading.main_thread(), 1)] * 2
        assert rows(2, ["cs2", "dp"]) == serial
        assert [threads for _, threads in seen] == [1, 1] and len(set(seen)) == 2
        assert rows(2, ["cs2"]) == serial[:1]
        assert seen == [(threading.main_thread(), 2)]

    def test_a_failure_skips_the_later_items_of_other_shares(self, monkeypatch):
        # two shares: the caller runs items 0 and 2, a worker 1 and 3. Item 0
        # fails once item 1 has started, and item 1 waits until the caller's
        # share has ended on that failure, so item 3 has not started by then;
        # it never runs, as in a serial loop
        predict_threads(monkeypatch, 2)
        started, ended = threading.Event(), threading.Event()
        copy_context, ran, waited = contextvars.copy_context, [], []

        class Context:
            """A copy of the current context that says when share 0 has ended."""

            def __init__(self):
                self.context = copy_context()

            def run(self, fn, share):
                self.context.run(fn, share)
                if share == 0:
                    ended.set()

        def item(i):
            ran.append(i)
            if i == 0:
                waited.append(started.wait(60))
                raise NumericError("item 0")
            if i == 1:
                started.set()
                waited.append(ended.wait(60))

        monkeypatch.setattr(parallel, "contextvars", SimpleNamespace(copy_context=Context))
        with pytest.raises(NumericError, match="^item 0$"):
            parallel.deal(item, 4)
        assert waited == [True, True] and sorted(ran) == [0, 1]


class TestSweep:
    def test_single_variant_matches_train_eval(self):
        cube, labels = tiny_scene()
        cfg = tiny_model()
        spec = SplitSpec(0.1, 0.1, seed=4)
        tcfg = TrainConfig(epochs=1, batch_size=32, seed=4)
        rows = sweep(["cs2"], cfg, cube, labels, spec, tcfg, seeds=[4])
        assert len(rows) == 1
        splits = stratified_split(labels, spec)
        params, _, _ = train(cfg, cube, labels, splits, tcfg)
        report = evaluate(params, cfg, cube, labels, splits[2])
        assert rows[0]["oa"] == report.oa
        assert rows[0]["variant"] == "cs2"

    def test_two_seeds_two_rows(self):
        cube, labels = tiny_scene()
        cfg = tiny_model()
        tcfg = TrainConfig(epochs=1, batch_size=32, seed=0)
        rows = sweep(["cs2", "dp"], cfg, cube, labels, SplitSpec(0.1, 0.1, seed=0),
                     tcfg, seeds=[0, 1])
        assert [(r["variant"], r["seed"]) for r in rows] == \
            [("cs2", 0), ("cs2", 1), ("dp", 0), ("dp", 1)]

    def test_unknown_variant(self):
        cube, labels = tiny_scene()
        with pytest.raises(ConfigError, match="cs2"):
            sweep(["nope"], tiny_model(), cube, labels, SplitSpec(0.1, 0.1, seed=0),
                  TrainConfig(epochs=1, seed=0))

    def test_empty_variants(self):
        cube, labels = tiny_scene()
        with pytest.raises(ConfigError):
            sweep([], tiny_model(), cube, labels, SplitSpec(0.1, 0.1, seed=0),
                  TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("axis", [{"seeds": []}, {"snr_dbs": []}])
    def test_empty_axis(self, axis):
        cube, labels = tiny_scene()
        with pytest.raises(ConfigError):
            sweep(["cs2"], tiny_model(), cube, labels, SplitSpec(0.1, 0.1, seed=0),
                  TrainConfig(epochs=1, seed=0), **axis)

    @pytest.mark.parametrize("axis,field", [({"seeds": [0, -1]}, "seed"),
                                            ({"snr_dbs": [20.0, -4000.0]}, "snr_db")],
                             ids=["seed", "snr_db"])
    def test_bad_late_value_refused_before_any_cell_trains(self, monkeypatch, axis, field):
        calls = []
        monkeypatch.setattr(train_module, "train", lambda *args: calls.append(args))
        cube, labels = tiny_scene()
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            sweep(["cs2"], tiny_model(), cube, labels, SplitSpec(0.1, 0.1, seed=0),
                  TrainConfig(epochs=1, seed=0), **axis)
        assert calls == []

    def test_snr_axis(self):
        cube, labels = tiny_scene()
        cfg = tiny_model()
        spec = SplitSpec(0.1, 0.1, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=32, seed=0)
        rows = sweep(["cs2"], cfg, cube, labels, spec, tcfg, seeds=[3], snr_dbs=[0.0, 40.0])
        assert [(r["seed"], r["snr_db"]) for r in rows] == [(3, 0.0), (3, 40.0)]
        # a cell adds noise with its own seed, then trains as train() does
        noisy = inject_noise(cube, 0.0, 3)
        splits = stratified_split(labels, SplitSpec(0.1, 0.1, seed=3))
        params, _, _ = train(cfg, noisy, labels, splits, replace(tcfg, seed=3))
        assert rows[0]["oa"] == evaluate(params, cfg, noisy, labels, splits[2]).oa
        assert [r["snr_db"] for r in sweep(["cs2"], cfg, cube, labels, spec, tcfg)] == [None]
        assert rows_to_csv(rows).splitlines()[1].endswith(",0.0")
