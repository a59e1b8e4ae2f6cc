import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleattn import model as model_module
from angleattn import tensor as T
from angleattn.attention import AttentionConfig, ScoreVariant
from angleattn.data import SplitSpec, SynthSpec
from angleattn.errors import ConfigError, DimensionError
from angleattn.model import (ModelConfig, Positional, add_positions, batched_forward,
                             encoder_block, forward, init_params, load_checkpoint,
                             param_count, save_checkpoint, sinusoidal_table, tokenize_patch)
from angleattn.tensor import Tensor
from angleattn.train import label_smoothed_ce


def toy_config(variant="cs2", **kw):
    defaults = dict(bands=5, num_classes=3, patch_size=3, model_dim=8, depth=2,
                    heads=2, mlp_dim=16, dropout_rate=0.0)
    defaults.update(kw)
    attn = AttentionConfig(model_dim=defaults["model_dim"], heads=defaults["heads"],
                           variant=variant)
    return ModelConfig(attention=attn, **defaults)


class TestTokenizePatch:
    def test_identity_embedding(self):
        rng = np.random.default_rng(0)
        patch = rng.normal(size=(2, 2, 3))
        tokens = tokenize_patch(patch, Tensor(np.eye(3))).data
        np.testing.assert_array_equal(tokens, patch.reshape(4, 3))

    def test_constant_patch(self):
        patch = np.tile(np.arange(3.0), (2, 2, 1))
        w = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        tokens = tokenize_patch(patch, w).data
        assert np.ptp(tokens, axis=0).max() == 0.0

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(2)
        patch = rng.normal(size=(2, 2, 3))
        w = rng.normal(size=(3, 2))
        tokens = tokenize_patch(patch, Tensor(w)).data
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(tokens[i * 2 + j], w.T @ patch[i, j], atol=1e-12)

    def test_band_mismatch(self):
        with pytest.raises(DimensionError):
            tokenize_patch(np.zeros((2, 2, 3)), Tensor(np.zeros((4, 2))))


class TestAddPositions:
    def test_none_is_identity(self):
        t = Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        assert add_positions(t, Positional.NONE) is t

    def test_zero_table(self):
        t = Tensor(np.random.default_rng(4).normal(size=(4, 6)))
        out = add_positions(t, Positional.LEARNABLE, Tensor(np.zeros((4, 6))))
        np.testing.assert_array_equal(out.data, t.data)

    def test_sinusoidal_row_zero(self):
        table = sinusoidal_table(5, 6)
        np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1])

    def test_shape_mismatch(self):
        t = Tensor(np.zeros((4, 6)))
        with pytest.raises(DimensionError):
            add_positions(t, Positional.LEARNABLE, Tensor(np.zeros((3, 6))))


class TestEncoderBlock:
    def test_zero_weights_pass_through(self):
        cfg = toy_config()
        params = init_params(cfg, 0)
        lp = params.layers[0]
        for t in (lp.attn.w_o, lp.mlp_w2):
            t.data = np.zeros_like(t.data)
        tokens = Tensor(np.random.default_rng(5).normal(size=(9, 8)))
        out = encoder_block(tokens, lp, cfg)
        np.testing.assert_allclose(out.data, tokens.data, atol=1e-12)

    def test_deterministic_without_dropout(self):
        cfg = toy_config()
        lp = init_params(cfg, 1).layers[0]
        tokens = Tensor(np.random.default_rng(6).normal(size=(9, 8)))
        a = encoder_block(tokens, lp, cfg).data
        b = encoder_block(tokens, lp, cfg).data
        np.testing.assert_array_equal(a, b)

    def test_matches_straight_line_oracle(self):
        cfg = toy_config(depth=1, heads=1)
        params = init_params(cfg, 7)
        lp = params.layers[0]
        tokens = np.random.default_rng(8).normal(size=(4, 8))
        out = encoder_block(Tensor(tokens), lp, cfg).data

        def ln(x, s, b, eps=1e-5):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return s * (x - mu) / np.sqrt(var + eps) + b

        normed = ln(tokens, lp.ln1_scale.data, lp.ln1_shift.data)
        q = normed @ lp.attn.w_q.data
        k = normed @ lp.attn.w_k.data
        v = normed @ lp.attn.w_v.data
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        k = k / np.linalg.norm(k, axis=1, keepdims=True)
        s = (q @ k.T) ** 2
        e = np.exp(s - s.max(axis=1, keepdims=True))
        alpha = e / e.sum(axis=1, keepdims=True)
        u = tokens + (alpha @ v) @ lp.attn.w_o.data
        normed2 = ln(u, lp.ln2_scale.data, lp.ln2_shift.data)
        from scipy.special import erf
        hidden = normed2 @ lp.mlp_w1.data + lp.mlp_b1.data
        hidden = 0.5 * hidden * (1 + erf(hidden / np.sqrt(2)))
        expect = u + hidden @ lp.mlp_w2.data + lp.mlp_b2.data
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestForward:
    def test_zero_classifier_uniform(self):
        cfg = toy_config()
        params = init_params(cfg, 9)
        params.w_c.data = np.zeros_like(params.w_c.data)
        params.b_c.data = np.zeros_like(params.b_c.data)
        x = np.random.default_rng(10).normal(size=(3, 3, 5))
        _, probs = forward(x, params, cfg)
        np.testing.assert_allclose(probs.data, 1 / 3, atol=1e-12)

    def test_bias_saturation(self):
        cfg = toy_config(num_classes=2)
        params = init_params(cfg, 11)
        params.w_c.data = np.zeros_like(params.w_c.data)
        params.b_c.data = np.array([10.0, -10.0])
        x = np.random.default_rng(12).normal(size=(3, 3, 5))
        _, probs = forward(x, params, cfg)
        np.testing.assert_allclose(probs.data, [1.0, 0.0], atol=1e-8)

    def test_probability_vector(self):
        for tag in ("cs2", "dp", "add", "msa-cs2", "c-cs2"):
            cfg = toy_config(variant=tag)
            params = init_params(cfg, 13)
            x = np.random.default_rng(14).normal(size=(3, 3, 5))
            _, probs = forward(x, params, cfg)
            assert abs(probs.data.sum() - 1.0) < 1e-9
            assert (probs.data >= 0).all()

    def test_identical_patches_identical_rows(self):
        cfg = toy_config()
        params = init_params(cfg, 15)
        x = np.random.default_rng(16).normal(size=(3, 3, 5))
        batch = np.stack([x, x, x])
        probs = batched_forward(batch, params, cfg).data
        np.testing.assert_array_equal(probs[0], probs[1])
        np.testing.assert_array_equal(probs[1], probs[2])

    def test_pure_function_without_dropout(self):
        cfg = toy_config()
        params = init_params(cfg, 17)
        x = np.random.default_rng(18).normal(size=(3, 3, 5))
        a = forward(x, params, cfg)[1].data
        b = forward(x, params, cfg)[1].data
        np.testing.assert_array_equal(a, b)


class TestBatchedForward:
    def test_b1_equals_forward(self):
        cfg = toy_config()
        params = init_params(cfg, 19)
        x = np.random.default_rng(20).normal(size=(3, 3, 5))
        single = forward(x, params, cfg)[1].data
        batched = batched_forward(x[None], params, cfg).data[0]
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_permutation_equivariance(self):
        cfg = toy_config()
        params = init_params(cfg, 21)
        batch = np.random.default_rng(22).normal(size=(4, 3, 3, 5))
        probs = batched_forward(batch, params, cfg).data
        perm = [2, 0, 3, 1]
        probs_perm = batched_forward(batch[perm], params, cfg).data
        np.testing.assert_allclose(probs_perm, probs[perm], atol=1e-12)

    def test_matches_per_sample_loop(self):
        cfg = toy_config()
        params = init_params(cfg, 23)
        batch = np.random.default_rng(24).normal(size=(3, 3, 3, 5))
        probs = batched_forward(batch, params, cfg).data
        for b in range(3):
            single = forward(batch[b], params, cfg)[1].data
            np.testing.assert_allclose(probs[b], single, atol=1e-12)


class TestNoGradForward:
    @pytest.mark.parametrize("variant", [v.value for v in ScoreVariant])
    def test_bit_identical_to_taped(self, variant):
        # the taped forward is the oracle
        cfg = toy_config(variant=variant, dropout_rate=0.1)
        params = init_params(cfg, 25)
        batch = np.random.default_rng(26).normal(size=(3, 3, 3, 5))
        taped = batched_forward(batch, params, cfg)
        with T.no_grad():
            free = batched_forward(batch, params, cfg)
        assert taped.backward_fn is not None and free.backward_fn is None
        np.testing.assert_array_equal(free.data, taped.data)


NAN = float("nan")
VALID = {AttentionConfig: dict(model_dim=8, heads=2), SynthSpec: {}, SplitSpec: {},
         ModelConfig: dict(bands=5, num_classes=3, patch_size=3, model_dim=8, heads=2)}


@pytest.mark.parametrize("cls,kwargs", [
    (AttentionConfig, {"temperature": NAN}), (AttentionConfig, {"temperature": float("inf")}),
    (AttentionConfig, {"temperature": "0.5"}), (AttentionConfig, {"model_dim": 8.0}),
    (AttentionConfig, {"heads": True}), (AttentionConfig, {"temperature": -1.0}),
    (AttentionConfig, {"heads": 0}), (AttentionConfig, {"variant": 3}),
    (ModelConfig, {"bands": 32.5}), (ModelConfig, {"patch_size": 8.0}),
    (ModelConfig, {"num_classes": 0}), (ModelConfig, {"depth": True}),
    (ModelConfig, {"dropout_rate": "0.1"}), (ModelConfig, {"dropout_rate": NAN}),
    (ModelConfig, {"positional": 1}),
    (SynthSpec, {"height": 8.5}), (SynthSpec, {"height": -3}), (SynthSpec, {"width": 0}),
    (SynthSpec, {"bands": 0}), (SynthSpec, {"classes": 1}), (SynthSpec, {"sites": 4}),
    (SynthSpec, {"seed": 1.5}), (SynthSpec, {"gain_lo": NAN}), (SynthSpec, {"gain_hi": 0.4}),
    (SynthSpec, {"snr_db": "20"}), (SplitSpec, {"train_frac": "0.1"}),
    (SplitSpec, {"val_frac": NAN}), (SplitSpec, {"seed": 1.5}), (SplitSpec, {"seed": -1}),
    (SynthSpec, {"snr_db": float("inf")}), (SynthSpec, {"snr_db": -float("inf")})], ids=lambda v: getattr(v, "__name__", None))
def test_config_rejects_wrong_type_or_range(cls, kwargs):
    # each config dataclass checks its own fields, not only the CLI: extents
    # and seeds are integers (a bool is not one), the rest reals in range
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        cls(**{**VALID[cls], **kwargs})


class TestParamCount:
    @pytest.mark.parametrize("variant", ["cs2", "add", "c-add", "dp"])
    @pytest.mark.parametrize("positional", ["learnable", "none", "sinusoidal"])
    def test_formula_matches_allocation(self, variant, positional):
        cfg = toy_config(variant=variant, positional=positional)
        params = init_params(cfg, 25)
        actual = sum(t.size for _, t in params.named_parameters())
        assert param_count(cfg) == actual

    def test_training_state_beyond_physical_memory_refused_before_allocating(self,
                                                                             monkeypatch):
        # 4 float64 values per parameter: the value, its gradient, two AdamW moments
        cfg = toy_config()
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 32 * param_count(cfg)}
        monkeypatch.setattr(model_module.os, "sysconf", pages.__getitem__)
        init_params(cfg, 0)  # exactly fits
        pages["SC_PHYS_PAGES"] -= 1
        monkeypatch.setattr(model_module.np.random, "default_rng", None)  # nothing is drawn
        with pytest.raises(ConfigError, match=r"^depth 2, model_dim 8, mlp_dim 16, bands 5, "
                                              r"patch_size 3 and num_classes 3 make \d+ "
                                              r"parameters; .* need 0 GiB, above the 0 GiB"):
            init_params(cfg, 0)


class TestGradientEndToEnd:
    @pytest.mark.parametrize("variant", ["cs2", "dp", "add"])
    def test_loss_gradient(self, variant):
        cfg = toy_config(variant=variant)
        params = init_params(cfg, 26)
        x = np.random.default_rng(27).normal(size=(2, 3, 3, 5))
        targets = np.array([0, 2])

        def f():
            return label_smoothed_ce(batched_forward(x, params, cfg), targets, 0.05)

        tensors = [t for _, t in params.named_parameters()]
        assert T.grad_check(f, tensors, max_coords=3) <= 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = toy_config()
        params = init_params(cfg, 28)
        save_checkpoint(str(tmp_path / "ckpt"), params, {"variant": "cs2"}, seed=28, epoch=3)
        values, manifest = load_checkpoint(str(tmp_path / "ckpt"))
        assert manifest["seed"] == 28 and manifest["epoch"] == 3
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(values[name], t.data)

    def test_corrupted_param_named(self, tmp_path):
        from angleattn.errors import FormatError
        cfg = toy_config()
        params = init_params(cfg, 29)
        path = tmp_path / "ckpt"
        save_checkpoint(str(path), params, {}, seed=0, epoch=0)
        (path / "w_c.npy").write_bytes(b"garbage")
        with pytest.raises(FormatError, match="w_c"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("older", [False, True])
    def test_interrupted_save_does_not_load(self, tmp_path, monkeypatch, older):
        from angleattn.errors import FormatError
        params = init_params(toy_config(), 30)
        path = str(tmp_path / "ckpt")
        if older:  # a full checkpoint from an earlier save is already there
            save_checkpoint(path, init_params(toy_config(), 31), {}, seed=31, epoch=1)
            load_checkpoint(path)
        real_save, calls = np.save, []

        def failing_save(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 3:
                raise OSError("disk full")
            return real_save(*args, **kwargs)

        monkeypatch.setattr(np, "save", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, params, {}, seed=30, epoch=2)
        monkeypatch.undo()
        assert len(calls) == 3
        with pytest.raises(FormatError, match="no manifest"):
            load_checkpoint(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 2), st.integers(1, 2),
       st.integers(2, 4), st.integers(0, 2**31))
def test_shape_chain_property(p, c, heads, depth, k, seed):
    d = 4 * heads
    attn = AttentionConfig(model_dim=d, heads=heads, variant="cs2")
    cfg = ModelConfig(bands=c, num_classes=k, patch_size=p, model_dim=d, depth=depth,
                      heads=heads, mlp_dim=2 * d, dropout_rate=0.0, attention=attn)
    params = init_params(cfg, seed % 997)
    x = np.random.default_rng(seed).normal(size=(p, p, c))
    logits, probs = forward(x, params, cfg)
    assert logits.shape == (k,) and probs.shape == (k,)
    assert abs(probs.data.sum() - 1.0) < 1e-9
