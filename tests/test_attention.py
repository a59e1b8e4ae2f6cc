import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleattn import attention
from angleattn import model as M
from angleattn import parallel
from angleattn import tensor as T
from angleattn.attention import (VARIANTS, AdditiveParams, AttentionConfig,
                                 AttentionParams, NormMode, ScoreVariant, attention_node,
                                 multi_head_attention, project_qkv)
from angleattn.errors import ConfigError, ContractError, DimensionError, NumericError
from angleattn.tensor import Tape, Tensor, grad_check
from bitdump import model_outputs, oracle_batch
from oracle import (additive_score, attend, composed_attention, merge_heads, normalise, score,
                    split_heads)
from test_tensor import poison_lends

ALL_TAGS = ["cs2", "cs", "abscs", "tempcs2", "dp", "sdp", "add", "msa-cs2",
            "c-sdp", "c-cs2", "c-cs", "c-add"]


def cfg_for(tag, dim=8, heads=2, norm_mode=None):
    return AttentionConfig(model_dim=dim, heads=heads, variant=tag, norm_mode=norm_mode)


def rand_params(dim, heads, seed=0, additive=False):
    rng = np.random.default_rng(seed)
    d_h = dim // heads

    def t(*shape):
        return Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)

    add = None
    if additive:
        add = AdditiveParams(w_q=t(heads, d_h, d_h), w_k=t(heads, d_h, d_h),
                             w_a=t(heads, d_h), b_a=t(heads, d_h))
    return AttentionParams(w_q=t(dim, dim), w_k=t(dim, dim), w_v=t(dim, dim),
                           w_o=t(dim, dim), additive=add)


def unit_rows(shape, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    return Tensor(x / np.linalg.norm(x, axis=-1, keepdims=True))


class TestVariantRegistry:
    def test_twelve_tags(self):
        assert len(ALL_TAGS) == 12
        for tag in ALL_TAGS:
            assert ScoreVariant.from_tag(tag).value == tag

    def test_unknown_tag_lists_valid(self):
        with pytest.raises(ConfigError, match="cs2"):
            ScoreVariant.from_tag("bogus")

    def test_norm_modes(self):
        assert [NormMode.from_tag(t) for t in ("none", "query", "key", "both")]
        with pytest.raises(ConfigError):
            NormMode.from_tag("most")

    def test_default_norm_mode(self):
        assert AttentionConfig(8, 2, variant="cs2").resolved_norm_mode is NormMode.BOTH
        assert AttentionConfig(8, 2, variant="dp").resolved_norm_mode is NormMode.NONE

    def test_one_table_row_per_variant(self):
        assert list(VARIANTS) == list(ScoreVariant)
        assert [t for t in ALL_TAGS if VARIANTS[ScoreVariant(t)].cross] == \
            ["c-sdp", "c-cs2", "c-cs", "c-add"]
        assert [t for t in ALL_TAGS if VARIANTS[ScoreVariant(t)].kernel is None] == \
            ["add", "c-add"]
        assert [t for t in ALL_TAGS if VARIANTS[ScoreVariant(t)].mixed] == ["msa-cs2"]
        both = [t for t in ALL_TAGS if cfg_for(t).resolved_norm_mode is NormMode.BOTH]
        assert both == ["cs2", "cs", "abscs", "tempcs2", "msa-cs2", "c-cs2", "c-cs"]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AttentionConfig(model_dim=9, heads=2)
        with pytest.raises(ConfigError):
            AttentionConfig(model_dim=8, heads=2, temperature=0.0)


class TestProjectQkv:
    def test_identity_projection(self):
        tokens = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        eye = AttentionParams(*(Tensor(np.eye(6)) for _ in range(4)))
        q, k, v = project_qkv(tokens, tokens, eye)
        np.testing.assert_array_equal(q.data, tokens.data)

    def test_zero_tokens(self):
        z = Tensor(np.zeros((3, 6)))
        q, k, v = project_qkv(z, z, rand_params(6, 2))
        assert not q.data.any() and not k.data.any() and not v.data.any()

    def test_matches_loop_product(self):
        rng = np.random.default_rng(1)
        tokens = Tensor(rng.normal(size=(4, 8)))
        params = rand_params(8, 2, seed=2)
        q, _, _ = project_qkv(tokens, tokens, params)
        expect = np.zeros((4, 8))
        for i in range(4):
            for j in range(8):
                for k in range(8):
                    expect[i, j] += tokens.data[i, k] * params.w_q.data[k, j]
        np.testing.assert_allclose(q.data, expect, atol=1e-12)

    def test_stream_mismatch(self):
        with pytest.raises(DimensionError):
            project_qkv(Tensor(np.zeros((3, 6))), Tensor(np.zeros((4, 6))),
                        rand_params(6, 2))


class TestSplitHeads:
    def test_single_head_identity(self):
        m = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(split_heads(m, 1).data[0], m.data)

    def test_round_trip(self):
        m = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        np.testing.assert_array_equal(merge_heads(split_heads(m, 4)).data, m.data)

    def test_column_layout(self):
        m = Tensor([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        heads = split_heads(m, 2).data
        np.testing.assert_array_equal(heads[0], [[1, 2], [5, 6]])
        np.testing.assert_array_equal(heads[1], [[3, 4], [7, 8]])

    def test_indivisible(self):
        with pytest.raises(ConfigError):
            split_heads(Tensor(np.zeros((2, 6))), 4)

    @pytest.mark.parametrize("tag", ["cs2", "dp", "msa-cs2"])
    def test_node_owns_the_same_split(self, tag):
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(2, 5, 12))) for _ in range(3))
        cfg = cfg_for(tag, dim=12, heads=3)
        qh, kh, vh = (split_heads(m, 3) for m in (q, k, v))
        want = merge_heads(attend(score(tag, *normalise(qh, kh, cfg), cfg), vh,
                                  shift=not attention._skips_max_shift(cfg)))
        np.testing.assert_array_equal(attention_node(q, k, v, cfg).data, want.data)


class TestScore:
    def test_45_degrees(self):
        q = Tensor([[1.0, 0.0]])
        k = Tensor([[math.sqrt(2) / 2, math.sqrt(2) / 2]])
        cos = score("cs", q, k, cfg_for("cs", dim=2, heads=1)).data[0, 0]
        cossq = score("cs2", q, k, cfg_for("cs2", dim=2, heads=1)).data[0, 0]
        assert abs(cos - 0.70711) < 1e-5
        assert abs(cossq - 0.5) < 1e-9

    def test_parallel_and_orthogonal(self):
        q = Tensor([[1.0, 0.0]])
        cfg2 = cfg_for("cs", dim=2, heads=1)
        assert score("cs", q, q, cfg2).data[0, 0] == pytest.approx(1.0)
        assert score("cs2", q, q, cfg_for("cs2", dim=2, heads=1)).data[0, 0] == pytest.approx(1.0)
        k = Tensor([[0.0, 1.0]])
        assert score("cs", q, k, cfg2).data[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_cosine_ranges(self):
        rng = np.random.default_rng(5)
        raw_q, raw_k = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        q, k = (Tensor(x / np.linalg.norm(x, axis=-1, keepdims=True)) for x in (raw_q, raw_k))
        cossq = score("cs2", q, k, cfg_for("cs2", dim=16, heads=2)).data
        cos = score("cs", q, k, cfg_for("cs", dim=16, heads=2)).data
        for i in range(5):
            for j in range(5):
                qi, kj = raw_q[i], raw_k[j]
                c = qi @ kj / (np.linalg.norm(qi) * np.linalg.norm(kj))
                assert abs(cos[i, j] - c) < 1e-12
                assert abs(cossq[i, j] - c * c) < 1e-12
        assert ((cossq >= 0) & (cossq <= 1)).all()
        assert ((cos >= -1) & (cos <= 1)).all()

    def test_temperature_scaling(self):
        q, k = unit_rows((3, 4), 7), unit_rows((3, 4), 8)
        cfg = AttentionConfig(model_dim=8, heads=2, variant="tempcs2", temperature=0.25)
        base = score("cs2", q, k, cfg_for("cs2", dim=8, heads=2)).data
        np.testing.assert_allclose(score("tempcs2", q, k, cfg).data, base / 0.25, atol=1e-12)

    def test_additive_needs_params(self):
        q = Tensor(np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            score("add", q, q, cfg_for("add"))

    def test_unnormalized_cosine_contract(self):
        q = Tensor(np.full((2, 4), 3.0))
        with pytest.raises(ContractError):
            score("cs2", q, q, cfg_for("cs2"))

    def test_pairwise_symmetry(self):
        q, k = unit_rows((4, 4), 9), unit_rows((4, 4), 10)
        cfg = cfg_for("cs2", dim=8, heads=2)
        a = score("cs2", q, k, cfg).data
        b = score("cs2", k, q, cfg).data
        np.testing.assert_allclose(a, b.T, atol=1e-12)

    def test_sign_invariance_split(self):
        q, k = unit_rows((4, 4), 11), unit_rows((4, 4), 12)
        neg_q = Tensor(-q.data)
        for tag in ("cs2", "abscs"):
            cfg = cfg_for(tag, dim=8, heads=2)
            np.testing.assert_allclose(score(tag, q, k, cfg).data,
                                       score(tag, neg_q, k, cfg).data, atol=1e-12)
        cfg = cfg_for("cs", dim=8, heads=2)
        np.testing.assert_allclose(score("cs", neg_q, k, cfg).data,
                                   -score("cs", q, k, cfg).data, atol=1e-12)

    @pytest.mark.parametrize("heads", [2, 3, 4])
    def test_mixed_matches_numpy_oracle(self, heads):
        # concat(cos^2, q k^T / sqrt(d_h)) over a ceil(H/2) / floor(H/2) head split
        rng = np.random.default_rng(heads)
        n, d_h, n_cos = 5, 3, (heads + 1) // 2
        q, k = rng.normal(size=(2, heads, n, d_h)), rng.normal(size=(2, heads, n, d_h))
        for x in (q, k):
            x[:, :n_cos] /= np.linalg.norm(x[:, :n_cos], axis=-1, keepdims=True)
        out = score("msa-cs2", Tensor(q), Tensor(k), cfg_for("msa-cs2", 3 * heads, heads)).data
        qk = q @ np.swapaxes(k, -1, -2)
        expect = np.concatenate([qk[:, :n_cos] ** 2, qk[:, n_cos:] / math.sqrt(d_h)], axis=1)
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestAdditiveScore:
    def test_zero_params(self):
        zero = AdditiveParams(w_q=Tensor(np.zeros((1, 3, 2))), w_k=Tensor(np.zeros((1, 3, 2))),
                              w_a=Tensor(np.zeros((1, 3))), b_a=Tensor(np.zeros((1, 3))))
        assert additive_score([1.0, 2.0], [3.0, 4.0], zero) == 0.0

    def test_projection_kills_input(self):
        params = AdditiveParams(w_q=Tensor([[[1.0, 0.0]]]), w_k=Tensor([[[0.0, 0.0]]]),
                                w_a=Tensor([[1.0]]), b_a=Tensor([[0.0]]))
        assert additive_score([0.0, 5.0], [2.0, 3.0], params) == 0.0

    def test_vectorized_matches_pairwise(self):
        rng = np.random.default_rng(15)
        params = rand_params(8, 2, seed=15, additive=True)
        cfg = cfg_for("add")
        q = Tensor(rng.normal(size=(2, 3, 4)))
        k = Tensor(rng.normal(size=(2, 3, 4)))
        mat = score("add", q, k, cfg, params.additive).data
        for h in range(2):
            for i in range(3):
                for j in range(3):
                    expect = additive_score(q.data[h, i], k.data[h, j], params.additive, head=h)
                    assert abs(mat[h, i, j] - expect) < 1e-12


class TestAttend:
    def test_uniform_scores_average(self):
        rng = np.random.default_rng(16)
        v = Tensor(rng.normal(size=(4, 3)))
        out = attend(Tensor(np.zeros((4, 4))), v).data
        np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (4, 1)), atol=1e-12)

    def test_dominant_row_selects(self):
        scores = np.zeros((3, 3))
        scores[1, 2] = 60.0
        v = Tensor(np.random.default_rng(17).normal(size=(3, 4)))
        out = attend(Tensor(scores), v).data
        np.testing.assert_allclose(out[1], v.data[2], atol=1e-9)

    def test_matches_weighted_sum_loop(self):
        rng = np.random.default_rng(18)
        scores, v = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
        out = attend(Tensor(scores), Tensor(v)).data
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = e / e.sum(axis=1, keepdims=True)
        expect = np.zeros((4, 2))
        for i in range(4):
            for j in range(4):
                expect[i] += alpha[i, j] * v[j]
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestMultiHeadAttention:
    def test_uniform_composition(self):
        # identity V path and constant tokens make every score equal, so each
        # output token is the mean token
        n, d = 4, 4
        tokens = Tensor(np.tile(np.random.default_rng(19).normal(size=(1, d)), (n, 1)))
        eye = Tensor(np.eye(d))
        params = AttentionParams(w_q=eye, w_k=eye, w_v=eye, w_o=eye)
        cfg = AttentionConfig(model_dim=d, heads=1, variant="cs2")
        out = multi_head_attention(tokens, tokens, cfg, params).data
        np.testing.assert_allclose(out, np.tile(tokens.data.mean(axis=0), (n, 1)), atol=1e-9)

    def test_alpha_invariant_under_query_scaling(self):
        rng = np.random.default_rng(20)
        tokens = Tensor(rng.normal(size=(5, 8)))
        params = rand_params(8, 2, seed=21)
        cfg = cfg_for("cs2")
        base = multi_head_attention(tokens, tokens, cfg, params).data
        # scaling both streams scales only the linear V path
        scaled = multi_head_attention(Tensor(3.0 * tokens.data),
                                      Tensor(3.0 * tokens.data), cfg, params).data
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-9)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(22)
        n, d, h = 3, 4, 2
        tokens = rng.normal(size=(n, d))
        params = rand_params(d, h, seed=23)
        cfg = cfg_for("cs2", dim=d, heads=h)
        out = multi_head_attention(Tensor(tokens), Tensor(tokens), cfg, params).data

        # independent scripted reimplementation of the attention pipeline
        q = tokens @ params.w_q.data
        k = tokens @ params.w_k.data
        v = tokens @ params.w_v.data
        d_h = d // h
        outs = []
        for head in range(h):
            cols = slice(head * d_h, (head + 1) * d_h)
            qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
            qh = qh / np.linalg.norm(qh, axis=1, keepdims=True)
            kh = kh / np.linalg.norm(kh, axis=1, keepdims=True)
            scores = (qh @ kh.T) ** 2
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            alpha = e / e.sum(axis=1, keepdims=True)
            outs.append(alpha @ vh)
        expect = np.concatenate(outs, axis=1) @ params.w_o.data
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_shape_preserved_all_variants(self):
        rng = np.random.default_rng(24)
        tokens = Tensor(rng.normal(size=(5, 8)))
        for tag in ALL_TAGS:
            params = rand_params(8, 2, seed=25, additive=True)
            out = multi_head_attention(tokens, tokens, cfg_for(tag), params)
            assert out.shape == (5, 8), tag

    def test_gradients_all_variants(self):
        rng = np.random.default_rng(26)
        tokens = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        for tag in ALL_TAGS:
            params = rand_params(8, 2, seed=27, additive=True)
            cfg = cfg_for(tag)

            def f():
                y = multi_head_attention(tokens, tokens, cfg, params)
                return T.sum_all(T.mul(y, y))

            tensors = [tokens, params.w_q, params.w_k, params.w_v, params.w_o,
                       params.additive.w_q, params.additive.w_a]
            assert grad_check(f, tensors, max_coords=5) <= 1e-4, tag


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_TAGS), st.integers(0, 2**31))
def test_row_stochastic_for_every_variant(tag, seed):
    rng = np.random.default_rng(seed)
    tokens = Tensor(rng.normal(size=(4, 8)))
    params = rand_params(8, 2, seed=seed % 1000, additive=True)
    cfg = cfg_for(tag)
    q, k, v = project_qkv(tokens, tokens, params)
    qh, kh = normalise(split_heads(q, 2), split_heads(k, 2), cfg)
    alpha = T.softmax_rows(score(tag, qh, kh, cfg, params.additive)).data
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cs2", "cs", "abscs", "tempcs2"]),
       st.floats(0.01, 100.0), st.integers(-10, 10), st.integers(0, 2**31))
def test_positive_scale_invariance(tag, c, exp2, seed):
    rng = np.random.default_rng(seed)
    q, k = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    cfg = cfg_for(tag)

    def normed(x):
        return Tensor(x / np.linalg.norm(x, axis=-1, keepdims=True))

    base = score(tag, normed(q), normed(k), cfg).data
    # power-of-two scaling is exact in binary floating point
    exact = score(tag, normed(2.0**exp2 * q), normed(2.0**exp2 * k), cfg).data
    np.testing.assert_array_equal(base, exact)
    scaled = score(tag, normed(c * q), normed(c * k), cfg).data
    np.testing.assert_allclose(base, scaled, atol=1e-12)


def test_dot_product_scale_witness():
    rng = np.random.default_rng(30)
    q, k = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    cfg = cfg_for("dp")
    base = score("dp", q, k, cfg).data
    scaled = score("dp", Tensor(2.0 * q.data), Tensor(2.0 * k.data), cfg).data
    assert not np.allclose(base, scaled)


def test_unit_norm_collapse():
    q, k = unit_rows((4, 4), 31), unit_rows((4, 4), 32)
    cos = score("cs", q, k, cfg_for("cs")).data
    dp = score("dp", q, k, cfg_for("dp")).data
    np.testing.assert_array_equal(cos, dp)
    sdp = score("sdp", q, k, cfg_for("sdp")).data
    np.testing.assert_allclose(sdp, cos / 2.0, atol=1e-15)


# -- the fused node against the composed reference in oracle.py -------------
# (batch and outputs as in the bit-identity harness, bitdump.py)

@pytest.mark.parametrize("budget", [None, 1])  # default chunks, and 1-sample chunks
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_node_matches_composed_oracle(tag, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(attention, "CHUNK_BUDGET", budget)
    x, targets = oracle_batch()
    additive = VARIANTS[ScoreVariant(tag)].kernel is None
    for norm_mode in (None, "none", "query", "key", "both"):
        for heads in (2, 3, 4):
            for positional in ("learnable", "none"):
                attn = AttentionConfig(model_dim=48, heads=heads, variant=tag, norm_mode=norm_mode)
                cfg = M.ModelConfig(bands=6, num_classes=3, patch_size=5, model_dim=48, depth=2,
                                    heads=heads, mlp_dim=16, dropout_rate=0.1, attention=attn,
                                    positional=positional)
                fused = model_outputs(cfg, x, targets)
                with monkeypatch.context() as m:
                    m.setattr(M, "multi_head_attention", composed_attention)
                    reference = model_outputs(cfg, x, targets)
                case = f"{tag} {norm_mode} H={heads} {positional}"
                assert fused.keys() == reference.keys(), case
                for name, want in reference.items():
                    if additive:
                        np.testing.assert_allclose(fused[name], want, rtol=1e-12, atol=1e-15,
                                                   err_msg=f"{case} {name}")
                    else:
                        np.testing.assert_array_equal(fused[name], want, err_msg=f"{case} {name}")


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("norm_mode", [None, "none", "query", "key", "both"])
@pytest.mark.parametrize("heads", [1, 5])
def test_mix_at_one_and_five_heads_matches_composed_oracle(heads, norm_mode, budget,
                                                           monkeypatch):
    # one head leaves the mix's sdp group empty, five split it 3 / 2; 25 tokens
    # and 12-wide heads, as in oracle_batch, so a wrong layout changes the rounding
    if budget is not None:
        monkeypatch.setattr(attention, "CHUNK_BUDGET", budget)
    b, n, d = 3, 25, 12 * heads
    rng = np.random.default_rng(heads)
    qkv, weights = rng.normal(size=(3, b, n, d)), Tensor(rng.normal(size=(b, n, d)))
    qkv[:, 1, 2] = 0.0  # a zero row in each of q, k and v
    cfg = cfg_for("msa-cs2", dim=d, heads=heads, norm_mode=norm_mode)

    def oracle(q, k, v):
        qh, kh, vh = (split_heads(m, heads) for m in (q, k, v))
        return merge_heads(attend(score("msa-cs2", *normalise(qh, kh, cfg), cfg), vh))

    results = []
    for run in (lambda q, k, v: attention_node(q, k, v, cfg), oracle):
        q, k, v = (Tensor(a, requires_grad=True) for a in qkv)
        out = run(q, k, v)
        T.sum_all(T.mul(out, weights)).backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    for got, want in zip(*results, strict=True):
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides


# the (variant, norm mode) pairs whose softmax takes exp of the raw scores,
# written out apart from attention._skips_max_shift; every other pair of the
# 12 x 5 keeps the row-max shift
UNSHIFTED = {(tag, mode) for tag in ("cs2", "cs", "abscs", "tempcs2", "c-cs2", "c-cs")
             for mode in (None, "both")}


@pytest.mark.parametrize("norm_mode", [None, "none", "query", "key", "both"])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_softmax_shift_reach(tag, norm_mode):
    b, n, d, h = 3, 7, 12, 3
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(scale=3.0, size=(b, n, d)) for _ in range(3))
    cfg = cfg_for(tag, dim=d, heads=h, norm_mode=norm_mode)
    additive = rand_params(d, h, additive=True).additive
    with T.no_grad():
        got = attention_node(Tensor(q), Tensor(k), Tensor(v), cfg, additive).data
    q_h, k_h, v_h = (np.ascontiguousarray(np.swapaxes(x.reshape(b, n, h, d // h), 1, 2))
                     for x in (q, k, v))
    spec, arrays = VARIANTS[cfg.variant], None
    if spec.kernel is None:
        arrays = tuple(t.data for t in (additive.w_q, additive.w_k, additive.w_a, additive.b_a))
    # (heads, (kernel, norm mode, cosine)); the mix scores cs^2 on heads 0-1, sdp on head 2
    groups = [(np.s_[:], (spec.kernel, cfg.resolved_norm_mode, spec.cosine))]
    if spec.mixed:
        groups = [(np.s_[:, :2], (spec.kernel, cfg.resolved_norm_mode, True)),
                  (np.s_[:, 2:], (attention._SCALED, NormMode.NONE, False))]
    s = np.concatenate([attention._Chunk(q_h[heads], k_h[heads], group, cfg, arrays).scores()
                        for heads, group in groups], axis=1)  # normalise, check, score

    def attend_rows(e):
        p = e / e.sum(axis=-1, keepdims=True)
        return np.swapaxes(np.matmul(p, v_h), 1, 2).reshape(b, n, d)

    shifted = attend_rows(np.exp(s - s.max(axis=-1, keepdims=True)))
    with np.errstate(over="ignore", invalid="ignore"):  # unbounded scores overflow here
        unshifted = attend_rows(np.exp(s))
    want, other = (unshifted, shifted) if (tag, norm_mode) in UNSHIFTED else (shifted, unshifted)
    assert not np.array_equal(want, other)  # the input tells the two forms apart
    np.testing.assert_array_equal(got, want)


def test_overflowing_bound_keeps_the_shift():
    """tempcs2 at temperature 1e-3 scores parallel rows 1000, where exp
    overflows: the node keeps the shifted softmax, as the oracle does."""
    n = 6
    rng = np.random.default_rng(10)
    k = rng.normal(size=(2, n, n))
    q = k * rng.uniform(0.5, 2.0, size=(2, n, 1))  # query row i parallel to key row i
    v = np.broadcast_to(np.eye(n), (2, n, n))  # so each output row is a probability row
    cfg = AttentionConfig(model_dim=n, heads=1, variant="tempcs2", temperature=1e-3)
    with T.no_grad():
        rows = attention_node(Tensor(q), Tensor(k), Tensor(v), cfg).data
    assert np.isfinite(rows).all()
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=1e-12)
    qh, kh, vh = (split_heads(Tensor(x), 1) for x in (q, k, v))
    want = attend(score("tempcs2", *normalise(qh, kh, cfg), cfg), vh,
                  shift=not attention._skips_max_shift(cfg))
    np.testing.assert_array_equal(rows, merge_heads(want).data)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_node_grad_check_over_chunks(tag, monkeypatch):
    monkeypatch.setattr(attention, "CHUNK_BUDGET", 1)
    rng = np.random.default_rng(40)
    q, k, v = (Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True) for _ in range(3))
    params = rand_params(6, 2, seed=41, additive=True)
    add = params.additive
    add.w_q, add.w_k = (Tensor(rng.normal(scale=0.5, size=(2, 5, 3)), requires_grad=True)
                        for _ in range(2))
    add.w_a, add.b_a = (Tensor(rng.normal(scale=0.5, size=(2, 5)), requires_grad=True)
                        for _ in range(2))
    cfg = cfg_for(tag, dim=6, heads=2)

    def f():
        y = attention_node(q, k, v, cfg, add)
        return T.sum_all(T.mul(y, y))

    tensors = [q, k, v]
    if VARIANTS[cfg.variant].kernel is None:
        tensors += [add.w_q, add.w_k, add.w_a, add.b_a]
    assert grad_check(f, tensors, max_coords=8) <= 1e-4


def node_and_oracle_errors(tag, q, k, v, norm_mode=None):
    cfg = cfg_for(tag, dim=q.shape[-3] * q.shape[-1], heads=q.shape[-3], norm_mode=norm_mode)
    errors = []
    for run in (lambda: attention_node(*(merge_heads(t) for t in (q, k, v)), cfg),
                lambda: attend(score(tag, *normalise(q, k, cfg), cfg), v)):
        with pytest.raises(Exception) as info:
            run()
        errors.append(info.type)
    return errors


def test_node_raises_what_the_composed_path_raises():
    rng = np.random.default_rng(42)
    q, k, v = (rng.normal(size=(2, 2, 4, 3)) for _ in range(3))
    tiny = q.copy()
    tiny[1, 0, 2] = 1e-13  # nonzero, with norm below eps: not unit after normalising
    assert node_and_oracle_errors("cs2", Tensor(tiny), Tensor(k), Tensor(v)) == \
        [ContractError, ContractError]
    assert node_and_oracle_errors("msa-cs2", Tensor(tiny), Tensor(k), Tensor(v)) == \
        [ContractError, ContractError]
    nan = q.copy()
    nan[1, 1, 3, 0] = np.nan
    assert node_and_oracle_errors("dp", Tensor(nan), Tensor(k), Tensor(v), "both") == \
        [NumericError, NumericError]
    assert node_and_oracle_errors("cs2", Tensor(nan), Tensor(k), Tensor(v)) == \
        [ContractError, ContractError]


@pytest.mark.parametrize("tag", ["cs2", "msa-cs2"])
@pytest.mark.parametrize("side", ["query", "key"])
def test_node_refuses_a_row_whose_norm_overflows(tag, side):
    # the row's squared norm overflows to inf, so normalising divides it by
    # inf and would hand a zero row to the scores without a word
    rng = np.random.default_rng(42)
    q, k, v = (rng.normal(size=(2, 2, 4, 3)) for _ in range(3))
    huge = q if side == "query" else k
    huge[1, 0, 2] = [1e200, 1e200, 0.0]
    zero = k if side == "query" else q
    zero[0, 1, 1] = 0.0  # a zero row still passes
    cfg = cfg_for(tag, dim=6, heads=2)
    with np.errstate(over="ignore"), pytest.raises(
            ContractError, match=fr"^{side} rows must .*\(found norm inf\)$"):
        attention_node(*(merge_heads(Tensor(t)) for t in (q, k, v)), cfg)
    huge[1, 0, 2] = [1e150, 1e150, 0.0]  # large, but its square is finite
    assert np.isfinite(attention_node(*(merge_heads(Tensor(t)) for t in (q, k, v)), cfg).data).all()


def test_node_rejects_missing_additive_params_and_bad_heads():
    q = Tensor(np.zeros((2, 4, 6)))
    with pytest.raises(ConfigError):
        attention_node(q, q, q, cfg_for("add", dim=6, heads=2))
    with pytest.raises(DimensionError):
        attention_node(q, q, q, cfg_for("msa-cs2", dim=12, heads=4))


def _held_arrays(obj, depth=3):
    """Arrays an object keeps alive: itself, a tensor's value, or those in
    lists/tuples and closures."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Tensor):
        yield obj.data
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item, depth)
    elif depth and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            yield from _held_arrays(cell.cell_contents, depth - 1)


def largest_held_per_sample(cfg, batch):
    params = M.init_params(cfg, 0)
    x = np.random.default_rng(0).normal(size=(batch, cfg.patch_size, cfg.patch_size, cfg.bands))
    probs = M.batched_forward(x, params, cfg, training=True, rng=np.random.default_rng(1))
    # a node holds no value: the graph keeps the root's and what its closures hold
    nodes = Tape.trace(probs).nodes
    held = [a.size for a in _held_arrays([probs.data] + [n.backward_fn for n in nodes])]
    return max(held) / batch, nodes


def test_additive_training_graph_holds_no_hidden_tensor(monkeypatch):
    cfg = M.ModelConfig(bands=4, num_classes=3, patch_size=4, model_dim=16, depth=2, heads=2,
                        mlp_dim=8, attention=AttentionConfig(16, 2, variant="add"))
    n, d_a = cfg.tokens, cfg.attention.head_dim
    largest, nodes = largest_held_per_sample(cfg, batch=6)
    assert largest < n * n * d_a
    assert [nd.op for nd in nodes].count("attention") == cfg.depth
    # the guard sees the composed path's (B, H, N, N, d_a) tensors
    monkeypatch.setattr(M, "multi_head_attention", composed_attention)
    assert largest_held_per_sample(cfg, batch=6)[0] >= n * n * d_a


def test_one_attention_node_per_layer():
    cfg = M.ModelConfig(bands=4, num_classes=3, patch_size=3, model_dim=8, depth=3, heads=2,
                        mlp_dim=8, attention=AttentionConfig(8, 2, variant="msa-cs2"))
    _, nodes = largest_held_per_sample(cfg, batch=2)
    ops = [nd.op for nd in nodes if nd.parents]
    assert ops.count("attention") == 3
    assert ops.count("softmax_rows") == 1  # the classifier's; attention's is in the node
    assert "l2_normalize_rows" not in ops and "concat" not in ops
    # the node splits and merges the heads itself: the reshapes are the classifier's
    assert "transpose" not in ops and ops.count("reshape") == 2


# -- the node's chunks on several threads (parallel.deal) ---------------------

def node_over_chunks(tag, threads, monkeypatch, backwards=1):
    """Output, input gradients (of each of ``backwards`` ``backward()`` calls
    through one graph) and the threads that ran a chunk, of the node over 8
    samples in chunks of 2, on a budget of ``threads`` threads."""
    monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
    b, n, d, h = 8, 5, 6, 2
    cfg = cfg_for(tag, dim=d, heads=h)
    additive = VARIANTS[cfg.variant].kernel is None
    monkeypatch.setattr(attention, "CHUNK_BUDGET", 2 * 8 * n * n * h * (d // h if additive else 1))
    rng = np.random.default_rng(50)
    q, k, v = (Tensor(rng.normal(size=(b, n, d)), requires_grad=True) for _ in range(3))
    weights = Tensor(rng.normal(size=(b, n, d)))
    add = rand_params(d, h, seed=51, additive=True).additive
    inputs = [q, k, v] + ([add.w_q, add.w_k, add.w_a, add.b_a] if additive else [])
    ran, chunk = set(), attention._Chunk

    class Recording(chunk):
        def __init__(self, *args, **kwargs):
            ran.add(threading.current_thread())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(attention, "_Chunk", Recording)
    out = attention_node(q, k, v, cfg, add)
    loss, grads = T.sum_all(T.mul(out, weights)), []
    for _ in range(backwards):
        loss.backward()
        grads += [t.grad for t in inputs]
    return [out.data] + grads, ran


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_threaded_chunks_give_the_serial_bits(tag, monkeypatch):
    # four chunks on two threads, lends poisoned inside a pool: the same
    # output, gradients (the additive ones summed over chunks) and layouts
    serial, ran = node_over_chunks(tag, 1, monkeypatch)
    assert len(ran) == 1
    monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
    poison_lends(monkeypatch)
    with T._StepPool():
        threaded, ran = node_over_chunks(tag, 2, monkeypatch)
    assert len(ran) == 2
    for want, got in zip(serial, threaded, strict=True):
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_every_backward_through_one_graph_gives_the_same_bits(tag, monkeypatch):
    # the node keeps only q, k and v, and each backward recomputes the
    # probabilities: two backward() calls through one graph, over four
    # chunks, serially and on two threads, in a pool whose lends start as
    # NaN, hand on the bits of one serial backward outside a pool
    want, _ = node_over_chunks(tag, 1, monkeypatch)
    monkeypatch.setattr(T, "_POOL_MIN_BYTES", 1)
    poison_lends(monkeypatch)
    for threads in (1, 2):
        with T._StepPool():
            got, _ = node_over_chunks(tag, threads, monkeypatch, backwards=2)
        firsts, seconds = got[1:len(want)], got[len(want):]  # each backward's gradients
        for first, second, serial in zip(firsts, seconds, want[1:], strict=True):
            assert first.tobytes() == second.tobytes() == serial.tobytes(), threads
            assert first.strides == second.strides == serial.strides, threads


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_threaded_chunks_raise_the_earliest_chunks_error(threads, monkeypatch):
    # chunks of 2 samples: a query row below eps in chunk 1 fails last in
    # time, after a NaN row in chunk 3, yet its error is the one raised, as
    # in a serial loop
    monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
    monkeypatch.setattr(attention, "CHUNK_BUDGET", 2 * 8 * 5 * 5 * 2)
    rng = np.random.default_rng(52)
    q, k, v = (rng.normal(size=(8, 5, 6)) for _ in range(3))
    q[2, 0] = 1e-13  # each head's row: norm sqrt(3) * 1e-13
    q[6, 1, 0] = np.nan
    check = attention._check_unit_rows

    def slow_for_short_rows(norms, what):
        if ((norms > 0) & (norms < attention._NORM_EPS)).any():
            time.sleep(0.2)
        check(norms, what)

    monkeypatch.setattr(attention, "_check_unit_rows", slow_for_short_rows)
    with pytest.raises(ContractError, match=r"^query rows .*\(found norm 1\.732e-13\)$"):
        attention_node(Tensor(q), Tensor(k), Tensor(v), cfg_for("cs2", dim=6, heads=2))


# -- the layouts of the gradients the node hands on ----------------------------

@pytest.mark.parametrize("chunks", [1, 4])
@pytest.mark.parametrize("norm_mode", [None, "none", "query", "key", "both"])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_node_gradients_have_the_references_layouts(tag, norm_mode, chunks, monkeypatch):
    # the node lends the batch's q, k and v gradients itself, by its own
    # rule, and no chunk lays them out: in one chunk and in four 1-sample
    # chunks they must have the strides of the composed reference's
    monkeypatch.setattr(attention, "CHUNK_BUDGET", attention.CHUNK_BUDGET if chunks == 1 else 1)
    b, n, d, h = 4, 5, 12, 3
    cfg = cfg_for(tag, dim=d, heads=h, norm_mode=norm_mode)
    add = rand_params(d, h, seed=53, additive=True).additive
    rng = np.random.default_rng(54)
    arrays, weights = [rng.normal(size=(b, n, d)) for _ in range(3)], rng.normal(size=(b, n, d))

    def gradients(attend_heads):
        qkv = [Tensor(a, requires_grad=True) for a in arrays]
        T.sum_all(T.mul(attend_heads(*qkv), Tensor(weights))).backward()
        return [t.grad for t in qkv]

    def reference(q, k, v):
        qh, kh, vh = (split_heads(t, h) for t in (q, k, v))
        return merge_heads(attend(score(cfg.variant, *normalise(qh, kh, cfg), cfg, add), vh,
                                  shift=not attention._skips_max_shift(cfg)))

    node = gradients(lambda q, k, v: attention_node(q, k, v, cfg, add))
    for got, want in zip(node, gradients(reference), strict=True):
        assert got.strides == want.strides
