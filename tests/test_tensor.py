import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleattn import attention, parallel
from angleattn import tensor as T
from angleattn.attention import AdditiveParams, AttentionConfig
from angleattn.errors import ConfigError, ContractError, DimensionError, NumericError
from angleattn.model import ModelConfig, batched_forward, init_params
from angleattn.tensor import Tensor, grad_check
from angleattn.train import label_smoothed_ce
from oracle import concat, l2_normalize_rows, tanh, transpose


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5, 6], [7, 8]])

    def test_known_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expect[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, expect, atol=1e-12)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 3\)"):
            T.matmul(rand((2, 3)), rand((4, 3)))

    def test_gradient_rule(self):
        a, b = rand((3, 4), 1), rand((4, 2), 2)
        out = T.sum_all(T.matmul(a, b))
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))


class TestElementwise:
    def test_tanh_odd_at_origin(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_gelu_value(self):
        # 0.5 * 1 * (1 + erf(1/sqrt(2)))
        expect = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        np.testing.assert_allclose(T.gelu(Tensor([1.0])).data[0], expect, atol=1e-12)
        assert abs(T.gelu(Tensor([1.0])).data[0] - 0.841345) < 1e-6

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(rand((2, 3)), rand((2, 4)))


class TestSoftmaxRows:
    def test_uniform(self):
        np.testing.assert_allclose(T.softmax_rows(Tensor([0.0, 0.0, 0.0])).data,
                                   [1 / 3] * 3, atol=1e-12)

    def test_shift_invariance(self):
        x = rand((4, 5), 7)
        shifted = T.add(x, Tensor(np.full((4, 5), 3.7)))
        np.testing.assert_allclose(T.softmax_rows(x).data, T.softmax_rows(shifted).data,
                                   atol=1e-12)

    def test_known_values(self):
        out = T.softmax_rows(Tensor([1.0, 2.0, 3.0])).data
        np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_rows(Tensor([1.0, float("nan")]))

    def test_nan_in_later_row_of_3d_input_rejected(self):
        x = np.zeros((2, 3, 4))
        x[1, 2, 1] = float("nan")
        with pytest.raises(NumericError):
            T.softmax_rows(Tensor(x))

    @pytest.mark.parametrize("row", [[np.inf, 1.0, 2.0], [-np.inf] * 3])
    def test_infinite_row_max_rejected(self, row):
        # the shift would give inf - inf, and the row NaN probabilities
        x = np.zeros((2, 3))
        x[1] = row
        with pytest.raises(NumericError, match="^softmax_rows: infinite input$"):
            T.softmax_rows(Tensor(x))

    def test_rows_sum_to_one(self):
        out = T.softmax_rows(rand((6, 9), 11, -50, 50)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert (out >= 0).all() and (out <= 1).all()


class TestL2NormalizeRows:
    def test_345(self):
        np.testing.assert_allclose(l2_normalize_rows(Tensor([3.0, 4.0])).data, [0.6, 0.8])

    def test_zero_stays_zero(self):
        np.testing.assert_array_equal(l2_normalize_rows(Tensor(np.zeros(5))).data, np.zeros(5))

    def test_scale_invariance(self):
        v = rand((3, 4), 5)
        scaled = T.scale(v, 17.5)
        np.testing.assert_allclose(l2_normalize_rows(v).data,
                                   l2_normalize_rows(scaled).data, atol=1e-12)

    def test_idempotent(self):
        v = rand((3, 4), 6)
        once = l2_normalize_rows(v)
        np.testing.assert_allclose(once.data, l2_normalize_rows(once).data, atol=1e-12)


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        x = Tensor(np.full(4, 9.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_two_point(self):
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           eps=1e-14)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_shift_tail(self):
        x = rand((2,), 8)
        base = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        shifted = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.full(2, 5.0)))
        np.testing.assert_allclose(shifted.data, base.data + 5.0, atol=1e-12)

    def test_standardizes(self):
        x = rand((7, 16), 9)
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)


class TestReduceMean:
    def test_axis0(self):
        np.testing.assert_array_equal(
            T.reduce_mean(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0).data, [2, 3])

    def test_single_row_identity(self):
        x = rand((1, 6), 10)
        np.testing.assert_allclose(T.reduce_mean(x, axis=0).data, x.data[0])

    def test_all_elements(self):
        assert T.reduce_mean(Tensor(np.ones((2, 2)))).item() == 1.0


class TestDropout:
    def test_rate_zero_identity(self):
        x = rand((5, 5), 12)
        out = T.dropout(x, 0.0, True, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_identity(self):
        x = rand((5, 5), 13)
        out = T.dropout(x, 0.9, False, np.random.default_rng(0))
        assert out is x

    def test_seeded_determinism(self):
        x = rand((20, 20), 14)
        a = T.dropout(x, 0.5, True, np.random.default_rng(99)).data
        b = T.dropout(x, 0.5, True, np.random.default_rng(99)).data
        np.testing.assert_array_equal(a, b)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            T.dropout(rand((2,)), 1.0, True, np.random.default_rng(0))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_backward_keeps_a_byte_mask(self, threads, monkeypatch):
        # the closure keeps one bool per value, no float64 array of x's
        # shape; output and gradient are x and g times the float64 keep
        # scale, bit for bit, signed zeros included
        monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
        monkeypatch.setattr(T, "_DEAL_MIN_BYTES", 1)
        x = rand((5, 40, 48), 15)
        out = T.dropout(x, 0.3, True, np.random.default_rng(16))
        held = [c.cell_contents for c in out.backward_fn.__closure__]
        assert not any(isinstance(h, Tensor) for h in held)
        assert [(a.dtype, a.shape) for a in held if isinstance(a, np.ndarray)] == [
            (np.dtype(bool), x.shape)]
        keep = np.random.default_rng(16).random(x.shape)
        keep = (keep >= 0.3) / (1.0 - 0.3)
        assert out.data.tobytes() == (x.data * keep).tobytes()
        g = rand((5, 40, 48), 17).data
        T.sum_all(T.mul(out, Tensor(g))).backward()
        assert x.grad.tobytes() == (g * keep).tobytes()
        assert np.signbit(x.grad[keep == 0]).any() and np.signbit(out.data[keep == 0]).any()


class TestBackward:
    def test_sum_grad_ones(self):
        x = rand((3, 4), 15)
        T.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_power_rule(self):
        x = rand((3, 4), 16)
        T.sum_all(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_accumulation_over_uses(self):
        x = rand((3,), 17)
        T.sum_all(T.add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            rand((2, 2)).backward()

    def test_composite_matches_grad_check(self):
        x = rand((3, 4), 18)
        w = rand((4, 4), 19)

        def f():
            p = T.softmax_rows(tanh(T.matmul(x, w)))
            return T.sum_all(T.mul(p, p))

        assert grad_check(f, [x, w]) < 1e-4


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = rand((5,), 20)

        def f():
            return T.sum_all(T.mul(x, x))

        assert grad_check(f, [x]) < 1e-8

    def test_constant_function(self):
        x = rand((3,), 21)
        c = Tensor(np.ones(3))

        def f():
            return T.sum_all(T.add(T.mul(x, Tensor(np.zeros(3))), c))

        assert grad_check(f, [x]) < 1e-9


class TestNoGrad:
    def test_nodes_have_no_graph(self):
        x = rand((3, 4), 30)
        with T.no_grad():
            out = T.softmax_rows(T.gelu(T.matmul(x, transpose(x))))
        assert out.node.parents == () and out.backward_fn is None
        assert not out.requires_grad

    def test_values_match_taped(self):
        x = rand((3, 4), 31)
        taped = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        with T.no_grad():
            free = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(free.data, taped.data)

    def test_restored_after_exception(self):
        x = rand((2, 2), 32)
        with pytest.raises(DimensionError):
            with T.no_grad():
                T.matmul(x, rand((3, 3)))
        assert T.gelu(x).backward_fn is not None

    def test_nested(self):
        x = rand((2, 2), 33)
        with T.no_grad():
            with T.no_grad():
                inner = T.gelu(x)
            outer = T.gelu(x)
        assert inner.backward_fn is None and outer.backward_fn is None
        assert T.gelu(x).node.parents == (x.node,)


class TestTapeAndDeterminism:
    def test_tape_topological_order(self):
        x = rand((2, 2), 22)
        s = T.add(x, x)
        y = T.sum_all(T.mul(s, s))
        tape = T.Tape.trace(y)
        position = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node.parents:
                assert position[id(parent)] < position[id(node)]

    def test_grad_buffers_match_shapes(self):
        # leaves keep their gradient; an interior node releases its own once
        # backward has passed it on, and the graph stays traceable
        x = rand((2, 3), 23)
        y = T.sum_all(tanh(T.matmul(x, transpose(x))))
        y.backward()
        tape = T.Tape.trace(y)
        assert len(tape.nodes) == 5
        for node in tape.nodes:
            if node.parents:
                assert node.grad is None
            else:
                assert node.grad.shape == node.shape == x.shape

    def test_backward_again_after_release(self):
        x = rand((3, 4), 24)
        h = T.gelu(x)
        y = T.sum_all(T.mul(h, h))
        y.backward()
        first = x.grad
        y.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_dense_gradients_kept_strided_views_copied(self):
        # add hands one array to both operands, and it is stored as given;
        # concat hands each operand a strided slice, which is copied dense
        a, b = rand((2, 3), 25), rand((2, 3), 26)
        T.sum_all(T.gelu(T.add(a, b))).backward()
        assert np.shares_memory(a.grad, b.grad)
        c, d = rand((2, 3), 27), rand((2, 2), 28)
        T.sum_all(T.gelu(concat([c, d], axis=1))).backward()
        assert c.grad.flags.c_contiguous and d.grad.flags.c_contiguous
        assert c.grad.base is None and d.grad.base is None

    def test_tape_reduces_broadcast_gradients_and_skips_none(self):
        # a closure returns one gradient or None per parent, here an
        # output-shaped one for a (1, 3) parent; the tape reduces and stores it
        a, b = rand((1, 3), 34), rand((4, 3), 35)
        out = T._make(a.data + b.data, (a, b), lambda g: (g, None), "test")
        T.sum_all(out).backward()
        np.testing.assert_array_equal(a.grad, np.full((1, 3), 4.0))
        assert b.grad is None

    @pytest.mark.parametrize("positional", ["learnable", "sinusoidal"])
    def test_only_tensors_that_require_grad_hold_one(self, positional):
        # benchmark config, batch 128: the flattened input, the label-smoothing
        # target and the sinusoidal table need no gradient and get none
        attn = AttentionConfig(model_dim=32, heads=2, variant="cs2")
        cfg = ModelConfig(bands=32, num_classes=8, patch_size=8, model_dim=32, depth=2,
                          heads=2, mlp_dim=64, dropout_rate=0.1, attention=attn,
                          positional=positional)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        probs = batched_forward(rng.normal(size=(128, 8, 8, 32)), params, cfg,
                                training=True, rng=rng)
        loss = label_smoothed_ce(probs, rng.integers(0, 8, size=128), 0.05)
        loss.backward()
        held = [(n.op, n.shape) for n in T.Tape.trace(loss).nodes
                if not n.requires_grad and n.grad is not None]
        assert held == []
        assert all(t.grad is not None for _, t in params.named_parameters())

    def test_fixed_seed_bit_identical(self):
        def pipeline():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(4, 4)))
            return T.dropout(T.softmax_rows(T.matmul(x, x)), 0.3, True,
                             np.random.default_rng(7)).data

        np.testing.assert_array_equal(pipeline(), pipeline())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_output_shape_is_function_of_input_shapes(m, k, n, data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a, b = Tensor(rng.normal(size=(m, k))), Tensor(rng.normal(size=(k, n)))
    assert T.matmul(a, b).shape == (m, n)
    assert T.softmax_rows(a).shape == (m, k)
    assert l2_normalize_rows(a).shape == (m, k)
    assert T.reduce_mean(a, axis=0).shape == (k,)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([lambda x: T.mul(x, x), tanh, T.gelu]), st.integers(0, 2**31))
def test_unary_op_gradients(op, seed):
    x = Tensor(np.random.default_rng(seed).uniform(-2, 2, size=(3, 3)), requires_grad=True)

    def f():
        return T.sum_all(op(x))

    assert grad_check(f, [x]) < 1e-4


# -- memory: the buffers of _empty, and the bytes a step keeps alive ---------

def poison_empty(monkeypatch):
    """NaN into every array ``tensor._empty`` returns, before the caller writes it."""
    empty = T._empty

    def poisoned(shape):
        out = empty(shape)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(T, "_empty", poisoned)


@contextlib.contextmanager
def tracing():
    """Trace allocations inside the block, so that ``live_bytes`` counts them."""
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def live_bytes():
    """Bytes of the numpy arrays allocated since ``tracing`` began that are
    still alive: numpy reports every array's data to ``tracemalloc``."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(trace.size for trace in snapshot.traces)


class TestStepPool:
    """What a step's arrays keep alive, counted in live numpy bytes, and
    ``tensor._empty``, which every buffer of an op, a backward closure or
    the attention node comes from."""

    def test_node_keeps_only_its_output(self):
        # the node's head copies, normalised rows, scores and probabilities die
        # when its forward returns, and everything its backward allocates (the
        # recomputed probabilities too) but the gradient it hands on dies
        # when backward returns; its closure keeps q, k and v, alive anyway
        q = Tensor(np.random.default_rng(0).normal(size=(3, 5, 6)), requires_grad=True)
        with tracing():
            out = attention.attention_node(q, q, q, AttentionConfig(6, 2))
            assert live_bytes() == out.data.nbytes
            T.sum_all(out).backward()
            assert live_bytes() == out.data.nbytes + q.grad.nbytes
            out = q.grad = None
            assert live_bytes() == 0

    def test_node_of_4_chunks_keeps_only_its_output(self, monkeypatch):
        # serial and on 2 threads: every chunk temporary (head copies,
        # normalised rows, scores, probabilities) dies with its chunk, and
        # everything its backward allocated but the gradients it hands on
        # dies when backward returns; no gradient views a larger array, so
        # none keeps a chunk temporary alive
        monkeypatch.setattr(attention, "CHUNK_BUDGET", 1)  # one sample per chunk
        rng = np.random.default_rng(0)
        for tag, threads in itertools.product(("cs2", "dp", "add", "msa-cs2"), (1, 2)):
            monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
            q, k, v = (Tensor(rng.normal(size=(4, 5, 6)), requires_grad=True) for _ in range(3))
            additive = None
            if tag == "add":
                additive = AdditiveParams(*(Tensor(rng.normal(size=shape), requires_grad=True)
                                            for shape in ((2, 3, 3), (2, 3, 3), (2, 3), (2, 3))))
            leaves = [q, k, v] + ([additive.w_q, additive.w_k, additive.w_a, additive.b_a]
                                  if additive else [])
            with tracing():
                out = attention.attention_node(q, k, v, AttentionConfig(6, 2, variant=tag),
                                               additive)
                assert live_bytes() == out.data.nbytes, tag
                T.sum_all(out).backward()
                grads = sum(leaf.grad.nbytes for leaf in leaves)
                assert live_bytes() == out.data.nbytes + grads, tag
                for leaf in leaves:
                    leaf.grad = None
                assert live_bytes() == out.data.nbytes, tag
                out = None
                assert live_bytes() == 0, tag

    def test_sum_and_copies_keep_numpys_layout(self):
        # _accumulate's sum of two gradients lays out what numpy's addition
        # would, and its copy of a strided gradient what np.array would
        base = np.random.default_rng(1).normal(size=(3, 4, 5))
        for a in (base, base.transpose(2, 1, 0), base.transpose(0, 2, 1), base[:1].T):
            node = Tensor(np.zeros(a.shape)).node
            T._accumulate(node, a)
            assert node.grad.strides == np.array(a).strides
            T._accumulate(node, a)
            assert node.grad.strides == (np.array(a) + a).strides
            np.testing.assert_array_equal(node.grad, 2 * a)

    @pytest.mark.parametrize("op", ["add", "matmul", "gelu", "layer_norm", "dropout",
                                    "cs2", "dp", "add_attention", "msa-cs2"])
    def test_pooled_op_bits_match_unpooled(self, op, monkeypatch):
        # every buffer of _empty, forward and backward, is NaN until the op
        # writes it, also on the second run, which the heap serves from the
        # memory the first one freed
        monkeypatch.setattr(T, "_DEAL_MIN_BYTES", 1)
        monkeypatch.setattr(attention, "CHUNK_BUDGET", 3 * 8 * 2 * 5 * 5)  # chunks 3, 3, 1
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(7, 5, 6)), rng.normal(size=(7, 5, 6))
        w, s, b = rng.normal(size=(6, 6)), rng.normal(size=6), rng.normal(size=6)
        add_params = [rng.normal(scale=0.5, size=shape)
                      for shape in ((2, 4, 3), (2, 4, 3), (2, 4), (2, 4))]

        def run():
            ins = [Tensor(a, requires_grad=True) for a in (x, y, w, s, b, *add_params)]
            tx, ty, tw, ts, tb, *tadd = ins
            if op == "add":
                out = T.add(tx, tb)
            elif op == "matmul":
                out = T.matmul(tx, tw)
            elif op == "gelu":
                out = T.gelu(tx)
            elif op == "layer_norm":
                out = T.layer_norm(tx, ts, tb)
            elif op == "dropout":
                out = T.dropout(tx, 0.3, True, np.random.default_rng(9))
            else:
                tag = "add" if op == "add_attention" else op
                additive = attention.AdditiveParams(*tadd) if tag == "add" else None
                out = attention.attention_node(tx, ty, T.matmul(ty, tw),
                                               AttentionConfig(6, 2, variant=tag), additive)
            T.sum_all(T.mul(out, Tensor(y))).backward()
            return [np.array(out.data)] + [t.grad for t in ins]

        plain = run()
        poison_empty(monkeypatch)
        run()
        poisoned = run()
        for a, b in zip(plain, poisoned):
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)


# -- the row-by-row ops on several threads (parallel.deal) -------------------

class TestDealtOps:
    """matmul, gelu, layer_norm, add and dropout deal contiguous slices of
    their leading sample axis to threads, forward and backward; every value
    and gradient is the same bits on any number of threads."""

    # deals per forward and backward; a (5, 40, 48) float64 array is above
    # the deal floor, and so are the products with a (48, 64) weight
    DEALS = {"matmul": 3, "matmul-batched": 3, "gelu": 2, "layer_norm": 2,
             "add-bias": 1, "add-pos": 1, "dropout": 2}

    @staticmethod
    def record_deals(monkeypatch):
        """The share counts of the deals the ops of ``tensor`` make."""
        deal, dealt = parallel.deal, []

        def recording(fn, n):
            if fn.__module__ == T.__name__:
                dealt.append(n)
            return deal(fn, n)

        monkeypatch.setattr(parallel, "deal", recording)
        return dealt

    @staticmethod
    def run(op, threads, monkeypatch, shape=(5, 40, 48)):
        """The op's output and every input's gradient, on ``threads`` threads."""
        monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
        rng = np.random.default_rng(4)
        n, d = shape[-2:]
        others = {"matmul": [(d, 64)], "matmul-batched": [shape[:-2] + (d, 64)], "gelu": [],
                  "layer_norm": [(d,), (d,)], "add-bias": [(d,)], "add-pos": [(n, d)],
                  "dropout": []}[op]
        ins = [Tensor(rng.normal(size=s), requires_grad=True) for s in (shape, *others)]
        if op.startswith("matmul"):
            out = T.matmul(*ins)
        elif op.startswith("add"):
            out = T.add(*ins)
        elif op == "gelu":
            out = T.gelu(*ins)
        elif op == "layer_norm":
            out = T.layer_norm(*ins)
        else:
            out = T.dropout(*ins, 0.3, True, np.random.default_rng(9))
        T.sum_all(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        return [out.data] + [t.grad for t in ins]

    @pytest.mark.parametrize("op", DEALS)
    def test_bits_do_not_depend_on_the_threads(self, op, monkeypatch):
        # 5 samples over 2 threads are split 2 + 3, over 3 threads 1 + 2 + 2;
        # with every buffer of _empty NaN, a slice no share wrote shows
        dealt = self.record_deals(monkeypatch)
        serial = self.run(op, 1, monkeypatch)
        assert dealt == []
        poison_empty(monkeypatch)
        for threads in (2, 3):
            threaded = self.run(op, threads, monkeypatch)
            assert dealt == [threads] * self.DEALS[op]
            dealt.clear()
            for a, b in zip(serial, threaded):
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("op,shape", [(op, shape) for op in DEALS
                                          for shape in ((200, 48), (5, 8, 16))
                                          if len(shape) == 3 or op != "matmul-batched"])
    def test_a_single_patch_or_a_small_array_starts_no_deal(self, op, shape, monkeypatch):
        # a 2-D input (one patch's tokens) stays on one thread, also above
        # the deal floor, and so does a stack whose arrays are all below it
        dealt = self.record_deals(monkeypatch)
        self.run(op, 3, monkeypatch, shape=shape)
        assert dealt == []
