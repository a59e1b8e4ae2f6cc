"""Training loop, AdamW, label-smoothed cross-entropy, metrics, sweeps."""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import attention, parallel
from . import tensor as T
from .attention import ScoreVariant
from .data import extract_patches, inject_noise, stratified_split
from .errors import (AngleAttnError, ConfigError, ContractError, EvalError, LabelError,
                     NumericError, SplitError, check_int, check_real)
from .model import batched_forward, init_params, is_no_decay
from .tensor import Tensor


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    lr: float = 3e-4
    weight_decay: float = 2e-4
    clip_norm: float = 1.0
    label_smoothing: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)
        check_real("lr", self.lr, lambda v: 0 < v < math.inf, "finite and > 0")
        check_real("clip_norm", self.clip_norm, lambda v: v > 0, "> 0")
        check_real("weight_decay", self.weight_decay, lambda v: 0 <= v < math.inf,
                   "finite and >= 0")
        check_real("label_smoothing", self.label_smoothing, lambda v: 0 <= v < 1, "in [0, 1)")


@dataclass
class EvalReport:
    confusion: np.ndarray  # (K, K), rows = truth
    oa: float
    aa: float
    kappa: float
    per_class_acc: np.ndarray
    scene_ids: np.ndarray | None = None  # (H, W) ids of every pixel, with predict_scene


def label_smoothed_ce(probs, targets, smoothing):
    """Mean over the batch of -sum_k y'_k ln(max(p_k, 1e-12))."""
    targets = np.asarray(targets)
    k = probs.shape[-1]
    if targets.min() < 0 or targets.max() >= k:
        raise LabelError(f"targets must lie in [0, {k}), got range "
                         f"[{targets.min()}, {targets.max()}]")
    smoothed = np.full((len(targets), k), smoothing / k)
    smoothed[np.arange(len(targets)), targets] += 1.0 - smoothing
    logp = T.log(T.clamp_min(probs, 1e-12))
    return T.scale(T.sum_all(T.mul(Tensor(smoothed), logp)), -1.0 / len(targets))


def clip_gradients(named_params, clip_norm):
    """Scale each gradient so that no tensor's norm exceeds clip_norm (per-tensor
    ``clipnorm``, as in Keras).

    Returns the global gradient norm before clipping.
    """
    squares = 0.0
    for _, t in named_params:
        if t.grad is None:
            continue
        norm = float(np.sqrt((t.grad ** 2).sum()))
        squares += norm * norm
        if norm > clip_norm:
            t.grad = t.grad * (clip_norm / norm)
    return math.sqrt(squares)


class AdamW:
    """Decoupled weight decay; decay skips layer norms and biases.

    ``step`` updates each parameter's ``data`` array and its moments in
    place, so arrays shared with the parameters see the update.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, named_params, lr, weight_decay=0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.named_params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.named_params}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, tensor in self.named_params:
            g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            # same roundings as the out-of-place expressions; keeping the
            # buffers stops each step's new arrays from pinning the heap
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            tensor.data -= self.lr * update
            if self.weight_decay and not is_no_decay(name):
                tensor.data -= self.lr * self.weight_decay * tensor.data


def metrics_from_confusion(confusion):
    """(oa, aa, kappa, per-class recall) from a truth-by-prediction count matrix."""
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    if total == 0:
        raise EvalError("empty confusion matrix")
    diag = np.diag(confusion)
    oa = diag.sum() / total
    row = confusion.sum(axis=1)
    col = confusion.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(row > 0, diag / row, 0.0)
    aa = per_class[row > 0].mean()
    pe = float((row * col).sum()) / total**2
    kappa = 1.0 if pe == 1.0 else (oa - pe) / (1.0 - pe)
    return float(oa), float(aa), float(kappa), per_class


def _predict_block(cfg):
    """Patches per ``no_grad`` forward in ``predict``: at most as many as keep
    two copies of the widest activation (tokens x max(model_dim, mlp_dim)
    float64 per patch) within ``attention.CHUNK_BUDGET``. Each block then
    allocates the same few arrays of at most 1 MiB, which the heap can hand
    back block after block instead of faulting in fresh pages."""
    width = max(cfg.model_dim, cfg.mlp_dim)
    return max(1, attention.CHUNK_BUDGET // (16 * cfg.tokens * width))


try:
    _libc = ctypes.CDLL(None)  # the C library the process runs on
except (OSError, TypeError):  # none that ctypes can load by that name
    _libc = None


def _tune_heap():
    """Make glibc's heap keep freed memory, so that the next step or block
    reuses it instead of faulting fresh pages in: an array below 32 MiB (the
    largest size glibc lets the heap pass to a mapping of its own) comes
    from the heap, and the heap gives memory back only when 1 GiB at its
    top is free. The settings are process-wide and sticky; where libc has
    no ``mallopt`` this does nothing."""
    mallopt = getattr(_libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


def predict(params, cfg, cube, flat_indices, batch_size=256):
    """Predicted class ids (1-based) for the given flat pixel indices.

    Runs under ``no_grad``, so no graph is kept, in blocks of at most
    ``batch_size`` patches, at most ``_predict_block(cfg)`` and at most an
    even split of the call over ``parallel.threads()``, so that a call of
    few patches still fills every core. Each row of a forward depends on
    its own patch alone, so the ids depend on none of these bounds, and
    each block writes only its own slice of them. ``parallel.deal`` runs
    the blocks on those threads under ``no_grad`` and with numpy's
    floating-point warnings off, as ``train`` runs, and raises the error of
    the lowest-offset block that failed, as a serial run would; inside a
    threaded block the attention nodes and ops run serially. It tunes the
    heap as ``train`` does (``_tune_heap``).
    """
    n, threads = len(flat_indices), parallel.threads()
    block = max(1, min(batch_size, _predict_block(cfg), math.ceil(n / threads)))
    preds = np.empty(n, dtype=np.int64)
    offsets = range(0, n, block)

    def run(i):
        lo = offsets[i]
        patches = extract_patches(cube, flat_indices[lo:lo + block], cfg.patch_size)
        probs = batched_forward(patches, params, cfg, training=False)
        preds[lo:lo + len(patches)] = probs.data.argmax(axis=-1) + 1

    _tune_heap()
    with T.no_grad(), np.errstate(all="ignore"):
        parallel.deal(run, len(offsets))
    return preds


def _check_classes(cfg, labels):
    """ConfigError unless the model has a class for every label id."""
    if labels.num_classes > cfg.num_classes:
        raise ConfigError(f"num_classes {cfg.num_classes} is below the {labels.num_classes} "
                          "classes of the labels")


def evaluate(params, cfg, cube, labels, test_indices, batch_size=256, predict_scene=False):
    """Confusion matrix and OA/AA/kappa over the given test pixels.

    With ``predict_scene`` it predicts every pixel of the scene once, keeps
    those ids as the report's ``scene_ids`` and reads the test pixels' ids
    from them; each id depends on its own patch alone, so they are the ids
    a call over the test pixels gives."""
    if len(test_indices) == 0:
        raise EvalError("empty test set")
    _check_classes(cfg, labels)
    truth = labels.ids.reshape(-1)[test_indices].astype(np.int64)
    confusion = np.zeros((cfg.num_classes,) * 2, dtype=np.int64)  # refused before the work
    pixels = np.arange(labels.ids.size) if predict_scene else test_indices
    ids = predict(params, cfg, cube, pixels, batch_size)
    preds = ids[test_indices] if predict_scene else ids
    np.add.at(confusion, (truth - 1, preds - 1), 1)
    oa, aa, kappa, per_class = metrics_from_confusion(confusion)
    return EvalReport(confusion=confusion, oa=oa, aa=aa, kappa=kappa, per_class_acc=per_class,
                      scene_ids=ids.reshape(labels.ids.shape) if predict_scene else None)


def _train_step(params, cfg, tcfg, opt, batch, targets, rng):
    """One optimiser step on one batch; returns its loss.

    The step's graph and intermediate gradients die before it returns, so
    the training loop never holds two graphs at once. A non-finite loss or
    gradient norm raises NumericError before the parameters change, and a
    non-finite parameter after the update raises it naming the parameter.
    """
    params.zero_grads()
    probs = batched_forward(batch, params, cfg, training=True, rng=rng)
    loss = label_smoothed_ce(probs, targets, tcfg.label_smoothing)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss {value}")
    loss.backward()
    norm = clip_gradients(opt.named_params, tcfg.clip_norm)
    if not math.isfinite(norm):
        raise NumericError(f"non-finite gradient norm {norm}")
    opt.step()
    for name, t in opt.named_params:
        if not np.isfinite(t.data).all():
            raise NumericError(f"non-finite values in {name} after the update")
    return value


def train(cfg, cube, labels, splits, tcfg):
    """Run the training protocol; returns (best params, per-epoch log).

    ``splits`` is the (train, val, test) triple of flat pixel indices.
    Model selection keeps the epoch with the best validation OA; with
    epochs=0 the freshly initialized parameters are returned. The heap is
    tuned on entry (``_tune_heap``), so each step's arrays reuse the memory
    of the arrays that died before them, and trimmed (``malloc_trim``) on
    exit, also when the run fails, so a finished run keeps no freed memory.
    """
    _tune_heap()
    train_idx, val_idx, _ = splits
    if len(train_idx) == 0:
        raise SplitError("empty training split")
    _check_classes(cfg, labels)
    flat_labels = labels.ids.reshape(-1).astype(np.int64)
    # evaluate's confusion matrix, so that one numpy refuses stops the run before
    # its first step; pages it never touches cost nothing
    np.zeros((cfg.num_classes,) * 2, dtype=np.int64)
    params = init_params(cfg, tcfg.seed)
    named = params.named_parameters()
    opt = AdamW(named, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    shuffle_rng = np.random.default_rng(tcfg.seed + 1)
    dropout_rng = np.random.default_rng(tcfg.seed + 2)
    log = []
    best = {"val_oa": -1.0, "epoch": 0, "values": params.copy_values()}
    # numpy's floating-point warnings stay off stderr: a run that diverges
    # ends in one error naming the epoch and step (or validation) instead
    with np.errstate(all="ignore"):
        try:
            for epoch in range(tcfg.epochs):
                order = shuffle_rng.permutation(len(train_idx))
                losses = []
                for step, lo in enumerate(range(0, len(order), tcfg.batch_size)):
                    where = f"epoch {epoch} step {step}"
                    sel = train_idx[order[lo:lo + tcfg.batch_size]]
                    losses.append(_train_step(params, cfg, tcfg, opt, extract_patches(
                        cube, sel, cfg.patch_size), flat_labels[sel] - 1, dropout_rng))
                where = f"epoch {epoch} validation"
                val_report = evaluate(params, cfg, cube, labels, val_idx)
                log.append({"epoch": epoch, "loss": float(np.mean(losses)),
                            "val_oa": val_report.oa})
                if val_report.oa > best["val_oa"]:
                    best = {"val_oa": val_report.oa, "epoch": epoch,
                            "values": params.copy_values()}
        # NaN rows reach the cosine variants' unit-row check as a ContractError
        except (NumericError, ContractError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        finally:
            if hasattr(_libc, "malloc_trim"):
                _libc.malloc_trim(0)
    params.load_values(best["values"])
    return params, log, best["epoch"]


SWEEP_CSV_HEADER = "variant,seed,epoch_best,oa,aa,kappa,train_seconds,snr_db"


def sweep(variants, cfg_base, cube, labels, split_spec, tcfg_base, seeds=None,
          snr_dbs=(None,)):
    """Train and evaluate every variant x seed x SNR cell; rows in that order.

    A cell's seed sets its split, initialization, shuffling and noise; an SNR
    of None adds no noise. ``seeds`` defaults to ``tcfg_base.seed``. The
    cells are dealt through ``parallel.deal``: one cell runs on every core,
    and several run one per core at a time, each cell's loops serially, so
    the ``train_seconds`` of concurrent cells overlap. A cell's row does
    not depend on which thread ran it.
    """
    seeds = [tcfg_base.seed] if seeds is None else list(seeds)
    snr_dbs = list(snr_dbs)
    if not variants or not seeds or not snr_dbs:
        raise ConfigError("sweep needs at least one variant, one seed and one SNR")
    # every cell's seed and SNR, and its noisy cube, before the first cell
    # trains: whether the noise overflows float32 depends on the cube
    for seed in seeds:
        for snr_db in snr_dbs:
            inject_noise(cube, snr_db, seed)
    variants = [ScoreVariant.from_tag(v) if isinstance(v, str) else v for v in variants]
    cells = [(v, seed, snr) for v in variants for seed in seeds for snr in snr_dbs]
    return parallel.deal(lambda i: _sweep_cell(*cells[i], cfg_base, cube, labels, split_spec,
                                               tcfg_base), len(cells))


def _sweep_cell(variant, seed, snr_db, cfg_base, cube, labels, split_spec, tcfg_base):
    """One cell's row; a library error comes out as the same type, its
    message prefixed with the cell's variant, seed and SNR."""
    try:
        cube = inject_noise(cube, snr_db, seed)
        cfg = replace(cfg_base, attention=replace(cfg_base.attention, variant=variant))
        splits = stratified_split(labels, replace(split_spec, seed=seed))
        tcfg = replace(tcfg_base, seed=seed)
        start = time.perf_counter()
        params, _, best_epoch = train(cfg, cube, labels, splits, tcfg)
        elapsed = time.perf_counter() - start
        report = evaluate(params, cfg, cube, labels, splits[2])
    except AngleAttnError as exc:
        snr = "none" if snr_db is None else f"{snr_db:g} dB"
        raise type(exc)(f"variant {variant.value} seed {seed} snr {snr}: {exc}") from None
    return {"variant": variant.value, "seed": seed, "epoch_best": best_epoch,
            "oa": report.oa, "aa": report.aa, "kappa": report.kappa,
            "train_seconds": elapsed, "snr_db": snr_db}


def rows_to_csv(rows):
    """CSV text under SWEEP_CSV_HEADER; snr_db is empty when no noise was added."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        snr = "" if r["snr_db"] is None else r["snr_db"]
        lines.append(f"{r['variant']},{r['seed']},{r['epoch_best']},"
                     f"{r['oa']:.6f},{r['aa']:.6f},{r['kappa']:.6f},{r['train_seconds']:.3f},"
                     f"{snr}")
    return "\n".join(lines) + "\n"
