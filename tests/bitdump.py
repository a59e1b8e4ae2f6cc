"""Bit-identity harness: dump a grid of model outputs, compare two dumps.

    PYTHONPATH=src python tests/bitdump.py dump OUT.npz [--variants cs2,dp] [--predict-threads N]
    PYTHONPATH=src python tests/bitdump.py compare A.npz B.npz

``dump`` writes, for every variant x norm mode {default, none, query, key,
both} x heads {2, 3, 4} x positional {learnable, sinusoidal, none} x
``CHUNK_BUDGET`` {default, 1}, the ``no_grad`` probabilities, one training
step's loss and every parameter gradient on a small batch with a zero
pixel and an all-zero patch, every gradient again from a second
``backward()`` through the same graph (``again.<name>``), plus the
``no_grad`` single-patch ``forward`` probabilities of those two patches
and the probabilities of ``predict``'s blocked path (``no_grad`` forwards
over blocks of ``train._predict_block`` patches, and of 1 patch,
concatenated). For every variant x positional
mode it also writes the parameters, epoch losses and validation OAs of a
2-epoch ``train.train`` run whose last batch is partial, so that a
smaller batch runs in memory a larger one freed; then the ids and every
block's probabilities of two successive ``predict`` calls on the trained
model outside ``train``, each over two blocks, the second of them
partial, so that the second call runs in memory the first freed.
``--predict-threads N`` takes N as the usable cores, so it sets the
threads of every threaded loop (``parallel.deal``; by default one thread
per usable core): ``predict``'s blocks, the attention node's chunks and the
training ops' slices of their sample axis (matmul, gelu, layer_norm, add,
dropout), so 1 runs everything serially; ``predict``'s blocks'
probabilities are stored in the order of their offsets in the call,
whichever thread ran them. ``compare``
lists the arrays whose bytes, dtype or shape differ, or that only one dump
holds, and exits 1 if any do; for two arrays of one shape it also prints
the largest absolute and relative difference.
To check that a change keeps outputs bit for bit, dump with each
checkout's ``src`` on ``PYTHONPATH`` and compare the two files; to check
that threaded blocks, chunks and ops equal serial ones, compare a dump with
``--predict-threads 1`` against one with ``--predict-threads 2``.
"""

import argparse
import itertools
import sys
import threading

import numpy as np

from angleattn import attention, parallel
from angleattn import model as M
from angleattn import tensor as T
from angleattn import train as training
from angleattn.attention import AttentionConfig, ScoreVariant
from angleattn.data import SplitSpec, SynthSpec, normalize_bands, stratified_split, synth_scene
from angleattn.train import TrainConfig, _predict_block, label_smoothed_ce, train

NORM_MODES = (None, "none", "query", "key", "both")
HEADS = (2, 3, 4)
POSITIONAL = ("learnable", "sinusoidal", "none")
BUDGETS = (None, 1)  # the default chunking, and one sample per chunk


def oracle_batch():
    # 25 tokens and head widths 12-24: big enough that a wrong operand layout
    # changes how numpy sums and how BLAS rounds
    x = np.random.default_rng(0).normal(size=(5, 5, 5, 6))
    x[1, 1, 1] = 0.0  # one zero (no-data) pixel
    x[3] = 0.0        # an all-zero patch
    return x, np.array([0, 1, 2, 1, 0])


def blocked_probs(x, params, cfg, block):
    """``predict``'s path: no_grad forwards over blocks of ``block`` patches."""
    with T.no_grad():
        return np.concatenate([M.batched_forward(x[lo:lo + block], params, cfg).data
                               for lo in range(0, len(x), block)])


def model_outputs(cfg, x, targets):
    """no_grad probabilities (batched, single-patch for the zero-pixel and
    all-zero patches, and blocked as ``predict`` runs them), then one
    training step's loss and every gradient, from two ``backward()`` calls
    through its graph: the attention node recomputes its probabilities in
    each."""
    params = M.init_params(cfg, 3)
    with T.no_grad():
        out = {"probs": M.batched_forward(x, params, cfg).data,
               "probs_zero_pixel": M.forward(x[1], params, cfg)[1].data,
               "probs_zero_patch": M.forward(x[3], params, cfg)[1].data}
    out["probs_block_default"] = blocked_probs(x, params, cfg, _predict_block(cfg))
    out["probs_block_1"] = blocked_probs(x, params, cfg, 1)
    probs = M.batched_forward(x, params, cfg, training=True, rng=np.random.default_rng(1))
    loss = label_smoothed_ce(probs, targets, 0.05)
    loss.backward()
    out["loss"] = loss.data
    out.update((name, t.grad) for name, t in params.named_parameters())
    loss.backward()
    out.update((f"again.{name}", t.grad) for name, t in params.named_parameters())
    return out


def train_outputs(tag, positional, scene):
    """Parameters, epoch losses and validation OAs of a 2-epoch ``train``,
    and ``predict_outputs`` of the trained model on the 180 test pixels.

    40 training pixels in batches of 16 end in a partial batch of 8. A
    token activation (25 x 48 floats per patch) is above the 64 KiB deal
    floor (``tensor._DEAL_MIN_BYTES``) from 7 patches on, so both batch
    sizes deal their ops' samples to the threads."""
    cube, labels, splits = scene
    attn = AttentionConfig(model_dim=48, heads=2, variant=tag)
    cfg = M.ModelConfig(bands=6, num_classes=3, patch_size=5, model_dim=48, depth=2, heads=2,
                        mlp_dim=16, dropout_rate=0.1, attention=attn, positional=positional)
    params, log, _ = train(cfg, cube, labels, splits,
                           TrainConfig(epochs=2, batch_size=16, seed=0))
    out = params.copy_values()
    out["epoch_loss"] = np.array([entry["loss"] for entry in log])
    out["val_oa"] = np.array([entry["val_oa"] for entry in log])
    return out, predict_outputs(params, cfg, cube, splits[2])


def predict_outputs(params, cfg, cube, indices):
    """Ids and every block's probabilities, in offset order, of two
    successive ``predict`` calls outside ``train``: blocks of
    ``_predict_block(cfg)`` = 109 patches, so 109 and 71 per call."""
    out, gather, forward = {}, training.extract_patches, training.batched_forward
    offset, where = threading.local(), {int(pixel): i for i, pixel in enumerate(indices)}

    def gathering(cube, block_indices, patch_size):
        offset.value = where[int(block_indices[0])]  # the thread's current block
        return gather(cube, block_indices, patch_size)

    def recording(*args, **kwargs):
        probs = forward(*args, **kwargs)
        blocks[offset.value] = np.array(probs.data)
        return probs

    training.extract_patches, training.batched_forward = gathering, recording
    try:
        for call in (1, 2):
            blocks = {}
            out[f"ids_{call}"] = training.predict(params, cfg, cube, indices)
            out[f"probs_{call}"] = np.concatenate([blocks[lo] for lo in sorted(blocks)])
    finally:
        training.extract_patches, training.batched_forward = gather, forward
    return out


def train_scene():
    cube, labels = synth_scene(SynthSpec(height=16, width=15, bands=6, classes=3, sites=6,
                                         seed=0))
    splits = stratified_split(labels, SplitSpec(1 / 6, 1 / 12, seed=0))  # 40 / 20 / 180 px
    return normalize_bands(cube), labels, splits


def dump(tags):
    """{key: array} over the grid for the given variant tags."""
    x, targets = oracle_batch()
    arrays, default_budget = {}, attention.CHUNK_BUDGET
    scene = train_scene()
    for tag, positional in itertools.product(tags, POSITIONAL):
        trained, predicted = train_outputs(tag, positional, scene)
        for name, value in trained.items():
            arrays[f"{tag}:train:{positional}:{name}"] = value
        for name, value in predicted.items():
            arrays[f"{tag}:predict:{positional}:{name}"] = value
    try:
        for budget, tag, norm_mode, heads, positional in itertools.product(
                BUDGETS, tags, NORM_MODES, HEADS, POSITIONAL):
            attention.CHUNK_BUDGET = default_budget if budget is None else budget
            attn = AttentionConfig(model_dim=48, heads=heads, variant=tag, norm_mode=norm_mode)
            cfg = M.ModelConfig(bands=6, num_classes=3, patch_size=5, model_dim=48, depth=2,
                                heads=heads, mlp_dim=16, dropout_rate=0.1, attention=attn,
                                positional=positional)
            case = (f"{tag}:{norm_mode or 'default'}:H{heads}:{positional}:"
                    f"budget={budget or 'default'}")
            for name, value in model_outputs(cfg, x, targets).items():
                arrays[f"{case}:{name}"] = value
    finally:
        attention.CHUNK_BUDGET = default_budget
    return arrays


def differing(a, b):
    """Sorted keys whose arrays are not the same bytes, dtype and shape."""
    return sorted(key for key in a.keys() | b.keys()
                  if key not in a or key not in b or a[key].dtype != b[key].dtype
                  or a[key].shape != b[key].shape or a[key].tobytes() != b[key].tobytes())


def magnitudes(a, b):
    """(max |a - b|, max |a - b| / max(|a|, |b|)) over two same-shape arrays;
    where both are 0 the relative difference is 0."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff = np.abs(a - b)
    size = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, size, out=np.zeros_like(diff), where=size > 0)
    return diff.max(initial=0.0), rel.max(initial=0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_dump = sub.add_parser("dump", help="write the grid's outputs to an .npz file")
    p_dump.add_argument("out")
    p_dump.add_argument("--variants", default=",".join(v.value for v in ScoreVariant),
                        help="comma-separated variant tags (default: all 12)")
    p_dump.add_argument("--predict-threads", type=int, default=None,
                        help="threads of predict's blocks, the attention node's "
                             "chunks and the training ops' sample slices "
                             "(default: one per usable core)")
    p_compare = sub.add_parser("compare", help="list the arrays that differ between two dumps")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "dump":
        cores = parallel._usable_cores
        if args.predict_threads is not None:
            parallel._usable_cores = lambda: args.predict_threads
        try:
            arrays = dump(args.variants.split(","))
        finally:
            parallel._usable_cores = cores
        np.savez(args.out, **arrays)
        print(f"wrote {len(arrays)} arrays to {args.out}")
        return 0
    with np.load(args.a) as fa, np.load(args.b) as fb:
        a, b = dict(fa), dict(fb)
    diff = differing(a, b)
    for key in diff:
        if key in a and key in b and a[key].shape == b[key].shape:
            print("differs: {}: max abs diff {:.3e}, max rel diff {:.3e}".format(
                key, *magnitudes(a[key], b[key])))
        else:
            print(f"differs: {key}")
    print(f"{len(diff)} of {len(a.keys() | b.keys())} arrays differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
