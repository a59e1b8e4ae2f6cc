"""Peak RSS per sample of paper-size training and inference, by the slope method.

    PYTHONPATH=src python tests/paper_memory.py {train,pool,infer} VARIANT B1 B2

The model is the paper default: 200 bands, patch 16, dim 64, depth 4, 4
heads, MLP 128. Each batch size runs in a fresh child process on random
patches, and the child reports its peak RSS (``ru_maxrss``):

- ``train``: one ``batched_forward(training=True)`` and ``backward()``;
- ``pool``: two ``train._train_step`` calls in one ``tensor._StepPool``,
  as ``train`` runs its steps;
- ``infer``: one ``batched_forward`` under ``no_grad``, as ``predict`` runs
  each block.

It prints both peaks and the slope (peak(B2) - peak(B1)) / (B2 - B1) in
MiB per sample. Run it with ``OPENBLAS_NUM_THREADS=1`` for the figures in
README.
"""

import resource
import subprocess
import sys

import numpy as np

from angleattn import model as M
from angleattn import tensor as T
from angleattn import train as training
from angleattn.attention import AttentionConfig

MODES = ("train", "pool", "infer")


def child(mode, variant, batch):
    """Run ``mode`` once at ``batch``; the process's peak RSS in MiB."""
    cfg = M.ModelConfig(bands=200, num_classes=16, attention=AttentionConfig(
        model_dim=64, heads=4, variant=variant))
    params = M.init_params(cfg, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, cfg.patch_size, cfg.patch_size, cfg.bands))
    targets = rng.integers(0, cfg.num_classes, size=batch)
    if mode == "infer":
        with T.no_grad():
            M.batched_forward(x, params, cfg)
    elif mode == "train":
        probs = M.batched_forward(x, params, cfg, training=True, rng=rng)
        training.label_smoothed_ce(probs, targets, 0.05).backward()
    else:
        tcfg = training.TrainConfig()
        opt = training.AdamW(params.named_parameters(), lr=tcfg.lr,
                             weight_decay=tcfg.weight_decay)
        with T._StepPool():
            for _ in range(2):
                training._train_step(params, cfg, tcfg, opt, x, targets, rng)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    if argv[:1] == ["--child"]:
        print(child(argv[1], argv[2], int(argv[3])))
        return 0
    if len(argv) != 4 or argv[0] not in MODES:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    mode, variant, *batches = argv[0], argv[1], *map(int, argv[2:])
    peaks = [float(subprocess.run([sys.executable, __file__, "--child", mode, variant, str(b)],
                                  check=True, capture_output=True, text=True).stdout)
             for b in batches]
    slope = (peaks[1] - peaks[0]) / (batches[1] - batches[0])
    print(f"{mode} {variant}: peak {peaks[0]:.1f} MiB at batch {batches[0]}, "
          f"{peaks[1]:.1f} MiB at batch {batches[1]}; {slope:.2f} MiB per sample")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
