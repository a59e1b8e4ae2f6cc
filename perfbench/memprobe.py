"""Peak-RSS-per-sample probe at paper-default model size.

Each measurement runs in a fresh child process
(``python3 perfbench/memprobe.py VARIANT MODE BATCH``), which builds the
paper-default model (200 bands, patch 16, dim 64, depth 4, 4 heads, MLP
128), runs one forward pass (``infer``) or forward + backward (``train``)
on a seeded batch, and prints its peak RSS. The per-sample figure is the
slope between batch 1 and batch 2. Before each child starts, a closed-form
estimate of its peak is checked against half of physical memory, and a
probe that could exceed it is refused rather than run.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

VARIANTS = ("cs2", "dp", "add")
MODES = ("train", "infer")
BATCHES = (1, 2)
PAPER = {"bands": 200, "patch": 16, "dim": 64, "depth": 4, "heads": 4, "mlp": 128, "classes": 8}
BASE_MIB = 150.0  # interpreter, numpy/scipy and parameters, generously


def estimate_mib(variant, mode, batch):
    """Upper estimate of a probe's peak RSS: every op output of one forward
    pass kept alive (the tape holds them), doubled for gradients in train."""
    n, d, h, m = PAPER["patch"] ** 2, PAPER["dim"], PAPER["heads"], PAPER["mlp"]
    per_block = 32 * n * d + 6 * n * m + 8 * h * n * n
    if variant == "add":
        per_block += 6 * h * n * n * (d // h)  # (H, N, N, d_a) sums and tanh
    floats = PAPER["depth"] * per_block * (2 if mode == "train" else 1)
    return BASE_MIB + batch * floats * 8 / float(1 << 20)


def memory_limit_mib():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / float(1 << 20) / 2


def probe_all():
    """{metric name: MiB per sample}, and one line per refused probe."""
    limit = memory_limit_mib()
    metrics, refused = {}, []
    for variant in VARIANTS:
        for mode in MODES:
            peaks = []
            for batch in BATCHES:
                est = estimate_mib(variant, mode, batch)
                if est > limit:
                    refused.append(f"{variant}/{mode} batch {batch}: estimated {est:.0f} MiB "
                                   f"exceeds the {limit:.0f} MiB probe limit")
                    break
                out = subprocess.run([sys.executable, __file__, variant, mode, str(batch)],
                                     capture_output=True, text=True, timeout=120, check=True)
                peaks.append(json.loads(out.stdout.strip().splitlines()[-1])["peak_rss_mib"])
            if len(peaks) == len(BATCHES):
                metrics[f"mem.mib_per_sample.{variant}.{mode}"] = peaks[1] - peaks[0]
    return metrics, refused


def _child(variant, mode, batch):
    import numpy as np

    from angleattn import attention, model
    from angleattn import train as training

    attn = attention.AttentionConfig(model_dim=PAPER["dim"], heads=PAPER["heads"],
                                     variant=variant)
    cfg = model.ModelConfig(bands=PAPER["bands"], num_classes=PAPER["classes"],
                            patch_size=PAPER["patch"], model_dim=PAPER["dim"],
                            depth=PAPER["depth"], heads=PAPER["heads"], mlp_dim=PAPER["mlp"],
                            attention=attn)
    params = model.init_params(cfg, 0)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(batch, PAPER["patch"], PAPER["patch"], PAPER["bands"]))
    train = mode == "train"
    probs = model.batched_forward(x, params, cfg, training=train, rng=rng)
    if train:
        targets = rng.integers(0, PAPER["classes"], size=batch)
        training.label_smoothed_ce(probs, targets, 0.05).backward()
    if not np.isfinite(probs.data).all():
        raise SystemExit("non-finite probabilities")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mib": peak}))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    _child(sys.argv[1], sys.argv[2], int(sys.argv[3]))
