"""Compare score variants head to head with the sweep harness.

Runs the same tiny model with squared-cosine and raw dot-product scoring
over a few seeds on a gain-perturbed scene, then prints the result table
as CSV. The cosine variant should win or tie on median OA: per-pixel gain
scrambles magnitudes but leaves spectral directions intact.

Takes a couple of minutes on one core; sweep runs its cells one per usable
core at a time.
"""

import numpy as np

from angleattn.attention import AttentionConfig
from angleattn.data import SplitSpec, SynthSpec, normalize_bands, synth_scene
from angleattn.model import ModelConfig
from angleattn.train import TrainConfig, rows_to_csv, sweep


def main():
    spec = SynthSpec(height=32, width=32, bands=16, classes=4, sites=12,
                     gain_lo=0.5, gain_hi=1.5, seed=0)
    cube, labels = synth_scene(spec)
    cube = normalize_bands(cube)

    attn = AttentionConfig(model_dim=16, heads=2, variant="cs2")
    cfg = ModelConfig(bands=16, num_classes=4, patch_size=5, model_dim=16, depth=1,
                      heads=2, mlp_dim=32, dropout_rate=0.1, attention=attn)
    tcfg = TrainConfig(epochs=8, batch_size=64, seed=0)

    rows = sweep(["cs2", "dp"], cfg, cube, labels,
                 SplitSpec(train_frac=0.1, val_frac=0.1, seed=0), tcfg, seeds=[0, 1, 2])
    print(rows_to_csv(rows))

    for tag in ("cs2", "dp"):
        oas = [r["oa"] for r in rows if r["variant"] == tag]
        print(f"{tag}: median OA {np.median(oas):.4f}")


if __name__ == "__main__":
    main()
