"""Why normalize queries and keys: magnitude invariance of cosine scoring.

Dot-product attention rows shift with the magnitude of the token
embeddings, so two spectra of the same material under different
illumination attend differently. Squared-cosine scoring on unit-normalized
rows sees only the angle between them. This runs the model's own attention
node, which normalises q and k itself; with v the identity it returns the
attention rows.
"""

import numpy as np

from angleattn import tensor as T
from angleattn.attention import AttentionConfig, attention_node
from angleattn.tensor import Tensor

N, D = 6, 8
tokens = np.random.default_rng(1).normal(size=(N, D))
# pixel 2 under 3x and 4x illumination, and with its sign flipped
changes = {"3x gain": 3.0, "4x gain": 4.0, "sign flip": -1.0}


def attention_rows(x, tag):
    cfg = AttentionConfig(model_dim=D, heads=1, variant=tag)
    with T.no_grad():
        return attention_node(Tensor(x[None]), Tensor(x[None]), Tensor(np.eye(N)[None]), cfg).data


drift = {}
for tag in ("cs2", "dp"):
    for change, factor in changes.items():
        x = tokens.copy()
        x[2] *= factor
        drift[tag, change] = np.abs(attention_rows(x, tag) - attention_rows(tokens, tag)).max()
    print(f"{tag:4s} largest attention-row change: "
          + ", ".join(f"{c} {drift[tag, c]:.3g}" for c in changes))

# Scaling by 4 or -1 is exact in binary floating point, so cs2's rows do not
# move at all; 3 * x is itself rounded, which can move them by an ulp.
assert drift["cs2", "4x gain"] == drift["cs2", "sign flip"] == 0.0
assert drift["cs2", "3x gain"] <= 1e-15
assert min(drift["dp", c] for c in changes) > 0.1
