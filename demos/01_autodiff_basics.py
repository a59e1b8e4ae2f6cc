"""A walk through the reverse-mode autodiff core.

Every model in this package is built from a small set of differentiable
array ops over float64 numpy arrays. This script builds a tiny computation,
backpropagates through it, and checks the analytic gradients against
central finite differences.
"""

import numpy as np

from angleattn import tensor as T
from angleattn.tensor import Tensor, grad_check

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# forward: p = softmax(gelu(x @ w)), y = sum(p * p)
# ---------------------------------------------------------------------------
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)


def f():
    p = T.softmax_rows(T.gelu(T.matmul(x, w)))
    return T.sum_all(T.mul(p, p))


y = f()
print(f"scalar output: {y.item():.6f}")

# ---------------------------------------------------------------------------
# backward: one call fills .grad on every tensor that requires it
# ---------------------------------------------------------------------------
y.backward()
print("grad wrt x:\n", np.round(x.grad, 4))
print("grad wrt w:\n", np.round(w.grad, 4))

# ---------------------------------------------------------------------------
# trust, but verify: central differences with h=1e-5
# ---------------------------------------------------------------------------
err = grad_check(f, [x, w])
print(f"max relative error vs finite differences: {err:.2e}")
assert err < 1e-6
