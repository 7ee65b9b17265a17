"""Decomposing vectors: limit part plus defect series.

For a left-invertible T with a power-compatible left inverse, every vector
splits orthogonally as

    h  =  P h  +  sum_j  T^j P0 (T~)^j h

where P projects onto the intersection of the ranges of all powers of T
(the invertible-like part) and P0 onto the defect space.  The engine
iterates the range projections P_n to their strong limit; the series term
j is P_j h - P_{j+1} h, so the series has one term per step of that loop,
and each step certifies it against T^j P0 (T~)^j h (power_residual).

    python3 demos/04_wold_decomposition.py
"""

import numpy as np

from woldkit import (
    bergman_shift,
    bilateral_shift,
    decompose,
    direct_sum,
    shift_limit_project,
    surjectivity_witness,
    unilateral_shift,
    unit,
)
from woldkit.seqspace import FinVec
from woldkit.zoo import embed_summand, summand_part

print("== pure shift: everything lands in the series ==")
S = unilateral_shift()
res = decompose(S, unit(0) + unit(1))
print("limit part:", res.limit_part)
print("components:", [c.items() for c in res.components])
print("reconstruction residual:", res.reconstruction_residual)

print()
print("== Bergman shift on a random vector ==")
rng = np.random.default_rng(42)
h = FinVec({(k,): complex(a) for k, a in enumerate(rng.standard_normal(8))})
res = decompose(bergman_shift(), h)
print("series terms (one per limit step):", res.j_used + 1, " limit part is zero:",
      res.limit_part.is_zero)
print("power identity residual:", res.power_residual)
print("component norms:", [round(c.norm(), 6) for c in res.components])
print("max pairwise component overlap:", res.component_cross_max)
print("reconstruction residual:", res.reconstruction_residual)
print("projection deltas per step:", [round(d, 8) for d in res.convergence_history])

print()
print("== bilateral shift: everything stays in the limit part ==")
T = bilateral_shift()
h = unit(-2) + 0.5j * unit(3)
lim, hist = shift_limit_project(T, h)
print("limit == h:", lim == h, " deltas:", list(hist))

print()
print("== a mixed operator splits a vector summand by summand ==")
W = direct_sum(bilateral_shift(), unilateral_shift())
both = embed_summand(unit(0) + 2 * unit(-3), 0) + embed_summand(unit(1), 1)
res = decompose(W, both)
print("limit part lives on the invertible summand:",
      summand_part(res.limit_part, 1).is_zero)
series = res.components[0]
for c in res.components[1:]:
    series = series + c
print("series reconstructs the shift summand:",
      summand_part(series, 0).is_zero)

print()
print("== on the limit subspace, T is onto: preimages stay inside ==")
h_inf = embed_summand(unit(0), 0)
hp = surjectivity_witness(W, h_inf)
print("preimage of left e0:", hp)
print("it maps back:", W.apply(hp) == h_inf)
