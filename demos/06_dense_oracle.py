"""Cross-checking the band engine against a dense brute-force oracle.

The oracle truncates an operator to a dense matrix on a finite window and
recomputes everything with generic linear algebra (pseudoinverses, matrix
powers).  It shares no code with the band path, so agreement is meaningful;
it is only trusted under a guard-band rule keeping supports away from the
truncation edge, and the margin is always measured, never assumed.

    python3 demos/06_dense_oracle.py
"""

import numpy as np

from woldkit import bergman_shift, decompose, left_inverse_apply, unit
from woldkit.oracle import (
    dense_section,
    guard_ok,
    oracle_decompose,
    oracle_left_inverse,
    truncation_margin,
)
from woldkit.seqspace import FinVec

B = bergman_shift()

print("== the dense section is the exact matrix on the window ==")
D = dense_section(B, 5)
with np.printoptions(precision=4, suppress=True):
    print(D.matrix.real)

print()
print("== guard margins make truncation visible ==")
v = unit(2)
print("margin of e2 in a window of extent 5:", truncation_margin(D, [v]))
print("safe for depth-2 iteration?", guard_ok(D, [v], depth=2))
print("and for depth-5?", guard_ok(D, [v], depth=5))

print()
print("== band path vs oracle path ==")
D = dense_section(B, 40)
rng = np.random.default_rng(3)
h = FinVec({(k,): complex(a) for k, a in enumerate(rng.standard_normal(8))})
assert guard_ok(D, [h], depth=12)

band = left_inverse_apply(B, h)
dense = oracle_left_inverse(D, h)
print("left inverse delta:       ", (band - dense).norm())

res = decompose(B, h)
ores = oracle_decompose(D, h)
delta = (res.limit_part - ores.limit_part).norm()
for a, b in zip(res.components, ores.components):
    delta = max(delta, (a - b).norm())
print("decomposition delta:      ", delta)
# the engine's terms are range-projection deltas, one per limit step; the
# oracle sums the series T^j P0 (T~)^j h term by term with its own stopping rule
print("series lengths agree:     ", res.j_used == ores.j_used)
print("reconstruction residuals: ", res.reconstruction_residual,
      "vs", ores.reconstruction_residual)
