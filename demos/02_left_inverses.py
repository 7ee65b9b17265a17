"""The canonical left inverse and the defect space.

For a bounded-below T, the left inverse (T*T)^{-1} T* is applied per vector
by a guarded finite-section solve whose residual is re-measured with exact
band arithmetic.  Its kernel is the defect space ker T*, the "new
information" directions that iterating T can never reach.

    python3 demos/02_left_inverses.py
"""

import math

from woldkit import (
    GramSolveParams,
    bergman_shift,
    identity,
    left_inverse_apply,
    solve_gram,
    unilateral_shift,
    unit,
    wandering_basis,
)
from woldkit.bandop import constant
from woldkit.wold import defect_project
from woldkit.zoo import weighted_shift

B = bergman_shift()
e0, e1 = unit(0), unit(1)

print("== Gram solves carry certificates ==")
x = solve_gram(B, e0)
print("(T*T)^-1 e0          =", x)
print("residual, re-measured with the exact band Gram:",
      (B.gram().apply(x) - e0).norm())

print()
print("== the left inverse undoes T and kills the defect ==")
li = left_inverse_apply(B, e1)
print("T~ e1 =", li, " (1/w_0 =", math.sqrt(2), ")")
print("T~ e0 =", left_inverse_apply(B, e0), " (e0 is in ker T*)")
u = 3 * unit(2) + 1j * unit(5)
print("T~ (T u) == u ->", (left_inverse_apply(B, B.apply(u)) - u).norm() < 1e-12)

print()
print("== a genuinely banded Gram exercises the window doubling ==")
S = unilateral_shift()
T = S + 0.5 * identity(S.lattice)
p = GramSolveParams(tol=1e-12)
x = solve_gram(T, e0, p)
print("tridiagonal Gram solve: support reaches", max(ix[0] for ix in x.support()),
      "sites, residual", (T.gram().apply(x) - e0).norm())

print()
print("== the defect projection and the wandering subspace ==")
h = unit(0) + unit(1)
print("P0 (e0 + e1) =", defect_project(S, h), " for the plain shift")
print("P0 e1        =", defect_project(B, e1).norm(), " (e1 is in the range of T)")
for step in (1, 3):
    Tk = weighted_shift(constant(1.0), step=step)
    basis = wandering_basis(Tk, window=9)
    print(f"step-{step} shift: defect dimension {len(basis)};",
          "basis supports", [v.support() for v in basis])
