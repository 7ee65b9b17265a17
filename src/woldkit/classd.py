"""Numerical diagnostics for left-invertible operators.

Each check measures the residual of an operator identity on a finite probe
set and reports it against a stated tolerance.  A small residual on probes
is evidence, not proof: the report always records the probe set used, and no
check ever claims non-membership beyond "the residual exceeds the tolerance
on these probes".

Checks provided: isometry (Gram deviation from the identity, together with
the deviation of the canonical left inverse from the adjoint, which vanish
together), quasinormality (commutation of T with its Gram operator),
power-compatibility of the canonical left inverse ``(T^n)~ = (T~)^n``
(the classd residual), double commutation of a pair, and closure of
power-compatibility under products of double-commuting pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandop import BandOp, left_inverse_apply, solve_gram
from .seqspace import FinVec, unit

DEFAULT_PROBE_SEED = 0x5EED
DC_TOLERANCE = 1e-10  # a larger double-commuting residual fails the check


@dataclass(frozen=True)
class CheckReport:
    """Residual of one identity on a probe set, with its pass/fail verdict."""

    name: str
    residual: float
    tolerance: float
    probes_used: int
    window: int | None = None
    notes: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def default_probes(lattice, n_basis: int = 21, n_random: int = 8,
                   max_support: int = 16, seed: int = DEFAULT_PROBE_SEED,
                   extent: int = 20) -> list[FinVec]:
    """Deterministic probe set: leading basis vectors plus seeded random ones.

    Basis probes are the first ``n_basis`` lattice points in graded order;
    random probes have support at most ``max_support`` drawn from the same
    window, with standard complex normal amplitudes.  Fixed seed, so every
    run of a check reproduces bit-identical residuals.
    """
    pool = lattice.window(extent)
    probes = [unit(ix) for ix in pool[:n_basis]]
    rng = np.random.default_rng(seed)
    npool = len(pool)
    for _ in range(n_random):
        size = int(rng.integers(1, min(max_support, npool) + 1))
        picks = rng.choice(npool, size=size, replace=False)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        probes.append(FinVec({pool[int(i)]: complex(a) for i, a in zip(picks, amps)},
                             rank=lattice.rank))
    return probes


def _worst_ratio(probes: list[FinVec], sides) -> float:
    """Largest ``||a - b|| / ||v||`` over the nonzero probes ``v``, where
    ``(a, b) = sides(v)`` (0.0 if none)."""
    worst = 0.0
    for v in probes:
        if not v.is_zero:
            worst = max(worst, FinVec.distance(*sides(v)) / v.norm())
    return worst


def isometry_residual(T: BandOp, window: int = 16) -> CheckReport:
    """Deviation of ``T*T`` from the identity on window basis vectors.

    Also records the deviation of the canonical left inverse from the
    adjoint (``max ||T~ e - T* e||``); the two residuals vanish together,
    which the biconditional test exercises at tolerance level.
    """
    G = T.gram()
    adj = T.adjoint()
    basis = [unit(ix) for ix in T.lattice.window(window)]  # each of norm 1.0
    gram_res = _worst_ratio(basis, lambda e: (G.apply(e), e))

    def left_inverse_vs_adjoint(e: FinVec) -> tuple:
        w = adj.apply(e)  # T* e, once: left_inverse_apply would apply it again
        return (w if w.is_zero else solve_gram(T, w)), w

    li_res = _worst_ratio(basis, left_inverse_vs_adjoint)
    return CheckReport(
        name="isometry",
        residual=gram_res,
        tolerance=1e-13,
        probes_used=len(basis),
        window=window,
        details={"gram_vs_identity": gram_res, "left_inverse_vs_adjoint": li_res},
    )


def quasinormal_residual(T: BandOp, probes: list[FinVec] | None = None) -> CheckReport:
    """Residual of the commutation of T with its Gram operator on probes."""
    probes = probes if probes is not None else default_probes(T.lattice)
    G = T.gram()
    res = _worst_ratio(probes, lambda v: (G.apply(T.apply(v)), T.apply(G.apply(v))))
    return CheckReport("quasinormal", res, 1e-12, len(probes))


def classd_residual(T: BandOp, n_max: int = 8, probes: list[FinVec] | None = None,
                    tolerance: float = 1e-10) -> CheckReport:
    """Residual of ``(T^n)~ v = (T~)^n v`` over 2 <= n <= n_max and probes.

    The left side solves one Gram system of ``T^n``; the right side iterates
    the left inverse of T.  Both residual paths are certified solves.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    probes = probes if probes is not None else default_probes(T.lattice)
    res = 0.0
    worst_n = None
    for v in probes:
        if v.is_zero:
            continue
        vn = v.norm()
        y = left_inverse_apply(T, v)
        for n in range(2, n_max + 1):
            y = left_inverse_apply(T, y)
            x = left_inverse_apply(T ** n, v)  # T ** n is cached on T
            r = x.distance(y) / vn
            if r > res:
                res, worst_n = r, n
    details = {} if worst_n is None else {"worst_power": float(worst_n)}
    return CheckReport("classd", res, tolerance, len(probes),
                       details=details)


def double_commuting_residual(T1: BandOp, T2: BandOp,
                              probes: list[FinVec] | None = None) -> CheckReport:
    """Residuals of ``T1 T2 = T2 T1`` and ``T1 T2* = T2* T1`` on probes."""
    if T1.lattice != T2.lattice:
        raise ValueError("operators live on different lattices")
    probes = probes if probes is not None else default_probes(T1.lattice)
    adj2 = T2.adjoint()
    r_comm = _worst_ratio(probes, lambda v: (T1.apply(T2.apply(v)), T2.apply(T1.apply(v))))
    r_star = _worst_ratio(probes, lambda v: (T1.apply(adj2.apply(v)), adj2.apply(T1.apply(v))))
    return CheckReport(
        name="double_commuting",
        residual=max(r_comm, r_star),
        tolerance=DC_TOLERANCE,
        probes_used=len(probes),
        details={"commutator": r_comm, "star_commutator": r_star},
    )


def product_closure_check(T1: BandOp, T2: BandOp, n_max: int = 8,
                          probes: list[FinVec] | None = None,
                          tolerance: float = 1e-9) -> CheckReport:
    """Power-compatibility of the product of a double-commuting pair.

    Reports the larger of two residuals: the classd residual of ``T1 T2``
    and the factorization residual ``max ||(T1 T2)~ v - T1~ (T2~ v)||/||v||``.
    The factor diagnostics (each factor's classd residual and the pair's
    double-commutation residual) are recorded in the details, not enforced.
    """
    probes = probes if probes is not None else default_probes(T1.lattice)
    prod = T1.compose(T2)

    factor1 = classd_residual(T1, n_max, probes, tolerance)
    factor2 = classd_residual(T2, n_max, probes, tolerance)
    dc = double_commuting_residual(T1, T2, probes)
    prod_classd = classd_residual(prod, n_max, probes, tolerance)

    r_factor = _worst_ratio(probes, lambda v: (left_inverse_apply(prod, v),
                                               left_inverse_apply(T1, left_inverse_apply(T2, v))))

    notes = []
    if not factor1.passed or not factor2.passed:
        notes.append("a factor fails its own power-compatibility check")
    if not dc.passed:
        notes.append("the pair is not double-commuting at tolerance")
    return CheckReport(
        name="product_closure",
        residual=max(prod_classd.residual, r_factor),
        tolerance=tolerance,
        probes_used=len(probes),
        notes=tuple(notes),
        details={
            "product_classd": prod_classd.residual,
            "left_inverse_factorization": r_factor,
            "factor1_classd": factor1.residual,
            "factor2_classd": factor2.residual,
            "double_commuting": dc.residual,
        },
    )
