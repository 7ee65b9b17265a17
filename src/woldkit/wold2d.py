"""Fourfold Wold-type decomposition for double-commuting pairs.

With ``Q_i`` the projection onto the intersection of the ranges of the
powers of ``T_i``, a double-commuting pair splits every vector along

    I = Q1 Q2 + Q1 (I - Q2) + (I - Q1) Q2 + (I - Q1) (I - Q2).

The first three parts are computed through independent nested strong limits
(the third uses the commutation of the projections), the fourth from the
identity itself; the reconstruction residual therefore measures the mutual
consistency of the independent limit computations, and the cross terms
measure the orthogonality of the four parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bandop import BandOp, GramSolveParams
from .classd import DC_TOLERANCE, default_probes, double_commuting_residual
from .seqspace import FinVec, max_cross
from .wold import shift_limit_project

PART_TAGS = ("inf_inf", "inf_s", "s_inf", "s_s")


@dataclass(frozen=True)
class FourfoldResult:
    """Four orthogonal parts of a vector under a double-commuting pair.

    ``limit_iterations`` holds the iteration counts of the five strong
    limits (``Q2 h``, ``Q1 h``, then those of the ``inf_inf``, ``inf_s`` and
    ``s_inf`` parts)."""

    parts: dict
    residual: float
    cross_terms: float
    double_commuting: float
    limit_iterations: tuple
    flags: tuple


def fourfold(T1: BandOp, T2: BandOp, h: FinVec,
             params: GramSolveParams | None = None, n_max: int = 64) -> FourfoldResult:
    """Split ``h`` into its four limit/series parts under the pair.

    The pair is expected to double-commute; this is measured on a probe set
    and recorded, and a violation only raises a warning flag (each projection
    is individually well defined, and the reconstruction residual will expose
    a failing decomposition identity).  Inner limits are computed at a
    tenfold tighter tolerance than the outer ones.
    """
    p = params or GramSolveParams()
    flags: list[str] = []

    dc = double_commuting_residual(
        T1, T2, probes=default_probes(T1.lattice, n_basis=9, n_random=4))
    if not dc.passed:
        flags.append(f"pair is not double-commuting at {DC_TOLERANCE:.1e} "
                     f"(residual {dc.residual:.3e}); decomposition may not hold")

    p_inner = GramSolveParams(p.tol / 10.0)
    q2h, h2 = shift_limit_project(T2, h, p_inner, n_max)
    q1h, h1 = shift_limit_project(T1, h, p_inner, n_max)
    inf_inf, h11 = shift_limit_project(T1, q2h, p, n_max)
    inf_s, h1s = shift_limit_project(T1, h - q2h, p, n_max)
    s_inf, hs2 = shift_limit_project(T2, h - q1h, p, n_max)
    s_s = h - q1h - q2h + inf_inf
    iterations = tuple(map(len, (h2, h1, h11, h1s, hs2)))

    parts = {"inf_inf": inf_inf, "inf_s": inf_s, "s_inf": s_inf, "s_s": s_s}
    acc = inf_inf + inf_s + s_inf + s_s
    residual = (h - acc).norm()

    cross = max_cross([parts[tag] for tag in PART_TAGS])

    return FourfoldResult(parts, residual, cross, dc.residual, iterations, tuple(flags))
