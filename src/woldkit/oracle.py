"""Dense finite-section oracle: brute-force replicas of the band pipeline.

Every quantity the engine computes structurally is recomputed here from a
dense matrix truncation of the operator, using nothing but generic dense
linear algebra (pseudoinverses, matrix powers, null spaces).  The oracle is
deliberately slow and structure-blind; its value is that it shares no code
path with the band engine.

Truncation is sound only under a guard-band rule: the supports involved in a
computation, padded by the iteration depth times the band reach, must stay
away from the truncated window edge.  :func:`truncation_margin` measures the
available margin so callers can verify the rule instead of silently
comparing contaminated results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandop import BandOp
from .seqspace import FinVec
from .wold import NoStrongConvergence, WoldResult

DEFAULT_MAX_ORDINALS = 4096


class WindowTooLarge(ValueError):
    """The requested dense window exceeds the memory cap."""


class RankDeficientSection(ValueError):
    """The dense section lost column rank away from the truncation edge."""


class SeriesNotConverged(RuntimeError):
    """The dense series loop did not become negligible within its term cap."""

    def __init__(self, j_max: int, tail_norm: float):
        super().__init__(f"defect series still carries norm {tail_norm:.3e} "
                         f"at term cap j_max={j_max}")
        self.j_max = j_max
        self.tail_norm = tail_norm


@dataclass(frozen=True)
class DenseSection:
    """Dense truncation of a band operator onto a finite index window.

    ``matrix[i, j]`` is the coefficient of basis vector ``indices[i]`` in the
    image of ``indices[j]`` (images escaping the window are dropped, which is
    exactly what the guard-band rule accounts for).
    """

    matrix: np.ndarray
    indices: tuple
    lattice: object
    extent: int
    band_reach: int

    @property
    def size(self) -> int:
        return len(self.indices)


def dense_section(T: BandOp, window: int,
                  max_ordinals: int = DEFAULT_MAX_ORDINALS) -> DenseSection:
    """Materialize T on ``lattice.window(window)`` as a dense matrix."""
    if (size := T.lattice.window_size(window)) > max_ordinals:  # counted, never built
        raise WindowTooLarge(f"{size} ordinals exceed the cap of {max_ordinals}")
    idx = tuple(T.lattice.window(window))
    pos = {ix: i for i, ix in enumerate(idx)}
    M = np.zeros((len(idx), len(idx)), dtype=complex)
    for j, jx in enumerate(idx):
        for off, w in T.bands:
            i = pos.get(tuple(a + b for a, b in zip(jx, off)))
            if i is None:
                continue
            val = w.evaluate(jx, T.lattice)
            if val != 0:
                M[i, j] += val
    return DenseSection(M, idx, T.lattice, window, T.max_band_reach())


def vec_to_array(D: DenseSection, v: FinVec) -> np.ndarray:
    arr = np.zeros(D.size, dtype=complex)
    pos = {ix: i for i, ix in enumerate(D.indices)}
    for ix, amp in v.items():
        i = pos.get(ix)
        if i is None:
            raise ValueError(f"vector entry at {ix} lies outside the dense window")
        arr[i] = amp
    return arr


def array_to_vec(D: DenseSection, arr: np.ndarray) -> FinVec:
    return FinVec({ix: complex(a) for ix, a in zip(D.indices, arr) if a != 0},
                  rank=D.lattice.rank)


def truncation_margin(D: DenseSection, vectors) -> int:
    """Smallest distance from any support index to the truncated window edge."""
    margin = None
    for v in vectors:
        for ix in v.support():
            m = D.lattice.edge_margin(ix, D.extent)
            margin = m if margin is None else min(margin, m)
    return D.extent if margin is None else margin


def guard_ok(D: DenseSection, vectors, depth: int) -> bool:
    """Whether supports stay ``depth * reach`` away from the edge."""
    return truncation_margin(D, vectors) >= depth * max(1, D.band_reach)


def _pinv_h(A: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(A, hermitian=True)


def oracle_left_inverse(D: DenseSection, v: FinVec) -> FinVec:
    """Dense ``(M*M)^{-1} M* v`` with the inverse taken as a pseudoinverse.

    Raises :class:`RankDeficientSection` when the columns at least one band
    reach away from the truncation edge are not independent, since then the
    formula is meaningless even on interior vectors.
    """
    M = D.matrix
    interior = [j for j, ix in enumerate(D.indices)
                if D.lattice.edge_margin(ix, D.extent) >= max(1, D.band_reach)]
    if interior:
        sub = M[:, interior]
        if np.linalg.matrix_rank(sub) < len(interior):
            raise RankDeficientSection(
                "dense section is column-rank deficient on the window interior")
    arr = vec_to_array(D, v)
    x = _pinv_h(M.conj().T @ M) @ (M.conj().T @ arr)
    return array_to_vec(D, x)


def oracle_project(D: DenseSection, v: FinVec, n: int) -> FinVec:
    """Dense orthogonal projection onto the range of the n-th matrix power."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return v
    Mn = np.linalg.matrix_power(D.matrix, n)
    arr = vec_to_array(D, v)
    x = _pinv_h(Mn.conj().T @ Mn) @ (Mn.conj().T @ arr)
    return array_to_vec(D, Mn @ x)


def _dense_adjoint_settled(D: "DenseSection", w: np.ndarray, budget: int) -> bool:
    """Dense twin of the engine's transient-plateau scan.

    Support losses in the adjoint orbit mark upcoming projection drops, but
    near the truncated window edge a loss can be a truncation artifact, so
    the scan stops as soon as the orbit's margin falls below the band reach
    (the guard-band rule makes further scanning meaningless).
    """
    reach = max(1, D.band_reach)
    MH = D.matrix.conj().T
    size = int(np.count_nonzero(w))
    for _ in range(budget):
        if truncation_margin(D, [array_to_vec(D, w)]) < reach:
            return True
        w = MH @ w
        ns = int(np.count_nonzero(w))
        if ns < size:
            return False
        size = ns
    return True


def oracle_limit_project(D: DenseSection, v: FinVec, n_max: int = 64,
                         tol: float = 1e-12) -> tuple[FinVec, tuple]:
    """Dense strong limit of the range projections, engine stopping rule;
    ``ValueError`` when a nonzero ``v`` has a norm of 0.0 or inf."""
    if v.is_zero:
        return v, ()
    arr = vec_to_array(D, v)
    hn = float(np.linalg.norm(arr))
    if hn == 0.0 or math.isinf(hn):
        raise ValueError(f"nonzero v has dense norm {hn}: it leaves double precision, "
                         "so no certificate tol * ||v|| holds")
    M = D.matrix
    MH = M.conj().T
    prev = arr
    Mn = np.eye(D.size, dtype=complex)
    history: list[float] = []
    consec = 0
    w = arr
    for n in range(1, n_max + 1):
        Mn = Mn @ M
        w = MH @ w
        if float(np.linalg.norm(w)) == 0.0:
            history.append(float(np.linalg.norm(prev)))
            return array_to_vec(D, np.zeros(D.size, dtype=complex)), tuple(history)
        x = _pinv_h(Mn.conj().T @ Mn) @ (Mn.conj().T @ arr)
        cur = Mn @ x
        delta = float(np.linalg.norm(prev - cur))
        history.append(delta)
        if delta <= tol * hn:
            consec += 1
            if consec >= 3 and _dense_adjoint_settled(D, w, n_max - n):
                return array_to_vec(D, cur), tuple(history)
        else:
            consec = 0
        prev = cur
    raise NoStrongConvergence(n_max, history[-1])


def oracle_decompose(D: DenseSection, v: FinVec, n_max: int = 64,
                     j_max: int = 256, tol: float = 1e-12) -> WoldResult:
    """Dense decomposition with the components summed as the series
    ``T^j P0 (T~)^j h`` itself, so it checks the engine's range-projection
    deltas independently; it measures no power identity (NaN)."""
    if v.is_zero:
        return WoldResult(v, (), 0.0, (), 0, 0, 0.0, 0.0, ())
    limit_vec, history = oracle_limit_project(D, v, n_max=n_max, tol=tol)  # checks the norm
    arr = vec_to_array(D, v)
    hn = float(np.linalg.norm(arr))
    limit = vec_to_array(D, limit_vec)

    M = D.matrix
    left_inv = _pinv_h(M.conj().T @ M) @ M.conj().T
    P0 = np.eye(D.size, dtype=complex) - M @ left_inv

    comps: list[np.ndarray] = []
    MH = M.conj().T
    x = arr
    consec = 0
    terminated = False
    j_used = 0
    for j in range(j_max + 1):
        if j > 0 and float(np.linalg.norm(x)) == 0.0:
            terminated = True
            j_used = j - 1
            break
        c = P0 @ x
        for _ in range(j):
            c = M @ c
        comps.append(c)
        j_used = j
        if float(np.linalg.norm(c)) <= tol * hn:
            consec += 1
            if consec >= 3 and _dense_adjoint_settled(D, x, j_max - j):
                terminated = True
                break
        else:
            consec = 0
        x = left_inv @ x
    if not terminated:
        raise SeriesNotConverged(j_max, float(np.linalg.norm(comps[-1])) if comps else math.inf)

    total = limit + sum(comps)
    recon = float(np.linalg.norm(arr - total))
    cross = 0.0
    for i in range(len(comps)):
        for k in range(i + 1, len(comps)):
            cross = max(cross, abs(np.vdot(comps[k], comps[i])))
    cross /= hn * hn

    return WoldResult(
        limit_part=limit_vec,
        components=tuple(array_to_vec(D, c) for c in comps),
        reconstruction_residual=recon,
        convergence_history=history,
        n_used=len(history),
        j_used=j_used,
        component_cross_max=cross,
        power_residual=math.nan,
        flags=(),
    )


def oracle_fourfold(D1: DenseSection, D2: DenseSection, v: FinVec, n_max: int = 64,
                    tol: float = 1e-12) -> dict:
    """Dense replica of the fourfold split of ``v`` under a pair, by part tag.

    The same identity as the engine's: the inner limits at a tenfold
    tighter tolerance, the fourth part from ``I = sum of the four parts``.
    """
    q2h, _ = oracle_limit_project(D2, v, n_max=n_max, tol=tol / 10)
    q1h, _ = oracle_limit_project(D1, v, n_max=n_max, tol=tol / 10)
    inf_inf, _ = oracle_limit_project(D1, q2h, n_max=n_max, tol=tol)
    inf_s, _ = oracle_limit_project(D1, v - q2h, n_max=n_max, tol=tol)
    s_inf, _ = oracle_limit_project(D2, v - q1h, n_max=n_max, tol=tol)
    return {"inf_inf": inf_inf, "inf_s": inf_s, "s_inf": s_inf,
            "s_s": v - q1h - q2h + inf_inf}


def oracle_null_basis(D: DenseSection) -> list[FinVec]:
    """Orthonormal null space of the dense adjoint section (defect vectors)."""
    import scipy.linalg  # loaded at the first null space only
    ns = scipy.linalg.null_space(D.matrix.conj().T)
    out = []
    for c in range(ns.shape[1]):
        if float(np.linalg.norm(D.matrix.conj().T @ ns[:, c])) <= 1e-10:
            out.append(array_to_vec(D, ns[:, c]))
    out.sort(key=lambda v: v.support())
    return out
