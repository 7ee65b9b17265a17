"""Wold-type decomposition engine for left-invertible band operators.

For a left-invertible T with canonical left inverse ``T~ = (T*T)^{-1} T*``,
the engine computes:

* the defect projection ``P0 = I - T T~`` onto ``ker T*``,
* the nested range projections ``P_n`` onto ``T^n H``,
* their strong limit ``P`` (projection onto the intersection of all ranges),
* the series components ``P_j h - P_{j+1} h``, whose sum with ``P h``
  reconstructs ``h``,
* the analytic criterion ``||G_n^{-1/2} (T*)^n h|| = ||P_n h||``, read
  off one certified Gram solve,
* an orthonormal basis of the defect space, and
* certificates: the power identity residual, reconstruction residual,
  pairwise component orthogonality, convergence history, and a
  surjectivity witness on the limit subspace.

``P_n`` is always computed as ``T^n (T^n)~`` (through the Gram operator of
``T^n``), which is an orthogonal projection for every left-invertible T.
Under the identity ``(T^n)~ = (T~)^n`` (power compatibility, the hypothesis
of the paper's decomposition, checked as an operator property by
:mod:`woldkit.classd`) the component ``P_j h - P_{j+1} h`` equals the
paper's ``T^j P0 (T~)^j h``.  ``decompose`` measures that identity on ``h``
at every step and flags a disagreement instead of assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bandop import (
    BandOp,
    GramSolveParams,
    NoConvergence,
    left_inverse_apply,
    section,
    solve_gram,
)
from .seqspace import FinVec, max_cross

ORBIT_SCAN_CAP = 4096  # the plateau test never scans the orbit of T* further


class NoStrongConvergence(RuntimeError):
    """The nested-projection iterates did not settle within the iteration cap."""

    def __init__(self, n_max: int, last_delta: float):
        super().__init__(f"projection iterates not Cauchy after n_max={n_max} "
                         f"steps (last delta {last_delta:.3e})")
        self.n_max = n_max
        self.last_delta = last_delta


class InputNotInHInfinity(ValueError):
    """A vector assumed to lie in the limit subspace does not (at tolerance)."""

    def __init__(self, residual: float, detail: str = ""):
        msg = f"input is not in the limit subspace: residual {residual:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class WoldResult:
    """Outcome of a decomposition ``h = limit_part + sum(components)``.

    ``components[j]`` is ``P_j h - P_{j+1} h``, so the convergence history
    ``||P_n h - P_{n+1} h||`` holds the component norms.  ``power_residual``
    is ``max_n ||T^n ((T~)^n h - (T^n)~ h)|| / ||h||``, which bounds how far
    the components are from the paper's ``T^j P0 (T~)^j h``.  The dense
    oracle sums that series itself and records NaN there.
    """

    limit_part: FinVec
    components: tuple
    reconstruction_residual: float
    convergence_history: tuple
    n_used: int
    j_used: int
    component_cross_max: float
    power_residual: float
    flags: tuple


def defect_project(T: BandOp, h: FinVec, params: GramSolveParams | None = None) -> FinVec:
    """Project onto the defect space: ``h - T (T~ h)``, certified in ``ker T*``."""
    p = params or GramSolveParams()
    adj_h = T.adjoint().apply(h)
    if adj_h.is_zero:
        return h
    d = h - T.apply(solve_gram(T, adj_h, p))
    cert = T.adjoint().apply(d).norm()
    bound = 4.0 * p.tol * max(h.norm(), adj_h.norm())
    if cert > bound:
        raise NoConvergence(
            f"defect certificate ||T* d|| = {cert:.3e} exceeds {bound:.3e}",
            residual=cert)
    return d


def nested_project(T: BandOp, n: int, h: FinVec, params: GramSolveParams | None = None) -> FinVec:
    """Orthogonal projection of ``h`` onto the range of ``T^n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return h
    Tn = T ** n
    x = left_inverse_apply(Tn, h, params)
    return Tn.apply(x)


class _Orbit:
    """Lazily extended orbit ``v, f(v), f(f(v)), ...`` of a step ``f``."""

    def __init__(self, start, step):
        self.items, self._step, self._k = [start], step, 0

    def at(self, k: int):
        while len(self.items) <= k:
            self.items.append(self._step(self.items[-1]))
        return self.items[k]

    def settled(self, p: int, end: int) -> bool:
        """No drop of ``len`` at ``p+1 .. end``, for ``p`` nondecreasing between
        calls: ``p+1 .. _k-1`` hold none, so each position is scanned once.

        A support entry vanishing under T* is the structural event behind a
        later drop of the range projections, so on the orbit of ``T*`` this
        says whether a plateau of small deltas can still be transient: a
        basis vector far up a shift lattice keeps ``P_1 h = ... = P_k h = h``
        before collapsing, and a surviving invertible component can mask a
        dying one."""
        k = max(p + 1, self._k)
        while k <= end and len(self.at(k)) >= len(self.items[k - 1]):
            k += 1
        self._k = k
        return k > end


def _range_projections(T: BandOp, h: FinVec, p: GramSolveParams, n_max: int):
    """The limit loop: yields ``(n, T^n, x_n, P_n h, c_n, ||c_n||)`` with
    ``x_n = (T^n)~ h``, ``P_n h = T^n x_n`` and the component
    ``c_n = P_{n-1} h - P_n h``, for nonzero ``h``.

    Stops after the step where the adjoint iterate ``(T*)^n h`` vanishes
    exactly (the norms are nonincreasing, so ``x_n`` and the limit are then
    exactly zero), or after three consecutive deltas at most ``tol * ||h||``
    once the adjoint orbit (exact band arithmetic, no solves) shows no later
    support loss.  An entry ``d`` steps from a lattice boundary can first
    vanish at step ``d + 1``, also past ``n_max``, so the orbit is scanned
    that far; beyond :data:`ORBIT_SCAN_CAP` no plateau is trusted.  Raises
    :class:`NoStrongConvergence` at the iteration cap, and ``ValueError``
    when ``||h||`` underflows to 0.0 or overflows to inf, where no
    certificate ``delta <= tol * ||h||`` means anything.
    """
    hn = h.norm()
    if hn == 0.0 or math.isinf(hn):
        raise ValueError(f"nonzero h has norm {hn}: it leaves double precision, "
                         "so no certificate tol * ||h|| holds")
    orbit = _Orbit(h, T.adjoint().apply)  # (T*)^n h, maintained without solves
    end = max(n_max, 1 + max(map(T.lattice.depth, h.support())))
    scannable = end <= max(n_max, ORBIT_SCAN_CAP)
    prev, consec = h, 0
    for n in range(1, n_max + 1):
        Tn = T ** n
        w = orbit.at(n)
        if w.is_zero:
            yield n, Tn, w, w, prev, prev.norm()
            return
        try:
            x = solve_gram(Tn, w, p)
        except NoConvergence as e:
            raise NoConvergence(f"limit phase, n={n}: {e}", e.residual, e.window) from e
        cur = Tn.apply(x)
        comp = prev - cur
        delta = comp.norm()
        yield n, Tn, x, cur, comp, delta
        consec = consec + 1 if delta <= p.tol * hn else 0
        if consec >= 3 and scannable and orbit.settled(n, end):
            return
        prev = cur
    raise NoStrongConvergence(n_max, delta)


def shift_limit_project(T: BandOp, h: FinVec, params: GramSolveParams | None = None,
                        n_max: int = 64) -> tuple[FinVec, tuple]:
    """Strong limit of the range projections applied to ``h``: the last
    iterate of the limit loop (:func:`_range_projections` states when it
    stops) and the delta history.  Raises :class:`NoStrongConvergence` at
    the iteration cap.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if h.is_zero:
        return h, ()
    history = []
    for _, _, _, limit, _, delta in _range_projections(T, h, params or GramSolveParams(), n_max):
        history.append(delta)
    return limit, tuple(history)


def analytic_criterion(T: BandOp, h: FinVec, n: int,
                       params: GramSolveParams | None = None) -> float:
    """The norm ``|| G_n^{-1/2} (T*)^n h ||`` with ``G_n`` the Gram of ``T^n``.

    Vanishing of this quantity as n grows characterizes membership in the
    series (analytic) part; it equals ``||P_n h||`` identically.  With
    ``v = (T^n)* h`` and ``x = G_n^{-1} v`` from :func:`solve_gram`, its
    square ``<G_n^{-1} v, v>`` is read as ``2 Re <x, v> - ||T^n x||^2``,
    whose error is ``-||T^n e||^2`` for the solve error ``e``: second order
    in the certified residual, where ``Re <x, v>`` alone is off by a first
    order term.  Raises the solve's :class:`NoConvergence` when it cannot
    be certified.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    Tn = T ** n
    v = Tn.adjoint().apply(h)
    if v.is_zero:
        return 0.0
    x = solve_gram(Tn, v, params)
    return math.sqrt(2.0 * x.inner(v).real - Tn.apply(x).norm_sq())


def _canonical_phase(v: FinVec) -> FinVec:
    """Rotate so the largest-magnitude entry (first by index) is positive real."""
    best_ix, best_amp = None, 0j
    for ix, amp in v.items():
        if abs(amp) > abs(best_amp) + 1e-15:
            best_ix, best_amp = ix, amp
    if best_ix is None or best_amp == 0:
        return v
    return v * (abs(best_amp) / best_amp)


def wandering_basis(T: BandOp, window: int = 16) -> list[FinVec]:
    """Orthonormal basis of the defect space ``ker T*`` supported in the window.

    The null space is taken from a rectangular section of ``T*`` whose rows
    cover every image of the window columns, so the section acts exactly and
    truncation cannot manufacture spurious null vectors.  Each candidate is
    still re-checked against the exact band adjoint before being accepted.
    """
    A = T.adjoint()
    cols = T.lattice.window(window)
    if not cols:
        return []
    M, rows = section(A, cols)
    if not rows:  # null_space needs at least one row
        M = np.zeros((1, len(cols)), dtype=complex)
    ns = scipy.linalg.null_space(M)
    out = []
    for c in range(ns.shape[1]):
        v = FinVec({ix: ns[j, c] for j, ix in enumerate(cols) if ns[j, c] != 0},
                   rank=T.rank)
        v = _canonical_phase(v)
        if A.apply(v).norm() <= 1e-10 * max(v.norm(), 1e-300):
            out.append(v)
    out.sort(key=lambda v: v.support())
    return out


def series_component(T: BandOp, j: int, h: FinVec,
                     params: GramSolveParams | None = None) -> FinVec:
    """The component ``T^j P0 (T~)^j h`` of the defect series."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    p = params or GramSolveParams()
    x = h
    for _ in range(j):
        x = left_inverse_apply(T, x, p)
    c = defect_project(T, x, p)
    for _ in range(j):
        c = T.apply(c)
    return c


def decompose(T: BandOp, h: FinVec, params: GramSolveParams | None = None,
              n_max: int = 64) -> WoldResult:
    """Split ``h`` into its limit part and defect-series components.

    One pass of the limit loop: step ``n`` solves ``x_n = (T^n)~ h``, forms
    ``P_n h = T^n x_n`` and records the component ``P_{n-1} h - P_n h``.  The
    loop stops when ``(T*)^n h`` vanishes exactly, or after three negligible
    deltas once the adjoint orbit of ``h`` shows no later support loss.

    Each step also advances the left-inverse chain ``y_n = T~ y_{n-1}`` (one
    certified solve) and measures the power identity residual
    ``||T^n (y_n - x_n)|| / ||h||``; its maximum over the steps is
    ``power_residual``, flagged with its ``n`` above ``100 * tol``.  A chain
    that vanishes ends the series exactly, which is flagged too.  The
    reconstruction residual and the pairwise orthogonality of the
    components are measured and recorded.
    """
    p = params or GramSolveParams()
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if h.is_zero:
        return WoldResult(h, (), 0.0, (), 0, 0, 0.0, 0.0, ())
    hn = h.norm()
    adjT = T.adjoint()
    comps: list[FinVec] = []
    history: list[float] = []
    prev = y = h  # P_{n-1} h and y_{n-1} = (T~)^{n-1} h
    power, power_n = 0.0, 0
    for n, Tn, x, cur, comp, delta in _range_projections(T, h, p, n_max):
        comps.append(comp)
        history.append(delta)
        w = adjT.apply(y)
        try:
            y = w if w.is_zero else solve_gram(T, w, p)
        except NoConvergence as e:
            raise NoConvergence(f"left-inverse chain, n={n}: {e}", e.residual, e.window) from e
        r = Tn.apply(y - x).norm() / hn
        if r > power:
            power, power_n = r, n
        prev = cur

    flags: list[str] = []
    if y.is_zero:
        flags.append("series terminated exactly: left-inverse iterate vanished")
    if power > 100.0 * p.tol:
        flags.append(f"power identity residual {power:.3e} at n={power_n}: "
                     f"(T~)^n h is not (T^n)~ h")

    acc = prev
    for c in comps:
        acc = acc + c
    recon = (h - acc).norm()
    if recon > 100.0 * p.tol * hn:
        flags.append(f"reconstruction residual {recon:.3e} exceeds budget")

    cross = max_cross(comps) / (hn * hn)
    if cross > 1e-10:
        flags.append(f"components not pairwise orthogonal: max cross term {cross:.3e}")

    return WoldResult(prev, tuple(comps), recon, tuple(history), len(history),
                      len(comps) - 1, cross, power, tuple(flags))


def reducing_residual(T: BandOp, h: FinVec, n: int,
                      params: GramSolveParams | None = None) -> float:
    """Residual of the intertwining ``P_{n+1} T = T P_n`` on ``h``, normalized."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if h.is_zero:
        return 0.0
    p = params or GramSolveParams()
    lhs = nested_project(T, n + 1, T.apply(h), p)
    rhs = T.apply(nested_project(T, n, h, p))
    return (lhs - rhs).norm() / h.norm()


def surjectivity_witness(T: BandOp, h_inf: FinVec,
                         params: GramSolveParams | None = None,
                         n_max: int = 64) -> FinVec:
    """Preimage of a limit-subspace vector under T, staying in the subspace.

    Requires ``h_inf`` to lie in the limit subspace at tolerance (checked;
    :class:`InputNotInHInfinity` otherwise).  The returned ``h'`` satisfies
    ``T h' = h_inf`` and itself projects onto the limit subspace, both within
    tolerance; gross certificate failures also raise
    :class:`InputNotInHInfinity`, since they mean the input was not really
    in the subspace.
    """
    p = params or GramSolveParams()
    if h_inf.is_zero:
        return h_inf
    hn = h_inf.norm()
    lim, _ = shift_limit_project(T, h_inf, p, n_max=n_max)
    r_in = (h_inf - lim).norm()
    if r_in > p.tol * hn:
        raise InputNotInHInfinity(r_in, "membership pre-check failed")
    hp = left_inverse_apply(T, h_inf, p)
    r_pre = (T.apply(hp) - h_inf).norm()
    if r_pre > 10.0 * p.tol * hn:
        raise InputNotInHInfinity(r_pre, "T (T~ h) does not reproduce h")
    if not hp.is_zero:
        lim_p, _ = shift_limit_project(T, hp, p, n_max=n_max)
        r_mem = (hp - lim_p).norm()
        if r_mem > 10.0 * p.tol * hp.norm():
            raise InputNotInHInfinity(r_mem, "preimage left the limit subspace")
    return hp
