"""Wold-type decomposition engine for left-invertible band operators.

For a left-invertible T with canonical left inverse ``T~ = (T*T)^{-1} T*``,
the engine computes:

* the defect projection ``P0 = I - T T~`` onto ``ker T*``,
* the nested range projections ``P_n`` onto ``T^n H``,
* their strong limit ``P`` (projection onto the intersection of all ranges),
* the series components ``T^j P0 (T~)^j h`` whose sum with ``P h``
  reconstructs ``h``,
* an orthonormal basis of the defect space, and
* certificates: reconstruction residual, pairwise component orthogonality,
  convergence history, and a surjectivity witness on the limit subspace.

``P_n`` is always computed as ``T^n (T^n)~`` (through the Gram operator of
``T^n``), which is an orthogonal projection for every left-invertible T.
The identity ``(T^n)~ = (T~)^n`` that makes the plain iterate agree with it
is a property of the operator, checked separately by :mod:`woldkit.classd`;
``decompose`` flags a disagreement instead of assuming it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bandop import (
    BandOp,
    GramSolveParams,
    NoConvergence,
    _window_system,
    left_inverse_apply,
    section,
    solve_gram,
)
from .seqspace import FinVec, max_cross


class NoStrongConvergence(RuntimeError):
    """The nested-projection iterates did not settle within the iteration cap."""

    def __init__(self, n_max: int, last_delta: float):
        super().__init__(f"projection iterates not Cauchy after n_max={n_max} "
                         f"steps (last delta {last_delta:.3e})")
        self.n_max = n_max
        self.last_delta = last_delta


class SeriesNotConverged(RuntimeError):
    """The defect series did not become negligible within the term cap."""

    def __init__(self, j_max: int, tail_norm: float):
        super().__init__(f"defect series still carries norm {tail_norm:.3e} "
                         f"at term cap j_max={j_max}")
        self.j_max = j_max
        self.tail_norm = tail_norm


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

    ``components[j]`` approximates ``T^j P0 (T~)^j h``; the convergence
    history holds ``||P_n h - P_{n+1} h||`` per step of the limit iteration.
    """

    limit_part: FinVec
    components: tuple
    reconstruction_residual: float
    convergence_history: tuple
    n_used: int
    j_used: int
    component_cross_max: float
    flags: tuple


def defect_project(T: BandOp, h: FinVec, params: GramSolveParams | None = None) -> FinVec:
    """Project onto the defect space: ``h - T (T~ h)``, certified in ``ker T*``."""
    return _defect_and_pullback(T, h, params or GramSolveParams())[0]


def _defect_and_pullback(T: BandOp, h: FinVec, p: GramSolveParams) -> tuple[FinVec, FinVec]:
    """``(h - T (T~ h), T~ h)``: the certified defect projection together with
    the left-inverse image it was built from, which the series loop reuses."""
    if h.is_zero:
        return h, h
    adj_h = T.adjoint().apply(h)
    if adj_h.is_zero:
        return h, adj_h
    x = solve_gram(T, adj_h, p)
    d = h - T.apply(x)
    cert = T.adjoint().apply(d).norm()
    bound = 4.0 * p.tol * max(h.norm(), adj_h.norm())
    if cert > bound:
        raise NoConvergence(
            f"defect certificate ||T* d|| = {cert:.3e} exceeds {bound:.3e}",
            residual=cert)
    return d, x


def nested_project(T: BandOp, n: int, h: FinVec, params: GramSolveParams | None = None) -> FinVec:
    """Orthogonal projection of ``h`` onto the range of ``T^n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0 or h.is_zero:
        return h
    Tn = T ** n
    x = left_inverse_apply(Tn, h, params)
    return Tn.apply(x)


def _adjoint_orbit_settled(adjT: BandOp, w: FinVec, budget: int) -> bool:
    """True when repeated adjoint application never shrinks the support of w.

    A support entry vanishing under T* is the structural event behind a
    later drop of the range projections: the pulled-back vector acquires a
    defect component one step earlier.  A basis vector far up a shift
    lattice keeps ``P_1 h = ... = P_k h = h`` before collapsing, and a
    surviving invertible component can mask a dying one, so a small-delta
    plateau is only trusted once the forward orbit (computed with exact band
    arithmetic, no solves) shows no further losses within the budget.

    The reference walk: the two loops' linear-time tests below agree with
    it, and the series loop still calls it where they cannot decide.
    """
    size = len(w)
    for _ in range(budget):
        w = adjT.apply(w)
        if len(w) < size:
            return False
        size = len(w)
    return True


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
        calls: ``p+1 .. _k-1`` hold none, so each position is scanned once."""
        k = max(p + 1, self._k)
        while k <= end and len(self.at(k)) >= len(self.items[k - 1]):
            k += 1
        self._k = k
        return k > end


class _SeriesSettle:
    """``_adjoint_orbit_settled(adjT, x_j, j_max - j)`` for nondecreasing j.
    A single band maps indices injectively, so ``supp (T*)^k x`` lies in the
    support-only orbit (sorted index tuples, as a shift keeps their order,
    started at ``supp x_j0`` and kept while entry ``j - j0`` is ``supp x_j``):
    a drop there within the budget proves the walk False.  Only a level
    orbit runs the walk, which alone sees amplitudes underflow."""

    def __init__(self, adjT: BandOp, j_max: int):
        self.adjT, self.j_max, self.orbit, self.j0 = adjT, j_max, None, 0

    def __call__(self, x: FinVec, j: int) -> bool:
        if len(self.adjT.bands) == 1:
            if self.orbit is None or self.orbit.at(j - self.j0) != x.support():
                (steps,) = self.adjT._steps
                self.orbit, self.j0 = _Orbit(x.support(), lambda S: tuple(
                    step[0] for step in map(steps.__getitem__, S) if step is not None)), j
            if not self.orbit.settled(j - self.j0, self.j_max - self.j0):
                return False
        return _adjoint_orbit_settled(self.adjT, x, self.j_max - j)


def shift_limit_project(T: BandOp, h: FinVec, params: GramSolveParams | None = None,
                        n_max: int = 64) -> tuple[FinVec, tuple]:
    """Strong limit of the range projections applied to ``h``.

    Iterates ``P_n h`` and stops when the adjoint iterate ``(T*)^n h``
    vanishes exactly (the norms are nonincreasing, so the limit is then
    exactly zero) or when three consecutive deltas fall below
    ``tol * ||h||`` and a forward scan of the adjoint iterate cannot prove
    the plateau transient.  Returns the final iterate and the delta history;
    raises :class:`NoStrongConvergence` at the iteration cap.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = params or GramSolveParams()
    if h.is_zero:
        return h, ()
    hn = h.norm()
    adjT = T.adjoint()
    prev = h
    history: list[float] = []
    consec = 0
    orbit = _Orbit(h, adjT.apply)  # (T*)^n h, maintained without solves
    for n in range(1, n_max + 1):
        Tn = T ** n
        w = orbit.at(n)
        if w.is_zero:
            history.append(prev.norm())
            return FinVec((), rank=h.rank), tuple(history)
        try:
            x = solve_gram(Tn, w, p)
        except NoConvergence as e:
            raise NoConvergence(f"limit phase, n={n}: {e}", e.residual, e.window) from e
        cur = Tn.apply(x)
        delta = (prev - cur).norm()
        history.append(delta)
        if delta <= p.tol * hn:
            consec += 1
            if consec >= 3 and orbit.settled(n, n_max):
                return cur, tuple(history)
        else:
            consec = 0
        prev = cur
    raise NoStrongConvergence(n_max, history[-1])


def analytic_criterion(T: BandOp, h: FinVec, n: int,
                       params: GramSolveParams | None = None) -> float:
    """The norm ``|| G_n^{-1/2} (T*)^n h ||`` with ``G_n`` the Gram of ``T^n``.

    Vanishing of this quantity as n grows characterizes membership in the
    series (analytic) part; it equals ``||P_n h||`` identically, which the
    test suite uses as its cross-check.  Computed by a Hermitian
    eigendecomposition of the guarded finite section of ``G_n``, with an
    eigenvalue floor at 1e-14 times the largest eigenvalue (warned when hit).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = params or GramSolveParams()
    if h.is_zero:
        return 0.0
    Tn = T ** n
    v = Tn.adjoint().apply(h)
    if v.is_zero:
        return 0.0
    G = Tn.gram()
    if G.is_diagonal() and G.bands:
        # the section on the support window is already diagonal, so its
        # eigendecomposition is the diagonal itself; no padding needed
        (steps,) = G._steps
        items = v.items()
        lam = np.array([steps[ix][1].real for ix, _ in items])
        y = np.array([amp for _, amp in items])
    else:
        _, M, rhs = _window_system(G, v, p.effective_guard(Tn))
        lam, U = np.linalg.eigh(M)
        y = U.conj().T @ rhs
    floor = 1e-14 * float(lam.max())
    if lam.min() < floor:
        warnings.warn("Gram eigenvalue floor hit; operator is near the "
                      "left-invertibility boundary", stacklevel=2)
        lam = np.maximum(lam, floor)
    return float(np.linalg.norm(y / np.sqrt(lam)))


def _canonical_phase(v: FinVec) -> FinVec:
    """Rotate so the largest-magnitude entry (first by index) is positive real."""
    best_ix, best_amp = None, 0j
    for ix, amp in v.items():
        if abs(amp) > abs(best_amp) + 1e-15:
            best_ix, best_amp = ix, amp
    if best_ix is None or best_amp == 0:
        return v
    return v * (abs(best_amp) / best_amp)


def wandering_basis(T: BandOp, window: int = 16, tol: float = 1e-10) -> list[FinVec]:
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
        if A.apply(v).norm() <= tol * max(v.norm(), 1e-300):
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
        if x.is_zero:
            break
        x = left_inverse_apply(T, x, p)
    c = defect_project(T, x, p)
    for _ in range(j):
        c = T.apply(c)
    return c


def decompose(T: BandOp, h: FinVec, params: GramSolveParams | None = None,
              n_max: int = 64, j_max: int = 256) -> WoldResult:
    """Split ``h`` into its limit part and defect-series components.

    Truncates the series after three consecutive negligible components, or
    exactly when the left-inverse iterate of ``h`` vanishes (for shifts the
    tail is then exactly zero).  The reconstruction residual, the pairwise
    orthogonality of the components, and the agreement of the limit with the
    plain left-inverse power iterate are measured and recorded.
    """
    p = params or GramSolveParams()
    if h.is_zero:
        return WoldResult(h, (), 0.0, (), 0, 0, 0.0, ())
    hn = h.norm()
    flags: list[str] = []

    limit, history = shift_limit_project(T, h, p, n_max=n_max)
    n_used = len(history)

    comps: list[FinVec] = []
    settled = _SeriesSettle(T.adjoint(), j_max)
    iterates = [h]  # (T~)^j h, each solved once and reused by the drift check
    x = h
    consec = 0
    terminated = False
    j_used = 0
    for j in range(j_max + 1):
        if j > 0 and x.is_zero:
            terminated = True
            j_used = j - 1
            flags.append("series terminated exactly: left-inverse iterate vanished")
            break
        try:
            d, pulled = _defect_and_pullback(T, x, p)
        except NoConvergence as e:
            raise NoConvergence(f"series phase, j={j}: {e}", e.residual, e.window) from e
        iterates.append(pulled)
        c = d
        for _ in range(j):
            c = T.apply(c)
        comps.append(c)
        j_used = j
        if c.norm() <= p.tol * hn:
            consec += 1
            # a run of negligible components is only trusted once the
            # iterate's forward orbit shows no more structural losses
            if consec >= 3 and settled(x, j):
                terminated = True
                break
        else:
            consec = 0
        x = pulled
    if not terminated:
        raise SeriesNotConverged(j_max, comps[-1].norm() if comps else math.inf)

    acc = limit
    for c in comps:
        acc = acc + c
    recon = (h - acc).norm()
    if recon > 100.0 * p.tol * hn:
        flags.append(f"reconstruction residual {recon:.3e} exceeds budget")

    cross = max_cross(comps) / (hn * hn)
    if cross > 1e-10:
        flags.append(f"components not pairwise orthogonal: max cross term {cross:.3e}")

    # compare the projection-based limit with the plain left-inverse power
    # iterate; they agree exactly when powers of the left inverse are left
    # inverses of powers, which classd checks as a property
    y = h
    for k in range(1, n_used + 1):
        if y.is_zero:
            break
        y = iterates[k] if k < len(iterates) else left_inverse_apply(T, y, p)
    alt = y
    for _ in range(n_used):
        if alt.is_zero:
            break
        alt = T.apply(alt)
    drift = (alt - limit).norm()
    if drift > 100.0 * p.tol * hn:
        flags.append(f"left-inverse power iterate deviates from projection "
                     f"limit by {drift:.3e}")

    return WoldResult(limit, tuple(comps), recon, history, n_used, j_used,
                      cross, tuple(flags))


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
