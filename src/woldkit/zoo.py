"""Constructors for the operator families the toolkit studies.

Everything here returns plain :class:`~woldkit.bandop.BandOp` values:
weighted unilateral/bilateral shifts (including the Bergman and Dirichlet
shifts), grid-discretized weighted translations, a block quasinormal
operator, tensor factor pairs that double-commute by construction, and
direct sums on a tagged union lattice.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bandop import (
    BandOp,
    Lattice,
    UnionLattice,
    Weight,
    bergman,
    constant,
    dirichlet,
    identity,
    power_ratio,
    table,
    union,
)
from .seqspace import FinVec, RankMismatch

# largest |L - L*| entry, relative to max(1, largest |L| entry), that a
# quasinormal block accepts as Hermitian
HERMITIAN_TOL = 1e-12


class IncommensurateStep(ValueError):
    """The translation step is not an integer multiple of the grid spacing."""

    def __init__(self, t: float, h: float):
        super().__init__(f"translation step t/h = {t / h} is not a positive integer "
                         f"(incommensurate grid)")
        self.t = t
        self.h = h


def _as_lattice(lattice) -> Lattice:
    if isinstance(lattice, (Lattice, UnionLattice)):
        return lattice
    if lattice == "nat":
        return Lattice.nat(1)
    if lattice == "int":
        return Lattice.integers(1)
    raise ValueError(f"unknown lattice spec {lattice!r}")


def weighted_shift(weight: Weight, step: int = 1, lattice="nat") -> BandOp:
    """Shift by ``step`` with index-dependent weight: ``e_k -> w(k) e_{k+step}``.

    Warns (does not fail) when the weight is not bounded away from zero on a
    probe window, since such an operator is not left invertible.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    lat = _as_lattice(lattice)
    if lat.rank != 1:
        raise RankMismatch("weighted_shift builds rank-1 operators; use tensor_pair for rank 2")
    T = BandOp(lat, (((step,), weight),))
    _probe_weight(weight, lat)
    return T


def _probe_weight(weight: Weight, lat: Lattice) -> None:
    """Evaluate a shift weight on a probe window of its rank-1 lattice, so a
    weight undefined there raises at build time; warn when it is not bounded
    away from zero, since the shift is then not left invertible."""
    vals = [abs(weight.evaluate(ix, lat)) for ix in lat.window(32)]
    if not vals or min(vals) < 1e-12:
        warnings.warn("shift weight is not bounded below on the probe window; "
                      "the operator is not left invertible", stacklevel=3)


def unilateral_shift() -> BandOp:
    """The unweighted shift on the half line; an isometry."""
    return weighted_shift(constant(1.0), 1, "nat")


def bilateral_shift() -> BandOp:
    """The unweighted two-sided shift; unitary on finitely supported vectors."""
    return weighted_shift(constant(1.0), 1, "int")


def bergman_shift() -> BandOp:
    """Unilateral shift with weights sqrt((k+1)/(k+2))."""
    return weighted_shift(bergman(), 1, "nat")


def dirichlet_shift() -> BandOp:
    """Unilateral shift with weights sqrt((k+2)/(k+1))."""
    return weighted_shift(dirichlet(), 1, "nat")


class PhiFamily:
    """Positive envelope phi used by weighted translations.

    Kinds: ``exp(alpha)`` for phi(x) = e^(alpha x), ``power(beta)`` for
    phi(x) = (1+x)^beta, and ``table`` for sampled envelopes on a grid of
    spacing h (with an explicit ratio to use beyond the samples).
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple):
        self.kind = kind
        self.params = params

    @classmethod
    def exp(cls, alpha: float) -> "PhiFamily":
        return cls("exp", (float(alpha),))

    @classmethod
    def power(cls, beta: float) -> "PhiFamily":
        return cls("power", (float(beta),))

    @classmethod
    def table(cls, samples, h: float, tail_ratio: float) -> "PhiFamily":
        samples = tuple(float(s) for s in samples)
        if not samples or min(samples) <= 0:
            raise ValueError("envelope samples must be positive")
        if tail_ratio <= 0:
            raise ValueError("tail_ratio must be positive")
        return cls("table", (samples, float(h), float(tail_ratio)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PhiFamily)
                and self.kind == other.kind and self.params == other.params)

    def __repr__(self) -> str:
        return f"PhiFamily({self.kind!r}, {self.params!r})"


def grid_step(t: float, h: float) -> int:
    """``t / h`` (t, h > 0) if a positive integer up to a relative 1e-9, else IncommensurateStep."""
    s = t / h
    if not np.isfinite(s) or round(s) < 1 or abs(s - round(s)) > 1e-9 * max(1.0, s):
        raise IncommensurateStep(t, h)
    return round(s)


def weighted_translation(phi: PhiFamily, t: float, h: float) -> BandOp:
    """Grid discretization of translation by ``t`` with envelope ratio weights.

    Site j maps to site j+s with weight phi((j+s)h)/phi(jh), where s = t/h
    must be a positive integer; incommensurate steps are refused rather than
    resampled, since resampling would change the operator.
    """
    if t <= 0 or h <= 0:
        raise ValueError("t and h must be positive")
    s = grid_step(t, h)
    if phi.kind == "exp":
        (alpha,) = phi.params
        with np.errstate(over="raise"):  # an infinite weight makes no operator
            w = constant(np.exp(alpha * s * h))
    elif phi.kind == "power":
        (beta,) = phi.params
        w = power_ratio(beta, h, s)
    elif phi.kind == "table":
        samples, grid_h, tail_ratio = phi.params
        if abs(grid_h - h) > 1e-12 * max(1.0, abs(h)):
            raise ValueError(f"envelope sampled at spacing {grid_h}, operator grid uses {h}")
        ratios = [samples[j + s] / samples[j] for j in range(len(samples) - s)]
        if ratios and min(abs(r) for r in ratios) < 1e-12:
            raise ValueError("envelope ratio is not bounded below on the grid")
        w = table(ratios, tail_ratio)
    else:
        raise ValueError(f"unknown envelope kind {phi.kind!r}")
    return weighted_shift(w, s, "nat")


def block_least_eigenvalue(L: np.ndarray) -> float:
    """Least eigenvalue of a finite, Hermitian (to ``HERMITIAN_TOL``), positive-definite matrix."""
    if not np.isfinite(L).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(L).max()))
    if float(np.abs(L - L.conj().T).max()) > HERMITIAN_TOL * scale:
        raise ValueError("matrix must be Hermitian")
    least = float(np.linalg.eigvalsh(L).min())
    if least <= 0:
        raise ValueError(f"matrix must be positive definite (smallest eigenvalue {least:.3e})")
    return least


def quasinormal_block(L) -> BandOp:
    """Block shift on pairs (position, coordinate): ``(k_0, k_1, ...) -> (0, L k_0, L k_1, ...)``.

    ``L`` must be a Hermitian positive-definite d x d matrix; its entries
    become d^2 scalar bands over the rank-2 lattice position x {0..d-1}.
    The operator commutes with its Gram operator by construction.  For the
    operator to be expansive (and hence visibly not an isometry) the smallest
    eigenvalue of L should exceed 1; smaller L is allowed for experiments and
    only warned about.
    """
    L = np.asarray(L, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be a square matrix")
    d = L.shape[0]
    least = block_least_eigenvalue(L)
    if d < 2:
        warnings.warn("block dimension 1 degenerates to a scalar weighted shift", stacklevel=2)
    if least <= 1:
        warnings.warn("smallest eigenvalue of L is <= 1; the block shift is not "
                      "expansive and may be close to an isometry", stacklevel=2)
    lat = Lattice(("nat", d))
    bands = []
    for j in range(d):
        for i in range(d):
            c = complex(L[j, i])
            if c == 0:
                continue
            bands.append(((1, j - i), Weight.const(c) * Weight.select(1, i)))
    return BandOp(lat, bands)


def tensor_pair(w1: Weight, w2: Weight, lattice1="nat", lattice2="nat") -> tuple[BandOp, BandOp]:
    """Two single-band operators on a product lattice that double-commute.

    The first shifts axis 0 with weight ``w1`` (given on axis 0), the second
    shifts axis 1 with weight ``w2`` (given on axis 0 and re-homed to axis 1).
    Each weight is probed on its own axis as :func:`weighted_shift` probes it.
    """
    ax1 = _as_lattice(lattice1).axes[0]
    ax2 = _as_lattice(lattice2).axes[0]
    lat = Lattice((ax1, ax2))
    T1 = BandOp(lat, (((1, 0), w1),))
    T2 = BandOp(lat, (((0, 1), w2.embedded()),))
    _probe_weight(w1, Lattice((ax1,)))
    _probe_weight(w2, Lattice((ax2,)))
    return T1, T2


def direct_sum(A: BandOp, B: BandOp) -> BandOp:
    """Block operator acting as A on the left summand and B on the right.

    Lives on the tagged union lattice; indices gain a leading tag coordinate
    (0 = left, 1 = right) and the summand bands are masked to their tag.
    """
    if A.rank != B.rank:
        raise RankMismatch(f"summand ranks differ: {A.rank} vs {B.rank}")
    lat = union(A.lattice, B.lattice)
    bands = []
    for tag, op in ((0, A), (1, B)):
        sel = Weight.select(0, tag)
        for off, w in op.bands:
            bands.append(((0,) + off, w.embedded() * sel))
    return BandOp(lat, bands)


def embed_summand(v: FinVec, side: int) -> FinVec:
    """Lift a summand vector into the direct sum (side 0 = left, 1 = right)."""
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    return FinVec({(side,) + ix: a for ix, a in v.items()}, rank=v.rank + 1)


def summand_part(v: FinVec, side: int) -> FinVec:
    """Restrict a direct-sum vector to one summand and drop the tag coordinate."""
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    return FinVec({ix[1:]: a for ix, a in v.items() if ix[0] == side}, rank=v.rank - 1)


def identity_on(lattice) -> BandOp:
    """Identity operator on the given lattice (accepts 'nat'/'int' shorthand)."""
    return identity(_as_lattice(lattice))
