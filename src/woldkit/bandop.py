"""Band-structured operators on sequence lattices, with exact application.

An operator is a finite set of bands; a band is an integer offset together
with an index-dependent weight.  The operator acts on a finitely supported
vector by ``(T u)(k + offset) += weight(k) * u(k)``, summed over bands, with
contributions that land outside the lattice discarded.  On half-space
lattices this discarding is exactly the boundary convention of unilateral
shifts and translations (nothing is mapped below index 0).

Adjoints and compositions are computed symbolically on a small weight
algebra (sums of products of shifted family atoms, coordinate selectors and
lattice masks), so applying any derived operator to a vector is still exact.
Where a product of conjugate weight factors has a closed form (for example
the squared modulus of a Bergman weight), it is merged analytically; this
keeps Gram operators of weighted shifts exactly diagonal with rational
entries.

The inverse Gram factor needed by the canonical left inverse
``(T* T)^{-1} T*`` is never formed as an operator: the inverse of a band
operator is not band.  It is applied per vector, and each solve re-measures
its residual with the exact band arithmetic.  A diagonal Gram operator is
divided out entrywise or the solve is refused.  A fibred one (no offset moves
an unbounded axis) is solved exactly on the fibres of the right-hand side,
with no guard, and a miss there is final.  Any other is solved on guarded
finite sections, enlarged (guard doubling) until the tolerance is certified,
the section would exceed ``SECTION_BYTE_CAP``, the lattice stops the window
from growing or a doubling no longer lowers the residual (a round-off
floor).  A non-diagonal Gram operator keeps the Cholesky factors of its
``FACTOR_CACHE`` most recent windows, each only if it fits in
``SECTION_BYTE_CAP // 64`` bytes: at most 32 MiB per Gram operator.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .seqspace import FinVec, RankMismatch

_BIG = 10 ** 9  # sentinel distance for axes without a truncation edge
SECTION_BYTE_CAP = 512 * 2 ** 20  # largest dense complex section ever allocated
FACTOR_CACHE = 4  # Cholesky factors of recent windows kept per Gram operator


class LatticeMismatch(ValueError):
    """A vector or operator was used on a lattice it does not live on."""


class NoConvergence(RuntimeError):
    """A finite section would exceed ``SECTION_BYTE_CAP``, a Gram solve ran
    out of window (that cap, a window that cannot grow, or a doubling that
    no longer lowers the residual) before certifying its residual, or a
    diagonal Gram solve was refused."""

    def __init__(self, message: str, residual: float = math.inf, window: int = 0):
        super().__init__(message)
        self.residual = residual
        self.window = window


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def _tadd(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _tneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _axis_bounds(a) -> tuple:
    if a == "nat":
        return 0, math.inf
    if a == "int":
        return -math.inf, math.inf
    return 0, a - 1


def _graded(pts: Iterable[tuple]) -> list[tuple]:
    """Indices sorted by sum of absolute coordinates, then lexicographically."""
    return sorted(pts, key=lambda ix: (sum(abs(c) for c in ix), ix))


def _box_union(boxes: list[tuple], axis: int) -> list[tuple]:
    """The points of a union of boxes (tuples of inclusive per-axis
    intervals; empty ones add nothing), projected onto the axes from
    ``axis`` on, in lexicographic order."""
    if axis == len(boxes[0]):
        return [()]
    cuts = sorted({b[axis][0] for b in boxes} | {b[axis][1] + 1 for b in boxes})
    out = []
    for start, stop in zip(cuts, cuts[1:]):
        # the boxes covering a coordinate change only at a cut, so the
        # coordinates of one segment share one union over the later axes
        active = [b for b in boxes if b[axis][0] <= start <= b[axis][1]]
        if active:
            tail = _box_union(active, axis + 1)
            out += [(x,) + t for x in range(start, stop) for t in tail]
    return out


class Lattice:
    """Product lattice over integer axes.

    Each axis is ``'nat'`` (coordinates >= 0), ``'int'`` (all integers) or a
    positive int ``m`` denoting the finite range ``0..m-1``.  Indices with a
    coordinate outside an axis domain are not part of the lattice; amplitudes
    there are identically zero.  ``unbounded`` lists the 'nat' and 'int' axes.
    """

    __slots__ = ("axes", "bounds", "unbounded")

    def __init__(self, axes: Sequence):
        axes = tuple(axes)
        for a in axes:
            if a in ("nat", "int"):
                continue
            if isinstance(a, int) and a > 0:
                continue
            raise ValueError(f"bad axis spec {a!r}: expected 'nat', 'int' or a positive int")
        if not axes:
            raise ValueError("lattice needs at least one axis")
        self.axes = axes
        self.bounds = tuple(_axis_bounds(a) for a in axes)  # inclusive per-axis ranges
        self.unbounded = tuple(i for i, a in enumerate(axes) if a in ("nat", "int"))

    @classmethod
    def nat(cls, rank: int = 1) -> "Lattice":
        return cls(("nat",) * rank)

    @classmethod
    def integers(cls, rank: int = 1) -> "Lattice":
        return cls(("int",) * rank)

    @property
    def rank(self) -> int:
        return len(self.axes)

    def contains(self, ix: tuple) -> bool:
        if len(ix) != len(self.bounds):
            return False
        for c, (lo, hi) in zip(ix, self.bounds):
            if not lo <= c <= hi:
                return False
        return True

    def _box(self, centre: tuple, guard: int) -> tuple:
        """Per-axis inclusive intervals within ``guard`` of ``centre``, clipped
        to the lattice; a finite axis is always covered whole."""
        return tuple((max(lo, x - guard), min(hi, x + guard)) if a in ("nat", "int")
                     else (lo, hi) for x, a, (lo, hi) in zip(centre, self.axes, self.bounds))

    def window(self, extent: int) -> list[tuple]:
        """All lattice indices with coordinates within ``extent``; graded order.

        Per axis: ``0..extent`` for 'nat', ``-extent..extent`` for 'int', the
        full range for finite axes.  Sorted by sum of absolute coordinates,
        then lexicographically.
        """
        return _graded(_box_union([self._box((0,) * self.rank, extent)], 0))

    def window_size(self, extent: int) -> int:
        """``len(self.window(extent))``, counted without enumerating."""
        return math.prod(max(0, hi - lo + 1) for lo, hi in self._box((0,) * self.rank, extent))

    def neighbourhood(self, support: Iterable[tuple], guard: int) -> list[tuple]:
        """Sorted lattice indices within sup-distance ``guard`` of the
        in-lattice ``support``; finite axes are always covered whole.

        Each support entry spans a box of per-axis intervals clipped to the
        lattice; the window is emitted from the merged intervals of the
        boxes, without enumerating any box.
        """
        boxes = {self._box(c, guard) for c in support}
        return _box_union(list(boxes), 0) if boxes else []

    def shift_cover(self, selects: dict, off: tuple) -> tuple[bool, bool]:
        """``(every, none)``: whether ``k + off`` lies in the lattice for every
        / for no in-lattice ``k`` whose coordinates satisfy ``selects``
        (axis -> value).

        Axes are independent, so per axis the selected coordinates form an
        interval that is shifted and compared with the axis range.  With no
        such ``k`` at all, both answers are (vacuously) true.
        """
        every, none = True, False
        for axis, ((tlo, thi), o) in enumerate(zip(self.bounds, off)):
            lo, hi = tlo, thi
            v = selects.get(axis)
            if v is not None:
                if not lo <= v <= hi:
                    return True, True
                lo = hi = v
            if lo + o < tlo or hi + o > thi:
                every = False
            if hi + o < tlo or lo + o > thi:
                none = True
        return every, none

    def depth(self, ix: tuple) -> int:
        """Distance from ``ix`` to the farthest lattice boundary along a
        bounded axis (0 when every axis is 'int')."""
        return max((d for c, (lo, hi) in zip(ix, self.bounds) for d in (c - lo, hi - c)
                    if d != math.inf), default=0)

    def edge_margin(self, ix: tuple, extent: int) -> int:
        """Distance from ``ix`` to the truncation edge of ``window(extent)``.

        Lattice boundaries that exist in the infinite operator (the 0 end of a
        'nat' axis, finite axes) are not truncation edges and do not count.
        """
        m = _BIG
        for c, a in zip(ix, self.axes):
            if a == "nat":
                m = min(m, extent - c)
            elif a == "int":
                m = min(m, extent - abs(c))
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.axes == other.axes

    def __hash__(self) -> int:
        return hash(("grid", self.axes))

    def __repr__(self) -> str:
        return f"Lattice({self.axes!r})"


class UnionLattice:
    """Tagged disjoint union of two equal-rank lattices.

    Indices are ``(tag, *coords)`` with tag 0 for the left component and 1
    for the right.  Offsets of operators on a union lattice never move the
    tag coordinate.  ``unbounded`` lists the axes unbounded in either part.
    """

    __slots__ = ("left", "right", "unbounded")

    def __init__(self, left, right):
        if left.rank != right.rank:
            raise RankMismatch(f"summand ranks differ: {left.rank} vs {right.rank}")
        self.left = left
        self.right = right
        self.unbounded = tuple(sorted({i + 1 for part in (left, right) for i in part.unbounded}))

    @property
    def parts(self) -> tuple:
        return (self.left, self.right)

    @property
    def rank(self) -> int:
        return self.left.rank + 1

    def contains(self, ix: tuple) -> bool:
        if len(ix) != self.rank or ix[0] not in (0, 1):
            return False
        return self.parts[ix[0]].contains(ix[1:])

    def window(self, extent: int) -> list[tuple]:
        # each part's own window: a nested union covers every one of its tags
        return _graded((tag,) + ix for tag, part in enumerate(self.parts)
                       for ix in part.window(extent))

    def window_size(self, extent: int) -> int:
        return self.left.window_size(extent) + self.right.window_size(extent)

    def neighbourhood(self, support: Iterable[tuple], guard: int) -> list[tuple]:
        """Like :meth:`Lattice.neighbourhood`, per part (tag 0 sorts first)."""
        by_tag = ([], [])
        for ix in support:
            if ix[0] in (0, 1):  # another tag lies in no part
                by_tag[ix[0]].append(ix[1:])
        return [(tag,) + ix for tag, part in enumerate(self.parts)
                for ix in part.neighbourhood(by_tag[tag], guard)]

    def shift_cover(self, selects: dict, off: tuple) -> tuple[bool, bool]:
        """Like :meth:`Lattice.shift_cover`, recursing into the selected parts.

        An offset that moves the tag into the other part is left undecided
        (``(False, False)``); operators never build one.
        """
        rest = {axis - 1: v for axis, v in selects.items() if axis}
        every, none = True, True
        for tag in ([selects[0]] if 0 in selects else [0, 1]):
            if tag not in (0, 1):
                continue
            if tag + off[0] not in (0, 1):
                every = False
                continue
            if off[0]:
                return False, False
            e, n = self.parts[tag].shift_cover(rest, off[1:])
            every, none = every and e, none and n
        return every, none

    def depth(self, ix: tuple) -> int:
        return self.parts[ix[0]].depth(ix[1:])

    def edge_margin(self, ix: tuple, extent: int) -> int:
        return self.parts[ix[0]].edge_margin(ix[1:], extent)

    def __eq__(self, other) -> bool:
        return (isinstance(other, UnionLattice)
                and self.left == other.left and self.right == other.right)

    def __hash__(self) -> int:
        return hash(("union", self.left, self.right))

    def __repr__(self) -> str:
        return f"UnionLattice({self.left!r}, {self.right!r})"


def union(left, right) -> UnionLattice:
    return UnionLattice(left, right)


# ---------------------------------------------------------------------------
# weight algebra
# ---------------------------------------------------------------------------
#
# A weight is a sum of terms; a term is a complex coefficient times a product
# of atoms (single-axis weight families with a folded-in integer shift and a
# conjugation flag), coordinate selectors (k[axis] == value) and lattice
# masks (k + offset must be in the lattice).  Everything is normalized at
# construction: selector conflicts kill a term, conjugate atom pairs merge to
# an analytic squared-modulus atom, identical terms merge coefficients.
# Masks are created only by composition, which resolves every mask a term's
# own selectors decide (see ``_masked``).

class Atom(NamedTuple):
    kind: str        # 'bergman' | 'dirichlet' | 'table' | 'powratio' | 'abs2'
    axis: int
    shift: int
    conj: bool
    params: tuple


class Select(NamedTuple):
    axis: int
    value: int


class Term(NamedTuple):
    coeff: complex
    atoms: tuple
    selects: tuple
    masks: tuple


_REAL_ATOM_KINDS = frozenset({"bergman", "dirichlet", "powratio", "abs2"})


def _atom_is_real(a: Atom) -> bool:
    if a.kind in _REAL_ATOM_KINDS:
        return True
    if a.kind == "table":
        values, default = a.params
        return all(v.imag == 0 for v in values) and default.imag == 0
    return False


def _atom_sort_key(a: Atom):
    return (a.kind, a.axis, a.shift, repr(a.params), a.conj)


def _eval_atom(a: Atom, ix: tuple) -> complex:
    """Value of one atom at ``ix``; an ``abs2`` atom evaluates its inner
    family squared, in closed form (no square root, doubled exponent)."""
    m = ix[a.axis] + a.shift
    kind, params = a.kind, a.params
    sq = kind == "abs2"
    if sq:
        kind, params = params
    if kind == "bergman":
        if m < 0:
            raise ValueError(f"Bergman weight evaluated at negative index {m}")
        return (m + 1) / (m + 2) if sq else math.sqrt((m + 1) / (m + 2))
    if kind == "dirichlet":
        if m < 0:
            raise ValueError(f"Dirichlet weight evaluated at negative index {m}")
        return (m + 2) / (m + 1) if sq else math.sqrt((m + 2) / (m + 1))
    if kind == "table":
        values, default = params
        v = values[m] if 0 <= m < len(values) else default
        if sq:
            return v.real * v.real + v.imag * v.imag
        return v.conjugate() if a.conj else v
    if kind == "powratio":
        beta, h, steps = params
        if m < 0:
            raise ValueError(f"translation weight evaluated at negative grid site {m}")
        base = (1.0 + (m + steps) * h) / (1.0 + m * h)
        return base ** (2.0 * beta if sq else beta)
    raise ValueError(f"unknown atom kind {kind!r}")


def _merge_abs2(atoms: list[Atom]) -> list[Atom]:
    """Replace conjugate pairs of identical atoms by a squared-modulus atom."""
    changed = True
    while changed:
        changed = False
        n = len(atoms)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = atoms[i], atoms[j]
                if a.kind == "abs2" or b.kind == "abs2":
                    continue
                if (a.kind, a.axis, a.shift, a.params) != (b.kind, b.axis, b.shift, b.params):
                    continue
                if a.conj != b.conj or _atom_is_real(a):
                    merged = Atom("abs2", a.axis, a.shift, False, (a.kind, a.params))
                    atoms = atoms[:i] + atoms[i + 1:j] + atoms[j + 1:] + [merged]
                    changed = True
                    break
            if changed:
                break
    return atoms


def _make_term(coeff: complex, atoms, selects, masks) -> Term | None:
    coeff = complex(coeff)
    if coeff == 0:
        return None
    sel: dict[int, int] = {}
    for s in selects:
        if s.axis in sel and sel[s.axis] != s.value:
            return None
        sel[s.axis] = s.value
    atoms = _merge_abs2(list(atoms))
    return Term(
        coeff,
        tuple(sorted(atoms, key=_atom_sort_key)),
        tuple(Select(ax, v) for ax, v in sorted(sel.items())),
        tuple(sorted(set(masks))),
    )


def _normalize_terms(terms: Iterable[Term]) -> tuple:
    merged: dict[tuple, complex] = {}
    for t in terms:
        if t is None:
            continue
        key = (t.atoms, t.selects, t.masks)
        merged[key] = merged.get(key, 0j) + t.coeff
    out = [Term(c, *key) for key, c in merged.items() if c != 0]
    out.sort(key=lambda t: (tuple(map(_atom_sort_key, t.atoms)), t.selects, t.masks, repr(t.coeff)))
    return tuple(out)


class Weight:
    """Index-dependent band weight in sum-of-products normal form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = ()):
        self.terms = _normalize_terms(terms)

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c) -> "Weight":
        t = _make_term(complex(c), (), (), ())
        return cls(() if t is None else (t,))

    @classmethod
    def atom(cls, kind: str, params: tuple = ()) -> "Weight":
        """One weight family on axis 0; ``embedded()`` re-homes it."""
        return cls((_make_term(1.0, (Atom(kind, 0, 0, False, params),), (), ()),))

    @classmethod
    def select(cls, axis: int, value: int) -> "Weight":
        return cls((_make_term(1.0, (), (Select(axis, value),), ()),))

    # -- algebra ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def conjugated(self) -> "Weight":
        out = []
        for t in self.terms:
            atoms = tuple(a if _atom_is_real(a) else a._replace(conj=not a.conj)
                          for a in t.atoms)
            out.append(_make_term(t.coeff.conjugate(), atoms, t.selects, t.masks))
        return Weight(out)

    def shifted(self, off: tuple) -> "Weight":
        """Weight evaluating the original at ``k + off``."""
        out = []
        for t in self.terms:
            atoms = tuple(a._replace(shift=a.shift + off[a.axis]) for a in t.atoms)
            selects = tuple(Select(s.axis, s.value - off[s.axis]) for s in t.selects)
            masks = tuple(_tadd(m, off) for m in t.masks)
            out.append(_make_term(t.coeff, atoms, selects, masks))
        return Weight(out)

    def embedded(self) -> "Weight":
        """Re-home the weight one axis to the right (a tag axis is prepended)."""
        out = []
        for t in self.terms:
            atoms = tuple(a._replace(axis=a.axis + 1) for a in t.atoms)
            selects = tuple(Select(s.axis + 1, s.value) for s in t.selects)
            masks = tuple((0,) + m for m in t.masks)
            out.append(_make_term(t.coeff, atoms, selects, masks))
        return Weight(out)

    def __mul__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        out = []
        for ta in self.terms:
            for tb in other.terms:
                out.append(_make_term(ta.coeff * tb.coeff,
                                      ta.atoms + tb.atoms,
                                      ta.selects + tb.selects,
                                      ta.masks + tb.masks))
        return Weight(out)

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(self.terms + other.terms)

    def scaled(self, c) -> "Weight":
        c = complex(c)
        return Weight(tuple(_make_term(c * t.coeff, t.atoms, t.selects, t.masks)
                            for t in self.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"Weight({len(self.terms)} terms)"

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, ix: tuple, lattice) -> complex:
        total = 0j
        for t in self.terms:
            skip = False
            for s in t.selects:
                if ix[s.axis] != s.value:
                    skip = True
                    break
            if skip:
                continue
            for m in t.masks:
                if not lattice.contains(_tadd(ix, m)):
                    skip = True
                    break
            if skip:
                continue
            val = t.coeff
            for a in t.atoms:
                val = val * _eval_atom(a, ix)
            total += val
        return total


# convenience weight-family constructors -------------------------------------

def constant(c) -> Weight:
    return Weight.const(c)


def bergman() -> Weight:
    """sqrt((k+1)/(k+2)) on axis 0."""
    return Weight.atom("bergman")


def dirichlet() -> Weight:
    """sqrt((k+2)/(k+1)) on axis 0."""
    return Weight.atom("dirichlet")


def table(values: Sequence, default) -> Weight:
    """Tabulated weight on axis 0; out-of-range lookups return the explicit default."""
    vals = tuple(complex(v) for v in values)
    return Weight.atom("table", (vals, complex(default)))


def power_ratio(beta: float, h: float, steps: int) -> Weight:
    """((1+(k+steps)h)/(1+kh))**beta on axis 0: translation weight of a power envelope."""
    return Weight.atom("powratio", (float(beta), float(h), int(steps)))


# ---------------------------------------------------------------------------
# band operators
# ---------------------------------------------------------------------------

def _require_in_lattice(indices: Iterable[tuple], lattice) -> None:
    for ix in indices:
        if not lattice.contains(ix):
            raise LatticeMismatch(f"vector entry at {ix} lies outside {lattice!r}")


class _BandSteps(dict):
    """One band's steps, each computed on its first lookup: an in-lattice
    index ``ix`` maps to ``(ix + offset, weight(ix))``, or to None when the
    image leaves the lattice.  A zero weight keeps its step (sections need
    its row).  Only validated indices get in: looking up one outside the
    lattice raises :class:`LatticeMismatch`."""

    __slots__ = ("lattice", "off", "w")

    def __init__(self, lattice, off: tuple, w: Weight):
        super().__init__()
        self.lattice, self.off, self.w = lattice, off, w

    def __missing__(self, ix: tuple):
        lat = self.lattice
        if not lat.contains(ix):
            raise LatticeMismatch(f"vector entry at {ix} lies outside {lat!r}")
        tgt = _tadd(ix, self.off)
        step = self[ix] = (tgt, self.w.evaluate(ix, lat)) if lat.contains(tgt) else None
        return step


class BandOp:
    """Operator given by finitely many (offset, weight) bands on a lattice.

    Immutable, so its adjoint, Gram operator and powers are each derived
    once, on first use, and kept on the instance; so is each band's step
    at each index visited (one :class:`_BandSteps` per band), and, on a
    Gram operator, the Cholesky factors of its recent solve windows.
    """

    __slots__ = ("lattice", "rank", "bands", "_diagonal", "_fibred", "_adjoint", "_gram",
                 "_powers", "_steps", "_factors")

    def __init__(self, lattice, bands: Iterable[tuple]):
        merged: dict[tuple, Weight] = {}
        for off, w in bands:
            off = tuple(int(c) for c in off)
            if len(off) != lattice.rank:
                raise RankMismatch(f"offset {off} has rank {len(off)}, lattice rank {lattice.rank}")
            if off in merged:
                merged[off] = merged[off] + w
            else:
                merged[off] = w
        self.lattice = lattice
        self.rank = lattice.rank
        self.bands = tuple((off, w) for off, w in sorted(merged.items(), key=lambda kv: kv[0])
                           if not w.is_zero)
        self._diagonal = not any(any(off) for off, _ in self.bands)
        self._fibred = not any(off[a] for off, _ in self.bands for a in lattice.unbounded)
        self._steps = tuple(_BandSteps(lattice, off, w) for off, w in self.bands)
        self._adjoint = None
        self._gram = None
        # T^2, T^3, ...; T itself is not stored, so the caches hold no cycle
        self._powers = []
        self._factors = None  # window -> Cholesky factor, least recent first

    @property
    def offsets(self) -> tuple:
        return tuple(off for off, _ in self.bands)

    def max_band_reach(self) -> int:
        reach = 0
        for off, _ in self.bands:
            reach = max(reach, max((abs(c) for c in off), default=0))
        return reach

    def is_diagonal(self) -> bool:
        return self._diagonal

    def is_fibred(self) -> bool:
        """Whether no offset moves an unbounded axis: the operator then maps
        each fibre (the indices sharing their unbounded coordinates) into
        itself.  Every diagonal operator is fibred."""
        return self._fibred

    # -- action -------------------------------------------------------------
    def apply(self, u: FinVec) -> FinVec:
        if u.rank != self.rank:
            raise RankMismatch(f"vector rank {u.rank}, operator rank {self.rank}")
        items = u.items()
        if not self.bands:
            _require_in_lattice(u.support(), self.lattice)
        acc: dict[tuple, complex] = {}
        for steps in self._steps:
            for ix, amp in items:
                step = steps[ix]  # validates ix on first sight
                if step is not None and step[1] != 0:
                    tgt, val = step
                    acc[tgt] = acc.get(tgt, 0j) + val * amp
        return FinVec._wrap(acc, self.rank)

    # -- algebra ------------------------------------------------------------
    def adjoint(self) -> "BandOp":
        if self._adjoint is None:
            out = []
            for off, w in self.bands:
                noff = _tneg(off)
                out.append((noff, w.conjugated().shifted(noff)))
            self._adjoint = BandOp(self.lattice, out)
        return self._adjoint

    def compose(self, other: "BandOp") -> "BandOp":
        """self after other: (self @ other)(u) = self(other(u)), exactly.

        A mask records that the intermediate index ``k + other_offset`` must
        lie in the lattice; see :func:`_masked` for when it is resolved.
        """
        if not isinstance(other, BandOp):
            raise TypeError("compose expects a BandOp")
        if self.lattice != other.lattice:
            raise LatticeMismatch(f"lattices differ: {self.lattice!r} vs {other.lattice!r}")
        # a mask that always holds leaves mask-free products as they are
        always = [self.lattice.shift_cover({}, boff) == (True, False) for boff, _ in other.bands]
        out = []
        for aoff, aw in self.bands:
            for (boff, bw), holds in zip(other.bands, always):
                w = aw.shifted(boff) * bw
                if not holds or any(t.masks for t in w.terms):
                    w = _masked(w, boff, self.lattice)
                out.append((_tadd(aoff, boff), w))
        return BandOp(self.lattice, out)

    def __matmul__(self, other: "BandOp") -> "BandOp":
        return self.compose(other)

    def gram(self) -> "BandOp":
        """The operator ``T* T``; Hermitian, exactly diagonal for weighted shifts."""
        if self._gram is None:
            self._gram = self.adjoint().compose(self)
        return self._gram

    def __pow__(self, n: int) -> "BandOp":
        """``T^n``, extending the cached chain ``T^k = T^(k-1) @ T``."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("power must be a nonnegative integer")
        if n == 0:
            return identity(self.lattice)
        if n == 1:
            return self
        powers = self._powers
        while len(powers) < n - 1:
            powers.append((powers[-1] if powers else self).compose(self))
        return powers[n - 2]

    def __add__(self, other: "BandOp") -> "BandOp":
        if not isinstance(other, BandOp):
            return NotImplemented
        if self.lattice != other.lattice:
            raise LatticeMismatch("cannot add operators on different lattices")
        return BandOp(self.lattice, self.bands + other.bands)

    def __sub__(self, other: "BandOp") -> "BandOp":
        return self + (-1) * other

    def __mul__(self, c) -> "BandOp":
        return BandOp(self.lattice, tuple((off, w.scaled(c)) for off, w in self.bands))

    def __rmul__(self, c) -> "BandOp":
        return self * c

    def __neg__(self) -> "BandOp":
        return self * (-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BandOp):
            return NotImplemented
        return self.lattice == other.lattice and self.bands == other.bands

    def __repr__(self) -> str:
        return f"BandOp({self.lattice!r}, offsets={list(self.offsets)!r})"


def _masked(w: Weight, off: tuple, lattice) -> Weight:
    """``w`` times the mask ``k + off in lattice``, in lattice-aware normal form.

    Each mask of each term is decided against the term's own selectors: one
    that always holds is dropped, a term with one that never holds is
    dropped, an undecided one is kept.  Both drops are exact because weights
    are only evaluated at in-lattice indices.  Without them, powers of
    selector operators (quasinormal blocks) keep terms that differ only in
    redundant masks and grow exponentially.  Returns ``w`` itself when no
    term changes.
    """
    out = []
    changed = False
    for t in w.terms:
        kept = []
        selects = dict(t.selects)
        for m in (t.masks if off in t.masks else t.masks + (off,)):
            every, none = lattice.shift_cover(selects, m)
            if none:  # also when no k satisfies the selectors
                changed = True
                break
            if not every:
                kept.append(m)
        else:
            kept = tuple(kept)
            if kept != t.masks:
                changed = True
                t = Term(t.coeff, t.atoms, t.selects, tuple(sorted(kept)))
            out.append(t)
    return Weight(out) if changed else w


def identity(lattice) -> BandOp:
    return BandOp(lattice, (((0,) * lattice.rank, Weight.const(1.0)),))


# ---------------------------------------------------------------------------
# guarded Gram solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramSolveParams:
    """Controls for the per-vector application of (T*T)^{-1}.

    ``tol`` is the certified relative residual.  No section exceeds
    ``SECTION_BYTE_CAP``; each Gram operator retains at most ``FACTOR_CACHE``
    Cholesky factors of at most ``SECTION_BYTE_CAP // 64`` bytes each.
    """

    tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # an inf tol certifies any solve, a NaN none
            raise ValueError("tol must be finite and positive")


def _gram_residual(G: BandOp, x: FinVec, v: FinVec) -> float:
    return (G.apply(x) - v).norm()


def _diagonal_solve(G: BandOp, v: FinVec) -> tuple[FinVec, float]:
    """``x = G^{-1} v`` entrywise for an exactly diagonal, nonzero ``G``,
    with its residual ``||G x - v||``.  Raises :class:`NoConvergence` naming
    the first index of ``v`` whose entry of ``G`` is not a positive real (the
    operator is not bounded below there), but only once every index of ``v``
    has passed the lattice check, which raises :class:`LatticeMismatch`.

    The residual is measured in the same loop: each entry is the one
    ``G.apply(x) - v`` holds, by the same complex operations (an exactly
    zero ``x_k`` or ``g x_k`` leaves ``-v_k``, up to the sign of a zero),
    and ``fsum`` is exact, so this equals :func:`_gram_residual` bit for bit.
    """
    (steps,) = G._steps
    entries, terms = {}, []
    for ix, amp in v.items():
        g = steps[ix][1]
        if not (g.real > 0.0) or abs(g.imag) > 1e-14 * g.real:
            _require_in_lattice(v.support(), G.lattice)
            raise NoConvergence(f"diagonal Gram entry {g} at {ix} is not a positive real: "
                                f"the operator is not bounded below there")
        xk = entries[ix] = complex(amp.real / g.real, amp.imag / g.real)
        d = ((0j + g * xk) - amp) if xk != 0 else -amp
        terms.append(d.real * d.real + d.imag * d.imag)
    return FinVec._wrap(entries, v.rank), math.sqrt(math.fsum(terms))


def _require_section_fits(nrows: int, ncols: int) -> None:
    nbytes = nrows * ncols * 16
    if nbytes > SECTION_BYTE_CAP:
        raise NoConvergence(
            f"a {nrows}x{ncols} section needs {nbytes} bytes, over the "
            f"cap of {SECTION_BYTE_CAP} bytes", window=ncols)


def section(T: BandOp, cols: Sequence[tuple],
            rows: Sequence[tuple] | None = None) -> tuple[np.ndarray, Sequence[tuple]]:
    """Finite matrix section of ``T`` and its row indices.

    ``M[i, j]`` is the coefficient of ``rows[i]`` in the image of ``cols[j]``.
    With ``rows=None`` the rows are every in-lattice image of ``cols``,
    sorted, so ``M`` acts exactly on vectors supported in ``cols``; given
    ``rows``, images that land outside them are dropped.  Raises
    :class:`NoConvergence` instead of allocating more than
    ``SECTION_BYTE_CAP`` bytes, and instead of returning a non-finite entry;
    :class:`LatticeMismatch` for a column outside the lattice.
    """
    steps = [[band[c] for c in cols] for band in T._steps]
    if rows is None:
        rows = sorted({s[0] for band in steps for s in band if s is not None})
    _require_section_fits(len(rows), len(cols))
    pos = {ix: i for i, ix in enumerate(rows)}
    M = np.zeros((len(rows), len(cols)), dtype=complex)
    # one write per band: distinct offsets send a column to distinct rows,
    # so every cell is written at most once and holds exactly ``0 + value``
    for band in steps:
        hit = [j for j, s in enumerate(band) if s is not None and s[0] in pos]
        if hit:
            M[[pos[band[j][0]] for j in hit], hit] += [band[j][1] for j in hit]
    if not np.isfinite(M.view(np.float64)).all():  # both parts, at half the cost
        raise NoConvergence(f"a {len(rows)}x{len(cols)} section has a non-finite entry: "
                            f"a weight overflows double precision", window=len(cols))
    return M, rows


def _window_rhs(G: BandOp, v: FinVec, guard: int) -> tuple[list, np.ndarray]:
    """The window of the guarded finite-section system of ``G x = v`` (the
    sorted in-lattice indices within ``guard`` of the support of ``v``) and
    ``v`` as a right-hand side over it, refusing an entry outside the lattice."""
    window = G.lattice.neighbourhood(v.support(), guard)
    pos = {ix: i for i, ix in enumerate(window)}
    rhs = np.zeros(len(window), dtype=complex)
    for ix, amp in v.items():
        if ix not in pos:
            raise LatticeMismatch(f"vector entry at {ix} lies outside {G.lattice!r}")
        rhs[pos[ix]] = amp
    return window, rhs


def _gram_factor(G: BandOp, window: list) -> tuple:
    """Cholesky factor of the section of ``G`` on ``window``.

    ``G`` is immutable, so the factor of a window never changes: the
    ``FACTOR_CACHE`` most recently used ones are kept on ``G`` (least
    recent evicted first), each only if it fits in ``SECTION_BYTE_CAP // 64``
    bytes.  A failed factorization is not kept, so it fails again alike.
    """
    if G._factors is None:
        G._factors = {}
    key = tuple(window)
    cf = G._factors.pop(key, None)
    if cf is None:
        M, _ = section(G, window, window)
        # section() refuses non-finite entries
        cf = scipy.linalg.cho_factor(M, check_finite=False)
        if cf[0].nbytes > SECTION_BYTE_CAP // 64:
            return cf
        if len(G._factors) >= FACTOR_CACHE:
            del G._factors[next(iter(G._factors))]
    G._factors[key] = cf
    return cf


def solve_gram(T: BandOp, v: FinVec, params: GramSolveParams | None = None) -> FinVec:
    """Solve ``(T* T) x = v`` with a certified residual.

    The residual of the returned ``x`` is re-measured with the exact band
    Gram operator (never trusted from the dense solver) and satisfies
    ``|| T*T x - v || <= tol * ||v||``.  A diagonal Gram is divided out
    entrywise, never on a section, or refused by :func:`_diagonal_solve`.
    A fibred Gram is solved on the fibres of ``v``, where its section is
    exact.  Raises :class:`NoConvergence` when that residual misses, or when
    the window's section would exceed ``SECTION_BYTE_CAP``, the window
    cannot grow (fibred, or stopped by finite axes) or a doubling does not
    lower the residual before it is certified, and
    :class:`LatticeMismatch` when ``v`` has an entry outside the lattice.
    """
    p = params or GramSolveParams()
    if v.rank != T.rank:
        raise RankMismatch(f"vector rank {v.rank}, operator rank {T.rank}")
    if v.is_zero:
        return v
    G = T.gram()
    vn = v.norm()
    if not math.isfinite(vn):
        # an infinite norm would certify any residual
        raise NoConvergence(f"right-hand side norm {vn} overflows double precision",
                            residual=vn, window=0)

    if G.is_diagonal():
        # exactly diagonal (every weighted shift lands here): divide entrywise
        if not G.bands:
            _require_in_lattice(v.support(), T.lattice)  # no band step checks v
            raise NoConvergence("Gram operator is identically zero", residual=vn, window=0)
        x, residual = _diagonal_solve(G, v)
        if residual <= p.tol * vn:
            return x
        raise NoConvergence(f"entrywise diagonal Gram solve: residual {residual:.3e} "
                            f"over {p.tol:.1e} * ||v||", residual=residual, window=0)

    # a fibred Gram maps the fibres of v (its window at guard 0) into
    # themselves, so its section there is exact and the window is closed;
    # any other window starts 16 band reaches of T around v
    fibred = G.is_fibred()
    guard = 0 if fibred else 16 * max(1, T.max_band_reach())
    window, rhs = _window_rhs(G, v, guard)
    last_residual = math.inf
    while True:
        try:
            cf = _gram_factor(G, window)
            sol = scipy.linalg.cho_solve(cf, rhs, check_finite=False)  # v has a finite norm
        except NoConvergence as e:
            raise NoConvergence(f"{e}; residual {last_residual:.3e}",
                                residual=last_residual, window=e.window) from None
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            raise NoConvergence(
                "Gram section is not positive definite (operator near-singular?)",
                residual=last_residual, window=len(window)) from None
        x = FinVec._wrap(dict(zip(window, sol.tolist())), v.rank)  # Python complex
        residual = _gram_residual(G, x, v)
        if residual <= p.tol * vn:
            return x
        if residual >= last_residual:
            # the section solution on a larger window is the better Galerkin
            # approximation, so a residual that does not fall is round-off
            raise NoConvergence(
                f"round-off floor: window of {len(window)} ordinals left residual "
                f"{residual:.3e}, not below {last_residual:.3e}",
                residual=residual, window=len(window))
        last_residual = residual
        guard = max(1, guard) * 2
        grown, rhs = (window, rhs) if fibred else _window_rhs(G, v, guard)
        if grown == window:
            # a closed window, or one the lattice stops from growing, only
            # repeats its solve
            raise NoConvergence(
                f"window of {len(window)} ordinals cannot grow; "
                f"residual {last_residual:.3e}",
                residual=last_residual, window=len(window))
        window = grown


def left_inverse_apply(T: BandOp, v: FinVec, params: GramSolveParams | None = None) -> FinVec:
    """Apply the canonical left inverse ``(T*T)^{-1} T*`` to ``v``."""
    w = T.adjoint().apply(v)
    if w.is_zero:
        return w
    return solve_gram(T, w, params)


def lower_bound_estimate(T: BandOp, window: int) -> float:
    """Smallest singular value of T restricted to the window span.

    The section keeps every image row (columns are never truncated), so the
    value is exactly ``min ||T h|| / ||h||`` over vectors supported in the
    window: an upper bound for the global bound-below constant, monotone
    nonincreasing in the window size.  Raises :class:`NoConvergence`, before
    enumerating the window, when even a square section on it would exceed
    ``SECTION_BYTE_CAP``.

    Since ``M`` keeps every image row, ``M^H M`` is the section of the Gram
    operator ``T*T`` on the window.  When that operator is diagonal (every
    weighted shift), the value is read off it exactly, without a section or
    an SVD, as ``sqrt(min_k ||T e_k||^2)`` over the window.  The SVD of the
    section still decides whenever one of those entries is not finite, not
    real or below ``sys.float_info.min``: the square can overflow or
    underflow where ``||T e_k||`` does not, and a zero weight gives 0.0.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not T.bands:
        return 0.0
    n = T.lattice.window_size(window)
    _require_section_fits(n, n)
    cols = T.lattice.window(window)
    G = T.gram()
    if G.is_diagonal() and G.bands:
        (steps,) = G._steps
        least = math.inf
        for ix in cols:
            g = steps[ix][1]
            if not (sys.float_info.min <= g.real < math.inf) or abs(g.imag) > 1e-14 * g.real:
                break
            least = min(least, g.real)
        else:
            return math.sqrt(least)
    M, _ = section(T, cols)
    if M.shape[0] < M.shape[1]:
        return 0.0
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[-1])
