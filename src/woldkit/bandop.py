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
Each atom carries an exponent pair ``(p, q)``, meaning ``a^p conj(a)^q``, so
a product of factors of one atom adds exponents, and a squared modulus
``(1, 1)`` (of a Bergman weight, say) is evaluated in closed form; this keeps
Gram operators of weighted shifts exactly diagonal with rational entries.
Atom parameters are floats, ints and tuples of them (a table's values are
``(re, im)`` pairs), so atoms and terms sort as plain tuples.  Every structural decision of a composition reads only the
operands' skeletons (their terms without coefficients) and the lattice:
each product's masks are resolved against its selectors and its band's
domain, and a product that no index of its band selects is dropped.  So
a composition is planned once per pair of skeletons and replayed on the
coefficients of each new pair; an adjoint is planned once per skeleton
alike, and the ``PLAN_CACHE`` most recently used plans of both kinds are
kept.  Graded lattice windows depend only on the lattice and the extent,
so they are sorted once too (``WINDOW_CACHE``), and whether a band's
images stay in the lattice is decided once per band.  Every window,
graded or around a support, enumerates its boxes with one routine, and
every bounded cache evicts through one least-recently-used helper.

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
``SECTION_BYTE_CAP // 64`` bytes: at most 32 MiB per Gram operator.  The
process keeps at most ``PLAN_CACHE`` composition and adjoint plans; a plan
holds the skeleton of its result and one index (pair) per operand term (or
product of terms).  It keeps at most ``WINDOW_CACHE`` graded windows of at
most ``WINDOW_POINTS`` points each, 65,536 index tuples in all (about 4 MB
at rank 2); a larger window is sorted on every call and not kept.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import accumulate, product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .seqspace import FinVec, RankMismatch

_BIG = 10 ** 9  # sentinel distance for axes without a truncation edge
SECTION_BYTE_CAP = 512 * 2 ** 20  # largest dense complex section ever allocated
FACTOR_CACHE = 4  # Cholesky factors of recent windows kept per Gram operator
PLAN_CACHE = 512  # composition and adjoint plans kept per process
WINDOW_CACHE = 16  # graded windows kept per process
WINDOW_POINTS = 4096  # points of the largest graded window kept
GRAM_TOL = 1e-12  # certified relative residual of a Gram solve, by default


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


def _lru(cache: dict, bound: int, key, make):
    """``cache[key]``, made by ``make()`` on a miss.  ``cache`` keeps its
    ``bound`` most recently used values, least recent first: a hit moves to
    the most recent end, and a miss evicts from the least recent one."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
        while len(cache) >= bound:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


# graded windows, least recently used first: (lattice, extent) -> points
_WINDOWS: dict = {}


def _graded_window(lattice, extent: int, points) -> list[tuple]:
    """``points()`` in graded order, as ``lattice.window(extent)``.

    The window depends on nothing else, so it is sorted once while it is
    among the ``WINDOW_CACHE`` most recently used, if it has at most
    ``WINDOW_POINTS`` points.  Each caller gets its own list.
    """
    if lattice.window_size(extent) > WINDOW_POINTS:
        return _graded(points())
    return list(_lru(_WINDOWS, WINDOW_CACHE, (lattice, extent),
                     lambda: tuple(_graded(points()))))


def _box_points(box: tuple) -> Iterable[tuple]:
    """The points of a box of inclusive per-axis intervals (an empty one has
    none), in lexicographic order."""
    return product(*(range(lo, hi + 1) for lo, hi in box))


class Lattice:
    """Product lattice over integer axes.

    Each axis is ``'nat'`` (coordinates >= 0), ``'int'`` (all integers) or a
    positive int ``m`` denoting the finite range ``0..m-1``.  Indices with a
    coordinate outside an axis domain are not part of the lattice; amplitudes
    there are identically zero.  ``unbounded`` lists the 'nat' and 'int' axes.
    """

    __slots__ = ("axes", "bounds", "unbounded", "_lows", "_highs")

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
        # the finite ends alone, so membership never compares with an infinity
        self._lows = tuple((i, lo) for i, (lo, _) in enumerate(self.bounds) if lo != -math.inf)
        self._highs = tuple((i, hi) for i, (_, hi) in enumerate(self.bounds) if hi != math.inf)

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
        if len(ix) != len(self.axes):
            return False
        for axis, lo in self._lows:
            if ix[axis] < lo:
                return False
        for axis, hi in self._highs:
            if ix[axis] > hi:
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
        then lexicographically; sorted once while memoised (see
        :func:`_graded_window`), and a new list on every call.
        """
        return _graded_window(self, extent,
                              lambda: _box_points(self._box((0,) * self.rank, extent)))

    def window_size(self, extent: int) -> int:
        """``len(self.window(extent))``, counted without enumerating."""
        return math.prod(max(0, hi - lo + 1) for lo, hi in self._box((0,) * self.rank, extent))

    def neighbourhood(self, support: Iterable[tuple], guard: int) -> list[tuple]:
        """Sorted lattice indices within sup-distance ``guard`` of the
        in-lattice ``support``; finite axes are always covered whole.

        Each support entry spans a box of per-axis intervals clipped to the
        lattice (at guard 0, a whole fibre: the indices sharing the entry's
        unbounded coordinates).  The points of each distinct box are
        enumerated, and their union is sorted.
        """
        boxes = {self._box(c, guard) for c in support}
        return sorted({ix for box in boxes for ix in _box_points(box)})

    def shift_cover(self, selects: dict, off: tuple, band: tuple) -> tuple[bool, bool]:
        """``(every, none)``: whether ``k + off`` lies in the lattice for every
        / for no ``k`` of the band at offset ``band`` (``k`` and ``k + band``
        in the lattice) whose coordinates satisfy ``selects`` (axis -> value).

        Axes are independent, so per axis the band and the selected value clip
        the axis range to an interval, which is shifted and compared with it.
        With no such ``k`` at all, both answers are (vacuously) true.
        """
        every, none = True, False
        for axis, ((tlo, thi), o, b) in enumerate(zip(self.bounds, off, band)):
            lo, hi = (tlo - b, thi) if b < 0 else (tlo, thi - b)
            v = selects.get(axis)
            if v is not None:
                lo, hi = max(lo, v), min(hi, v)
            if lo > hi:
                return True, True
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
        return _graded_window(self, extent, lambda: [
            (tag,) + ix for tag, part in enumerate(self.parts) for ix in part.window(extent)])

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

    def shift_cover(self, selects: dict, off: tuple, band: tuple) -> tuple[bool, bool]:
        """Like :meth:`Lattice.shift_cover`, recursing into the selected parts.

        An offset that moves the tag into the other part is left undecided
        (``(False, False)``), and a band that moves it gets no domain (its
        parts decide as for band 0); operators never build either.
        """
        rest = {axis - 1: v for axis, v in selects.items() if axis}
        band = (0,) * (len(band) - 1) if band[0] else band[1:]
        every, none = True, True
        for tag in ([selects[0]] if 0 in selects else [0, 1]):
            if tag not in (0, 1):
                continue
            if tag + off[0] not in (0, 1):
                every = False
                continue
            if off[0]:
                return False, False
            e, n = self.parts[tag].shift_cover(rest, off[1:], band)
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
# of atoms (single-axis weight families with a folded-in integer shift, each
# raised to ``a^p conj(a)^q``), coordinate selectors (k[axis] == value) and
# lattice masks (k + offset must be in the lattice); atoms and skeletons
# compare as plain tuples, a table's parameters being ``(re, im)`` float
# pairs.  ``Weight(...)`` brings raw terms to normal form: one routine,
# ``_normal_skeleton``, kills a term whose selectors conflict and adds the
# exponents of atoms of one family, axis, shift and parameters (a conjugate
# pair becomes the closed-form squared modulus ``(1, 1)``), and identical
# skeletons merge coefficients.
# Masks come only from composition, which resolves every mask that a term's
# own selectors and its band's domain decide (see ``_resolve_masks``).

class Atom(NamedTuple):
    kind: str        # 'bergman' | 'dirichlet' | 'table' | 'powratio'
    axis: int
    shift: int
    params: tuple    # floats, ints and tuples of them: atoms compare as tuples
    q: int           # a^p conj(a)^q, q first, so that an atom
    p: int           # sorts before its conjugate


class Select(NamedTuple):
    axis: int
    value: int


class Term(NamedTuple):
    coeff: complex
    atoms: tuple
    selects: tuple
    masks: tuple


_REAL_ATOM_KINDS = frozenset({"bergman", "dirichlet", "powratio"})


def _atom_is_real(a: Atom) -> bool:
    if a.kind in _REAL_ATOM_KINDS:
        return True
    if a.kind == "table":
        values, default = a.params
        return all(im == 0 for _, im in values) and default[1] == 0
    return False


def _eval_atom(a: Atom, ix: tuple) -> complex:
    """Value of ``a^p conj(a)^q`` at ``ix``: ``min(p, q)`` squared moduli,
    in closed form (no square root, doubled exponent), times ``|p - q|``
    plain factors, conjugated where ``q > p``."""
    kind, axis, shift, params, q, p = a
    m = ix[axis] + shift
    n, k = (q, p - q) if p >= q else (p, q - p)
    if kind == "bergman" or kind == "dirichlet":
        if m < 0:
            raise ValueError(f"{kind.capitalize()} weight evaluated at negative index {m}")
        square = (m + 1) / (m + 2) if kind == "bergman" else (m + 2) / (m + 1)
        factor = k and math.sqrt(square)
    elif kind == "table":
        values, default = params
        vr, vi = values[m] if 0 <= m < len(values) else default
        square = n and vr * vr + vi * vi
        factor = complex(vr, vi) if p >= q else complex(vr, -vi)
    elif kind == "powratio":
        beta, h, steps = params
        if m < 0:
            raise ValueError(f"translation weight evaluated at negative grid site {m}")
        base = (1.0 + (m + steps) * h) / (1.0 + m * h)
        square, factor = n and base ** (2.0 * beta), k and base ** beta
    else:
        raise ValueError(f"unknown atom kind {kind!r}")
    if not k:
        return square if n == 1 else square ** n
    factor = factor if k == 1 else factor ** k
    return factor if not n else (square if n == 1 else square ** n) * factor


def _merge_powers(atoms: Iterable[Atom]) -> list[Atom]:
    """The atoms of one family, axis, shift and parameters multiplied into
    one, in one pass: their exponents added, an atom in normal form whose
    key occurs once kept as it is.  A real atom's total exponent ``e`` is
    balanced to ``(ceil(e/2), floor(e/2))``, so ``conj(a) = a`` keeps one
    normal form, and an atom of exponents ``(0, 0)`` is dropped."""
    merged: dict[tuple, Atom] = {}
    for a in atoms:
        key = a[:4]  # kind, axis, shift, params
        b = merged.get(key)
        if b is not None or not 0 <= a.p - a.q <= 1 and _atom_is_real(a):
            p, q = (a.p, a.q) if b is None else (a.p + b.p, a.q + b.q)
            if not 0 <= p - q <= 1 and _atom_is_real(a):
                p, q = p + q - (p + q) // 2, (p + q) // 2
            a = Atom(a.kind, a.axis, a.shift, a.params, q, p)
        merged[key] = a
    return [a for a in merged.values() if a.p or a.q]


def _conjugated_atoms(atoms: tuple) -> tuple:
    """``atoms`` with the exponents of each complex one swapped."""
    return tuple(a if a.p == a.q or _atom_is_real(a)
                 else Atom(a.kind, a.axis, a.shift, a.params, a.p, a.q) for a in atoms)


def _normal_skeleton(atoms, selects, masks) -> tuple | None:
    """A term's ``(atoms, selects, masks)`` in normal form, or None for a
    term whose selectors conflict: atom powers merged, atoms sorted as
    tuples, repeated selectors and masks removed."""
    sel: dict[int, int] = {}
    for s in selects:
        if sel.setdefault(s.axis, s.value) != s.value:
            return None
    return (tuple(sorted(_merge_powers(atoms))),
            tuple(Select(ax, v) for ax, v in sorted(sel.items())),
            tuple(sorted(set(masks))))


def _shifted_skeleton(skeleton: tuple, off: tuple) -> tuple:
    """A term's ``(atoms, selects, masks)`` evaluated at ``k + off``."""
    atoms, selects, masks = skeleton
    return (tuple(Atom(a.kind, a.axis, a.shift + off[a.axis], a.params, a.q, a.p) for a in atoms),
            tuple(Select(s.axis, s.value - off[s.axis]) for s in selects),
            tuple(_tadd(m, off) for m in masks))


def _normalize_terms(terms: Iterable[tuple]) -> tuple:
    merged: dict[tuple, complex] = {}
    for coeff, atoms, selects, masks in terms:
        coeff = complex(coeff)
        if coeff == 0:
            continue
        key = _normal_skeleton(atoms, selects, masks)
        if key is not None:
            merged[key] = merged.get(key, 0j) + coeff
    out = [Term(c, *key) for key, c in merged.items() if c != 0]
    out.sort(key=lambda t: t[1:])
    return tuple(out)


class Weight:
    """Index-dependent band weight in sum-of-products normal form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        """A weight of raw ``(coeff, atoms, selects, masks)`` terms: zero
        coefficients skipped, each skeleton normalised (or the term dropped),
        equal skeletons summed from ``0j`` in order, zero sums dropped."""
        self.terms = _normalize_terms(terms)

    @classmethod
    def _normal(cls, terms: tuple) -> "Weight":
        """A weight of ``terms`` that are already in normal form: nonzero
        coefficients without a negative zero part, distinct skeletons, sorted."""
        w = cls.__new__(cls)
        w.terms = terms
        return w

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c) -> "Weight":
        return cls([(c, (), (), ())])

    @classmethod
    def atom(cls, kind: str, params: tuple = ()) -> "Weight":
        """One weight family on axis 0; ``embedded()`` re-homes it."""
        return cls([(1.0, (Atom(kind, 0, 0, params, 0, 1),), (), ())])

    @classmethod
    def select(cls, axis: int, value: int) -> "Weight":
        return cls([(1.0, (), (Select(axis, value),), ())])

    # -- algebra ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def conjugated(self) -> "Weight":
        return Weight((t.coeff.conjugate(), _conjugated_atoms(t.atoms), t.selects, t.masks)
                      for t in self.terms)

    def shifted(self, off: tuple) -> "Weight":
        """Weight evaluating the original at ``k + off``.

        A translation keeps normal form, so the terms are built directly: it
        makes no selector conflict and no conjugate pair, and it keeps the
        order of atoms, selectors, masks and terms (each compares per axis,
        and every coordinate of one axis moves by the same amount).
        """
        return Weight._normal(tuple(Term(t.coeff, *_shifted_skeleton(t[1:], off))
                                    for t in self.terms))

    def embedded(self) -> "Weight":
        """Re-home the weight one axis to the right (a tag axis is prepended)."""
        return Weight((t.coeff, tuple(a._replace(axis=a.axis + 1) for a in t.atoms),
                       tuple(Select(s.axis + 1, s.value) for s in t.selects),
                       tuple((0,) + m for m in t.masks)) for t in self.terms)

    def __mul__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight((ta.coeff * tb.coeff, ta.atoms + tb.atoms, ta.selects + tb.selects,
                       ta.masks + tb.masks) for ta in self.terms for tb in other.terms)

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(self.terms + other.terms)

    def scaled(self, c) -> "Weight":
        c = complex(c)
        return Weight((c * t.coeff, *t[1:]) for t in self.terms)

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
    vals = tuple((v.real, v.imag) for v in map(complex, values))
    d = complex(default)
    return Weight.atom("table", (vals, (d.real, d.imag)))


def power_ratio(beta: float, h: float, steps: int) -> Weight:
    """((1+(k+steps)h)/(1+kh))**beta on axis 0: translation weight of a power envelope."""
    return Weight.atom("powratio", (float(beta), float(h), int(steps)))


# ---------------------------------------------------------------------------
# band operators
# ---------------------------------------------------------------------------

def _require_in_lattice(indices: Iterable[tuple], lattice) -> None:
    """Raise :class:`LatticeMismatch` naming the first of ``indices`` that
    lies outside ``lattice``; give sorted indices to name the smallest."""
    for ix in indices:
        if not lattice.contains(ix):
            raise LatticeMismatch(f"vector entry at {ix} lies outside {lattice!r}")


def _accumulate(band_steps: Sequence, items: Iterable) -> dict:
    """The entries ``(k, u_k)`` of a vector, carried by each band's steps to
    ``k + offset`` and summed there from ``0j`` in band order; zero weights
    add nothing."""
    acc: dict[tuple, complex] = {}
    for steps in band_steps:
        for ix, amp in items:
            step = steps[ix]  # validates ix on first sight
            if step is not None and step[1] != 0:
                tgt, val = step
                acc[tgt] = acc.get(tgt, 0j) + val * amp
    return acc


class _BandSteps(dict):
    """One band's steps, each computed on its first lookup: an in-lattice
    index ``ix`` maps to ``(ix + offset, weight(ix))``, or to None when the
    image leaves the lattice.  A zero weight keeps its step (sections need
    its row).  Only validated indices get in: looking up one outside the
    lattice raises :class:`LatticeMismatch`.  Whether every image stays in
    the lattice is decided once, for the band; only a band whose images
    may leave checks each one."""

    __slots__ = ("lattice", "off", "w", "stays")

    def __init__(self, lattice, off: tuple, w: Weight):
        super().__init__()
        self.lattice, self.off, self.w = lattice, off, w
        self.stays = lattice.shift_cover({}, off, (0,) * len(off)) == (True, False)

    def __missing__(self, ix: tuple):
        lat = self.lattice
        if not lat.contains(ix):
            _require_in_lattice((ix,), lat)
        tgt = _tadd(ix, self.off)
        step = self[ix] = ((tgt, self.w.evaluate(ix, lat)) if self.stays or lat.contains(tgt)
                           else None)
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
        return FinVec._wrap(self._image(u), self.rank)

    def _image(self, u: FinVec) -> dict:
        """The entries of ``self.apply(u)``, exact zeros not yet dropped."""
        if u.rank != self.rank:
            raise RankMismatch(f"vector rank {u.rank}, operator rank {self.rank}")
        if not self.bands:
            _require_in_lattice(u.support(), self.lattice)
        try:
            # unsorted: one band sends distinct sources to distinct targets,
            # so each target sums its bands' terms in band order regardless
            return _accumulate(self._steps, u._entries.items())
        except (ValueError, ArithmeticError):
            # fail as the sorted visit does (a LatticeMismatch names the
            # smallest outside index, a weight its first bad index): a
            # failed lookup is not memoised, so it fails again there
            _accumulate(self._steps, u.items())
            raise

    # -- algebra ------------------------------------------------------------
    def adjoint(self) -> "BandOp":
        """Each band ``(off, w)`` becomes ``(-off, conj(w)(k - off))``; planned
        once per skeleton (see :func:`_plan_adjoint`), then replayed on the
        coefficients."""
        if self._adjoint is None:
            plan = _lru(_PLANS, PLAN_CACHE, (_skeleton(self),), lambda: _plan_adjoint(self))
            c = [t.coeff for _, w in self.bands for t in w.terms]
            # 0j + c: the algebra's merge turns a -0.0 part of the conjugate into +0.0
            self._adjoint = BandOp(self.lattice, [
                (noff, Weight._normal(tuple(Term(0j + c[i].conjugate(), *skel)
                                            for i, skel in terms)))
                for noff, terms in plan])
        return self._adjoint

    def compose(self, other: "BandOp") -> "BandOp":
        """self after other: (self @ other)(u) = self(other(u)), exactly.

        Planned once per lattice and pair of operand skeletons (see
        :func:`_plan_compose`), then replayed on the operands' coefficients.
        A mask records that the intermediate index ``k + other_offset`` must
        lie in the lattice; every product resolves it (see
        :func:`_resolve_masks`).
        """
        if not isinstance(other, BandOp):
            raise TypeError("compose expects a BandOp")
        if self.lattice != other.lattice:
            raise LatticeMismatch(f"lattices differ: {self.lattice!r} vs {other.lattice!r}")
        plan = _lru(_PLANS, PLAN_CACHE, (self.lattice, _skeleton(self), _skeleton(other)),
                    lambda: _plan_compose(self, other))
        return _replay(plan, self, other)

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


def _resolve_masks(skeleton: tuple, off: tuple, band: tuple, lattice) -> tuple | None:
    """The masks of a term of ``skeleton`` in the band at offset ``band``
    times the mask ``k + off in lattice``, in normal form, or None for no term.

    Each mask is decided against the term's own selectors and the band's
    domain, where ``k`` and ``k + band`` lie in the lattice: one that always
    holds is dropped, a term with one that never holds is dropped, an
    undecided one is kept.  Both drops are exact because a band weight is
    only evaluated on its domain.  So ``(T*)^n`` and ``(T^n)*`` normalise
    alike, and powers of selector operators (quasinormal blocks) and of
    their adjoints keep no terms that differ only in redundant masks.
    """
    _, selects, masks = skeleton
    selects = dict(selects)
    kept = []
    for m in (masks if off in masks else masks + (off,)):
        every, none = lattice.shift_cover(selects, m, band)
        if none:  # also when no k satisfies the selectors
            return None
        if not every:
            kept.append(m)
    return tuple(sorted(kept))


# plans, least recently used first: (lattice, skeleton of each operand) ->
# composition plan (see _plan_compose), and (skeleton,) -> adjoint plan
# (see _plan_adjoint); the key lengths differ, so the two never collide
_PLANS: dict = {}


def _skeleton(T: BandOp) -> tuple:
    """Each band's offset and its terms' ``(atoms, selects, masks)``."""
    return tuple((off, tuple(t[1:] for t in w.terms)) for off, w in T.bands)


def _plan_adjoint(T: BandOp) -> tuple:
    """The plan of ``T.adjoint()``: per band, the negated offset and its
    terms as ``(index of the source coefficient, skeleton)``, in order.

    Conjugation swaps the exponents of each complex atom.  A normal term
    holds one atom per family, axis, shift and parameters, and exponents sort
    last, so the swap keeps terms normal and distinct: the algebra only sorts
    a band's conjugated terms, and the translation keeps their order.
    """
    plan, i = [], 0
    for off, w in T.bands:
        noff = _tneg(off)
        conj = sorted(((_conjugated_atoms(t.atoms), t.selects, t.masks), i + j)
                      for j, t in enumerate(w.terms))
        i += len(w.terms)
        plan.append((noff, tuple((j, _shifted_skeleton(skel, noff)) for skel, j in conj)))
    return tuple(plan)


def _plan_compose(A: BandOp, B: BandOp) -> tuple:
    """The plan of ``A @ B``: every decision, read from the skeletons alone.

    With coefficients ``a`` of ``A`` and ``b`` of ``B`` numbered in band and
    term order, the plan is ``(groups, sums, bands)``:

    - a group lists the ``(i, j)`` of the products ``a_i b_j`` of one band
      pair that share a skeleton, summed from ``0j`` in order;
    - a sum adds values in order: a pair's groups whose masks resolve alike,
      or the contributions of the pairs that share an offset;
    - ``bands`` gives each offset's terms as (value index, skeleton).

    Every product's masks are resolved with its pair's offset (see
    :func:`_resolve_masks`), so a product that no in-lattice index selects
    is dropped.  Exact zeros are not dropped on the way: no value summed
    from ``0j`` has a negative zero part, so a term the algebra drops adds
    +0.0 to every later sum, and only zero results and empty bands are left
    out.
    """
    lattice = A.lattice
    a0, b0 = ([0, *accumulate(len(w.terms) for _, w in T.bands)] for T in (A, B))
    groups, pairs = [], []
    for p, (aoff, aw) in enumerate(A.bands):
        for q, (boff, bw) in enumerate(B.bands):
            products: dict[tuple, list] = {}
            for i, ta in enumerate(aw.shifted(boff).terms):
                for j, tb in enumerate(bw.terms):
                    skel = _normal_skeleton(ta.atoms + tb.atoms, ta.selects + tb.selects,
                                            ta.masks + tb.masks)
                    if skel is not None:
                        products.setdefault(skel, []).append((a0[p] + i, b0[q] + j))
            band, resolved = _tadd(aoff, boff), {}
            for skel in sorted(products):
                masks = _resolve_masks(skel, boff, band, lattice)
                if masks is not None:
                    resolved.setdefault((skel[0], skel[1], masks), []).append(len(groups))
                    groups.append(tuple(products[skel]))
            pairs.append((band, resolved))

    sums = []

    def summed(refs: list) -> int:
        if len(refs) == 1:
            return refs[0]
        sums.append(tuple(refs))
        return len(groups) + len(sums) - 1

    bands: dict[tuple, dict] = {}  # offset -> skeleton -> contributions in pair order
    for off, resolved in pairs:
        band = bands.setdefault(off, {})
        for skel, refs in resolved.items():
            band.setdefault(skel, []).append(summed(refs))
    planned = tuple((off, tuple((summed(refs), skel) for skel, refs in sorted(band.items())))
                    for off, band in sorted(bands.items()))
    return tuple(groups), tuple(sums), planned


def _replay(plan: tuple, A: BandOp, B: BandOp) -> BandOp:
    """``A @ B`` from its plan (see :func:`_plan_compose`), bit for bit as
    the symbolic algebra computes it.  No value changes the plan: only zero
    results and empty bands are left out."""
    groups, sums, bands = plan
    a = [t.coeff for _, w in A.bands for t in w.terms]
    b = [t.coeff for _, w in B.bands for t in w.terms]
    vals = []
    for pairs in groups:
        c = 0j
        for i, j in pairs:
            c += a[i] * b[j]
        vals.append(c)
    for refs in sums:
        c = 0j
        for r in refs:
            c += vals[r]
        vals.append(c)
    out = []
    for off, terms in bands:
        kept = tuple(Term(vals[r], *skel) for r, skel in terms if vals[r] != 0)
        if kept:
            out.append((off, Weight._normal(kept)))
    return BandOp(A.lattice, out)


def identity(lattice) -> BandOp:
    return BandOp(lattice, (((0,) * lattice.rank, Weight.const(1.0)),))


# ---------------------------------------------------------------------------
# guarded Gram solves
# ---------------------------------------------------------------------------

def _finite_norm(vn: float) -> float:
    """``vn``, the norm of a right-hand side, refused unless it is finite:
    an infinite norm would certify any residual."""
    if not math.isfinite(vn):
        raise NoConvergence(f"right-hand side norm {vn} overflows double precision",
                            residual=vn, window=0)
    return vn


def _not_positive(g: complex, ix: tuple) -> NoConvergence:
    return NoConvergence(f"diagonal Gram entry {g} at {ix} is not a positive real: "
                         f"the operator is not bounded below there")


def _diagonal_checks(G: BandOp, v: dict, rank: int) -> None:
    """Raise the first error an entrywise solve of ``G x = v`` meets in
    order: a non-finite ``||v||``, a ``G`` without bands, then, visiting
    ``v`` by index, the error of a step lookup or an entry of ``G`` that is
    not a positive real (refused once every index has passed the lattice
    check, so an off-lattice entry is named first).  Returns if none."""
    vec = FinVec._wrap(v, rank)
    vn = _finite_norm(vec.norm())
    support = vec.support()
    if not G.bands:
        _require_in_lattice(support, G.lattice)  # no band step checks v
        raise NoConvergence("Gram operator is identically zero", residual=vn, window=0)
    (steps,) = G._steps
    for ix in support:
        g = steps[ix][1]
        if not (g.real > 0.0) or abs(g.imag) > 1e-14 * g.real:
            _require_in_lattice(support, G.lattice)
            raise _not_positive(g, ix)


def _diagonal_solve(G: BandOp, v: dict, rank: int, tol: float) -> FinVec:
    """Certified ``x = G^{-1} v`` for an exactly diagonal ``G``, where ``v``
    maps each index of a right-hand side of rank ``rank`` to its nonzero
    entry: the one loop that divides by a Gram diagonal.

    One pass over ``v`` in storage order looks up each entry ``g`` of ``G``,
    divides, and sums ``||v||^2`` and ``||G x - v||^2``.  Each residual
    entry is the one ``G.apply(x) - v`` holds, by the same complex
    operations (an exactly zero ``x_k`` or ``g x_k`` leaves ``-v_k``, up to
    the sign of a zero), and ``fsum`` is exact, so both norms equal those
    of the vectors bit for bit.  A step lookup that raises, an entry of
    ``G`` that is not a positive real, or a ``G`` without bands is raised
    as :func:`_diagonal_checks` raises it, in index order; then
    :class:`NoConvergence` refuses a non-finite ``||v||`` or a residual
    over ``tol * ||v||``.
    """
    x, vsq, rsq = {}, [], []
    try:
        (steps,) = G._steps  # a ValueError for a G without bands
        for ix, amp in v.items():
            g = steps[ix][1]
            gr = g.real
            if not (gr > 0.0) or abs(g.imag) > 1e-14 * gr:
                raise _not_positive(g, ix)
            ar, ai = amp.real, amp.imag
            xk = x[ix] = complex(ar / gr, ai / gr)
            d = ((0j + g * xk) - amp) if xk else -amp
            vsq.append(ar * ar + ai * ai)
            dr, di = d.real, d.imag
            rsq.append(dr * dr + di * di)
    except (NoConvergence, ValueError, ArithmeticError):
        # the sorted visit runs only here, so the error does not depend on
        # the storage order: a failed lookup is not memoised, a refused
        # entry is, so both fail again there unless an earlier check does
        _diagonal_checks(G, v, rank)
        raise
    vn = _finite_norm(math.sqrt(math.fsum(vsq)))
    residual = math.sqrt(math.fsum(rsq))
    if residual <= tol * vn:
        return FinVec._wrap(x, rank)
    raise NoConvergence(f"entrywise diagonal Gram solve: residual {residual:.3e} "
                        f"over {tol:.1e} * ||v||", residual=residual, window=0)


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
    pos = {ix: i * len(cols) for i, ix in enumerate(rows)}  # a row's start in M, flattened
    M = np.zeros((len(rows), len(cols)), dtype=complex)
    # one write for all bands: distinct offsets send a column to distinct
    # rows, so every cell is written at most once and holds ``0 + value``
    cells, vals = [], []
    for band in steps:
        for j, s in enumerate(band):
            if s is not None and (start := pos.get(s[0])) is not None:
                cells.append(start + j)
                vals.append(s[1])
    M.reshape(-1)[np.array(cells, dtype=np.intp)] += np.array(vals, dtype=complex)
    if not np.isfinite(M.view(np.float64)).all():  # both parts, at half the cost
        raise NoConvergence(f"a {len(rows)}x{len(cols)} section has a non-finite entry: "
                            f"a weight overflows double precision", window=len(cols))
    return M, rows


def _window_rhs(G: BandOp, v: FinVec, guard: int) -> tuple[list, np.ndarray]:
    """The window of the guarded finite-section system of ``G x = v`` (the
    sorted in-lattice indices within ``guard`` of the support of ``v``) and
    ``v`` as a right-hand side over it, refusing an entry outside the lattice."""
    window = G.lattice.neighbourhood(v._entries, guard)
    pos = {ix: i for i, ix in enumerate(window)}
    rhs = np.zeros(len(window), dtype=complex)
    for ix, amp in v._entries.items():  # unsorted: each entry has its own cell
        if ix not in pos:  # only an entry outside the lattice is missing
            _require_in_lattice(sorted(v._entries), G.lattice)
        rhs[pos[ix]] = amp
    return window, rhs


def _gram_factor(G: BandOp, window: list) -> tuple:
    """Cholesky factor of the section of ``G`` on ``window``.

    ``G`` is immutable, so the factor of a window never changes: the
    ``FACTOR_CACHE`` most recently used ones are kept on ``G`` (see
    :func:`_lru`), each only if it fits in ``SECTION_BYTE_CAP // 64`` bytes,
    which is decided from the window's size before factoring.  A failed
    factorization is not kept, so it fails again alike.
    """
    def factor():
        import scipy.linalg  # loaded at the first windowed solve only
        M, _ = section(G, window, window)
        # section() refuses non-finite entries
        return scipy.linalg.cho_factor(M, check_finite=False)

    if len(window) ** 2 * 16 > SECTION_BYTE_CAP // 64:
        return factor()
    if G._factors is None:
        G._factors = {}
    return _lru(G._factors, FACTOR_CACHE, tuple(window), factor)


def solve_gram(T: BandOp, v: FinVec, tol: float = GRAM_TOL) -> FinVec:
    """Solve ``(T* T) x = v`` with a certified residual.

    The residual of the returned ``x`` is re-measured with the exact band
    Gram operator (never trusted from the dense solver) and satisfies
    ``|| T*T x - v || <= tol * ||v||``; ``tol`` must be finite and positive
    (``ValueError`` otherwise).  A diagonal Gram is divided out
    entrywise, never on a section, or refused by :func:`_diagonal_solve`.
    A fibred Gram is solved on the fibres of ``v``, where its section is
    exact.  Raises :class:`NoConvergence` when that residual misses, or when
    the window's section would exceed ``SECTION_BYTE_CAP``, the window
    cannot grow (fibred, or stopped by finite axes) or a doubling does not
    lower the residual before it is certified, and
    :class:`LatticeMismatch` when ``v`` has an entry outside the lattice.
    """
    if not 0 < tol < math.inf:  # an inf tol certifies any solve, a NaN none
        raise ValueError("tol must be finite and positive")
    if v.rank != T.rank:
        raise RankMismatch(f"vector rank {v.rank}, operator rank {T.rank}")
    if v.is_zero:
        return v
    G = T.gram()
    if G.is_diagonal():
        # exactly diagonal (every weighted shift lands here): divide entrywise
        return _diagonal_solve(G, v._entries, v.rank, tol)
    vn = _finite_norm(v.norm())

    import scipy.linalg  # a diagonal Gram never loads scipy
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
        except np.linalg.LinAlgError:  # the same class as scipy.linalg.LinAlgError
            raise NoConvergence(
                "Gram section is not positive definite (operator near-singular?)",
                residual=last_residual, window=len(window)) from None
        x = FinVec._wrap(dict(zip(window, sol.tolist())), v.rank)  # Python complex
        residual = G.apply(x).distance(v)
        if residual <= tol * vn:
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


def left_inverse_apply(T: BandOp, v: FinVec) -> FinVec:
    """Apply the canonical left inverse ``(T*T)^{-1} T*`` to ``v``.

    On a diagonal Gram the entries of ``T* v`` go straight to the entrywise
    solve, which measures their norm in its own pass; any other Gram is
    solved by :func:`solve_gram`.
    """
    w = T.adjoint()._image(v)
    if 0 in w.values():  # the exact zeros a vector drops
        w = {ix: a for ix, a in w.items() if a != 0}
    if not w:
        return FinVec._wrap(w, T.rank)
    G = T.gram()
    if G.is_diagonal():
        return _diagonal_solve(G, w, T.rank, GRAM_TOL)
    return solve_gram(T, FinVec._wrap(w, T.rank))


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
