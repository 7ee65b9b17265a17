"""Exact arithmetic on finitely supported complex vectors over integer lattices.

A vector is a finite map from integer multi-indices (rank 1 or 2 in practice,
any positive rank in principle) to complex double-precision amplitudes.  All
operations are exact up to floating-point rounding of the amplitudes; nothing
is ever truncated implicitly.  Entries that are exactly zero are pruned at
construction, which does not change the vector.

The inner product is linear in the first argument and conjugate-linear in
the second: ``u.inner(v) = sum_k u[k] * conj(v[k])``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence


class RankMismatch(ValueError):
    """Two values with different index ranks were combined."""


def as_index(ix) -> tuple:
    """Normalize an index to a tuple of ints; a bare int becomes rank 1."""
    if isinstance(ix, int):
        return (ix,)
    return tuple(int(c) for c in ix)


class FinVec:
    """Finitely supported vector: an immutable map index -> complex amplitude."""

    __slots__ = ("_entries", "_rank")

    def __init__(self, entries=(), rank: int | None = None):
        if isinstance(entries, Mapping):
            items: Iterable = entries.items()
        else:
            items = entries
        data: dict[tuple, complex] = {}
        r = None
        for ix, amp in items:
            ix = as_index(ix)
            if r is None:
                r = len(ix)
            elif len(ix) != r:
                raise RankMismatch(f"index {ix} has rank {len(ix)}, expected {r}")
            amp = complex(amp)
            if ix in data:
                data[ix] += amp
            elif amp != 0:
                data[ix] = amp
        # accumulated duplicates may have cancelled
        data = {ix: a for ix, a in data.items() if a != 0}
        if r is None:
            if rank is None:
                raise ValueError("rank is required to build an empty vector")
            r = rank
        elif rank is not None and rank != r:
            raise RankMismatch(f"entries have rank {r}, expected {rank}")
        self._entries = data
        self._rank = int(r)

    @classmethod
    def _wrap(cls, data: dict, rank: int) -> "FinVec":
        """Trusted constructor: ``data`` maps int tuples of length ``rank``
        to Python ``complex`` already, so only exact zeros are dropped.

        The vector takes ownership of ``data``: callers pass a dict they
        built for it and never touch again.  It is copied only when it holds
        an exact zero, to drop those entries (NaN entries are kept)."""
        v = cls.__new__(cls)
        v._entries = {ix: a for ix, a in data.items() if a != 0} if 0 in data.values() else data
        v._rank = rank
        return v

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def support(self) -> tuple:
        """Sorted tuple of indices carrying nonzero amplitude."""
        return tuple(sorted(self._entries))

    def items(self) -> list[tuple[tuple, complex]]:
        """Entries as a list sorted by index (deterministic iteration order)."""
        return sorted(self._entries.items())

    def __getitem__(self, ix) -> complex:
        return self._entries.get(as_index(ix), 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self._entries))

    def __add__(self, other: "FinVec") -> "FinVec":
        if not isinstance(other, FinVec):
            return NotImplemented
        if other._rank != self._rank:
            raise RankMismatch(f"rank {self._rank} vs {other._rank}")
        data = dict(self._entries)
        for ix, a in other._entries.items():
            data[ix] = data.get(ix, 0j) + a
        return FinVec._wrap(data, self._rank)

    def __sub__(self, other: "FinVec") -> "FinVec":
        if not isinstance(other, FinVec):
            return NotImplemented
        if other._rank != self._rank:
            raise RankMismatch(f"rank {self._rank} vs {other._rank}")
        data = dict(self._entries)
        for ix, a in other._entries.items():
            data[ix] = data.get(ix, 0j) - a
        return FinVec._wrap(data, self._rank)

    def __mul__(self, alpha) -> "FinVec":
        alpha = complex(alpha)
        return FinVec._wrap({ix: alpha * a for ix, a in self._entries.items()}, self._rank)

    __rmul__ = __mul__

    def __truediv__(self, alpha) -> "FinVec":
        return self * (1.0 / complex(alpha))

    def __neg__(self) -> "FinVec":
        return FinVec._wrap({ix: -a for ix, a in self._entries.items()}, self._rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinVec):
            return NotImplemented
        return self._rank == other._rank and self._entries == other._entries

    def __repr__(self) -> str:
        parts = [f"{ix}: {a}" for ix, a in self.items()[:6]]
        if len(self._entries) > 6:
            parts.append("...")
        return f"FinVec(rank={self._rank}, {{{', '.join(parts)}}})"

    def inner(self, other: "FinVec") -> complex:
        """<self, other>, linear in self and conjugate-linear in other."""
        if other._rank != self._rank:
            raise RankMismatch(f"rank {self._rank} vs {other._rank}")
        return _inner(self._entries, other._entries)

    def norm_sq(self) -> float:
        """Squared norm, accumulated in real arithmetic (no imaginary residue)."""
        return math.fsum(a.real * a.real + a.imag * a.imag for a in self._entries.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def distance(self, other: "FinVec") -> float:
        """``(self - other).norm()`` bit for bit, without building the
        difference: an entry alone on one side squares as its difference
        with ``0j`` does, a dropped exact zero adds nothing, and ``fsum`` is
        exact in any order."""
        if other._rank != self._rank:
            raise RankMismatch(f"rank {self._rank} vs {other._rank}")
        a, b = self._entries, other._entries
        sq = [(d := x - b.get(ix, 0j)).real * d.real + d.imag * d.imag for ix, x in a.items()]
        sq += [y.real * y.real + y.imag * y.imag for ix, y in b.items() if ix not in a]
        return math.sqrt(math.fsum(sq))


def _inner(u: dict, w: dict, ukeys: list | None = None, wkeys: list | None = None) -> complex:
    """``sum_k u[k] * conj(w[k])``, accumulated over the sorted keys of the
    smaller dict (``u`` on a tie).  ``ukeys`` and ``wkeys``, when given, are
    ``sorted(u)`` and ``sorted(w)``, computed once by a caller that pairs a
    vector with many others."""
    if len(u) <= len(w):
        small, big, keys, swap = u, w, ukeys, False
    else:
        small, big, keys, swap = w, u, wkeys, True
    acc = 0j
    for ix in sorted(small) if keys is None else keys:
        b = big.get(ix)
        if b is not None:
            a = small[ix]
            acc += (a * b.conjugate()) if not swap else (b * a.conjugate())
    return acc


def unit(ix) -> FinVec:
    """Basis vector with amplitude 1 at the given index."""
    ix = as_index(ix)
    return FinVec._wrap({ix: 1.0 + 0j}, len(ix))


def zero(rank: int) -> FinVec:
    return FinVec((), rank=rank)


def max_cross(vs: Sequence[FinVec]) -> float:
    """Largest ``|<vs[i], vs[k]>|`` over the pairs ``i < k`` (0.0 for fewer
    than two vectors): how far the vectors are from pairwise orthogonal."""
    for u in vs[1:]:
        if u._rank != vs[0]._rank:
            raise RankMismatch(f"rank {vs[0]._rank} vs {u._rank}")
    entries = [v._entries for v in vs if v._entries]  # an empty one adds only abs(0j)
    keys = [sorted(e) for e in entries]  # each vector sorted once, not once per pair
    cross = 0.0
    for i, u in enumerate(entries):
        for k in range(i + 1, len(entries)):
            cross = max(cross, abs(_inner(u, entries[k], keys[i], keys[k])))
    return cross
