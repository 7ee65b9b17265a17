import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from woldkit.seqspace import (
    FinVec,
    RankMismatch,
    max_cross,
    unit,
    zero,
)


def test_construction_prunes_exact_zeros():
    v = FinVec({(0,): 1.0, (1,): 0.0})
    assert v.support() == ((0,),)
    assert len(v) == 1


def test_construction_accumulates_duplicates():
    v = FinVec([((0,), 1.0), ((0,), 2.0), ((1,), 1.0), ((1,), -1.0)])
    assert v[(0,)] == 3.0
    assert v.support() == ((0,),)


def test_empty_vector_needs_rank():
    with pytest.raises(ValueError):
        FinVec(())
    assert zero(2).is_zero


def test_mixed_rank_rejected():
    with pytest.raises(RankMismatch):
        FinVec({(0,): 1.0, (0, 1): 2.0})
    with pytest.raises(RankMismatch):
        unit(0) + unit((0, 0))


def test_inner_orthonormal_basis():
    assert unit(0).inner(unit(0)) == 1.0
    assert unit(0).inner(unit(1)) == 0.0


def test_inner_conjugation_convention():
    # linear in the first slot, conjugate-linear in the second
    u = 2 * unit(0) + 1j * unit(1)
    v = unit(1)
    got = u.inner(v)
    assert got == 1j
    # dense cross-check: sum u conj(v) is vdot(v, u)
    ua = np.array([2.0, 1j])
    va = np.array([0.0, 1.0])
    assert got == complex(np.vdot(va, ua))


def test_norm_examples():
    assert zero(1).norm() == 0.0
    assert (3 * unit(5)).norm() == 3.0
    assert abs((unit(0) + unit(1)).norm() - math.sqrt(2)) < 1e-15


def test_norm_is_real_path():
    v = FinVec({(0,): 1 + 2j, (3,): -0.5j})
    assert v.inner(v).imag == 0.0
    assert abs(v.norm() ** 2 - v.inner(v).real) < 1e-14


def test_arithmetic():
    u = unit(0) + 2 * unit(1)
    v = unit(1) - unit(2)
    assert (u + v)[(1,)] == 3.0
    assert (u - u).is_zero
    assert (-u)[(0,)] == -1.0
    assert (u / 2)[(1,)] == 1.0


def test_max_cross_is_the_largest_pairwise_inner_product():
    u, v, w = unit(0), unit(0) + 2j * unit(1), unit(2)
    assert max_cross([]) == max_cross([u]) == 0.0
    assert max_cross([u, w]) == 0.0
    # [u, v, w] pairs to |<u, v>| = 1 and zeros; a repeated v to |<v, v>| = 5
    assert max_cross([u, v, w]) == 1.0
    assert max_cross([v, w, v]) == abs(v.inner(v)) == 5.0


_amps = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_vecs = st.dictionaries(st.integers(min_value=-20, max_value=20), _amps, max_size=10)


def _to_vec(d):
    return FinVec({(k,): v for k, v in d.items()}, rank=1)


@seed(20170416)
@settings(max_examples=80, deadline=None)
@given(_vecs, _vecs)
def test_inner_conjugate_symmetry(du, dv):
    u, v = _to_vec(du), _to_vec(dv)
    assert u.inner(v) == v.inner(u).conjugate()


@seed(20170417)
@settings(max_examples=80, deadline=None)
@given(_vecs, st.complex_numbers(max_magnitude=1e2, allow_nan=False, allow_infinity=False))
def test_norm_scaling(du, alpha):
    u = _to_vec(du)
    lhs = (alpha * u).norm()
    rhs = abs(alpha) * u.norm()
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, rhs)


def _bits(c: complex) -> tuple:
    """Both parts exactly: signed zeros differ, every NaN reads 'nan'."""
    return c.real.hex(), c.imag.hex()


def _pairwise_inner(u: FinVec, w: FinVec) -> complex:
    """The documented order: ``u[k] * conj(w[k])`` summed over the sorted
    support of the vector with fewer entries, ``u``'s on a tie."""
    small = u if len(u) <= len(w) else w
    acc = 0j
    for ix in small.support():
        if ix in u._entries and ix in w._entries:
            acc += u[ix] * w[ix].conjugate()
    return acc


def _pairwise_cross(vs) -> float:
    cross = 0.0
    for i, u in enumerate(vs):
        for w in vs[i + 1:]:
            cross = max(cross, abs(_pairwise_inner(u, w)))
    return cross


_SPECIAL_AMPS = (1.0, -0.5j, 3 + 4j, complex(-0.0, 1.0), complex(2.0, -0.0),
                 complex(-0.0, -2.0), math.inf, complex(1.0, -math.inf), math.nan,
                 complex(0.0, math.nan), 1e300, 1e-300)


def _special_vec(rng, size: int, lo: int = 0, hi: int = 12) -> FinVec:
    """Entries at shuffled indices (so insertion order is not sorted order),
    a third of them special amplitudes, the rest inexact random ones."""
    keys = rng.choice(np.arange(lo, hi), size=min(size, hi - lo), replace=False)
    return FinVec({(int(k),): _SPECIAL_AMPS[int(rng.integers(len(_SPECIAL_AMPS)))]
                   if rng.random() < 1 / 3 else complex(*rng.standard_normal(2))
                   for k in keys}, rank=1)


def test_inner_and_max_cross_match_the_pairwise_definition_bit_for_bit():
    rng = np.random.default_rng(20170419)
    empty = zero(1)
    u, w = _special_vec(rng, 3, 0, 6), _special_vec(rng, 5, 0, 6)  # overlapping
    disjoint = _special_vec(rng, 4, 20, 30)
    fixed = [(u, w), (w, u), (u, u), (u, disjoint), (disjoint, u), (empty, u), (u, empty),
             (empty, empty)]
    seen_branches = set()
    for a, b in fixed + [(_special_vec(rng, int(rng.integers(0, 7))),
                          _special_vec(rng, int(rng.integers(0, 7)))) for _ in range(400)]:
        assert _bits(a.inner(b)) == _bits(_pairwise_inner(a, b))
        seen_branches.add((len(a) <= len(b), len(a) == len(b)))
    assert seen_branches == {(True, True), (True, False), (False, False)}
    for _ in range(200):
        vs = [_special_vec(rng, int(rng.integers(0, 6)), 0, 8)
              for _ in range(int(rng.integers(0, 7)))]
        assert max_cross(vs).hex() == _pairwise_cross(vs).hex()
    # empty vectors first, in the middle, last and next to a NaN entry
    nan_vec = FinVec({(0,): math.nan, (1,): 1.0})
    for vs in ([empty, u, w], [u, empty, w], [u, w, empty], [empty, nan_vec, w],
               [nan_vec, empty, u], [u, nan_vec, empty], [empty, empty, u, empty, w]):
        assert max_cross(vs).hex() == _pairwise_cross(vs).hex()
    assert max_cross([empty, u, empty]) == 0.0


def test_max_cross_nan_term_never_raises_the_max():
    nan_vec = FinVec({(0,): math.nan, (1,): 1.0})
    assert math.isnan(nan_vec.inner(unit(0)).real)
    assert max_cross([nan_vec, unit(0)]) == 0.0
    # a NaN pair before and after a finite one leaves the finite maximum
    three = 3 * unit(1)
    assert max_cross([unit(0), nan_vec, three]) == 3.0
    assert max_cross([nan_vec, unit(0), three]) == 3.0


def test_max_cross_rank_mismatch_raises():
    for vs in ([unit(0), unit((0, 0))], [unit(0), zero(2)], [zero(1), unit((0, 0))]):
        with pytest.raises(RankMismatch):
            max_cross(vs)


def test_wrap_drops_only_exact_zeros_and_owns_its_dict():
    zeros = {(1,): 0j, (2,): -0j, (3,): complex(-0.0, 0.0), (4,): complex(0.0, -0.0)}
    nans = {(5,): complex(math.nan, 0.0), (6,): complex(0.0, math.nan)}
    data = {(0,): 1 + 2j, **zeros, **nans}
    v = FinVec._wrap(data, 1)
    assert v.support() == ((0,), (5,), (6,))
    assert all(math.isnan(abs(v[ix])) for ix in nans)
    assert len(data) == 7  # a dict holding zeros is copied, never pruned in place
    clean = {(0,): 1 + 2j, (5,): complex(math.nan, 0.0)}
    assert FinVec._wrap(clean, 1)._entries is clean  # taken over, not copied


def test_vector_arithmetic_never_shares_entries_with_an_operand():
    u, z = unit(0) + 2j * unit(3), zero(1)
    for out in (u + z, z + u, u - z, z - u, u * 1, 1 * u, u / 1, -u, u + u, u - (-u)):
        assert out._entries is not u._entries and out._entries is not z._entries


def _distance_outcome(u: FinVec, w: FinVec):
    try:
        return u.distance(w).hex()
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def test_distance_is_the_norm_of_the_difference_bit_for_bit():
    rng = np.random.default_rng(20170429)
    u, w = _special_vec(rng, 5, 0, 8), _special_vec(rng, 6, 0, 8)  # overlapping
    disjoint = _special_vec(rng, 4, 20, 30)
    cancel = FinVec({(0,): 1.5 - 2j, (3,): complex(-0.0, 4.0)})
    signed = FinVec({(0,): complex(-0.0, 1.0), (1,): complex(1.0, -0.0)})
    nan_vec = FinVec({(0,): math.nan, (2,): complex(1.0, math.nan)})
    huge = FinVec({(0,): 1e154, (1,): 1e154, (2,): 1e200})  # squares to inf
    big = FinVec({(0,): 1e154, (1,): 1e154})  # finite squares, overflowing sum
    fixed = [(u, w), (w, u), (u, disjoint), (disjoint, u), (u, zero(1)), (zero(1), u),
             (zero(1), zero(1)), (cancel, cancel), (u, u), (signed, -signed),
             (signed, FinVec({(0,): complex(0.0, 1.0), (1,): complex(1.0, 0.0)})),
             (nan_vec, u), (u, nan_vec), (nan_vec, nan_vec), (huge, -huge), (huge, u),
             (big, zero(1)), (zero(1), big), (big, -big)]
    for a, b in fixed + [(_special_vec(rng, int(rng.integers(0, 7))),
                          _special_vec(rng, int(rng.integers(0, 7)))) for _ in range(400)]:
        try:
            expect = (a - b).norm().hex()
        except ArithmeticError as e:  # fsum's intermediate overflow
            expect = type(e), str(e)
        assert _distance_outcome(a, b) == expect, (a, b)
    assert cancel.distance(cancel) == 0.0 and math.isnan(nan_vec.distance(u))
    assert huge.distance(-huge) == math.inf
    with pytest.raises(OverflowError):
        zero(1).distance(big)
    with pytest.raises(RankMismatch, match=r"rank 1 vs 2"):
        unit(0).distance(unit((0, 0)))
