import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from woldkit.seqspace import (
    FinVec,
    RankMismatch,
    inner,
    max_cross,
    norm,
    orthonormalize,
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
    assert inner(unit(0), unit(0)) == 1.0
    assert inner(unit(0), unit(1)) == 0.0


def test_inner_conjugation_convention():
    # linear in the first slot, conjugate-linear in the second
    u = 2 * unit(0) + 1j * unit(1)
    v = unit(1)
    got = inner(u, v)
    assert got == 1j
    # dense cross-check: sum u conj(v) is vdot(v, u)
    ua = np.array([2.0, 1j])
    va = np.array([0.0, 1.0])
    assert got == complex(np.vdot(va, ua))


def test_norm_examples():
    assert norm(zero(1)) == 0.0
    assert norm(3 * unit(5)) == 3.0
    assert abs(norm(unit(0) + unit(1)) - math.sqrt(2)) < 1e-15


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


def test_orthonormalize_duplicate_dropped():
    out = orthonormalize([unit(0), unit(0)])
    assert len(out) == 1
    assert out[0] == unit(0)


def test_orthonormalize_normalizes():
    out = orthonormalize([2 * unit(0)])
    assert out == [unit(0)]


def test_orthonormalize_gram_identity():
    out = orthonormalize([unit(0) + unit(1), unit(1)], tol=1e-12)
    assert len(out) == 2
    # oracle: the Gram matrix of the output must be the identity
    G = np.array([[inner(a, b) for b in out] for a in out])
    assert np.abs(G - np.eye(2)).max() <= 1e-12
    # same span: both inputs reconstruct from the output
    for v in (unit(0) + unit(1), unit(1)):
        w = v
        for q in out:
            w = w - inner(w, q) * q
        assert w.norm() <= 1e-12


def test_orthonormalize_empty_and_zero():
    assert orthonormalize([]) == []
    assert orthonormalize([zero(1)]) == []
    with pytest.raises(ValueError):
        orthonormalize([unit(0)], tol=0.0)


_amps = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_vecs = st.dictionaries(st.integers(min_value=-20, max_value=20), _amps, max_size=10)


def _to_vec(d):
    return FinVec({(k,): v for k, v in d.items()}, rank=1)


@seed(20170416)
@settings(max_examples=80, deadline=None)
@given(_vecs, _vecs)
def test_inner_conjugate_symmetry(du, dv):
    u, v = _to_vec(du), _to_vec(dv)
    assert inner(u, v) == inner(v, u).conjugate()


@seed(20170417)
@settings(max_examples=80, deadline=None)
@given(_vecs, st.complex_numbers(max_magnitude=1e2, allow_nan=False, allow_infinity=False))
def test_norm_scaling(du, alpha):
    u = _to_vec(du)
    lhs = norm(alpha * u)
    rhs = abs(alpha) * norm(u)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, rhs)
