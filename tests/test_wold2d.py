import numpy as np
import pytest

import woldkit.wold
from woldkit.bandop import LatticeMismatch, bergman, constant, dirichlet
from woldkit.classd import product_closure_check
from woldkit.seqspace import FinVec, unit, zero
from woldkit.wold import shift_limit_project
from woldkit.wold2d import PART_TAGS, fourfold
from woldkit.zoo import (bergman_shift, bilateral_shift, dirichlet_shift, tensor_pair,
                         unilateral_shift)

def grid_vector(lattice, seed=9, side=8):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    v = FinVec({(i, j): complex(amps[i, j]) for i in range(side) for j in range(side)})
    return v * (1.0 / v.norm())


def test_q_project_unilateral_vanishes():
    T1, _ = tensor_pair(constant(1.0), constant(1.0))
    assert shift_limit_project(T1, unit((0, 0)))[0].is_zero


def test_q_project_bilateral_fixes():
    T1, _ = tensor_pair(constant(1.0), constant(1.0), "int", "int")
    h = unit((0, 0)) + 2 * unit((-3, 1))
    assert shift_limit_project(T1, h)[0] == h


def test_fourfold_ss_fixture():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    res = fourfold(T1, T2, unit((0, 0)))
    assert res.parts["s_s"] == unit((0, 0))
    for tag in ("inf_inf", "inf_s", "s_inf"):
        assert res.parts[tag].is_zero
    assert res.residual == 0.0 and res.cross_terms == 0.0
    # brute-force check on a dense grid section
    from woldkit.oracle import dense_section, oracle_limit_project
    D1 = dense_section(T1, 8)
    q1, _ = oracle_limit_project(D1, unit((0, 0)))
    assert q1.is_zero


def test_fourfold_infinf_fixture():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0), "int", "int")
    h = grid_vector(T1.lattice, seed=10, side=4)
    res = fourfold(T1, T2, h)
    assert (res.parts["inf_inf"] - h).norm() <= 1e-10
    for tag in ("inf_s", "s_inf", "s_s"):
        assert res.parts[tag].norm() <= 1e-10
    assert res.residual <= 1e-10


def test_fourfold_infs_fixture():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0), "int", "nat")
    res = fourfold(T1, T2, unit((0, 0)))
    assert res.parts["inf_s"] == unit((0, 0))
    for tag in ("inf_inf", "s_inf", "s_s"):
        assert res.parts[tag].is_zero
    assert res.residual == 0.0


def test_fourfold_reconstruction_and_orthogonality():
    T1, T2 = tensor_pair(bergman(), dirichlet())
    h = grid_vector(T1.lattice, seed=11)
    res = fourfold(T1, T2, h)
    assert res.residual <= 1e-10
    assert res.cross_terms <= 1e-10
    assert not res.flags


def test_fourfold_order_independence():
    pairs = [tensor_pair(bergman(), constant(1.0), "nat", "nat"),
             tensor_pair(constant(2.0), bergman(), "int", "nat")]
    for T1, T2 in pairs:
        h = grid_vector(T1.lattice, seed=12, side=5)
        a = shift_limit_project(T1, shift_limit_project(T2, h)[0])[0]
        b = shift_limit_project(T2, shift_limit_project(T1, h)[0])[0]
        assert (a - b).norm() <= 1e-10


def test_fourfold_zero_vector():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    res = fourfold(T1, T2, zero(2))
    assert res.residual == 0.0
    assert all(res.parts[tag].is_zero for tag in PART_TAGS)


def test_fourfold_warns_on_non_commuting_pair():
    # two different shifts on the same rank-1 lattice do not commute
    B, D = bergman_shift(), dirichlet_shift()
    res = fourfold(B, D, unit(0) + unit(2))
    assert res.flags and "not double-commuting" in res.flags[0]
    assert res.double_commuting > 1e-3


def test_fourfold_requires_shared_lattice():
    T1, _ = tensor_pair(constant(1.0), constant(1.0))
    B = bergman_shift()
    with pytest.raises(ValueError):
        fourfold(T1, B, unit((0, 0)))


def test_pair_routines_refuse_two_lattices_of_one_rank():
    # nat and int: the same rank, so only the lattice comparison tells them apart
    S, U = unilateral_shift(), bilateral_shift()
    with pytest.raises(LatticeMismatch):
        product_closure_check(S, U)
    with pytest.raises(ValueError, match="different lattices"):
        fourfold(S, U, unit(0))


def test_fourfold_zero_vector_runs_no_limit_step(monkeypatch):
    # the limit loop's own zero test decides h = 0, so no Gram solve runs
    def no_solve(*args, **kwargs):
        raise AssertionError("a zero vector reached a Gram solve")
    monkeypatch.setattr(woldkit.wold, "solve_gram", no_solve)
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    res = fourfold(T1, T2, zero(2))
    assert all(res.parts[tag] == zero(2) for tag in PART_TAGS)
    assert (res.residual, res.cross_terms, res.limit_iterations) == (0.0, 0.0, (0,) * 5)
