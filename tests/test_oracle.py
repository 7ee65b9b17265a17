import math

import numpy as np
import pytest

import woldkit
from woldkit.bandop import Lattice, constant, identity, left_inverse_apply, table
from woldkit.classd import default_probes
from woldkit.oracle import (
    RankDeficientSection,
    SeriesNotConverged,
    WindowTooLarge,
    dense_section,
    guard_ok,
    oracle_decompose,
    oracle_left_inverse,
    oracle_limit_project,
    oracle_null_basis,
    oracle_project,
    truncation_margin,
    vec_to_array,
)
from woldkit.seqspace import FinVec, unit
from woldkit.wold import decompose, nested_project
from woldkit.zoo import (
    bergman_shift,
    bilateral_shift,
    dirichlet_shift,
    quasinormal_block,
    unilateral_shift,
    weighted_shift,
)

from conftest import rand_vec


def test_dense_section_unweighted_shift():
    D = dense_section(unilateral_shift(), 4)
    M = D.matrix
    assert M.shape == (5, 5)
    assert np.array_equal(M, np.diag(np.ones(4), -1))


def test_dense_section_bergman_weights():
    D = dense_section(bergman_shift(), 3)
    M = D.matrix
    assert abs(M[1, 0] - math.sqrt(1 / 2)) < 1e-15
    assert abs(M[2, 1] - math.sqrt(2 / 3)) < 1e-15
    assert M[0, 0] == 0.0


def test_dense_section_diagonal_weight():
    lat = Lattice.nat(1)
    T = __import__("woldkit.bandop", fromlist=["BandOp"]).BandOp(
        lat, (((0,), table([1.0, 2.0, 3.0], default=7.0)),))
    D = dense_section(T, 4)
    assert np.array_equal(np.diag(D.matrix), [1.0, 2.0, 3.0, 7.0, 7.0])


def test_dense_section_memory_cap():
    with pytest.raises(WindowTooLarge):
        dense_section(unilateral_shift(), 10, max_ordinals=5)


def test_vec_to_array_rejects_outside_support():
    D = dense_section(unilateral_shift(), 4)
    with pytest.raises(ValueError):
        vec_to_array(D, unit(9))


def test_oracle_left_inverse_identity():
    lat = Lattice.nat(1)
    D = dense_section(identity(lat), 6)
    v = FinVec({(0,): 2.0, (3,): -1j})
    assert (oracle_left_inverse(D, v) - v).norm() <= 1e-12


def test_oracle_left_inverse_shift():
    D = dense_section(unilateral_shift(), 8)
    out = oracle_left_inverse(D, unit(3))
    assert (out - unit(2)).norm() <= 1e-12


def test_oracle_left_inverse_rank_deficiency():
    lat = Lattice.nat(1)
    Z = 0 * identity(lat)
    D = dense_section(Z, 4)
    with pytest.raises(RankDeficientSection):
        oracle_left_inverse(D, unit(0))


def test_guard_margins():
    D = dense_section(bilateral_shift(), 10)
    assert truncation_margin(D, [unit(0)]) == 10
    assert truncation_margin(D, [unit(-7)]) == 3
    assert guard_ok(D, [unit(0)], depth=5)
    assert not guard_ok(D, [unit(9)], depth=5)


def test_band_vs_oracle_left_inverse_on_fixtures(zoo_op):
    name, T = zoo_op
    extent = 14
    D = dense_section(T, extent)
    rng = np.random.default_rng(13)
    probes = [rand_vec(T.lattice, rng, size=4, extent=4) for _ in range(3)]
    assert guard_ok(D, probes, depth=2)  # never compare truncation-contaminated data
    for v in probes:
        band = left_inverse_apply(T, v)
        dense = oracle_left_inverse(D, v)
        assert (band - dense).norm() <= 1e-9 * max(1.0, v.norm())


def test_band_vs_oracle_projection(zoo_op):
    name, T = zoo_op
    D = dense_section(T, 14)
    rng = np.random.default_rng(14)
    v = rand_vec(T.lattice, rng, size=4, extent=3)
    for n in (1, 2):
        assert guard_ok(D, [v], depth=n + 1)
        band = nested_project(T, n, v)
        dense = oracle_project(D, v, n)
        assert (band - dense).norm() <= 1e-9 * max(1.0, v.norm())


def test_band_vs_oracle_projection_full_complex_block():
    # off-diagonal couplings make every power of Q a multi-band selector
    # operator; the oracle takes plain matrix powers of the dense section
    L = [[2.5, 0.4 + 0.3j, 0.2 - 0.1j],
         [0.4 - 0.3j, 3.0, 0.5j],
         [0.2 + 0.1j, -0.5j, 2.2]]
    Q = quasinormal_block(L)
    D = dense_section(Q, 24)
    probes = default_probes(Q.lattice, n_basis=6, n_random=2, max_support=3, extent=3)
    for n in range(1, 6):
        for v in probes:
            assert guard_ok(D, [v], depth=n + 2)
            band = nested_project(Q, n, v)
            dense = oracle_project(D, v, n)
            assert (band - dense).norm() <= 1e-12 * v.norm()


def test_band_vs_oracle_decompose():
    rng = np.random.default_rng(15)
    for T in (unilateral_shift(), bergman_shift(), dirichlet_shift()):
        h = FinVec({(k,): complex(a) for k, a in
                    enumerate(rng.standard_normal(6) + 1j * rng.standard_normal(6))})
        res = decompose(T, h)
        D = dense_section(T, 40)
        assert guard_ok(D, [h], depth=res.n_used + res.j_used + 1)
        ores = oracle_decompose(D, h)
        assert (res.limit_part - ores.limit_part).norm() <= 1e-9
        assert len(res.components) == len(ores.components)
        for a, b in zip(res.components, ores.components):
            assert (a - b).norm() <= 1e-9 * max(1.0, h.norm())
        assert abs(res.reconstruction_residual - ores.reconstruction_residual) <= 1e-9


def test_oracle_limit_project_bilateral():
    D = dense_section(bilateral_shift(), 16)
    h = unit(0) + 2 * unit(1)
    lim, hist = oracle_limit_project(D, h)
    assert (lim - h).norm() <= 1e-12


def test_oracle_limit_transient_plateau():
    # dense twin of the engine's plateau guard
    D = dense_section(unilateral_shift(), 30)
    lim, _ = oracle_limit_project(D, unit(5))
    assert lim.is_zero
    ores = oracle_decompose(D, unit(5))
    assert ores.limit_part.is_zero
    assert (ores.components[5] - unit(5)).norm() <= 1e-10


@pytest.mark.parametrize("scale, norm", [(1e-170, "0.0"), (1e200, "inf")])
def test_oracle_refuses_a_norm_outside_double_precision(scale, norm):
    # 1e-170 squares to 0.0, so a norm test would take v for the zero vector;
    # no stopping rule delta <= tol * ||v|| holds at a norm of 0.0 or inf
    D = dense_section(unilateral_shift(), 12)
    v = FinVec({(0,): scale, (3,): scale})
    for run in (oracle_limit_project, oracle_decompose):
        with pytest.raises(ValueError, match=f"nonzero v has dense norm {norm}:"):
            run(D, v)


def test_oracle_series_term_cap_raises():
    # e_0 + ... + e_9 has a unit component at each of its first ten terms
    h = FinVec({(k,): 1.0 for k in range(10)})
    with pytest.raises(SeriesNotConverged, match="j_max=3") as exc:
        oracle_decompose(dense_section(unilateral_shift(), 30), h, j_max=3)
    assert (exc.value.j_max, exc.value.tail_norm) == (3, 1.0)
    assert woldkit.SeriesNotConverged is SeriesNotConverged


def test_oracle_null_basis_step_shift():
    T = weighted_shift(constant(1.0), step=2)
    D = dense_section(T, 10)
    got = [w for w in oracle_null_basis(D)
           if truncation_margin(D, [w]) >= 3]
    assert len(got) == 2
    for w in got:
        assert all(ix[0] <= 1 for ix in w.support())
