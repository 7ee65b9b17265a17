import math

import numpy as np
import pytest

from woldkit.bandop import bergman, constant, dirichlet, identity
from woldkit.classd import (
    DC_TOLERANCE,
    classd_residual,
    default_probes,
    double_commuting_residual,
    isometry_residual,
    product_closure_check,
    quasinormal_residual,
)
from woldkit.oracle import dense_section
from woldkit.seqspace import unit
from woldkit.zoo import (
    PhiFamily,
    bergman_shift,
    dirichlet_shift,
    quasinormal_block,
    tensor_pair,
    unilateral_shift,
    weighted_shift,
    weighted_translation,
)

from conftest import ZOO, make_zoo_fixtures


def test_default_probes_deterministic():
    lat = bergman_shift().lattice
    a = default_probes(lat)
    b = default_probes(lat)
    assert len(a) == 29
    assert all(x == y for x, y in zip(a, b))
    # first 21 are the leading basis vectors
    assert a[0] == unit(0) and a[20] == unit(20)
    assert all(len(p) <= 16 for p in a[21:])


def test_isometry_residual_unweighted():
    rep = isometry_residual(unilateral_shift())
    assert rep.residual == 0.0
    assert rep.details["left_inverse_vs_adjoint"] == 0.0
    assert rep.verdict == "pass"


def test_isometry_residual_bergman():
    rep = isometry_residual(bergman_shift(), window=8)
    # Gram diagonal is (k+1)/(k+2); the worst deviation from 1 sits at k=0
    assert rep.residual == 0.5
    assert rep.verdict == "fail"
    # dense oracle for the same quantity
    n = 10
    M = np.zeros((n + 1, n))
    for k in range(n):
        M[k + 1, k] = math.sqrt((k + 1) / (k + 2))
    dense = np.abs(np.diag(M.T @ M) - 1.0).max()
    assert abs(rep.residual - dense) < 1e-15


def test_isometry_residual_scaled_shift():
    rep = isometry_residual(2 * unilateral_shift())
    assert rep.residual == 3.0


def test_quasinormal_residual_block():
    rep = quasinormal_residual(quasinormal_block(np.diag([2.0, 3.0])))
    assert rep.residual <= 1e-13


def test_quasinormal_residual_identity():
    rep = quasinormal_residual(identity(unilateral_shift().lattice))
    assert rep.residual == 0.0


def test_quasinormal_residual_bergman_value():
    B = bergman_shift()
    probes = default_probes(B.lattice)
    rep = quasinormal_residual(B, probes)
    # dense oracle for the commutator of the Gram operator with the shift
    n = 48
    M = np.zeros((n + 1, n + 1))
    for k in range(n):
        M[k + 1, k] = math.sqrt((k + 1) / (k + 2))
    G = M.T @ M
    C = G @ M - M @ G
    dense = 0.0
    for v in probes:
        arr = np.zeros(n + 1, dtype=complex)
        for ix, amp in v.items():
            arr[ix[0]] = amp
        dense = max(dense, np.linalg.norm(C @ arr) / np.linalg.norm(arr))
    assert abs(rep.residual - dense) < 1e-12
    # the worst case is the first basis vector: w_0 * (|w_1|^2 - |w_0|^2)
    assert abs(rep.residual - math.sqrt(0.5) / 6) < 1e-14
    assert rep.residual > 0.1


def test_classd_residual_shifts():
    assert classd_residual(bergman_shift()).residual <= 1e-10
    assert classd_residual(unilateral_shift()).residual <= 1e-14
    assert classd_residual(weighted_shift(constant(2.0), 1, "int")).residual <= 1e-13


def test_classd_residual_translations():
    assert classd_residual(weighted_translation(PhiFamily.exp(1.0), 1.0, 1.0)).residual <= 1e-10
    assert classd_residual(weighted_translation(PhiFamily.power(2.0), 2.0, 1.0)).residual <= 1e-10


def test_classd_residual_quasinormal():
    assert classd_residual(quasinormal_block(np.diag([2.0, 3.0]))).residual <= 1e-10


def test_classd_residual_monotone_in_probes():
    B = bergman_shift()
    probes = default_probes(B.lattice)
    small = classd_residual(B, probes=probes[:10]).residual
    large = classd_residual(B, probes=probes).residual
    assert small <= large


def test_classd_residual_reproducible_bitwise():
    B = dirichlet_shift()
    a = classd_residual(B).residual
    b = classd_residual(B).residual
    assert a == b


@pytest.mark.parametrize("name", [name for name, _ in ZOO])
def test_classd_residual_same_on_cold_and_warm_operator(name):
    T = dict(make_zoo_fixtures())[name]
    cold = classd_residual(T)
    assert classd_residual(T) == cold


def test_classd_requires_two_powers():
    with pytest.raises(ValueError):
        classd_residual(bergman_shift(), n_max=1)


def test_double_commuting_tensor_pair():
    T1, T2 = tensor_pair(bergman(), dirichlet())
    rep = double_commuting_residual(T1, T2)
    assert rep.residual <= 1e-13


def test_double_commuting_default_tolerance_is_the_pair_gate():
    # a residual of 1e-12 passes at the one tolerance that the pair gate and
    # product_closure_check's note both use
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    rep = double_commuting_residual(T1, T2 + 1e-12 * T1)
    assert 1e-13 < rep.residual < 1e-11
    assert rep.tolerance == DC_TOLERANCE and rep.passed


def test_double_commuting_self_shift():
    B = bergman_shift()
    rep = double_commuting_residual(B, B)
    assert rep.details["commutator"] == 0.0
    assert rep.details["star_commutator"] > 0.01  # shifts are not normal
    assert rep.verdict == "fail"


def test_double_commuting_identity_with_anything():
    B = bergman_shift()
    rep = double_commuting_residual(identity(B.lattice), B)
    assert rep.residual == 0.0


def test_product_closure_tensor_fixture():
    T1, T2 = tensor_pair(bergman(), dirichlet())
    rep = product_closure_check(T1, T2)
    assert rep.residual <= 1e-9
    assert rep.details["left_inverse_factorization"] <= 1e-9
    # the tensor factors inherit power compatibility from their weights
    assert rep.details["factor1_classd"] <= 1e-10
    assert rep.details["factor2_classd"] <= 1e-10
    assert not rep.notes


def test_product_closure_normal_invertible_factor():
    B = bergman_shift()
    rep = product_closure_check(B, 2 * identity(B.lattice))
    assert rep.residual <= 1e-9


def test_product_closure_notes_a_failing_factor():
    S = unilateral_shift()
    rep = product_closure_check(S + 0.5 * S**2, identity(S.lattice), n_max=3,
                                probes=[unit(0), unit(1)])
    assert rep.notes == ("a factor fails its own power-compatibility check",)
    assert rep.details["factor1_classd"] > 1e-10 >= rep.details["factor2_classd"]


def test_product_closure_isometries_exact():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    rep = product_closure_check(T1, T2)
    assert rep.residual <= 1e-13


def test_isometry_iff_left_inverse_is_adjoint():
    # Gram-identity residual and left-inverse-vs-adjoint residual vanish together
    fixtures = [unilateral_shift(), bergman_shift(), dirichlet_shift(),
                2 * unilateral_shift(), weighted_shift(constant(1.0), 1, "int")]
    for T in fixtures:
        rep = isometry_residual(T, window=16)
        is_isometry = rep.residual <= 1e-13
        li_matches_adjoint = rep.details["left_inverse_vs_adjoint"] <= 1e-12
        assert is_isometry == li_matches_adjoint


def test_quasinormal_implies_classd_budget():
    # quasinormality at 1e-12 predicts power compatibility at a 100x budget
    Q = quasinormal_block(np.diag([2.0, 3.0]))
    rq = quasinormal_residual(Q).residual
    assert rq <= 1e-12
    assert classd_residual(Q).residual <= 100 * 1e-12


def test_full_matrix_quasinormal_classd():
    L = np.array([[2.0, 0.5], [0.5, 3.0]])
    Q = quasinormal_block(L)
    assert quasinormal_residual(Q).residual <= 1e-12
    probes = default_probes(Q.lattice, n_basis=9, n_random=3)
    assert classd_residual(Q, n_max=4, probes=probes).residual <= 1e-10


def test_oracle_cross_check_left_inverse_on_probes():
    # the two routes to (T*T)^{-1} T* agree on interior probes
    from woldkit.bandop import left_inverse_apply
    from woldkit.oracle import guard_ok, oracle_left_inverse
    B = dirichlet_shift()
    D = dense_section(B, 40)
    probes = default_probes(B.lattice, n_basis=8, n_random=4)
    assert guard_ok(D, probes, depth=2)
    for v in probes:
        band = left_inverse_apply(B, v)
        dense = oracle_left_inverse(D, v)
        assert (band - dense).norm() <= 1e-9 * max(1.0, v.norm())
