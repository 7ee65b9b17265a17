import math

import numpy as np
import pytest

from woldkit.bandop import (Lattice, Weight, bergman, constant, dirichlet, identity,
                            lower_bound_estimate, table)
from woldkit.seqspace import RankMismatch, unit
from woldkit.zoo import (
    IncommensurateStep,
    PhiFamily,
    bergman_shift,
    bilateral_shift,
    direct_sum,
    dirichlet_shift,
    embed_summand,
    quasinormal_block,
    summand_part,
    tensor_pair,
    unilateral_shift,
    weighted_shift,
    weighted_translation,
)


def test_weighted_shift_bergman_action():
    T = weighted_shift(__import__("woldkit.bandop", fromlist=["bergman"]).bergman())
    out = T.apply(unit(0))
    assert abs(out[(1,)] - math.sqrt(1 / 2)) < 1e-15


def test_weighted_shift_rejects_bad_step():
    with pytest.raises(ValueError):
        weighted_shift(constant(1.0), step=0)


def test_weighted_shift_warns_on_vanishing_weight():
    with pytest.warns(UserWarning, match="bounded below"):
        weighted_shift(constant(0.0))


def test_unweighted_shift_is_isometry():
    S = unilateral_shift()
    assert S.gram() == identity(S.lattice)


def test_bilateral_constant_two_is_invertible():
    T = weighted_shift(constant(2.0), 1, "int")
    assert T.apply(unit(-3)) == 2 * unit(-2)
    assert abs(lower_bound_estimate(T, 8) - 2.0) < 1e-12


def test_named_shift_weights():
    B, D = bergman_shift(), dirichlet_shift()
    wb = [B.bands[0][1].evaluate((k,), B.lattice) for k in range(3)]
    assert np.allclose(wb, [math.sqrt(1 / 2), math.sqrt(2 / 3), math.sqrt(3 / 4)], atol=1e-15)
    assert abs(D.bands[0][1].evaluate((0,), D.lattice) - math.sqrt(2)) < 1e-15
    assert lower_bound_estimate(B, 16) >= math.sqrt(1 / 2) - 1e-12
    assert lower_bound_estimate(D, 16) >= 1.0 - 1e-12


def test_weighted_translation_exp_is_constant_weight():
    T = weighted_translation(PhiFamily.exp(1.0), 1.0, 1.0)
    assert T.offsets == ((1,),)
    for k in range(4):
        assert abs(T.bands[0][1].evaluate((k,), T.lattice) - math.e) < 1e-15


def test_weighted_translation_trivial_envelope_is_plain_shift():
    T = weighted_translation(PhiFamily.exp(0.0), 1.0, 1.0)
    assert T == unilateral_shift()


def test_weighted_translation_incommensurate():
    # an infinite t/h is refused as a step, not left to overflow int()
    for t, h in ((1.0, 0.4), (1e300, 1e-300), (math.inf, 1.0), (1e-300, 1e300)):
        with pytest.raises(IncommensurateStep):
            weighted_translation(PhiFamily.exp(1.0), t, h)


def test_weighted_translation_power_weights():
    T = weighted_translation(PhiFamily.power(2.0), 2.0, 1.0)
    assert T.offsets == ((2,),)
    for j in range(4):
        expect = ((1 + (j + 2)) / (1 + j)) ** 2
        assert abs(T.bands[0][1].evaluate((j,), T.lattice) - expect) < 1e-14


def test_weighted_translation_table_envelope():
    samples = [1.0, 2.0, 4.0, 8.0]
    T = weighted_translation(PhiFamily.table(samples, 1.0, tail_ratio=2.0), 1.0, 1.0)
    assert T.apply(unit(0))[(1,)] == 2.0
    assert T.apply(unit(9))[(10,)] == 2.0  # declared tail ratio, no silent extension
    with pytest.raises(ValueError):
        PhiFamily.table([1.0, -1.0], 1.0, tail_ratio=1.0)
    with pytest.raises(ValueError, match="envelope ratio is not bounded below on the grid"):
        weighted_translation(PhiFamily.table([1.0, 1e-13, 1.0], 1.0, 1.0), 1.0, 1.0)


def test_quasinormal_block_action():
    Q = quasinormal_block(np.diag([2.0, 3.0]))
    assert Q.apply(unit((0, 0))) == 2 * unit((1, 0))
    assert Q.apply(unit((2, 1))) == 3 * unit((3, 1))


def test_quasinormal_block_identity_weight_is_isometry():
    with pytest.warns(UserWarning, match="expansive"):
        Q = quasinormal_block(np.eye(2))
    G = Q.gram()
    for ix in Q.lattice.window(5):
        assert G.apply(unit(ix)) == unit(ix)


def test_quasinormal_block_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        quasinormal_block(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        quasinormal_block(np.diag([1.0, -2.0]))
    with pytest.warns(UserWarning, match="dimension 1"):
        quasinormal_block(np.array([[2.0]]))
    for bad in (math.inf, math.nan, complex(2.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            quasinormal_block(np.array([[bad, 0.0], [0.0, 2.0]]))


def test_quasinormal_block_full_matrix():
    L = np.array([[2.0, 0.5], [0.5, 3.0]])
    Q = quasinormal_block(L)
    out = Q.apply(unit((0, 0)))
    assert out[(1, 0)] == 2.0 and out[(1, 1)] == 0.5


def test_tensor_pair_product_action():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    assert T1.compose(T2).apply(unit((0, 0))) == unit((1, 1))
    assert T2.compose(T1).apply(unit((0, 0))) == unit((1, 1))


def test_tensor_pair_axis_weights():
    from woldkit.bandop import bergman, dirichlet
    T1, T2 = tensor_pair(bergman(), dirichlet())
    out1 = T1.apply(unit((0, 5)))
    assert abs(out1[(1, 5)] - math.sqrt(1 / 2)) < 1e-15
    out2 = T2.apply(unit((5, 0)))
    assert abs(out2[(5, 1)] - math.sqrt(2)) < 1e-15


def test_tensor_pair_mixed_lattices():
    T1, T2 = tensor_pair(constant(1.0), constant(1.0), "int", "nat")
    assert T1.apply(unit((-3, 0))) == unit((-2, 0))
    assert T2.adjoint().apply(unit((-3, 0))).is_zero


def test_tensor_pair_probes_each_weight_on_its_own_axis():
    with pytest.raises(ValueError, match="negative index -1"):
        tensor_pair(bergman(), constant(1.0), "int", "nat")
    with pytest.raises(ValueError, match="negative index -1"):
        tensor_pair(constant(1.0), dirichlet(), "nat", "int")


@pytest.mark.parametrize("axis", ["nat", "int", 5])
def test_probe_visits_the_window_in_graded_order(monkeypatch, axis):
    # the probe visits Lattice.window(32) in its graded order; the order
    # decides which undefined index a build error names
    seen = []
    evaluate = Weight.evaluate

    def recording(self, ix, lattice):
        seen.append(ix)
        return evaluate(self, ix, lattice)

    monkeypatch.setattr(Weight, "evaluate", recording)
    lat = Lattice((axis,))
    weighted_shift(constant(1.0), 1, lat)
    assert seen == lat.window(32)


@pytest.mark.parametrize("factor", [1, 2])
def test_tensor_pair_warns_on_zero_table_weight_like_weighted_shift(factor):
    zero = table([1.0, 0.0], 1.0)
    with pytest.warns(UserWarning, match="not bounded below") as shift_warning:
        weighted_shift(zero)
    weights = (zero, constant(1.0)) if factor == 1 else (constant(1.0), zero)
    with pytest.warns(UserWarning, match="not bounded below") as pair_warning:
        tensor_pair(*weights)
    assert [str(w.message) for w in pair_warning] == [str(w.message) for w in shift_warning]
    assert pair_warning[0].filename == __file__


def test_direct_sum_summand_action():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    left_e0 = embed_summand(unit(0), 0)
    assert D.apply(left_e0) == embed_summand(unit(1), 0)
    right_e0 = embed_summand(unit(0), 1)
    assert D.adjoint().apply(right_e0).is_zero
    assert D.adjoint().apply(embed_summand(unit(0), 0)) == embed_summand(unit(-1), 0)


def test_direct_sum_rank_check():
    T1, _ = tensor_pair(constant(1.0), constant(1.0))
    with pytest.raises(RankMismatch):
        direct_sum(T1, unilateral_shift())


def test_embed_and_project_summands():
    v = unit(2) + 3 * unit(5)
    emb = embed_summand(v, 1)
    assert emb.rank == 2
    assert summand_part(emb, 1) == v
    assert summand_part(emb, 0).is_zero


def test_every_zoo_operator_is_bounded_below():
    # window 64 for rank-1 fixtures; rank-2 windows are (w+1)^2 boxes, where
    # the estimate is already stationary at 16 for every fixture
    from conftest import ZOO
    for name, T in ZOO:
        window = 64 if T.rank == 1 else 16
        assert lower_bound_estimate(T, window) > 0, name
