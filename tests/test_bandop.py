import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings, strategies as st

from woldkit import bandop
from woldkit.bandop import (
    BandOp,
    GramSolveParams,
    Lattice,
    LatticeMismatch,
    NoConvergence,
    UnionLattice,
    Weight,
    constant,
    identity,
    left_inverse_apply,
    lower_bound_estimate,
    power_ratio,
    section,
    solve_gram,
    table,
    union,
)
from woldkit.classd import isometry_residual
from woldkit.oracle import dense_section
from woldkit.seqspace import FinVec, RankMismatch, unit, zero
from woldkit.zoo import (
    bergman_shift,
    direct_sum,
    dirichlet_shift,
    quasinormal_block,
    tensor_pair,
    unilateral_shift,
    weighted_shift,
)

from conftest import ZOO, make_zoo_fixtures, rand_vec


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def test_lattice_contains():
    nat = Lattice.nat(1)
    assert nat.contains((0,)) and nat.contains((5,)) and not nat.contains((-1,))
    grid = Lattice(("nat", 3))
    assert grid.contains((4, 2)) and not grid.contains((4, 3)) and not grid.contains((-1, 0))
    u = union(Lattice.integers(1), Lattice.nat(1))
    assert u.contains((0, -4)) and u.contains((1, 4))
    assert not u.contains((1, -4)) and not u.contains((2, 0))


def test_lattice_depth():
    # distance to the farthest boundary along a bounded axis
    assert Lattice.nat(1).depth((7,)) == 7
    assert Lattice.integers(1).depth((-7,)) == 0
    assert Lattice(("nat", 5, "int")).depth((2, 1, 9)) == 3
    u = union(Lattice.integers(1), Lattice.nat(1))
    assert (u.depth((0, 4)), u.depth((1, 4))) == (0, 4)


def test_lattice_windows():
    assert Lattice.nat(1).window(3) == [(0,), (1,), (2,), (3,)]
    assert Lattice.integers(1).window(1) == [(0,), (-1,), (1,)]
    w = Lattice(("nat", 2)).window(2)
    assert w[0] == (0, 0) and set(w) == {(i, j) for i in range(3) for j in range(2)}
    uw = union(Lattice.nat(1), Lattice.nat(1)).window(1)
    assert set(uw) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("lat", [Lattice.nat(1), Lattice.integers(2), Lattice(("nat", 3, "int")),
                                 union(Lattice(("nat", 2)), Lattice.integers(2))],
                         ids=["nat", "int2", "nat-3-int", "union"])
def test_window_size_counts_window(lat):
    for extent in (1, 2, 5):
        assert lat.window_size(extent) == len(lat.window(extent))


def test_lattice_shift_closure():
    # (every, none): k + off in the lattice for every / for no selected k
    nat = Lattice.nat(1)
    assert nat.shift_cover({}, (2,)) == (True, False)
    assert nat.shift_cover({}, (-1,)) == (False, False)
    assert Lattice.integers(1).shift_cover({}, (-5,)) == (True, False)
    assert Lattice(("nat", 3)).shift_cover({}, (1, 0)) == (True, False)
    assert Lattice(("nat", 3)).shift_cover({}, (1, 1)) == (False, False)
    assert Lattice(("nat", 3)).shift_cover({1: 2}, (0, 1)) == (False, True)
    assert nat.shift_cover({0: -1}, (0,)) == (True, True)  # no such k: vacuous


# ---------------------------------------------------------------------------
# apply / adjoint / compose
# ---------------------------------------------------------------------------

def test_apply_bergman_weight_at_zero():
    B = bergman_shift()
    out = B.apply(unit(0))
    assert out.support() == ((1,),)
    assert abs(out[(1,)] - math.sqrt(1 / 2)) < 1e-15


def test_apply_zero_vector():
    S = unilateral_shift()
    assert S.apply(zero(1)).is_zero


def test_apply_dirichlet_weight_at_one():
    out = dirichlet_shift().apply(unit(1))
    assert out.support() == ((2,),)
    assert abs(out[(2,)] - math.sqrt(3 / 2)) < 1e-15


def test_apply_validates_rank_and_lattice():
    S = unilateral_shift()
    with pytest.raises(RankMismatch):
        S.apply(unit((0, 0)))
    with pytest.raises(LatticeMismatch):
        S.apply(unit(-1))


def test_adjoint_kills_boundary():
    S = unilateral_shift()
    assert S.adjoint().apply(unit(0)).is_zero


def test_adjoint_involution_band_for_band():
    for T in (unilateral_shift(), bergman_shift(), quasinormal_block(np.diag([2.0, 3.0]))):
        assert T.adjoint().adjoint() == T


def test_adjoint_bergman_at_one():
    out = bergman_shift().adjoint().apply(unit(1))
    assert out.support() == ((0,),)
    assert abs(out[(0,)] - math.sqrt(1 / 2)) < 1e-15


def test_compose_with_identity():
    B = bergman_shift()
    assert B.compose(identity(B.lattice)) == B
    assert identity(B.lattice).compose(B) == B


def test_compose_isometry_gram_is_identity():
    S = unilateral_shift()
    assert S.adjoint().compose(S) == identity(S.lattice)


def test_compose_boundary_mask():
    # S S* is the identity minus the projection onto the first basis vector
    S = unilateral_shift()
    P = S.compose(S.adjoint())
    assert P.apply(unit(0)).is_zero
    assert P.apply(unit(3)) == unit(3)


def test_gram_bergman_diagonal_exact():
    B = bergman_shift()
    G = B.gram()
    assert G.is_diagonal()
    w = G.bands[0][1]
    for k in range(12):
        # analytic merge: exactly (k+1)/(k+2), not a rounded square of sqrt
        assert w.evaluate((k,), G.lattice) == (k + 1) / (k + 2)


def test_gram_matches_dense_oracle():
    for T in (bergman_shift(), dirichlet_shift()):
        n = 10
        M = np.zeros((n + 1, n), dtype=complex)
        for k in range(n):
            M[k + 1, k] = T.bands[0][1].evaluate((k,), T.lattice)
        dense = M.conj().T @ M
        G = T.gram()
        for k in range(n):
            got = G.bands[0][1].evaluate((k,), G.lattice)
            assert abs(got - dense[k, k]) <= 1e-15
        assert np.abs(dense - np.diag(np.diag(dense))).max() == 0.0


def test_gram_scaled_identity():
    lat = Lattice.nat(1)
    G = (2 * identity(lat)).gram()
    assert G == 4 * identity(lat)


def test_gram_quasinormal_block_is_squared_matrix():
    Q = quasinormal_block(np.diag([2.0, 3.0]))
    G = Q.gram()
    assert G.is_diagonal()
    w = G.bands[0][1]
    for k in range(4):
        assert w.evaluate((k, 0), G.lattice) == 4.0
        assert w.evaluate((k, 1), G.lattice) == 9.0


def test_compose_associativity_on_probes():
    B = bergman_shift()
    A = B.adjoint()
    C = B.compose(B)
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = rand_vec(B.lattice, rng)
        lhs = A.compose(B.compose(C)).apply(u)
        rhs = (A.compose(B)).compose(C).apply(u)
        assert (lhs - rhs).norm() <= 1e-13 * max(1.0, u.norm())


def test_apply_support_growth_bound():
    # support of T u never exceeds (support of u) x (number of bands)
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice) + 2 * S.adjoint()
    rng = np.random.default_rng(17)
    for _ in range(4):
        u = rand_vec(T.lattice, rng)
        assert len(T.apply(u)) <= len(u) * len(T.bands)


def test_operator_sums_and_scalars():
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    out = T.apply(unit(2))
    assert out[(2,)] == 0.5 and out[(3,)] == 1.0
    assert (T - T).apply(unit(2)).is_zero
    assert (-T).apply(unit(2))[(3,)] == -1.0


def test_power():
    B = bergman_shift()
    assert B ** 0 == identity(B.lattice)
    assert B ** 1 == B
    out = (B ** 2).apply(unit(0))
    w0w1 = math.sqrt(1 / 2) * math.sqrt(2 / 3)
    assert abs(out[(2,)] - w0w1) < 1e-15


@pytest.mark.parametrize("name", [name for name, _ in ZOO])
def test_derived_operators_are_memoised_and_unchanged(name):
    T = dict(make_zoo_fixtures())[name]
    assert T.adjoint() is T.adjoint()
    assert T.gram() is T.gram()
    assert T.gram() == T.adjoint().compose(T)
    top = T ** 8  # builds the whole cached chain before the lower powers are asked for
    chain = T
    for n in range(1, 9):
        assert T ** n == chain and T ** n is T ** n, n
        chain = chain.compose(T)
    assert top is T ** 8


def test_table_weight_default_is_explicit():
    w = table([1.0, 2.0], default=5.0)
    lat = Lattice.nat(1)
    T = BandOp(lat, (((1,), w),))
    assert T.apply(unit(1))[(2,)] == 2.0
    assert T.apply(unit(7))[(8,)] == 5.0


def test_power_ratio_weight():
    w = power_ratio(2.0, 1.0, 2)
    lat = Lattice.nat(1)
    for j in range(5):
        assert abs(w.evaluate((j,), lat) - ((j + 3) / (j + 1)) ** 2) < 1e-14


_TABLE_VALUES = (0.5 + 2j, -1.25 - 0.75j, 3.0, 1j / 3)
_TABLE_DEFAULT = 0.2 - 1.1j


def _table_abs2(m):
    v = _TABLE_VALUES[m] if m < len(_TABLE_VALUES) else _TABLE_DEFAULT
    return v.real * v.real + v.imag * v.imag


# family -> (plain weight, closed form of its squared modulus at m >= 0,
#            message for a negative index or None)
ATOM_FAMILIES = {
    "bergman": (Weight.atom("bergman"), lambda m: (m + 1) / (m + 2),
                "Bergman weight evaluated at negative index"),
    "dirichlet": (Weight.atom("dirichlet"), lambda m: (m + 2) / (m + 1),
                  "Dirichlet weight evaluated at negative index"),
    "powratio": (power_ratio(0.7, 0.3, 2),
                 lambda m: ((1.0 + (m + 2) * 0.3) / (1.0 + m * 0.3)) ** (2.0 * 0.7),
                 "translation weight evaluated at negative grid site"),
    "table": (table(_TABLE_VALUES, _TABLE_DEFAULT), _table_abs2, None),
}


@pytest.mark.parametrize("family", list(ATOM_FAMILIES))
def test_atom_evaluation_pinned(family):
    plain, closed, _ = ATOM_FAMILIES[family]
    square = plain * plain.conjugated()
    assert [a.kind for t in square.terms for a in t.atoms] == ["abs2"]
    lat = Lattice.nat(1)
    for m in range(41):
        got = square.evaluate((m,), lat)
        assert got == closed(m) and got.imag == 0.0
        assert abs(abs(plain.evaluate((m,), lat)) ** 2 - closed(m)) <= 1e-15 * max(1.0, closed(m))


def test_table_atom_conj_and_default():
    lat = Lattice.nat(1)
    plain = table(_TABLE_VALUES, _TABLE_DEFAULT)
    conj = plain.conjugated()
    for m in range(41):
        v = _TABLE_VALUES[m] if m < len(_TABLE_VALUES) else _TABLE_DEFAULT
        assert plain.evaluate((m,), lat) == v
        assert conj.evaluate((m,), lat) == v.conjugate()
    # below the table the explicit default applies too
    assert plain.evaluate((-3,), Lattice.integers(1)) == _TABLE_DEFAULT


@pytest.mark.parametrize("family", [f for f, (_, _, msg) in ATOM_FAMILIES.items() if msg])
def test_atom_negative_index_raises(family):
    plain, _, msg = ATOM_FAMILIES[family]
    lat = Lattice.integers(1)
    for w in (plain, plain * plain.conjugated()):
        with pytest.raises(ValueError, match=msg):
            w.evaluate((-1,), lat)


def test_unknown_atom_kind_raises():
    lat = Lattice.nat(1)
    with pytest.raises(ValueError, match="unknown"):
        Weight.atom("nope").evaluate((0,), lat)
    with pytest.raises(ValueError, match="unknown"):
        Weight.atom("abs2", ("nope", ())).evaluate((0,), lat)


@seed(20170412)
@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=15),
                       st.complex_numbers(max_magnitude=10, allow_nan=False,
                                          allow_infinity=False),
                       max_size=6),
       st.dictionaries(st.integers(min_value=0, max_value=16),
                       st.complex_numbers(max_magnitude=10, allow_nan=False,
                                          allow_infinity=False),
                       max_size=6))
def test_adjoint_pairing(du, dv):
    u = FinVec({(k,): v for k, v in du.items()}, rank=1)
    v = FinVec({(k,): a for k, a in dv.items()}, rank=1)
    for T in (bergman_shift(), dirichlet_shift()):
        lhs = T.apply(u).inner(v)
        rhs = u.inner(T.adjoint().apply(v))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, u.norm() * v.norm())


def test_adjoint_pairing_union_lattice():
    from woldkit.zoo import bilateral_shift, direct_sum
    D = direct_sum(bilateral_shift(), unilateral_shift())
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rand_vec(D.lattice, rng)
        v = rand_vec(D.lattice, rng)
        lhs = D.apply(u).inner(v)
        rhs = u.inner(D.adjoint().apply(v))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, u.norm() * v.norm())


# ---------------------------------------------------------------------------
# lattice-aware mask normal form
# ---------------------------------------------------------------------------

BLOCK_2 = [[2.0, 0.5], [0.5, 3.0]]
BLOCK_3 = [[2.5, 0.4 + 0.3j, 0.2 - 0.1j],
           [0.4 - 0.3j, 3.0, 0.5j],
           [0.2 + 0.1j, -0.5j, 2.2]]


def _n_terms(T):
    return sum(len(w.terms) for _, w in T.bands)


@st.composite
def lattices(draw):
    # grids of rank 1..3 and tagged unions of them, nested up to two levels
    axis = st.sampled_from(["nat", "int", 1, 2, 3, 4])

    def build(rank, depth):
        if depth and rank > 1 and draw(st.booleans()):
            return union(build(rank - 1, depth - 1), build(rank - 1, depth - 1))
        return Lattice([draw(axis) for _ in range(rank)])

    return build(draw(st.integers(1, 3)), 2)


def _tag_axes(lat, axis=0):
    # axes that are a tag coordinate in some part (parts may be shaped apart)
    if not isinstance(lat, UnionLattice):
        return set()
    return {axis} | _tag_axes(lat.left, axis + 1) | _tag_axes(lat.right, axis + 1)


def _offset(draw, lat, reach):
    tags = _tag_axes(lat)
    return tuple(draw(st.integers(-1, 1) if ax in tags else st.integers(-reach, reach))
                 for ax in range(lat.rank))


def _ball_reference(lat, support, guard):
    """Gram windows by brute force: the sorted union of per-entry balls, i.e.
    every in-lattice index within sup-distance ``guard`` of a support entry,
    with finite axes padded over their whole range."""
    def ball(lat, c):
        if isinstance(lat, UnionLattice):
            return [(c[0],) + ix for ix in ball(lat.parts[c[0]], c[1:])]
        pads = [range(-guard, guard + 1) if a in ("nat", "int") else range(-(a - 1), a)
                for a in lat.axes]
        shifted = (tuple(x + o for x, o in zip(c, off)) for off in itertools.product(*pads))
        return [ix for ix in shifted if lat.contains(ix)]

    pts = set()
    for c in support:
        pts.update(ball(lat, c))
    return sorted(pts)


@seed(20170428)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_neighbourhood_matches_union_of_balls(data):
    # supports near the 'nat' edge and on negative 'int' coordinates, with
    # guards small enough that boxes overlap, touch or stay apart
    lat = data.draw(lattices())
    guard = data.draw(st.integers(0, 3))
    support = data.draw(st.lists(st.sampled_from(lat.window(4)), max_size=6))
    assert lat.neighbourhood(support, guard) == _ball_reference(lat, support, guard)


@pytest.mark.parametrize("lat, support, guard", [
    (Lattice.nat(1), [(0,), (3,)], 1),            # boxes [0, 1] and [2, 4] touch
    (Lattice.nat(1), [(0,), (4,)], 1),            # a gap of one index
    (Lattice.integers(1), [(-5,), (-3,)], 1),     # overlapping, negative
    (Lattice.nat(1), [(2,), (0,), (2,)], 0),      # guard 0, unsorted, repeated
    (Lattice(("nat", 3)), [(0, 2), (3, 0)], 1),   # touching along the leading axis
    (Lattice(("int", "nat")), [(-2, 0), (1, 3), (0, 1)], 1),
    (Lattice(("nat", "int", 2)), [(1, -1, 0), (3, 1, 1)], 1),
    (union(Lattice.integers(1), Lattice(("nat",))), [(1, 0), (0, -2), (1, 3)], 1),
    (union(union(Lattice.nat(1), Lattice.integers(1)), union(Lattice((2,)), Lattice.nat(1))),
     [(0, 1, -1), (1, 0, 1), (1, 1, 0)], 2),
    (Lattice.nat(2), [], 3),
])
def test_neighbourhood_edge_cases(lat, support, guard):
    assert lat.neighbourhood(support, guard) == _ball_reference(lat, support, guard)


@seed(20170413)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decide_shift_matches_enumeration(data):
    # the window reaches every case: offsets and selected values stay well
    # inside it, so an undecided mask has a witness either way in the window.
    # An offset moving a tag (never built by an operator) may stay undecided.
    lat = data.draw(lattices())
    axes = data.draw(st.sets(st.integers(0, lat.rank - 1)))
    selects = tuple((ax, data.draw(st.integers(-2, 5))) for ax in sorted(axes))
    off = _offset(data.draw, lat, 5)
    hits = [lat.contains(tuple(c + o for c, o in zip(k, off)))
            for k in lat.window(10) if all(k[ax] == v for ax, v in selects)]
    got = lat.shift_cover(dict(selects), off)
    moves_tag = any(off[ax] for ax in _tag_axes(lat))
    # with no such k, `none` holds vacuously and `every` may hold as well
    decided = got == (all(hits), not any(hits)) if hits else got[1]
    assert decided or (got == (False, False) and moves_tag)


@st.composite
def selector_ops(draw, lat):
    bands = []
    for _ in range(draw(st.integers(1, 3))):
        w = Weight.const(complex(draw(st.integers(1, 3)), draw(st.integers(-2, 2))))
        for ax in draw(st.sets(st.integers(0, lat.rank - 1), max_size=2)):
            w = w * Weight.select(ax, draw(st.integers(-1, 3)))
        bands.append((_offset(draw, lat, 2), w))
    return BandOp(lat, bands)


def _assert_compose_exact(ops, lat, rng):
    for _ in range(3):
        u = rand_vec(lat, rng, size=5, extent=4)
        lhs = ops[0]
        for T in ops[1:]:
            lhs = lhs @ T
        rhs = u
        for T in reversed(ops):
            rhs = T.apply(rhs)
        assert (lhs.apply(u) - rhs).norm() <= 1e-13 * max(rhs.norm(), u.norm())


@seed(20170414)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_compose_exact_on_random_selector_operators(data):
    lat = data.draw(lattices())
    A, B, C = (data.draw(selector_ops(lat)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    for ops in ((A, B), (A, B.adjoint()), (A.adjoint(), B, C), (A, B, C.adjoint(), A)):
        _assert_compose_exact(ops, lat, rng)


def _random_block(rng, d):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return quasinormal_block(X @ X.conj().T / d + 1.5 * np.eye(d))


@seed(20170415)
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from([2, 3]))
def test_compose_exact_on_blocks_sums_and_tensor_pairs(s, d):
    rng = np.random.default_rng(s)
    Q, R = _random_block(rng, d), _random_block(rng, d)
    for T in (Q, direct_sum(Q, R), direct_sum(direct_sum(Q, R), direct_sum(R, Q))):
        for ops in ((T, T, T), (T, T.adjoint()), (T.adjoint(), T, T), (T, T.adjoint(), T)):
            _assert_compose_exact(ops, T.lattice, rng)
    T1, T2 = tensor_pair(table(rng.standard_normal(3), 1.5), constant(2.0), "nat", "int")
    for ops in ((T1, T2.adjoint()), (T2.adjoint(), T1, T1.adjoint()), (T1.adjoint(), T2, T1)):
        _assert_compose_exact(ops, T1.lattice, rng)


def test_compose_resolves_masks_against_later_selectors():
    # T T moves the finite axis twice, so its masks depend on k; composing
    # with a selector projection (a band whose own mask always holds) decides them
    lat = Lattice(("nat", 2))
    T = BandOp(lat, [((0, 1), Weight.const(1.0)), ((0, -1), Weight.const(1.0))])
    P = BandOp(lat, [((0, 0), Weight.select(1, 0))])
    TT = T @ T
    assert all(t.masks for _, w in TT.bands for t in w.terms)
    TTP = TT @ P
    assert not any(t.masks for _, w in TTP.bands for t in w.terms)
    assert len(dict(TTP.bands)[(0, 0)].terms) == 1


@pytest.mark.parametrize("L", [BLOCK_2, BLOCK_3], ids=["real_2x2", "complex_3x3"])
def test_gram_of_block_powers_keeps_d_squared_terms(L):
    Q = quasinormal_block(L)
    d = len(L)
    assert [_n_terms((Q ** n).gram()) for n in range(1, 9)] == [d * d] * 8


def test_gram_of_block_sum_powers_keeps_d_squared_terms_per_summand():
    Q, R = quasinormal_block(BLOCK_2), quasinormal_block([[3.0, -1.0], [-1.0, 2.5]])
    S = direct_sum(Q, R)
    assert [_n_terms((S ** n).gram()) for n in range(1, 9)] == [8] * 8
    S = direct_sum(S, direct_sum(R, Q))
    assert [_n_terms((S ** n).gram()) for n in range(1, 9)] == [16] * 8


# ---------------------------------------------------------------------------
# matrix sections
# ---------------------------------------------------------------------------

# the fixtures themselves have real weights and never map out of their
# lattice; a complex multiple of the adjoint does both
SECTION_VARIANTS = {"T": lambda T: T, "complex_adjoint": lambda T: (0.5 + 2j) * T.adjoint()}


@pytest.mark.parametrize("variant", SECTION_VARIANTS)
@pytest.mark.parametrize("extent", [1, 4])
def test_square_section_equals_dense_oracle(zoo_op, extent, variant):
    # independent copies of the section loop; they share only Weight.evaluate
    T = SECTION_VARIANTS[variant](zoo_op[1])
    w = T.lattice.window(extent)
    M, rows = section(T, w, w)
    assert rows == w
    assert np.array_equal(M, dense_section(T, extent).matrix)


@pytest.mark.parametrize("variant", SECTION_VARIANTS)
def test_section_acts_exactly_on_its_columns(zoo_op, variant):
    T = SECTION_VARIANTS[variant](zoo_op[1])
    rng = np.random.default_rng(11)
    cols = T.lattice.window(4)
    M, rows = section(T, cols)
    assert rows == sorted(set(rows)) and all(T.lattice.contains(ix) for ix in rows)
    for _ in range(3):
        u = rand_vec(T.lattice, rng, extent=4)
        image = T.apply(u)
        assert set(image.support()) <= set(rows)
        got = M @ np.array([u[ix] for ix in cols])
        want = np.array([image[ix] for ix in rows])
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def _section_reference(T, cols, rows=None):
    """``section`` entry by entry: columns outside, bands inside."""
    if rows is None:
        images = {tuple(x + o for x, o in zip(c, off)) for c in cols for off, _ in T.bands}
        rows = sorted(ix for ix in images if T.lattice.contains(ix))
    pos = {ix: i for i, ix in enumerate(rows)}
    M = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, c in enumerate(cols):
        for off, w in T.bands:
            i = pos.get(tuple(x + o for x, o in zip(c, off)))
            if i is not None:
                val = w.evaluate(c, T.lattice)
                if val != 0:
                    M[i, j] += val
    return M, rows


def _zero_weight_shift():
    """A shift whose weight vanishes at index 1 and from index 3 on; its
    section keeps a row for every in-lattice image, zero-valued or not."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # not left invertible, and warns so
        return weighted_shift(table([1.0, 0.0, 2.0], 0.0), 1, "nat")


def _section_operators():
    blocks = [quasinormal_block(np.array(BLOCK_2)), quasinormal_block(np.array(BLOCK_3))]
    ops = [(name, T) for name, T in ZOO]
    ops += [("block_2", blocks[0]), ("block_3", blocks[1]),
            ("block_sum", direct_sum(blocks[0], quasinormal_block(np.array(BLOCK_2) + 1))),
            ("zero_weight_shift", _zero_weight_shift())]
    return [(f"{name}{suffix}", op) for name, T in ops
            for suffix, op in (("", T), ("_gram", T.gram()), ("_complex_adjoint",
                                                              (0.5 + 2j) * T.adjoint()))]


_SECTION_OPS = _section_operators()


@pytest.mark.parametrize("T", [T for _, T in _SECTION_OPS], ids=[name for name, _ in _SECTION_OPS])
def test_section_bit_identical_to_entrywise_reference(T):
    cols = T.lattice.window(5)
    given = [ix for ix in T.lattice.window(6) if sum(map(abs, ix)) % 3]  # with holes
    for args in ((cols,), (cols, cols), (cols, given)):
        M, rows = section(T, *args)
        ref, ref_rows = _section_reference(T, *args)
        assert list(rows) == list(ref_rows)
        assert M.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# solve_gram / left_inverse_apply
# ---------------------------------------------------------------------------

def test_solve_gram_bergman_exact():
    B = bergman_shift()
    x = solve_gram(B, unit(0))
    assert x == 2 * unit(0)
    # residual re-measured with the exact band Gram is literally zero
    assert (B.gram().apply(x) - unit(0)).norm() == 0.0


def test_solve_gram_isometry_identity():
    S = unilateral_shift()
    v = FinVec({(0,): 1 + 2j, (4,): -3.0})
    assert solve_gram(S, v) == v


def test_solve_gram_quasinormal_block():
    Q = quasinormal_block(np.diag([2.0, 3.0]))
    x = solve_gram(Q, unit((0, 0)))
    assert x == 0.25 * unit((0, 0))
    # dense oracle: gram is block diagonal with L^2 blocks
    L2 = np.diag([4.0, 9.0])
    assert np.allclose(np.linalg.inv(L2)[0, 0], 0.25)


def test_solve_gram_zero_rhs():
    B = bergman_shift()
    assert solve_gram(B, zero(1)).is_zero


def test_solve_gram_windowed_path_certificate():
    # S + I/2 has a genuinely tridiagonal Gram: exercises the guarded solve
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    p = GramSolveParams(tol=1e-12)
    for v in (unit(0), unit(3), FinVec({(1,): 1j, (5,): 2.0})):
        x = solve_gram(T, v, p)
        r = (T.gram().apply(x) - v).norm()
        assert r <= p.tol * v.norm()


def test_solve_gram_guard_doubling():
    # the first window, 16 band reaches around e0, does not certify
    # tol=1e-12: guard doubling 16, 32, 64 solves windows of 17, 33 and 65
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    p = GramSolveParams(tol=1e-12)
    x = solve_gram(T, unit(0), p)
    assert (T.gram().apply(x) - unit(0)).norm() <= p.tol
    assert len(x) == 65
    assert [len(w) for w in T.gram()._factors] == [17, 33, 65]


def test_solve_gram_window_cap_raises(monkeypatch):
    # the byte cap is the only bound: at 40x40 complex entries the guard
    # doubling 16, 32 solves windows of 17 and 33 ordinals, then stops
    monkeypatch.setattr(bandop, "SECTION_BYTE_CAP", 16 * 40 * 40)
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    with pytest.raises(NoConvergence) as exc:
        solve_gram(T, unit(0), GramSolveParams(tol=1e-14))
    assert exc.value.residual > 0 and math.isfinite(exc.value.residual)
    assert exc.value.window == 65
    assert "a 65x65 section needs 67600 bytes" in str(exc.value)


def test_solve_gram_raises_when_the_window_cannot_grow():
    # the window keeps the same two points of a finite axis, and the
    # near-singular Gram never certifies tol=1e-15 there: on a lattice of
    # finite axes the Gram is fibred and its window closed; on a union with
    # an unbounded part it is not fibred, and the finite part stops it
    for lat, ix in ((Lattice((2,)), (0,)), (union(Lattice(("nat",)), Lattice((2,))), (1, 0))):
        off = lambda c: (0,) * (lat.rank - 1) + (c,)
        T = BandOp(lat, [(off(0), constant(1.0)), (off(1), constant(1.0)),
                         (off(-1), constant(1.0 - 1e-6))])
        assert T.gram().is_fibred() is (lat.rank == 1)
        with pytest.raises(NoConvergence, match="window of 2 ordinals cannot grow") as exc:
            solve_gram(T, unit(ix), GramSolveParams(tol=1e-15))
        assert exc.value.window == 2
        assert exc.value.residual > 0 and math.isfinite(exc.value.residual)


def test_solve_gram_closed_window_fails_at_once(monkeypatch):
    # the Gram of a quasinormal block maps each position's fibre into
    # itself, so the window of e_(0,0) is that fibre and cannot gain by
    # growing: a near-singular block fails on its one 2-ordinal factor
    real, sizes = scipy.linalg.cho_factor, []

    def recording(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return real(M, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        Q = quasinormal_block([[1, 1 - 1e-7], [1 - 1e-7, 1]])
    with pytest.raises(NoConvergence, match="window of 2 ordinals cannot grow") as exc:
        solve_gram(Q, unit((0, 0)), GramSolveParams(tol=1e-15))
    assert sizes == [2]
    assert exc.value.window == 2
    assert exc.value.residual > 0 and math.isfinite(exc.value.residual)


def test_solve_gram_slow_truncation_is_no_round_off_floor():
    # near its pole the Gram inverse of S + 0.97 I decays slowly: doublings
    # of the window cut the residual by less than half at first (0.36,
    # 0.19, 0.068, ...), yet every one lowers it, and the solve certifies
    S = unilateral_shift()
    T = S + 0.97 * identity(S.lattice)
    p = GramSolveParams()
    x = solve_gram(T, unit(10), p)
    assert (T.gram().apply(x) - unit(10)).norm() <= p.tol
    assert len(x) > 1000


@pytest.mark.parametrize("lat, off, fibred", [
    (Lattice(("nat", 3)), (0, 2), True),
    (Lattice(("nat", 3)), (1, 0), False),
    (Lattice(("int", "nat")), (0, -1), False),
    (Lattice((4, 5)), (3, -4), True),
    (union(Lattice(("nat",)), Lattice((3,))), (0, 1), False),  # unbounded on the left
    (union(Lattice((2, "int")), Lattice((3, 4))), (0, 1, 0), True),
])
def test_fibred_means_no_offset_moves_an_unbounded_axis(lat, off, fibred):
    T = BandOp(lat, [((0,) * lat.rank, constant(1.0)), (off, constant(0.5))])
    assert T.is_fibred() is fibred
    assert identity(lat).is_fibred()


def test_solve_gram_fibred_window_is_the_fibres_of_the_support():
    # random blocks (d = 2, 3), their direct sums and a lattice of finite
    # axes: the first window is the support's fibres (its neighbourhood at
    # guard 0), the section there is exact, and the residual certifies on it
    rng = np.random.default_rng(20170427)
    blocks = [_random_block(rng, d) for d in (2, 3, 2, 3)]
    ops = [(f"block_{k}", Q) for k, Q in enumerate(blocks)]
    ops += [("block_sum_22", direct_sum(blocks[0], blocks[2])),
            ("block_sum_23", direct_sum(blocks[0], blocks[1])),
            ("finite", BandOp(Lattice((3, 4)), [((0, 0), constant(2.0)),
                                               ((1, 0), constant(0.5)),
                                               ((0, -1), constant(0.3j))]))]
    p = GramSolveParams()
    for name, T in ops:
        G = T.gram()
        assert G.is_fibred() and not G.is_diagonal(), name
        for _ in range(3):
            v = rand_vec(T.lattice, rng, size=3, extent=5)
            G._factors = None
            x = solve_gram(T, v, p)
            assert list(G._factors) == [tuple(T.lattice.neighbourhood(v.support(), 0))], name
            assert (G.apply(x) - v).norm() <= p.tol * v.norm(), name


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_gram_solve_params_refuse_a_tol_that_is_not_finite_and_positive(tol):
    # residual <= inf certifies any window, and residual <= nan none
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        GramSolveParams(tol=tol)


def test_gram_factor_cache_factors_each_window_once(monkeypatch):
    # unit vectors of one position share a window: each window's section
    # is built and factored once, and the solves agree bit for bit with
    # solves on a freshly built operator, whose cache is cold.  Windows are
    # counted by key, since a uniform block's fibre sections are byte-equal
    real, windows = bandop.section, []

    def recording(T, cols, rows=None):
        windows.append(tuple(cols))
        return real(T, cols, rows)

    monkeypatch.setattr(bandop, "section", recording)
    Q = quasinormal_block(BLOCK_2)
    report = isometry_residual(Q)
    assert report.probes_used == 34
    assert 0 < len(windows) == len(set(windows)) < report.probes_used
    assert len(Q.gram()._factors) <= bandop.FACTOR_CACHE
    for ix in Q.lattice.window(4):
        warm = left_inverse_apply(Q, unit(ix))
        cold = left_inverse_apply(quasinormal_block(BLOCK_2), unit(ix))
        assert warm.items() == cold.items()
    # the diagonal path never creates a cache
    B = bergman_shift()
    solve_gram(B, unit(0) + unit(3))
    assert B.gram()._factors is None


def test_gram_factor_cache_keeps_the_most_recent_windows():
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    G = T.gram()
    p = GramSolveParams(tol=1e-4)  # certified on the first window, of guard 16
    windows = [G.lattice.neighbourhood([(40 * k,)], 16) for k in range(6)]
    for k in range(5):
        solve_gram(T, unit(40 * k), p)
    assert list(G._factors) == [tuple(w) for w in windows[1:5]]
    solve_gram(T, unit(40), p)  # a hit moves its window to the most recent end
    solve_gram(T, unit(200), p)
    assert list(G._factors) == [tuple(w) for w in (windows[3], windows[4], windows[1],
                                                   windows[5])]


def test_gram_factor_cache_skips_large_factors(monkeypatch):
    # factors of more than cap // 64 bytes (40x40 complex entries here) are
    # used but not kept; guard doubling 16, 32, 64 solves windows of 17, 33
    # and 65 ordinals
    monkeypatch.setattr(bandop, "SECTION_BYTE_CAP", 64 * 16 * 40 * 40)
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    p = GramSolveParams(tol=1e-12)
    x = solve_gram(T, unit(0), p)
    assert len(x) == 65
    assert [len(w) for w in T.gram()._factors] == [17, 33]
    assert solve_gram(T, unit(0), p) == x  # re-factors the 65-ordinal window


def test_gram_factor_failure_repeats_alike():
    # T* = S* + S*^2 annihilates e0 - e1 + e2 - ..., so T T* is singular: its
    # (non-diagonal) windowed section around e0 is not positive definite
    S = unilateral_shift()
    T = (S + S ** 2).adjoint()
    assert not T.gram().is_diagonal()
    errors = []
    for _ in range(2):
        with pytest.raises(NoConvergence, match="not positive definite") as exc:
            solve_gram(T, unit(0))
        errors.append((str(exc.value), exc.value.window, exc.value.residual))
    assert errors[0] == errors[1]
    assert errors[0][1] == 33
    assert T.gram()._factors == {}


def test_solve_gram_refuses_entries_outside_the_lattice():
    B = bergman_shift()
    outside = FinVec({(-1,): 1})
    with pytest.raises(LatticeMismatch):
        solve_gram(B, outside)
    # the refused entry left no step behind in the Gram's memo
    with pytest.raises(LatticeMismatch):
        B.gram().apply(outside)
    # warm steps at the in-lattice entries do not let the outside one through
    warm = unit(0) + unit(3)
    assert solve_gram(B, warm) == solve_gram(B, warm)
    for mixed in (warm + outside, outside + warm):
        with pytest.raises(LatticeMismatch):
            solve_gram(B, mixed)
        with pytest.raises(LatticeMismatch):
            B.gram().apply(mixed)
    # the windowed path and a band-less (zero) operator refuse it as well
    S = unilateral_shift()
    Z = 0 * identity(S.lattice)
    for T in (S + 0.5 * identity(S.lattice), Z):
        with pytest.raises(LatticeMismatch):
            solve_gram(T, outside)
    with pytest.raises(LatticeMismatch):
        Z.apply(outside)
    with pytest.raises(NoConvergence, match="identically zero"):
        solve_gram(Z, unit(0))
    # union lattices: tags outside {0, 1}, on a windowed Gram (a sum of full
    # blocks), a diagonal one (a sum of shifts) and a diagonal one whose zero
    # entry is refused only after every entry is checked against the lattice
    block_sum = direct_sum(quasinormal_block(np.array([[2.5, 0.3], [0.3, 2.8]])),
                           quasinormal_block(np.array([[3.0, 0.2j], [-0.2j, 2.3]])))
    mixed_sum = direct_sum(weighted_shift(constant(1.0), 1, "int"), S)
    with pytest.warns(UserWarning, match="not bounded below"):
        zero_first = direct_sum(weighted_shift(table([0.0], 1.0)), S)
    for T, inside in ((block_sum, (0, 0, 1)), (mixed_sum, (1, 3)), (zero_first, (0, 0))):
        coords = inside[1:]
        for tag in (2, -1):
            off = FinVec({(tag,) + coords: 1.0})
            for v in (off, off + unit(inside)):
                with pytest.raises(LatticeMismatch):
                    solve_gram(T, v)


def test_section_refuses_columns_outside_the_lattice():
    with pytest.raises(LatticeMismatch):
        section(bergman_shift(), [(0,), (-1,)])


def test_left_inverse_bergman():
    B = bergman_shift()
    out = left_inverse_apply(B, unit(1))
    assert out.support() == ((0,),)
    assert abs(out[(0,)] - math.sqrt(2)) < 1e-14
    # dense pseudoinverse oracle
    n = 8
    M = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        M[k + 1, k] = math.sqrt((k + 1) / (k + 2))
    e1 = np.zeros(n + 1, dtype=complex)
    e1[1] = 1.0
    x = np.linalg.pinv(M) @ e1
    assert abs(out[(0,)] - x[0]) <= 1e-12


def test_left_inverse_kernel_vector():
    B = bergman_shift()
    assert left_inverse_apply(B, unit(0)).is_zero


def test_left_inverse_isometry_is_adjoint():
    S = unilateral_shift()
    assert left_inverse_apply(S, unit(3)) == unit(2)


def test_left_inverse_reproduces_on_range():
    p = GramSolveParams()
    rng = np.random.default_rng(5)
    for T in (bergman_shift(), dirichlet_shift()):
        for _ in range(3):
            u = rand_vec(T.lattice, rng)
            v = T.apply(u)
            back = left_inverse_apply(T, v, p)
            assert (back - u).norm() <= p.tol * max(1.0, u.norm()) * 10


# ---------------------------------------------------------------------------
# lower_bound_estimate
# ---------------------------------------------------------------------------

def test_lower_bound_isometry():
    assert abs(lower_bound_estimate(unilateral_shift(), 16) - 1.0) < 1e-12


def test_lower_bound_bergman():
    got = lower_bound_estimate(bergman_shift(), 16)
    assert abs(got - math.sqrt(1 / 2)) < 1e-12
    # oracle: singular values of the exact rectangular section
    n = 17
    M = np.zeros((n + 1, n))
    for k in range(n):
        M[k + 1, k] = math.sqrt((k + 1) / (k + 2))
    assert abs(got - np.linalg.svd(M, compute_uv=False)[-1]) < 1e-12


def test_lower_bound_zero_operator():
    lat = Lattice.nat(1)
    Z = 0 * identity(lat)
    assert lower_bound_estimate(Z, 4) == 0.0


def test_lower_bound_monotone_in_window():
    for T in (bergman_shift(), dirichlet_shift()):
        a = lower_bound_estimate(T, 8)
        b = lower_bound_estimate(T, 16)
        assert b <= a + 1e-12


def test_lower_bound_zero_weight_shift():
    # the vanishing weights keep their image rows: a 6x6 section on the
    # window 0..5 with the zero columns 1, 3, 4, 5
    T = _zero_weight_shift()
    M, rows = section(T, T.lattice.window(5))
    assert rows == [(k,) for k in range(1, 7)]
    assert [j for j in range(6) if not M[:, j].any()] == [1, 3, 4, 5]
    assert lower_bound_estimate(T, 5) == 0.0


def test_lower_bound_invertible_bilateral():
    T = weighted_shift(constant(2.0), 1, "int")
    assert abs(lower_bound_estimate(T, 8) - 2.0) < 1e-12


_DIAGONAL_GRAM_ZOO = [(name, T) for name, T in ZOO if T.gram().is_diagonal()]


@pytest.mark.parametrize("window", [4, 8, 16])
@pytest.mark.parametrize("name,T", _DIAGONAL_GRAM_ZOO, ids=[n for n, _ in _DIAGONAL_GRAM_ZOO])
def test_lower_bound_from_gram_diagonal_matches_svd(name, T, window):
    M, _ = section(T, T.lattice.window(window))
    sv = np.linalg.svd(M, compute_uv=False)[-1]
    assert abs(lower_bound_estimate(T, window) - sv) <= 1e-12 * sv


def test_lower_bound_from_gram_diagonal_needs_no_section_or_svd(monkeypatch):
    expected = {name: lower_bound_estimate(T, 16) for name, T in _DIAGONAL_GRAM_ZOO}

    def refuse(*args, **kwargs):
        raise AssertionError("the diagonal path sections or factors")
    monkeypatch.setattr(bandop, "section", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    # fresh operators, so no memo of the calls above helps
    for name, T in make_zoo_fixtures():
        if name in expected:
            assert lower_bound_estimate(T, 16) == expected[name], name


@pytest.mark.parametrize("x", [1e200, 1e-200, 3e-162])
def test_lower_bound_gram_diagonal_out_of_range_falls_back_to_svd(x):
    # the weight x at index 0 has a finite norm, its square is inf, 0 or
    # subnormal: the SVD of the section decides, exactly as before
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a weight 1e-200 warns on the probe
        T = weighted_shift(table([x], 1.0), 1, "nat")
    assert lower_bound_estimate(T, 16) == min(x, 1.0)


def test_lower_bound_overflowing_weight_is_refused():
    A = weighted_shift(constant(1e200), 1, "nat")
    assert lower_bound_estimate(A, 16) == 1e200
    with pytest.raises(NoConvergence, match="a weight overflows double precision"):
        lower_bound_estimate(A @ A, 16)  # weight and Gram diagonal 1e400


def _assert_public_form(out: FinVec) -> None:
    """``out`` is exactly what the validating public constructor builds."""
    assert out == FinVec(dict(out._entries), rank=out.rank)
    for ix, a in out._entries.items():
        assert type(ix) is tuple and len(ix) == out.rank
        assert all(type(c) is int for c in ix)
        assert type(a) is complex and a != 0


def test_trusted_outputs_equal_public_constructor():
    # internal vectors skip validation, so each engine output must already be
    # in the form the public constructor would give it
    rng = np.random.default_rng(20170428)
    for name, T in ZOO:
        u = rand_vec(T.lattice, rng, size=5, extent=6)
        v = rand_vec(T.lattice, rng, size=5, extent=6)
        for out in (T.apply(u), T.adjoint().apply(u), u + v, u - v, u - u, 2.5j * u,
                    u * np.float64(0.5), 0 * u, -u, u / 3):
            _assert_public_form(out)
            # _wrap owns the dict it is given, so no output may share an operand's
            assert out._entries is not u._entries and out._entries is not v._entries
        _assert_public_form(solve_gram(T, u))  # diagonal Gram: entrywise path
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    assert not T.gram().is_diagonal()
    _assert_public_form(solve_gram(T, unit(0) + 1j * unit(3)))  # windowed path


# ---------------------------------------------------------------------------
# the diagonal Gram solve measures its residual in its own loop
# ---------------------------------------------------------------------------

def _extreme_vec(lattice, rng, size: int, extent: int = 8) -> FinVec:
    """``rand_vec`` with each amplitude scaled by a seeded pick that
    includes 1e300, 1e-300 and the smallest subnormal."""
    scales = (1.0, -0.5j, 1e300, 1e-300, 5e-324)
    v = rand_vec(lattice, rng, size=size, extent=extent)
    return FinVec({ix: a * scales[int(rng.integers(len(scales)))] for ix, a in v.items()},
                  rank=lattice.rank)


@pytest.mark.parametrize("name,T", _DIAGONAL_GRAM_ZOO, ids=[n for n, _ in _DIAGONAL_GRAM_ZOO])
def test_diagonal_solve_residual_is_the_band_gram_residual(name, T):
    rng = np.random.default_rng(20170420)
    for n in (1, 2, 3):
        G = (T ** n).gram()
        assert G.is_diagonal()
        for size in (1, 3, 6):
            v = _extreme_vec(T.lattice, rng, size)
            x, r = bandop._diagonal_solve(G, v)
            assert r.hex() == bandop._gram_residual(G, x, v).hex(), (n, v)


_EXTREME_DIAGONAL = (2.0, 0.3, 1e308, 1e-308, 5e-324, 0.0, -1.0, 1 + 1j,
                     complex(3.0, 1e-15), complex(3.0, -1e-13), math.inf,
                     complex(math.inf, math.nan), math.nan)


def test_diagonal_solve_residual_on_extreme_table_diagonals():
    # G need not be a Gram here: huge, subnormal, zero and complex values
    # reach the entrywise step, which either refuses by name or certifies
    w = table(_EXTREME_DIAGONAL, 1.0)
    G = BandOp(Lattice.nat(), [((0,), w)])
    rng = np.random.default_rng(20170421)
    solved = refused = 0
    for _ in range(300):
        v = _extreme_vec(G.lattice, rng, int(rng.integers(1, 5)), len(_EXTREME_DIAGONAL) - 1)
        gs = {ix: w.evaluate(ix, G.lattice) for ix, _ in v.items()}  # in solve order
        bad = [ix for ix, g in gs.items() if not (g.real > 0.0) or abs(g.imag) > 1e-14 * g.real]
        if bad:
            refused += 1
            with pytest.raises(NoConvergence, match=rf"entry .* at \({bad[0][0]},\) is not"):
                bandop._diagonal_solve(G, v)
            continue
        solved += 1
        x, r = bandop._diagonal_solve(G, v)
        assert r.hex() == bandop._gram_residual(G, x, v).hex(), v
    assert solved > 30 and refused > 30


_GRID_XS = (1e200, 1e154, 3e-162, 1e-170, 0.0, 1 + 1j)


def _grid_outcomes(xs=_GRID_XS) -> list:
    """What ``solve_gram`` does on a grid of fresh diagonal-Gram operators
    with zero, subnormal, huge and complex diagonal entries ``xs``: each
    solution bit for bit, or "refused" for a :class:`NoConvergence`."""
    lat = Lattice((12,))  # a finite axis
    vectors = (unit(1), FinVec({(0,): 1.0, (1,): 0.5j, (2,): -1e-300}),
               FinVec({(1,): 1e300}), FinVec({(1,): 1e-300, (5,): 1.0}), unit(11))
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small weights warn on the probe
        for x in xs:
            for v in vectors:
                for T in (weighted_shift(table([2.0, x, 0.5], 1.0), 1, lat),
                          BandOp(lat, [((0,), table([x, 2.0, x], 1.0))])):
                    try:
                        sol = solve_gram(T, v)
                    except NoConvergence:
                        outcomes.append("refused")
                        continue
                    outcomes.append(tuple((ix, a.real.hex(), a.imag.hex())
                                          for ix, a in sol.items()))
    return outcomes


@pytest.mark.parametrize("x", _GRID_XS)
def test_solve_gram_falls_through_to_the_windowed_path_as_before(monkeypatch, x):
    # a diagonal Gram no longer falls through to the windowed path; what
    # holds as before is that every outcome on the grid, solution bits and
    # refusals alike, is the same when the residual of the entrywise solve
    # is measured by applying G and subtracting v
    inline = _grid_outcomes((x,))

    def measured_by_apply(G, v, solve=bandop._diagonal_solve):
        y, _ = solve(G, v)
        return y, bandop._gram_residual(G, y, v)

    monkeypatch.setattr(bandop, "_diagonal_solve", measured_by_apply)
    assert _grid_outcomes((x,)) == inline


def test_diagonal_gram_solves_never_build_a_section(monkeypatch):
    # a diagonal Gram is solved entrywise or refused at once; the digest
    # pins every solution bit for bit and which cases are refused, and a
    # windowed solve certifies no case of this grid either
    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal Gram reached a section or a factorization")
    monkeypatch.setattr(bandop, "section", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    outcomes = _grid_outcomes()
    assert len(outcomes) == 60 and outcomes.count("refused") == 32
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
        "7a086e55409c0979662e4588b5ee97da707e684de92ab79ce1c86d069032e6b2")
    # a subnormal Gram entry: a windowed solve would fail only at an
    # 8193x8193 section; the entrywise residual is nan at once
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        T = weighted_shift(table([3e-162], 1.0), 1, "nat")
    with pytest.raises(NoConvergence, match="residual nan") as exc:
        solve_gram(T, unit(0))
    assert math.isnan(exc.value.residual)
    for _, T in _DIAGONAL_GRAM_ZOO:
        solve_gram(T, rand_vec(T.lattice, np.random.default_rng(20170422), size=5))
