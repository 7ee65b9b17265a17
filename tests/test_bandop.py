import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings, strategies as st

from woldkit import bandop
from woldkit.bandop import (
    GRAM_TOL,
    BandOp,
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
from woldkit.classd import classd_residual, isometry_residual
from woldkit.oracle import dense_section
from woldkit.seqspace import FinVec, RankMismatch, unit, zero
from woldkit.wold import decompose, shift_limit_project
from woldkit.wold2d import fourfold
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
    # (every, none): k + off in the lattice for every / for no selected k of
    # the band (k and k + band in the lattice)
    nat = Lattice.nat(1)
    assert nat.shift_cover({}, (2,), (0,)) == (True, False)
    assert nat.shift_cover({}, (-1,), (0,)) == (False, False)
    assert Lattice.integers(1).shift_cover({}, (-5,), (0,)) == (True, False)
    assert Lattice(("nat", 3)).shift_cover({}, (1, 0), (0, 0)) == (True, False)
    assert Lattice(("nat", 3)).shift_cover({}, (1, 1), (0, 0)) == (False, False)
    assert Lattice(("nat", 3)).shift_cover({1: 2}, (0, 1), (0, 0)) == (False, True)
    assert nat.shift_cover({0: -1}, (0,), (0,)) == (True, True)  # no such k: vacuous
    # the band decides: k >= 2 in the band at -2, and no k in a band at (0, 3)
    assert nat.shift_cover({}, (-1,), (-2,)) == (True, False)
    assert nat.shift_cover({}, (-3,), (-2,)) == (False, False)
    assert nat.shift_cover({0: 1}, (0,), (-2,)) == (True, True)
    assert Lattice(("nat", 3)).shift_cover({}, (0, 1), (0, 3)) == (True, True)
    assert Lattice(("nat", 3)).shift_cover({}, (0, -1), (0, -2)) == (True, False)
    assert Lattice(("nat", 3)).shift_cover({}, (0, 1), (0, -2)) == (False, True)
    # a band moving the tag of a union has no domain within one part
    lat = union(Lattice.nat(1), Lattice((2,)))
    assert lat.shift_cover({}, (0, -1), (1, -2)) == lat.shift_cover({}, (0, -1), (0, 0))
    assert lat.shift_cover({0: 0}, (0, -1), (0, -2)) == (True, False)


def _reference_contains(lat, ix):
    if len(ix) != lat.rank:
        return False
    if isinstance(lat, UnionLattice):
        return ix[0] in (0, 1) and _reference_contains(lat.parts[ix[0]], ix[1:])
    return all(a == "int" or 0 <= c and (a == "nat" or c < a) for c, a in zip(ix, lat.axes))


@seed(20170429)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lattice_contains_matches_the_axis_ranges(data):
    lat = data.draw(lattices())
    for _ in range(10):
        rank = data.draw(st.sampled_from([lat.rank, lat.rank, lat.rank - 1, lat.rank + 1]))
        ix = tuple(data.draw(st.lists(st.integers(-3, 5), min_size=rank, max_size=rank)))
        assert lat.contains(ix) == _reference_contains(lat, ix)


def _fresh_window(lat, extent):
    """``lat.window(extent)`` built without the memo."""
    if isinstance(lat, UnionLattice):
        return bandop._graded((tag,) + ix for tag, part in enumerate(lat.parts)
                              for ix in _fresh_window(part, extent))
    box = lat._box((0,) * lat.rank, extent)
    return bandop._graded(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))


_WINDOW_LATTICES = [Lattice.nat(1), Lattice.integers(1), Lattice((5,)), Lattice(("nat", "int")),
                    Lattice(("int", 3)), union(Lattice.integers(1), Lattice.nat(1)),
                    union(union(Lattice.nat(1), Lattice((2,))), Lattice.integers(2))]


@pytest.mark.parametrize("lat", _WINDOW_LATTICES, ids=repr)
def test_window_memo_equals_a_fresh_graded_window(lat, monkeypatch):
    monkeypatch.setattr(bandop, "_WINDOWS", {})
    for extent in (0, 1, 4, 16, 4, 1):  # each built once, then reused
        fresh = _fresh_window(lat, extent)
        assert lat.window(extent) == fresh
        assert lat.window(extent) == fresh
    assert (lat, 16) in bandop._WINDOWS


def test_window_memo_cannot_be_mutated_by_a_caller(monkeypatch):
    monkeypatch.setattr(bandop, "_WINDOWS", {})
    lat = Lattice(("nat", "int"))
    w = lat.window(2)
    w[0] = (7, 7)
    w.append((9, 9))
    del w[1]
    w.sort()
    assert lat.window(2) == _fresh_window(lat, 2)
    assert lat.window(2) is not lat.window(2)


def test_window_memo_keeps_the_most_recently_used_small_windows(monkeypatch):
    monkeypatch.setattr(bandop, "WINDOW_CACHE", 2)
    monkeypatch.setattr(bandop, "WINDOW_POINTS", 10)
    monkeypatch.setattr(bandop, "_WINDOWS", {})
    real, built = bandop._graded, []

    def recording(pts):
        out = real(pts)
        built.append(len(out))
        return out

    monkeypatch.setattr(bandop, "_graded", recording)
    nat = Lattice.nat(1)
    for extent in (1, 2, 3):
        nat.window(extent)
        assert len(bandop._WINDOWS) <= 2
    assert list(bandop._WINDOWS) == [(nat, 2), (nat, 3)]
    nat.window(2)  # a hit moves to the most recent end and builds nothing
    assert list(bandop._WINDOWS) == [(nat, 3), (nat, 2)]
    nat.window(4)
    assert list(bandop._WINDOWS) == [(nat, 2), (nat, 4)]
    assert built == [2, 3, 4, 5]
    # a window over WINDOW_POINTS is built on every call and never kept
    assert nat.window(10) == nat.window(10) == [(k,) for k in range(11)]
    assert built[4:] == [11, 11] and list(bandop._WINDOWS) == [(nat, 2), (nat, 4)]
    nat.window(9)  # one of WINDOW_POINTS points is kept
    assert built[6:] == [10] and list(bandop._WINDOWS) == [(nat, 4), (nat, 9)]


def test_import_builds_no_window_and_no_plan():
    # the memo and the plan cache fill on first use, so set-up pays nothing
    src = Path(bandop.__file__).resolve().parents[1]
    code = ("import woldkit, woldkit.cli, woldkit.oracle; from woldkit import bandop; "
            "print(len(bandop._WINDOWS), len(bandop._PLANS))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "0"]


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


@pytest.mark.parametrize("lat, off, stays", [
    (Lattice.nat(1), (2,), True),
    (Lattice.nat(1), (-1,), False),
    (Lattice.integers(1), (-3,), True),
    (Lattice(("nat", 3)), (1, 0), True),
    (Lattice(("nat", 3)), (0, 1), False),
    (union(Lattice.integers(1), Lattice.nat(1)), (0, 1), True),
    (union(Lattice.integers(1), Lattice.nat(1)), (0, -1), False),
    (union(Lattice.nat(1), Lattice.nat(1)), (1, 0), False),  # moves the tag
])
def test_band_steps_decide_per_band_whether_images_stay(lat, off, stays):
    assert bandop._BandSteps(lat, off, Weight.const(1.0)).stays is stays


@seed(20170430)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_band_steps_equal_the_per_index_rule(data):
    # offsets that stay in the lattice, leave it, or move a tag
    lat = data.draw(lattices())
    off = _offset(data.draw, lat, 3)
    w = Weight.const(0.5 - 2j) + Weight.select(0, 1)
    steps = bandop._BandSteps(lat, off, w)
    for ix in lat.window(3):
        tgt = tuple(c + o for c, o in zip(ix, off))
        assert steps[ix] == ((tgt, w.evaluate(ix, lat)) if lat.contains(tgt) else None)


def _reference_apply(T, u):
    """``T u`` entry by entry: band by band, each over the entries of ``u``
    in sorted order, validating every index."""
    lat, acc = T.lattice, {}
    for ix in () if T.bands else u.support():
        if not lat.contains(ix):
            raise LatticeMismatch(f"vector entry at {ix} lies outside {lat!r}")
    for off, w in T.bands:
        for ix, amp in u.items():
            if not lat.contains(ix):
                raise LatticeMismatch(f"vector entry at {ix} lies outside {lat!r}")
            tgt = bandop._tadd(ix, off)
            if lat.contains(tgt):
                val = w.evaluate(ix, lat)
                if val != 0:
                    acc[tgt] = acc.get(tgt, 0j) + val * amp
    return FinVec(acc, rank=u.rank)


def _outcome(f):
    try:
        v = f()
    except ValueError as e:  # a LatticeMismatch, or a weight undefined at an index
        return type(e), str(e)
    return [(ix, a.real.hex(), a.imag.hex()) for ix, a in v.items()]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_apply_is_bit_identical_for_any_insertion_order(data):
    lat = data.draw(lattices())
    T, _ = data.draw(_operand_pair(lat))
    pool = lat.window(2)
    if data.draw(st.booleans()):  # indices around it, some outside the lattice
        pool = sorted({tuple(c + o for c, o in zip(ix, _offset(data.draw, lat, 1)))
                       for ix in pool})
    entries = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(_COEFFS)),
                                 min_size=1, max_size=8, unique_by=lambda e: e[0]))
    expect = _outcome(lambda: _reference_apply(T, FinVec(entries, rank=lat.rank)))
    for order in (entries, entries[::-1], data.draw(st.permutations(entries))):
        u = FinVec(order, rank=lat.rank)
        assert _outcome(lambda: BandOp(lat, T.bands).apply(u)) == expect  # cold memo
        assert _outcome(lambda: T.apply(u)) == expect  # warm memo


def test_apply_names_the_smallest_outside_index():
    S = unilateral_shift()
    for order in itertools.permutations([(3,), (-1,), (-2,), (0,)]):
        u = FinVec({ix: 1.0 for ix in order})
        with pytest.raises(LatticeMismatch, match=r"entry at \(-2,\) lies outside"):
            S.apply(u)
        with pytest.raises(LatticeMismatch, match=r"entry at \(-2,\) lies outside"):
            BandOp(S.lattice, S.bands).apply(u)


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
    # guard 0: each box is a whole fibre, enumerated and sorted
    (Lattice((3, "nat")), [(0, 4), (2, 1), (1, 4)], 0),      # a finite axis first
    (Lattice((2, "int", 3)), [(1, 2, 0), (0, -3, 2), (1, 2, 1)], 0),
    (Lattice(("nat", 3)), [(5, 1), (2, 0), (5, 2), (0, 1), (2, 2), (5, 1)], 0),
    (Lattice(("nat", 2)), [(-1, 0), (1, 1)], 0),             # an empty fibre
    (Lattice(("nat", 2)), [(-1, 1)], 0),
    (union(Lattice(("nat", 2)), Lattice((3, "int"))),
     [(1, 2, -1), (0, 4, 1), (1, 0, 5), (0, 4, 0), (0, 1, 1)], 0),
])
def test_neighbourhood_edge_cases(lat, support, guard):
    assert lat.neighbourhood(support, guard) == _ball_reference(lat, support, guard)


def _in_band_domain(lat, k, band):
    """Whether the mask rule counts ``k`` among the indices of the band at
    offset ``band``: those with ``k + band`` in the lattice, except that a
    band moving the tag of a union has no domain within the part, so every
    index of the part counts."""
    if isinstance(lat, UnionLattice):
        return bool(band[0]) or _in_band_domain(lat.parts[k[0]], k[1:], band[1:])
    return lat.contains(tuple(c + b for c, b in zip(k, band)))


def _assert_shift_decided(lat, selects, off, band):
    # the window reaches every case: offsets, bands and selected values stay
    # well inside it, so an undecided mask has a witness either way in it.
    # An offset moving a tag (never built by an operator) may stay undecided.
    hits = [lat.contains(tuple(c + o for c, o in zip(k, off)))
            for k in lat.window(10)
            if all(k[ax] == v for ax, v in selects) and _in_band_domain(lat, k, band)]
    got = lat.shift_cover(dict(selects), off, band)
    moves_tag = any(off[ax] for ax in _tag_axes(lat))
    # with no such k, `none` holds vacuously and `every` may hold as well
    decided = got == (all(hits), not any(hits)) if hits else got[1]
    assert decided or (got == (False, False) and moves_tag), (lat, selects, off, band, got)


@seed(20170413)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decide_shift_matches_enumeration(data):
    lat = data.draw(lattices())
    axes = data.draw(st.sets(st.integers(0, lat.rank - 1)))
    selects = tuple((ax, data.draw(st.integers(-2, 5))) for ax in sorted(axes))
    _assert_shift_decided(lat, selects, _offset(data.draw, lat, 5), _offset(data.draw, lat, 5))


# axis 1 is a 'nat' axis of the left part and the tag of the right one: a
# band moving it must not clip the right part's coordinates to a domain
# within one part (a rule that did gave ``compose`` a wrong ``apply`` here)
_INNER_TAG_UNION = union(Lattice(("nat", "nat")), union(Lattice(("nat",)), Lattice((4,))))


def test_decide_shift_on_a_union_whose_band_moves_an_inner_tag():
    lat = _INNER_TAG_UNION
    shifts = list(itertools.product((-1, 0, 1), (-1, 0, 1), range(-4, 5)))
    for selects in ((), ((1, 0),), ((1, 1),), ((2, 3),)):
        for off in shifts[::4]:
            for band in shifts:
                _assert_shift_decided(lat, selects, off, band)


def test_compose_exact_where_a_band_moves_an_inner_tag():
    # A @ B has a band at (0, -1, 2): from (1, 1, c) in the right part's
    # finite axis it reaches (1, 0, c + 2) for every c, while the mask of B's
    # step, c + 2 <= 3, holds only for c <= 1 and must be kept
    lat, rng = _INNER_TAG_UNION, np.random.default_rng(4)
    A = BandOp(lat, [((0, -1, 0), Weight.const(1.0)), ((0, 1, -2), Weight.select(1, 0))])
    B = BandOp(lat, [((0, 0, 2), Weight.const(1.0)), ((0, 1, 0), Weight.select(2, 3))])
    for ops in ((A, B), (B, A), (A, B.adjoint()), (A.adjoint(), B, A), (B, B, B)):
        _assert_compose_exact(ops, lat, rng)


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
    # T T moves the finite axis twice: its bands at (0, +-2) have no index,
    # and the masks of its band at (0, 0) depend on k; composing with a
    # selector projection (a band whose own mask always holds) decides them
    lat = Lattice(("nat", 2))
    T = BandOp(lat, [((0, 1), Weight.const(1.0)), ((0, -1), Weight.const(1.0))])
    P = BandOp(lat, [((0, 0), Weight.select(1, 0))])
    TT = T @ T
    assert TT.offsets == ((0, 0),)
    assert sorted(t.masks for t in TT.bands[0][1].terms) == [((0, -1),), ((0, 1),)]
    TTP = TT @ P
    assert not any(t.masks for _, w in TTP.bands for t in w.terms)
    assert len(dict(TTP.bands)[(0, 0)].terms) == 1


@pytest.mark.parametrize("L", [BLOCK_2, BLOCK_3], ids=["real_2x2", "complex_3x3"])
def test_gram_of_block_powers_keeps_d_squared_terms(L):
    Q = quasinormal_block(L)
    d = len(L)
    assert [_n_terms((Q ** n).gram()) for n in range(1, 9)] == [d * d] * 8


@pytest.mark.parametrize("T", [T for _, T in ZOO], ids=[name for name, _ in ZOO])
def test_adjoint_powers_normalise_as_adjoints_of_powers(T):
    # a band is only evaluated where its images stay in the lattice, so no
    # mask that this domain decides is kept: (T*)^n and (T^n)* are one
    # normal form, and their difference has no band
    for n in range(1, 9):
        A, B = T.adjoint() ** n, (T ** n).adjoint()
        assert (A - B).bands == ()
        assert A == B


@pytest.mark.parametrize("L", [BLOCK_2, BLOCK_3], ids=["real_2x2", "complex_3x3"])
def test_adjoint_powers_of_blocks_keep_d_squared_terms(L):
    Q, d = quasinormal_block(L), len(L)
    for n in range(1, 9):
        A, B = Q.adjoint() ** n, (Q ** n).adjoint()
        assert _n_terms(A) == d * d
        # the matrix products associate differently, so the coefficients may
        # differ in rounding: the skeletons are equal
        assert bandop._skeleton(A) == bandop._skeleton(B)


def _vec_bits(v):
    return [(ix, a.real.hex(), a.imag.hex()) for ix, a in v.items()]


@seed(20170416)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_band_domains_keep_the_apply_bits_of_the_selector_rule(data):
    # products of fixtures, their adjoints and selector operators, composed
    # under band domains and under the selector-only rule: the same bits
    _, T = data.draw(st.sampled_from(ZOO))
    lat = T.lattice
    pool = [T, T.adjoint(), data.draw(selector_ops(lat)), data.draw(selector_ops(lat))]
    ops = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
    new = old = ops[0]
    for X in ops[1:]:
        new, old = new @ X, _reference_compose(old, X, band_domains=False)
    assert _n_terms(new) <= _n_terms(old)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    for _ in range(4):
        u = rand_vec(lat, rng, size=5, extent=6)
        assert _vec_bits(new.apply(u)) == _vec_bits(old.apply(u))


def test_gram_of_block_sum_powers_keeps_d_squared_terms_per_summand():
    Q, R = quasinormal_block(BLOCK_2), quasinormal_block([[3.0, -1.0], [-1.0, 2.5]])
    S = direct_sum(Q, R)
    assert [_n_terms((S ** n).gram()) for n in range(1, 9)] == [8] * 8
    S = direct_sum(S, direct_sum(R, Q))
    assert [_n_terms((S ** n).gram()) for n in range(1, 9)] == [16] * 8


# ---------------------------------------------------------------------------
# composition plans
# ---------------------------------------------------------------------------

def _translated(t, off):
    """A term's atoms, selectors and masks evaluated at ``k + off``."""
    return (tuple(a._replace(shift=a.shift + off[a.axis]) for a in t.atoms),
            tuple(bandop.Select(s.axis, s.value - off[s.axis]) for s in t.selects),
            tuple(bandop._tadd(m, off) for m in t.masks))


def _reference_masked(w, off, band, lat):
    """``w`` times the mask ``k + off in lat``, in the band at offset
    ``band``, term by term, as the weight algebra decides it."""
    out = []
    for t in w.terms:
        kept, selects = [], dict(t.selects)
        for m in (t.masks if off in t.masks else t.masks + (off,)):
            every, none = lat.shift_cover(selects, m, band)
            if none:
                break
            if not every:
                kept.append(m)
        else:
            out.append(bandop.Term(t.coeff, t.atoms, t.selects, tuple(sorted(kept))))
    return Weight(out)


def _reference_compose(A, B, band_domains=True):
    """``A @ B`` by the normalizing weight algebra, without plans: each band
    pair's shifted product with its masks resolved, then ``BandOp``'s merge.

    With ``band_domains=False`` the masks are decided against the selectors
    alone, as for a band at offset 0: the rule before band domains, kept as
    a reference for ``apply``."""
    lat, out = A.lattice, []
    for aoff, aw in A.bands:
        for boff, bw in B.bands:
            w = Weight((t.coeff, *_translated(t, boff)) for t in aw.terms) * bw
            off = bandop._tadd(aoff, boff)
            band = off if band_domains else (0,) * lat.rank
            out.append((off, _reference_masked(w, boff, band, lat)))
    return BandOp(lat, out)


def _bits(T):
    return [(off, [(t.coeff.real.hex(), t.coeff.imag.hex(), *t[1:]) for t in w.terms])
            for off, w in T.bands]


# exact cancellations (c and -c), products that underflow (1e-200 squared)
# or overflow, parts of either sign of zero, and sums that round
_COEFFS = [1.0, -1.0, 1j, -1j, 2.0, 0.5 - 1.5j, -0.5 + 1.5j, 1e-200, -1e-200, 1e200,
           complex(-0.0, 1.0), complex(1.0, -0.0), complex(-2.0, -0.0), 0.1 + 0.7j, 1 / 3]
_ATOMS = [("bergman", ()), ("abs2", ("bergman", ())), ("table", ((1 + 2j, -0.5j), 1j)),
          ("table", ((2.0,), 0.5))]


def _reference_merge_abs2(atoms):
    """Conjugate pairs merged by a pairwise scan that restarts after every
    merge: the reference for the one-pass ``bandop._merge_abs2``."""
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
                if a.conj != b.conj or bandop._atom_is_real(a):
                    merged = bandop.Atom("abs2", a.axis, a.shift, False, (a.kind, a.params))
                    atoms = atoms[:i] + atoms[i + 1:j] + atoms[j + 1:] + [merged]
                    changed = True
                    break
            if changed:
                break
    return atoms


@st.composite
def _merge_atoms(draw):
    """Three or more copies of one complex table atom under mixed conj
    flags, among repeated real atoms, merged abs2 atoms and atoms of other
    axes and shifts, in any order."""
    kind, params = _ATOMS[2]  # the complex table atom
    flags = [False, True] + draw(st.lists(st.booleans(), min_size=1, max_size=5))
    atoms = [bandop.Atom(kind, 0, 0, conj, params) for conj in flags]
    for _ in range(draw(st.integers(0, 10))):
        kind, params = draw(st.sampled_from(_ATOMS))
        atoms.append(bandop.Atom(kind, draw(st.integers(0, 1)), draw(st.integers(-1, 1)),
                                 kind == "table" and draw(st.booleans()), params))
    return draw(st.permutations(atoms))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_merge_atoms(), st.randoms(use_true_random=False))
def test_one_pass_merge_equals_the_restarting_scan(atoms, rnd):
    key = lambda a: bandop._atom_sort_key(a, {})
    expect = tuple(sorted(_reference_merge_abs2(list(atoms)), key=key))
    assert tuple(sorted(bandop._merge_abs2(atoms), key=key)) == expect
    skeleton = bandop._normal_skeleton(atoms, (), (), {})
    assert skeleton[0] == expect
    shuffled = list(atoms)
    rnd.shuffle(shuffled)
    assert bandop._normal_skeleton(shuffled, (), (), {}) == skeleton


@st.composite
def _term_skeleton(draw, lat):
    atoms = []
    for _ in range(draw(st.integers(0, 2))):
        kind, params = draw(st.sampled_from(_ATOMS))
        atoms.append(bandop.Atom(kind, draw(st.integers(0, lat.rank - 1)), draw(st.integers(-1, 1)),
                                 kind == "table" and draw(st.booleans()), params))
    selects = [bandop.Select(draw(st.integers(0, lat.rank - 1)), draw(st.integers(-1, 2)))
               for _ in range(draw(st.integers(0, 2)))]
    masks = [_offset(draw, lat, 1) for _ in range(draw(st.integers(0, 1)))]
    return bandop._normal_skeleton(atoms, selects, masks, {})


@st.composite
def _operand_pair(draw, lat):
    """Two operators of one skeleton with independently drawn coefficients."""
    bands = {}
    for _ in range(draw(st.integers(1, 3))):
        skels = {s for s in draw(st.lists(_term_skeleton(lat), min_size=1, max_size=3)) if s}
        if skels:
            bands[_offset(draw, lat, 1)] = sorted(skels, key=lambda sk: bandop._skeleton_order(sk, {}))
    return tuple(
        BandOp(lat, [(off, Weight([bandop.Term(complex(draw(st.sampled_from(_COEFFS))), *s)
                                   for s in skels]))
                     for off, skels in bands.items()])
        for _ in range(2))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_compose_replay_equals_a_fresh_plan_bit_for_bit(data):
    lat = data.draw(lattices())
    A, A2 = data.draw(_operand_pair(lat))
    B, B2 = data.draw(_operand_pair(lat))
    assert bandop._skeleton(A) == bandop._skeleton(A2)
    bandop._PLANS.clear()
    fresh = A2 @ B2  # planned on its own coefficients
    bandop._PLANS.clear()
    A @ B  # planned on other coefficients of the same skeletons
    warm = A2 @ B2
    assert len(bandop._PLANS) == 1
    assert _bits(warm) == _bits(fresh) == _bits(_reference_compose(A2, B2))


def _edge_cases():
    nat, grid = Lattice.nat(), Lattice.integers(2)
    S = unilateral_shift()
    bergman_w = Weight.atom("bergman")
    # bergman * 1 and 1 * (-bergman) meet in one term and cancel exactly
    A = BandOp(nat, [((1,), bergman_w + Weight.const(1.0))])
    B = BandOp(nat, [((0,), Weight.const(1.0) + Weight.const(-1.0) * bergman_w)])
    # P0 (S S*) keeps a mask; P0 S has a selector no index meets, so it is
    # dropped whether or not a masked product of its pair is nonzero
    P0 = BandOp(nat, [((0,), Weight.select(0, 0))])
    A_sel = P0 + 1e-200 * (S @ S.adjoint())
    # the two terms of band (0, 0) merge once their masks resolve, and then
    # join the (0, 0) product of the band pair before: 1 + (1e-16 + 1e-16)
    C = BandOp(grid, [((0, -1), Weight.const(1.0)),
                      ((0, 0), Weight([bandop.Term(1e-16 + 0j, (), (), ((1, 0),)),
                                       bandop.Term(1e-16 + 0j, (), (), ())]))])
    D = BandOp(grid, [((0, 0), Weight.const(1.0)), ((0, 1), Weight.const(1.0))])
    return {
        "cancellation": (A, B),
        "underflow": (1e-200 * S, 1e-200 * S),
        "negative-zero-part": (-1 * S, -1 * S),
        "dead-masked-product": (A_sel, 1e-200 * S),
        "live-masked-product": (A_sel, S),
        "nested-sums": (C, D),
    }


@pytest.mark.parametrize("case", list(_edge_cases()))
def test_compose_replays_the_algebra_on_edge_cases(case):
    A, B = _edge_cases()[case]
    bandop._PLANS.clear()
    cold = A @ B
    warm = A @ B
    assert _bits(cold) == _bits(warm) == _bits(_reference_compose(A, B))
    bands = dict(cold.bands)
    if case == "cancellation":
        assert [t.atoms[0].kind for t in bands[(1,)].terms if t.atoms] == ["abs2"]
    elif case == "underflow":
        assert not cold.bands
    elif case == "negative-zero-part":
        # (-1 + 0j)(-1 + 0j) has imaginary part -0.0; sums start from 0j
        assert bands[(2,)].terms[0].coeff.imag.hex() == "0x0.0p+0"
    elif case == "dead-masked-product":
        # the k0 == -1 term of P0 S is dropped, and the masked product underflows
        assert not cold.bands
    elif case == "live-masked-product":
        assert bands[(1,)].terms[0][1:] == ((), (), ())
    else:
        assert bands[(0, 0)].terms == (bandop.Term(1.0000000000000002 + 0j, (), (), ()),)


def test_compose_drops_a_product_that_no_index_selects():
    # P0 S selects k0 == -1, which no index of nat meets: the zero operator
    # it is has no band, so it is diagonal and so is its Gram
    Z = BandOp(Lattice.nat(), [((0,), Weight.select(0, 0))]) @ unilateral_shift()
    assert Z.bands == ()
    assert Z.is_diagonal()
    assert Z.gram().bands == ()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_shifted_equals_the_normalizing_construction(data):
    lat = data.draw(lattices())
    A, _ = data.draw(_operand_pair(lat))
    off = _offset(data.draw, lat, 2)
    for _, w in A.bands:
        for v in (w, w.conjugated()):
            expect = Weight((t.coeff, *_translated(t, off)) for t in v.terms)
            got = v.shifted(off)
            assert got.terms == expect.terms
            assert _bits(BandOp(lat, [(off, got)])) == _bits(BandOp(lat, [(off, expect)]))


def test_plan_cache_keeps_the_most_recently_used_plans(monkeypatch):
    monkeypatch.setattr(bandop, "PLAN_CACHE", 3)
    monkeypatch.setattr(bandop, "_PLANS", {})
    real, planned = bandop._plan_compose, []

    def recording(A, B):
        planned.append(A.offsets)
        return real(A, B)

    monkeypatch.setattr(bandop, "_plan_compose", recording)
    lat = Lattice.integers()
    X = {k: BandOp(lat, [((k,), Weight.const(1.0))]) for k in range(1, 6)}
    key = lambda k: (lat, bandop._skeleton(X[k]), bandop._skeleton(X[1]))
    for k in (1, 2, 3, 4):
        assert (X[k] @ X[1]).offsets == ((k + 1,),)
        assert len(bandop._PLANS) <= 3
    assert list(bandop._PLANS) == [key(2), key(3), key(4)]
    # a hit replays the kept plan and moves it to the most recent end
    assert (BandOp(lat, [((2,), Weight.const(3.0))]) @ X[1]).bands == \
        (((3,), Weight.const(3.0)),)
    assert list(bandop._PLANS) == [key(3), key(4), key(2)]
    X[5] @ X[1]
    assert list(bandop._PLANS) == [key(4), key(2), key(5)]
    assert planned == [((k,),) for k in (1, 2, 3, 4, 5)]


def _reference_adjoint(T):
    """``T*`` by the normalizing weight algebra, without plans."""
    return BandOp(T.lattice, [(bandop._tneg(off), w.conjugated().shifted(bandop._tneg(off)))
                              for off, w in T.bands])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_adjoint_replay_equals_the_algebra_bit_for_bit(data):
    # complex table atoms (whose conj flag flips) and real ones, abs2,
    # selectors, masks, unions, and real coefficients whose conjugate has a
    # -0.0 imaginary part
    lat = data.draw(lattices())
    A, A2 = data.draw(_operand_pair(lat))
    bandop._PLANS.clear()
    fresh = A2.adjoint()  # planned on its own coefficients
    bandop._PLANS.clear()
    A.adjoint()  # planned on other coefficients of the same skeleton
    warm = BandOp(lat, A2.bands).adjoint()
    assert len(bandop._PLANS) == 1
    assert _bits(warm) == _bits(fresh) == _bits(_reference_adjoint(A2))


def test_adjoint_replays_the_algebra_on_edge_cases():
    nat = Lattice.nat()
    cplx = bandop.Atom("table", 0, 0, False, ((1 + 2j, -0.5j), 1j))
    real = bandop.Atom("table", 0, 0, False, ((2 + 0j,), 0.5 + 0j))
    term = lambda c, *atoms: bandop.Term(complex(c), atoms, (), ())
    # conjugation swaps the order of the first two terms: their atoms differ
    # only in the conj flag, which sorts last
    T = BandOp(nat, [((1,), Weight([term(1.0, cplx), term(2.0, cplx._replace(conj=True)),
                                    term(0.5 - 1.5j, real)]))])
    T2 = BandOp(nat, [((1,), Weight([term(3j, cplx), term(-4.0, cplx._replace(conj=True)),
                                     term(complex(-0.0, 1.0), real)]))])
    bandop._PLANS.clear()
    for S in (T, T2, T, T2):  # cold, then warm on other and on the same coefficients
        adj = BandOp(nat, S.bands).adjoint()
        assert _bits(adj) == _bits(_reference_adjoint(S))
    assert len(bandop._PLANS) == 1
    (off, w), = BandOp(nat, T.bands).adjoint().bands
    assert off == (-1,)
    assert [(t.atoms[0].params[0], t.atoms[0].shift, t.atoms[0].conj) for t in w.terms] == [
        (cplx.params[0], -1, False), (cplx.params[0], -1, True), (real.params[0], -1, False)]
    # conj(2 + 0j) is 2 - 0j; summed from 0j, as the algebra merges, it is 2 + 0j
    assert [(t.coeff.real.hex(), t.coeff.imag.hex()) for t in w.terms] == [
        ((2.0).hex(), "0x0.0p+0"), ((1.0).hex(), "0x0.0p+0"), ((0.5).hex(), (1.5).hex())]
    (_, w2), = BandOp(nat, T2.bands).adjoint().bands
    # conj(-0.0 + 1j) is -0.0 - 1j, and 0j + (-0.0 - 1j) is 0.0 - 1j
    assert w2.terms[2].coeff.real.hex() == "0x0.0p+0"


def test_adjoint_and_compose_plans_share_the_cache(monkeypatch):
    monkeypatch.setattr(bandop, "PLAN_CACHE", 2)
    monkeypatch.setattr(bandop, "_PLANS", {})
    lat = Lattice.integers()
    X = {k: BandOp(lat, [((k,), Weight.const(1.0 + k))]) for k in range(1, 4)}
    X[1].adjoint()
    X[1] @ X[2]
    assert list(bandop._PLANS) == [(bandop._skeleton(X[1]),),
                                   (lat, bandop._skeleton(X[1]), bandop._skeleton(X[2]))]
    X[2].adjoint()  # evicts the least recently used plan, the adjoint's
    assert list(bandop._PLANS) == [(lat, bandop._skeleton(X[1]), bandop._skeleton(X[2])),
                                   (bandop._skeleton(X[2]),)]
    assert X[2].adjoint().bands == (((-2,), Weight.const(3.0)),)


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
    for v in (unit(0), unit(3), FinVec({(1,): 1j, (5,): 2.0})):
        x = solve_gram(T, v, 1e-12)
        r = (T.gram().apply(x) - v).norm()
        assert r <= 1e-12 * v.norm()


def test_solve_gram_guard_doubling():
    # the first window, 16 band reaches around e0, does not certify
    # tol=1e-12: guard doubling 16, 32, 64 solves windows of 17, 33 and 65
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    x = solve_gram(T, unit(0), 1e-12)
    assert (T.gram().apply(x) - unit(0)).norm() <= 1e-12
    assert len(x) == 65
    assert [len(w) for w in T.gram()._factors] == [17, 33, 65]


def test_solve_gram_window_cap_raises(monkeypatch):
    # the byte cap is the only bound: at 40x40 complex entries the guard
    # doubling 16, 32 solves windows of 17 and 33 ordinals, then stops
    monkeypatch.setattr(bandop, "SECTION_BYTE_CAP", 16 * 40 * 40)
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    with pytest.raises(NoConvergence) as exc:
        solve_gram(T, unit(0), 1e-14)
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
            solve_gram(T, unit(ix), 1e-15)
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
        solve_gram(Q, unit((0, 0)), 1e-15)
    assert sizes == [2]
    assert exc.value.window == 2
    assert exc.value.residual > 0 and math.isfinite(exc.value.residual)


def test_solve_gram_slow_truncation_is_no_round_off_floor():
    # near its pole the Gram inverse of S + 0.97 I decays slowly: doublings
    # of the window cut the residual by less than half at first (0.36,
    # 0.19, 0.068, ...), yet every one lowers it, and the solve certifies
    S = unilateral_shift()
    T = S + 0.97 * identity(S.lattice)
    x = solve_gram(T, unit(10))
    assert (T.gram().apply(x) - unit(10)).norm() <= GRAM_TOL
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
    for name, T in ops:
        G = T.gram()
        assert G.is_fibred() and not G.is_diagonal(), name
        for _ in range(3):
            v = rand_vec(T.lattice, rng, size=3, extent=5)
            G._factors = None
            x = solve_gram(T, v)
            assert list(G._factors) == [tuple(T.lattice.neighbourhood(v.support(), 0))], name
            assert (G.apply(x) - v).norm() <= GRAM_TOL * v.norm(), name


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12, -1.0])
def test_gram_solve_params_refuse_a_tol_that_is_not_finite_and_positive(tol):
    # residual <= inf certifies any window, and residual <= nan none.  Each
    # function that takes the solve tolerance refuses it on an input that
    # reaches a solve, and decompose also where none runs: T* e0 = 0 under
    # the Bergman shift, so its limit loop stops before solving
    S, B = unilateral_shift(), bergman_shift()
    T1, T2 = tensor_pair(constant(1.0), constant(1.0))
    h = unit(0) + unit(3)
    calls = {"solve_gram diagonal": lambda: solve_gram(B, h, tol),
             "solve_gram windowed": lambda: solve_gram(S + 0.5 * identity(S.lattice), h, tol),
             "shift_limit_project": lambda: shift_limit_project(B, h, tol),
             "decompose": lambda: decompose(B, h, tol),
             "fourfold": lambda: fourfold(T1, T2, unit((1, 1)), tol),
             "decompose, no solve": lambda: decompose(B, unit(0), tol)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            call()
            pytest.fail(name)


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
    tol = 1e-4  # certified on the first window, of guard 16
    windows = [G.lattice.neighbourhood([(40 * k,)], 16) for k in range(6)]
    for k in range(5):
        solve_gram(T, unit(40 * k), tol)
    assert list(G._factors) == [tuple(w) for w in windows[1:5]]
    solve_gram(T, unit(40), tol)  # a hit moves its window to the most recent end
    solve_gram(T, unit(200), tol)
    assert list(G._factors) == [tuple(w) for w in (windows[3], windows[4], windows[1],
                                                   windows[5])]


def test_gram_factor_cache_skips_large_factors(monkeypatch):
    # factors of more than cap // 64 bytes (40x40 complex entries here) are
    # used but not kept; guard doubling 16, 32, 64 solves windows of 17, 33
    # and 65 ordinals
    monkeypatch.setattr(bandop, "SECTION_BYTE_CAP", 64 * 16 * 40 * 40)
    S = unilateral_shift()
    T = S + 0.5 * identity(S.lattice)
    x = solve_gram(T, unit(0), 1e-12)
    assert len(x) == 65
    assert [len(w) for w in T.gram()._factors] == [17, 33]
    assert solve_gram(T, unit(0), 1e-12) == x  # re-factors the 65-ordinal window


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


def test_fibred_solve_names_the_smallest_outside_index():
    # the right-hand side is visited unsorted; a refusal still names its
    # smallest entry outside the lattice, whatever order the entries came in
    Q = quasinormal_block(np.array(BLOCK_3))
    for outside in (((2, 5), (-1, 0)), ((0, 3), (0, -1))):
        smallest = re.escape(str(min(outside)))
        for order in itertools.permutations(outside + ((4, 1),)):
            v = FinVec({ix: 1.0 for ix in order})
            with pytest.raises(LatticeMismatch, match=rf"entry at {smallest} lies outside"):
                solve_gram(Q, v)


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
    rng = np.random.default_rng(5)
    for T in (bergman_shift(), dirichlet_shift()):
        for _ in range(3):
            u = rand_vec(T.lattice, rng)
            v = T.apply(u)
            back = left_inverse_apply(T, v)
            assert (back - u).norm() <= GRAM_TOL * max(1.0, u.norm()) * 10


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


def _apply_residual(G: BandOp, x: FinVec, v: FinVec) -> float:
    """``||G x - v||`` as written: apply ``G``, subtract ``v``, take the norm."""
    return (G.apply(x) - v).norm()


_RESIDUAL_OPS = [(name, T) for name, T in _SECTION_OPS if name in ("block_2", "block_3", "block_sum")]
_RESIDUAL_OPS.append(("two_band", unilateral_shift() + 0.5 * unilateral_shift() ** 2))


@pytest.mark.parametrize("name,T", _RESIDUAL_OPS, ids=[n for n, _ in _RESIDUAL_OPS])
def test_gram_residual_is_the_written_out_residual(name, T):
    # fibred blocks and a guarded two-band window; huge and subnormal
    # amplitudes, exact cancellation, and x entries that G maps outside
    # the support of v: the one-pass residual keeps the bits of the formula
    G = T.gram()
    rng = np.random.default_rng(20170430)
    cases = []
    for size in (1, 3, 6):
        v = rand_vec(T.lattice, rng, size, extent=4)
        x = solve_gram(T, v, 1e-6)  # on the first window
        gx = G.apply(x)
        part = FinVec({ix: a for ix, a in gx.items() if rng.integers(2)}, rank=T.rank)
        wild = _extreme_vec(T.lattice, rng, size, extent=4)
        far = _extreme_vec(T.lattice, rng, size, extent=9)
        cases += [(x, v), (x, gx), (x, part), (x, part + v), (x, wild), (wild, wild),
                  (far, v), (x + far, wild), (x * 1e300, v), (x * 5e-324, v * 5e-324),
                  (zero(T.rank), wild), (x, zero(T.rank))]
    residuals = [_apply_residual(G, x, v) for x, v in cases]
    assert 0.0 in residuals and math.inf in residuals  # exact cancellation, overflow
    for x, v in cases:
        assert G.apply(x).distance(v).hex() == _apply_residual(G, x, v).hex(), (x, v)


def _reference_diagonal_solve(G: BandOp, v: dict, rank: int, tol: float) -> FinVec:
    """The entrywise solve in two steps, as ``solve_gram`` ran it before the
    one-pass kernel: ``||v||`` by the vector, the division in index order,
    then the residual by the band Gram (``_apply_residual``), then the
    certificate; each refusal raised where those checks meet it."""
    vec = FinVec._wrap(dict(v), rank)
    vn = vec.norm()
    if not math.isfinite(vn):
        raise NoConvergence(f"right-hand side norm {vn} overflows double precision",
                            residual=vn, window=0)
    if not G.bands:
        bandop._require_in_lattice(vec.support(), G.lattice)
        raise NoConvergence("Gram operator is identically zero", residual=vn, window=0)
    (steps,) = G._steps
    x = {}
    for ix, amp in vec.items():
        g = steps[ix][1]
        if not (g.real > 0.0) or abs(g.imag) > 1e-14 * g.real:
            bandop._require_in_lattice(vec.support(), G.lattice)
            raise NoConvergence(f"diagonal Gram entry {g} at {ix} is not a positive real: "
                                f"the operator is not bounded below there")
        x[ix] = complex(amp.real / g.real, amp.imag / g.real)
    xv = FinVec._wrap(x, rank)
    residual = _apply_residual(G, xv, vec)
    if residual <= tol * vn:
        return xv
    raise NoConvergence(f"entrywise diagonal Gram solve: residual {residual:.3e} "
                        f"over {tol:.1e} * ||v||", residual=residual, window=0)


def _reference_left_inverse(T: BandOp, v: FinVec) -> FinVec:
    """``T.adjoint().apply(v)``, then the two-step entrywise solve."""
    w = T.adjoint().apply(v)
    if w.is_zero:
        return w
    return _reference_diagonal_solve(T.gram(), w._entries, w.rank, GRAM_TOL)


def _reference_solve_gram(T: BandOp, v: FinVec) -> FinVec:
    if v.rank != T.rank:
        raise RankMismatch(f"vector rank {v.rank}, operator rank {T.rank}")
    if v.is_zero:
        return v
    return _reference_diagonal_solve(T.gram(), v._entries, v.rank, GRAM_TOL)


def _outcome(run, *args):
    """What ``run(*args)`` does, bit for bit: its entries with both parts
    of each amplitude in hex (signed zeros included), or the type, message
    and residual bits of what it raised."""
    try:
        x = run(*args)
    except (ValueError, ArithmeticError, RuntimeError) as e:
        return type(e), str(e), getattr(e, "residual", 0.0).hex()
    return x.rank, [(ix, a.real.hex(), a.imag.hex()) for ix, a in x.items()]


@pytest.mark.parametrize("name,T", _DIAGONAL_GRAM_ZOO, ids=[n for n, _ in _DIAGONAL_GRAM_ZOO])
def test_diagonal_solve_residual_is_the_band_gram_residual(name, T):
    # at tolerance 0 the kernel reports the residual it measured in its own
    # pass (unless it is exactly 0): it must carry the bits of the band
    # Gram's residual, on huge, tiny and subnormal amplitudes alike; a
    # vector whose norm overflows is refused for that first, as before
    rng = np.random.default_rng(20170420)
    for n in (1, 2, 3):
        G = (T ** n).gram()
        assert G.is_diagonal()
        for size in (1, 3, 6):
            v = _extreme_vec(T.lattice, rng, size)
            for tol in (0.0, GRAM_TOL):
                expect = _outcome(_reference_diagonal_solve, G, v._entries, v.rank, tol)
                assert _outcome(bandop._diagonal_solve, G, v._entries, v.rank, tol) == expect


def _amplitudes():
    part = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e154, 1e200]))
    return st.builds(complex, part, part)


@st.composite
def _diagonal_gram_case(draw):
    """A power (1 to 3) of a diagonal-Gram zoo fixture and a vector of up
    to 8 entries, with signed-zero, subnormal and huge parts, on its window."""
    _, T = draw(st.sampled_from(_DIAGONAL_GRAM_ZOO))
    pool = T.lattice.window(6)
    support = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    return T ** draw(st.integers(1, 3)), FinVec({ix: draw(_amplitudes()) for ix in support},
                                                rank=T.rank)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_diagonal_gram_case())
def test_fused_left_inverse_and_solve_are_the_two_step_path_bit_for_bit(case):
    T, v = case
    assert _outcome(left_inverse_apply, T, v) == _outcome(_reference_left_inverse, T, v)
    assert _outcome(solve_gram, T, v) == _outcome(_reference_solve_gram, T, v)


def test_fused_left_inverse_and_solve_raise_as_the_two_step_path():
    # each entry: operator, vector, and what left_inverse_apply and
    # solve_gram must both meet (a vector, or a type and message start);
    # the references fix the whole message and the residual bits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the zero weights fail the probe
        # Gram entries 0.0 at 1 (a zero weight) and at 3 (an underflow)
        holed = weighted_shift(table([1.0, 0.0, 2.0, 1e-170], 1.0), 1, "nat")
        tiny = weighted_shift(table([1.0, 1e-170, 2.0, 1e-170], 1.0), 1, "nat")
    B = bergman_shift()
    zero_entry = (NoConvergence, "diagonal Gram entry 0j at (1,) is not a positive real")
    overflow = (NoConvergence, "right-hand side norm inf overflows")
    nan = (NoConvergence, "right-hand side norm nan")
    outside = (LatticeMismatch, "vector entry at (-4,) lies outside")
    rank = (RankMismatch, "vector rank 2, operator rank 1")
    cases = [
        (unilateral_shift(), unit(0), "vector", "vector"),  # T* kills it
        (B, FinVec({(0,): 1.0, (3,): complex(math.nan, 1.0)}), nan, nan),
        (B, FinVec({(2,): 1.0, (-1,): 1.0, (-4,): 0.5}), outside, outside),
        (B, unit((1, 2)), rank, rank),
        (B, FinVec({(1,): 1e200, (2,): 1.0}), overflow, overflow),
        (holed, FinVec({(3,): 1e200, (1,): 1.0}), overflow, overflow),
        (tiny, FinVec({(4,): 1e200, (3,): 1e200, (2,): 1.0}), overflow, overflow),
        (holed, FinVec({(3,): 1.0, (1,): 1.0, (0,): 1.0}), "vector", zero_entry),
        (tiny, FinVec({(4,): 1.0, (2,): 1.0}), zero_entry, "vector"),
    ]
    for T, v, *expected in cases:
        for run, ref, expect in ((left_inverse_apply, _reference_left_inverse, expected[0]),
                                 (solve_gram, _reference_solve_gram, expected[1])):
            got = _outcome(run, T, v)
            assert got == _outcome(ref, T, v), (run.__name__, v)
            if expect == "vector":
                assert isinstance(got[0], int), (run.__name__, v, got)
            else:
                assert got[0] is expect[0] and got[1].startswith(expect[1]), (run.__name__, v, got)


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
        gs = {ix: w.evaluate(ix, G.lattice) for ix, _ in v.items()}  # in index order
        bad = [ix for ix, g in gs.items() if not (g.real > 0.0) or abs(g.imag) > 1e-14 * g.real]
        kernel = _outcome(bandop._diagonal_solve, G, v._entries, v.rank, 0.0)
        assert kernel == _outcome(_reference_diagonal_solve, G, v._entries, v.rank, 0.0), v
        if not math.isfinite(v.norm()):
            assert "right-hand side norm" in kernel[1]  # before any diagonal entry
        elif bad:
            refused += 1
            assert re.search(rf"entry .* at \({bad[0][0]},\) is not", kernel[1]), kernel
        else:
            solved += 1
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
    # refusals alike, is the same when the entrywise solve divides in index
    # order and measures its residual by the band Gram
    inline = _grid_outcomes((x,))
    monkeypatch.setattr(bandop, "_diagonal_solve", _reference_diagonal_solve)
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


def test_fibred_gram_solves_enumerate_fibres_and_factor_through_cho_factor(monkeypatch):
    # every Gram of a quasinormal block and of its powers is fibred: its
    # windows are the support's fibres (whole multiples of the block size),
    # and every factorization goes through cho_factor, where a tracer counts
    # it; a second fresh block gives the same results and factorizations
    h = FinVec({(0, 0): 1.0, (2, 1): 0.5j, (3, 2): -0.25})
    probes = [unit((1, 2)), unit((3, 0)), h]
    real, sizes = scipy.linalg.cho_factor, []

    def recording(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return real(M, *args, **kwargs)

    def run():
        Q = quasinormal_block(np.array(BLOCK_3))
        return classd_residual(Q, n_max=4, probes=probes), decompose(Q, h)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
    expected = run()
    first, sizes[:] = list(sizes), []
    assert run() == expected
    assert sizes == first and len(sizes) >= 5 and all(n % 3 == 0 for n in sizes), sizes
