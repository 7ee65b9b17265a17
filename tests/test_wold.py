import gc
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings, strategies as st

import woldkit.bandop
import woldkit.wold
from woldkit.bandop import (GRAM_TOL, BandOp, NoConvergence, Weight, constant,
                            identity, left_inverse_apply, lower_bound_estimate, table)
from woldkit.classd import classd_residual, default_probes
from woldkit.oracle import dense_section, guard_ok, oracle_project
from woldkit.seqspace import FinVec, unit, zero
from woldkit.wold import (
    InputNotInHInfinity,
    NoStrongConvergence,
    analytic_criterion,
    decompose,
    defect_project,
    nested_project,
    reducing_residual,
    series_component,
    shift_limit_project,
    surjectivity_witness,
    wandering_basis,
    _Orbit,
)
from woldkit.wold2d import fourfold
from woldkit.zoo import (
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
)

from conftest import ZOO, make_zoo_fixtures, rand_vec


# ---------------------------------------------------------------------------
# defect projection
# ---------------------------------------------------------------------------

def test_defect_unweighted():
    S = unilateral_shift()
    assert defect_project(S, unit(0) + unit(1)) == unit(0)


def test_defect_bergman_range_vector():
    B = bergman_shift()
    d = defect_project(B, unit(1))
    assert d.norm() <= 1e-14
    # oracle: dense projection onto the orthogonal complement of the range
    D = dense_section(B, 20)
    dense = unit(1) - oracle_project(D, unit(1), 1)
    assert (d - dense).norm() <= 1e-12


def test_defect_bilateral_is_zero():
    T = bilateral_shift()
    rng = np.random.default_rng(1)
    for _ in range(3):
        h = rand_vec(T.lattice, rng)
        assert defect_project(T, h).norm() <= 1e-13 * h.norm()


def test_defect_of_zero():
    assert defect_project(bergman_shift(), zero(1)).is_zero


# ---------------------------------------------------------------------------
# nested projections
# ---------------------------------------------------------------------------

def test_nested_project_examples():
    S = unilateral_shift()
    assert nested_project(S, 1, unit(0)).is_zero
    assert nested_project(S, 1, unit(2)) == unit(2)
    assert nested_project(S, 0, unit(0)) == unit(0)
    B = bergman_shift()
    assert nested_project(B, 2, unit(1)).is_zero


def test_nested_project_matches_oracle():
    rng = np.random.default_rng(2)
    for T in (bergman_shift(), dirichlet_shift()):
        D = dense_section(T, 40)
        for n in (1, 2, 3):
            h = rand_vec(T.lattice, rng)
            band = nested_project(T, n, h)
            dense = oracle_project(D, h, n)
            assert (band - dense).norm() <= 1e-9 * h.norm()


def test_projection_laws_on_probes():
    rng = np.random.default_rng(3)
    for T in (bergman_shift(), dirichlet_shift()):
        for n in (1, 2, 4):
            u = rand_vec(T.lattice, rng)
            v = rand_vec(T.lattice, rng)
            Pu = nested_project(T, n, u)
            assert (nested_project(T, n, Pu) - Pu).norm() <= 1e-11 * u.norm()
            sym = Pu.inner(v) - u.inner(nested_project(T, n, v))
            assert abs(sym) <= 1e-11 * u.norm() * v.norm()


def test_nestedness_and_monotonicity():
    rng = np.random.default_rng(4)
    for T in (bergman_shift(), dirichlet_shift()):
        h = rand_vec(T.lattice, rng)
        prev_norm = h.norm()
        for n in range(1, 5):
            Pn = nested_project(T, n, h)
            Pn1 = nested_project(T, n + 1, h)
            assert (nested_project(T, n + 1, Pn) - Pn1).norm() <= 1e-11 * h.norm()
            assert Pn.norm() <= prev_norm + 1e-11 * h.norm()
            prev_norm = Pn.norm()


# ---------------------------------------------------------------------------
# strong limit
# ---------------------------------------------------------------------------

def test_limit_unilateral_exact_zero():
    S = unilateral_shift()
    h = FinVec({(0,): 1.0, (3,): 2.0})
    lim, hist = shift_limit_project(S, h)
    assert lim.is_zero
    assert len(hist) == 4  # support exhausts right after the top index


def test_limit_bilateral_is_identity():
    T = bilateral_shift()
    h = FinVec({(-2,): 1j, (5,): 2.0})
    lim, hist = shift_limit_project(T, h)
    assert lim == h
    assert all(d == 0.0 for d in hist)


def test_limit_mixed_sum_keeps_left_part():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    u = embed_summand(unit(0) + 2 * unit(-3), 0)
    v = embed_summand(unit(1) + 0.5 * unit(4), 1)
    lim, _ = shift_limit_project(D, u + v)
    assert lim == u
    # oracle: dense projection on a window agrees
    from woldkit.oracle import oracle_limit_project
    Dd = dense_section(D, 30)
    dense, _ = oracle_limit_project(Dd, u + v)
    assert (lim - dense).norm() <= 1e-9


def test_limit_transient_plateau_not_accepted():
    # a basis vector far up the lattice keeps P_1 h = ... = P_k h = h before
    # collapsing; the Cauchy surrogate alone would stop inside the plateau
    S = unilateral_shift()
    for k in (3, 5, 17, 40):
        lim, hist = shift_limit_project(S, unit(k))
        assert lim.is_zero, f"limit of e{k} must vanish"
        assert len(hist) == k + 1
    B = bergman_shift()
    lim, _ = shift_limit_project(B, unit(6))
    assert lim.is_zero


def test_limit_transient_plateau_in_mixed_sum():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    h = embed_summand(unit(0), 0) + 1j * embed_summand(unit(3), 1)
    lim, _ = shift_limit_project(D, h)
    assert lim == embed_summand(unit(0), 0)


def test_decompose_far_spike_lands_in_series():
    S = unilateral_shift()
    res = decompose(S, unit(3))
    assert res.limit_part.is_zero
    assert res.components[3] == unit(3)
    assert res.reconstruction_residual == 0.0
    res = decompose(bergman_shift(), unit(5))
    assert res.limit_part.is_zero
    assert (res.components[5] - unit(5)).norm() <= 1e-12
    assert res.reconstruction_residual <= 1e-12


def test_bergman_runs_at_the_step_the_error_names():
    # for e200 the adjoint orbit names step 201, so acting on the error
    # needs the Gram of B^n for every n <= 201: 2n Bergman atoms, merged
    # pairwise into n squared moduli
    (off, w), = (bergman_shift() ** 200).gram().bands
    (t,) = w.terms
    assert off == (0,) and len(t.atoms) == 200 and {a.kind for a in t.atoms} == {"abs2"}
    with pytest.raises(NoStrongConvergence, match="loses support at step 201$"):
        decompose(bergman_shift(), unit(200))
    res = decompose(bergman_shift(), unit(200), n_max=201)
    assert res.n_used == 201
    assert res.flags == ("series terminated exactly: left-inverse iterate vanished",)


def test_spike_past_the_cap_is_not_a_plateau():
    # e100 stays in the range of B^n for n <= 100, so P_1 h = ... = P_64 h
    # looks settled, yet the series owns it: the orbit of B* loses it at
    # step 101, which the plateau test scans for past n_max
    B, h = bergman_shift(), unit(0) + unit(100)
    with pytest.raises(NoStrongConvergence, match="loses support at step 101$"):
        decompose(B, h)
    with pytest.raises(NoStrongConvergence, match="loses support at step 101$"):
        shift_limit_project(B, h)
    res = decompose(B, h, n_max=128)
    assert res.limit_part.is_zero and (res.n_used, res.j_used) == (101, 100)
    assert (res.components[100] - unit(100)).norm() <= 1e-12
    # beyond ORBIT_SCAN_CAP no plateau is trusted; a lattice without
    # boundaries has nothing to scan for
    with pytest.raises(NoStrongConvergence, match="past ORBIT_SCAN_CAP=4096"):
        shift_limit_project(B, unit(10 ** 6))
    lim, hist = shift_limit_project(bilateral_shift(), unit(10 ** 6))
    assert lim == unit(10 ** 6) and len(hist) == 3


def test_limit_cap_raises():
    T = bilateral_shift()
    with pytest.raises(NoStrongConvergence, match="not Cauchy after n_max=2 steps"):
        shift_limit_project(T, unit(0), n_max=2)


def test_limit_zero_vector():
    lim, hist = shift_limit_project(bergman_shift(), zero(1))
    assert lim.is_zero and hist == ()


# ---------------------------------------------------------------------------
# analytic criterion
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_criterion_examples():
    S = unilateral_shift()
    assert analytic_criterion(S, unit(0), 1) == 0.0
    T = bilateral_shift()
    for n in (1, 2, 5):
        assert abs(analytic_criterion(T, unit(0), n) - 1.0) <= 1e-12
    # Gram entries 1e-16 and 1: the entrywise solve needs no eigenvalue floor
    T = weighted_shift(table([1e-8], 1.0), 1, "nat")
    assert analytic_criterion(T, unit(1) + unit(2), 1) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_criterion_equals_projection_norm():
    # against the dense oracle, which shares no solve with the engine
    rng = np.random.default_rng(5)
    for T in (bergman_shift(), dirichlet_shift()):
        D = dense_section(T, 24)
        for n in (1, 2, 4, 8):
            h = rand_vec(T.lattice, rng)
            assert guard_ok(D, [h], depth=n)
            dense = oracle_project(D, h, n).norm()
            assert abs(analytic_criterion(T, h, n) - dense) <= 1e-12 * h.norm()
    # S + 0.9 I has a tridiagonal Gram, so every solve is guarded.  P_n h is
    # h less its projection onto ker (T*)^n = span{k^j (-0.9)^k : j < n},
    # which 300 ordinals hold to 0.9^300 < 1e-13
    S = unilateral_shift()
    T = S + 0.9 * identity(S.lattice)
    h = unit(0) + unit(3)
    D = dense_section(T, 300)
    k = np.arange(300.0)
    for n in (1, 2, 3):
        assert guard_ok(D, [h], depth=n)
        Q, _ = np.linalg.qr(np.stack([k ** j * (-0.9) ** k for j in range(n)], axis=1))
        exact = math.sqrt(2.0 - np.linalg.norm(Q[0] + Q[3]) ** 2)
        crit = analytic_criterion(T, h, n)
        assert crit == pytest.approx(exact, rel=1e-12)
        # the oracle's normal equations square cond(T^n), about 7e3 at n = 3,
        # and leave it 7e-11 off there
        assert crit == pytest.approx(oracle_project(D, h, n).norm(),
                                     rel=1e-12 if n < 3 else 1e-9)


def test_criterion_that_cannot_be_certified_raises(monkeypatch):
    # T^3 = (S + 0.99 I)^3 has reach 3: guard doubling 48, 96 solves windows
    # of 52 and 100 ordinals around e0 + e3 without certifying, and the
    # next one, of 196, is over a cap of 100x100 complex entries
    monkeypatch.setattr(woldkit.bandop, "SECTION_BYTE_CAP", 16 * 100 * 100)
    S = unilateral_shift()
    with pytest.raises(NoConvergence, match="a 196x196 section .* over the cap"):
        analytic_criterion(S + 0.99 * identity(S.lattice), unit(0) + unit(3), 3)


# ---------------------------------------------------------------------------
# wandering basis
# ---------------------------------------------------------------------------

def test_wandering_basis_unweighted():
    got = wandering_basis(unilateral_shift(), window=8)
    assert len(got) == 1
    assert (got[0] - unit(0)).norm() <= 1e-12


def test_wandering_basis_step_three():
    T = weighted_shift(constant(1.0), step=3)
    got = wandering_basis(T, window=9)
    assert len(got) == 3
    # the defect space is exactly the span of the first three basis vectors
    for v in got:
        assert all(ix[0] <= 2 for ix in v.support())
    G = np.array([[a.inner(b) for b in got] for a in got])
    assert np.abs(G - np.eye(3)).max() <= 1e-12
    # oracle: dense null space of the adjoint has matching dimension
    from woldkit.oracle import oracle_null_basis
    D = dense_section(T, 12)
    dense = [w for w in oracle_null_basis(D)
             if D.lattice.edge_margin(max(w.support()), D.extent) >= 4]
    assert len(dense) == 3


def test_wandering_basis_bilateral_empty():
    assert wandering_basis(bilateral_shift(), window=6) == []


def test_wandering_basis_direct_sum():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    got = wandering_basis(D, window=6)
    assert len(got) == 1
    assert (got[0] - embed_summand(unit(0), 1)).norm() <= 1e-12


def test_wandering_orthogonality():
    for T in (unilateral_shift(), bergman_shift(), dirichlet_shift()):
        basis = wandering_basis(T, window=4)
        iterates = []
        for w in basis:
            cur = w
            for n in range(6):
                iterates.append((n, cur))
                cur = T.apply(cur)
        for i, (m, u) in enumerate(iterates):
            for n, v in iterates:
                if m < n:
                    assert abs(u.inner(v)) <= 1e-10


# ---------------------------------------------------------------------------
# series components and decompose
# ---------------------------------------------------------------------------

def test_series_component_unweighted():
    S = unilateral_shift()
    h = unit(0) + unit(1)
    assert series_component(S, 0, h) == unit(0)
    assert series_component(S, 1, h) == unit(1)
    assert series_component(S, 2, h).is_zero


def test_series_component_bergman_telescopes():
    B = bergman_shift()
    c1 = series_component(B, 1, unit(1))
    assert (c1 - unit(1)).norm() <= 1e-14


def test_series_component_bilateral_vanishes():
    T = bilateral_shift()
    for j in (0, 1, 3):
        assert series_component(T, j, unit(2)).norm() <= 1e-13


def test_decompose_unweighted():
    S = unilateral_shift()
    res = decompose(S, unit(0) + unit(1))
    assert res.limit_part.is_zero
    assert res.components[0] == unit(0)
    assert res.components[1] == unit(1)
    assert res.reconstruction_residual == 0.0
    assert res.component_cross_max == 0.0


def test_decompose_zero_vector():
    res = decompose(bergman_shift(), zero(1))
    assert res.limit_part.is_zero and res.components == ()
    assert res.reconstruction_residual == 0.0


@pytest.mark.parametrize("run", [decompose, shift_limit_project],
                         ids=["decompose", "shift_limit_project"])
@pytest.mark.parametrize("h", [unit(0), zero(1)], ids=["unit", "zero"])
def test_limit_routines_refuse_n_max_below_1(run, h):
    # one n_max rule, decided before any shortcut for the zero vector
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        run(bergman_shift(), h, n_max=0)


@pytest.mark.parametrize("run, norm", [
    (lambda: decompose(bergman_shift(), FinVec({(0,): 1e-170, (3,): 1e-170})), "0.0"),
    (lambda: fourfold(*tensor_pair(constant(1.0), constant(1.0)),
                      FinVec({(0, 0): 1e-170, (1, 2): 1e-170})), "0.0"),
    (lambda: decompose(bergman_shift(), FinVec({(0,): 1e200, (3,): 1e200})), "inf"),
], ids=["decompose-underflow", "fourfold-underflow", "decompose-overflow"])
def test_limit_loop_refuses_a_norm_outside_double_precision(run, norm):
    # no certificate delta <= tol * ||h|| means anything at such a norm
    with pytest.raises(ValueError, match=f"nonzero h has norm {norm}:"):
        run()


def _no_gram_work(*args, **kwargs):
    raise AssertionError("a zero right-hand side reached a Gram section or solve")


@pytest.mark.parametrize("T, h", [(T, zero(T.rank)) for _, T in ZOO]
                         + [(unilateral_shift(), unit(0))],
                         ids=[name for name, _ in ZOO] + ["unilateral_shift-ker-adjoint"])
def test_zero_right_hand_sides_need_no_gram_work(monkeypatch, T, h):
    # left_inverse_apply's zero test (and the T* h test of defect_project and
    # analytic_criterion) decides every zero vector, also e0 under S, whose
    # T* image vanishes; no section, factor or solve may run
    for module in (woldkit.bandop, woldkit.wold):
        monkeypatch.setattr(module, "section", _no_gram_work)
        monkeypatch.setattr(module, "solve_gram", _no_gram_work)
    monkeypatch.setattr(scipy.linalg, "cho_factor", _no_gram_work)
    z = zero(T.rank)
    assert defect_project(T, h) == h
    assert nested_project(T, 2, h) == z
    assert series_component(T, 2, h) == z
    assert analytic_criterion(T, h, 2) == 0.0
    assert classd_residual(T, probes=[h]).residual == 0.0


def test_decompose_bergman_random_support_ten():
    B = bergman_shift()
    rng = np.random.default_rng(6)
    amps = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    h = FinVec({(k,): complex(a) for k, a in enumerate(amps)})
    res = decompose(B, h)
    assert res.reconstruction_residual <= 1e-10 * h.norm()
    assert res.j_used <= 13
    assert res.component_cross_max <= 1e-10
    assert not res.flags or all("terminated exactly" in f for f in res.flags)


def test_decompose_mixed_sum():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    u = embed_summand(unit(0) + 2 * unit(-3), 0)
    v = embed_summand(unit(1) + 0.5 * unit(4), 1)
    res = decompose(D, u + v)
    assert res.limit_part == u
    acc = zero(2)
    for c in res.components:
        acc = acc + c
    assert (acc - v).norm() <= 1e-10
    assert summand_part(acc, 0).is_zero


def test_decompose_reconstructs_on_every_zoo_fixture():
    from conftest import ZOO
    for name, T in ZOO:
        rng = np.random.default_rng(19)
        h = rand_vec(T.lattice, rng, size=5, extent=4)
        res = decompose(T, h)
        assert res.reconstruction_residual <= GRAM_TOL * h.norm() * 10, name
        assert res.component_cross_max <= 1e-10, name


@pytest.mark.parametrize("name", [name for name, _ in ZOO])
def test_decompose_same_on_cold_and_warm_operator(name):
    T = dict(make_zoo_fixtures())[name]
    h = rand_vec(T.lattice, np.random.default_rng(23), size=4, extent=4)
    cold = decompose(T, h)
    assert decompose(T, h) == cold


def test_decompose_solves_once_per_series_term(monkeypatch):
    calls = []
    real = woldkit.bandop.solve_gram

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # left_inverse_apply reaches the solver through bandop, the loops through wold
    monkeypatch.setattr(woldkit.bandop, "solve_gram", counting)
    monkeypatch.setattr(woldkit.wold, "solve_gram", counting)
    res = decompose(bergman_shift(), unit(0) + unit(40))
    assert (len(calls), res.n_used, res.j_used) == (80, 41, 40)


def _derived_operators(T):
    """``T`` and every operator derived from it and kept in its caches."""
    seen, todo = {}, [T]
    while todo:
        op = todo.pop()
        if id(op) not in seen:
            seen[id(op)] = op
            todo += [d for d in (op._adjoint, op._gram, *op._powers) if d is not None]
    return list(seen.values())


def test_decompose_computes_each_band_step_once(monkeypatch):
    evaluated, missed = [], []
    real_evaluate = Weight.evaluate
    real_missing = woldkit.bandop._BandSteps.__missing__

    def evaluate(self, ix, lattice):
        evaluated.append(ix)
        return real_evaluate(self, ix, lattice)

    def missing(self, ix):
        missed.append((id(self), ix))
        return real_missing(self, ix)

    monkeypatch.setattr(Weight, "evaluate", evaluate)
    monkeypatch.setattr(woldkit.bandop._BandSteps, "__missing__", missing)
    B, h = bergman_shift(), unit(0) + unit(40)
    first = decompose(B, h)
    n_evaluated = len(evaluated)
    assert n_evaluated > 0
    assert decompose(B, h) == first
    assert len(evaluated) == n_evaluated  # the warm operator evaluates nothing new
    # one stored step per distinct (band, index) pair visited, each computed once
    steps = [band for op in _derived_operators(B) for band in op._steps]
    assert sum(map(len, steps)) == len(set(missed)) == len(missed)


def test_derived_operators_make_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        T = direct_sum(bergman_shift(), bilateral_shift())
        T.adjoint()
        T.gram()
        (T ** 8).gram()
        decompose(T, FinVec({(0, 3): 1.0, (1, -2): 1j}))
        del T
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (BandOp, Weight))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked


@pytest.mark.parametrize("name", [name for name, _ in ZOO])
def test_decompose_components_match_series_component(name):
    # every fixture is power compatible, so the range projections' deltas
    # are the series terms T^j P0 (T~)^j h, which series_component builds
    T = dict(ZOO)[name]
    h = rand_vec(T.lattice, np.random.default_rng(29), size=3, extent=4)
    res = decompose(T, h)
    assert res.power_residual <= 1e-14
    for j, c in enumerate(res.components):
        assert (c - series_component(T, j, h)).norm() <= 1e-12 * h.norm(), j


def test_decompose_flags_power_identity_failure(monkeypatch):
    # S + S^2/2 is outside the class (classd fails): (T~)^n h leaves (T^n)~ h
    # at n = 3, and the result says so after the limit loop's three steps:
    # steps 1 and 2 solve for (T^n)~ h, (T*)^3 h vanishes, and each step
    # solves once for the left-inverse chain
    real, calls = woldkit.wold.solve_gram, []
    monkeypatch.setattr(woldkit.wold, "solve_gram",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    S = unilateral_shift()
    res = decompose(S + 0.5 * (S ** 2), unit(0) + 0.5j * unit(2))
    assert len(calls) == 5
    assert (res.n_used, res.j_used) == (3, 2)
    assert 0.4 < res.power_residual < 0.5
    assert res.flags == (f"power identity residual {res.power_residual:.3e} at n=3: "
                         "(T~)^n h is not (T^n)~ h",)


def test_decompose_outside_the_class_stops_at_the_round_off_floor():
    # (S + I/2)^n has Gram condition number about 9^n, so the limit loop's
    # solve stalls at round-off (near 6e-12 relative at n = 10); a doubling
    # that does not lower the residual ends it with a named failure, long
    # before a section reaches the byte cap (10244 ordinals without it)
    S = unilateral_shift()
    with pytest.raises(NoConvergence, match=r"limit phase, n=\d+: round-off floor: window "
                                            r"of \d+ ordinals left residual \S+, not below \S+"
                       ) as exc:
        decompose(S + 0.5 * identity(S.lattice), unit(0) + unit(3))
    assert 0 < exc.value.window < 1000
    assert 0 < exc.value.residual < 1e-10


def _full_repr(res) -> str:
    """Every field of a WoldResult at full precision (FinVec's repr elides)."""
    vec = lambda v: (v.rank, v.items())
    return repr((vec(res.limit_part), [vec(c) for c in res.components],
                 res.reconstruction_residual, res.convergence_history,
                 res.n_used, res.j_used, res.component_cross_max, res.power_residual,
                 res.flags))


# the operators of the benchmark's shift-series workload, all conftest fixtures
_SHIFT_SERIES = ("bergman_shift", "dirichlet_shift", "translation_power", "translation_exp",
                 "unilateral_shift", "double_bilateral", "mixed_sum")


def _decompose_digest() -> str:
    """The sha256 of the full-precision decompose results on two seeded
    vectors per diagonal-Gram fixture, on freshly built fixtures."""
    diagonal = [(name, T) for name, T in make_zoo_fixtures() if T.gram().is_diagonal()]
    assert set(_SHIFT_SERIES) <= {name for name, _ in diagonal}
    digest = hashlib.sha256()
    for name, T in diagonal:
        rng = np.random.default_rng(20170425)
        for size, extent in ((3, 8), (4, 24)):
            digest.update(_full_repr(decompose(T, rand_vec(T.lattice, rng, size, extent))).encode())
    return digest.hexdigest()


def test_decompose_digest_pinned(monkeypatch):
    # bit-identity of decompose across engine changes, with every
    # composition and adjoint planned and every window built (cold plan
    # cache and window memo), and then replayed and reused (warm)
    monkeypatch.setattr(woldkit.bandop, "_PLANS", {})
    monkeypatch.setattr(woldkit.bandop, "_WINDOWS", {})
    assert [_decompose_digest() for _ in range(2)] == \
        ["2f7ce9df25fbb971a8e4fe2b51f104509dfb155957c89e04e80526d8a9b16bad"] * 2


# full Hermitian blocks: their Grams are not diagonal, so every solve below
# goes through the guarded finite-section (windowed) path
_L2 = np.array([[2.5, 0.3], [0.3, 2.8]])
_L2B = np.array([[3.0, -0.2 + 0.1j], [-0.2 - 0.1j, 2.3]])
_L3 = np.array([[2.4, 0.2 + 0.3j, -0.1j], [0.2 - 0.3j, 2.9, 0.25], [0.1j, 0.25, 2.6]])


def _windowed_fixtures():
    """Operators whose Gram is not diagonal: a real d=2 and a complex d=3
    full block, a direct sum of two full blocks (union lattice) and the
    two-band ``S + S^2/2``."""
    S = unilateral_shift()
    return [("block_real_2", quasinormal_block(_L2)),
            ("block_complex_3", quasinormal_block(_L3)),
            ("block_sum", direct_sum(quasinormal_block(_L2), quasinormal_block(_L2B))),
            ("two_band", S + 0.5 * (S ** 2))]


def _windowed_digests() -> list[str]:
    """``name=sha256`` per windowed fixture, of decompose, left_inverse_apply,
    classd_residual, analytic_criterion, lower_bound_estimate and
    wandering_basis on it, at full precision: a change shows which
    fixture's bits moved."""
    vec = lambda v: repr((v.rank, v.items()))
    out = []
    for name, T in _windowed_fixtures():
        assert not T.gram().is_diagonal(), name
        digest = hashlib.sha256()
        rng = np.random.default_rng(20170426)
        h = rand_vec(T.lattice, rng, 3, 3)
        digest.update(_full_repr(decompose(T, h)).encode())
        digest.update(vec(left_inverse_apply(T, h)).encode())
        probes = default_probes(T.lattice, n_basis=4, n_random=2, max_support=3,
                                seed=7, extent=3)
        digest.update(repr(classd_residual(T, n_max=3, probes=probes)).encode())
        digest.update(repr(analytic_criterion(T, h, 2)).encode())
        digest.update(repr(lower_bound_estimate(T, 6)).encode())
        digest.update(repr([vec(b) for b in wandering_basis(T, 6)]).encode())
        out.append(f"{name}={digest.hexdigest()}")
    return out


def test_windowed_digest_pinned():
    # bit-identity of the windowed Gram path.  A dense Cholesky factor
    # changes in its last bits with the BLAS thread count, and decompose of
    # S + S^2/2 is sensitive to them, so the digests are taken in a child
    # interpreter with one BLAS thread, the benchmark's setting; twice, on
    # fresh fixtures, first with a cold plan cache and window memo and then
    # with warm ones
    here = Path(__file__).resolve().parent
    src = Path(woldkit.wold.__file__).resolve().parents[1]
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(map(str, (src, here)))}
    proc = subprocess.run(
        [sys.executable, "-c", "import test_wold; test_wold.woldkit.bandop._PLANS.clear(); "
                               "test_wold.woldkit.bandop._WINDOWS.clear(); "
                               "print(*test_wold._windowed_digests()); "
                               "print(*test_wold._windowed_digests())"],
        cwd=here, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [" ".join([
        "block_real_2=f334933e1ddf9881aabf13571220e1345aa4a5e8923521f51cd9e4fbe51cfdcb",
        "block_complex_3=d22021464dbd7bd1793673746c5bc7aee0a0de940ed6124f7bdea2edc09b1d6d",
        "block_sum=6b976e311194b30b300ae7a162e62b30cafe5836c536c6023a1c4ab4f7ceead2",
        "two_band=92000d7a242e6aab5fd0238084fecb5aea7da7fdfdd161d3419d56c077d8c5a8"])] * 2


def test_series_settle_sees_amplitudes_underflow():
    # T~ = 100 S* magnifies the left-inverse chain by 100 per step; the power
    # identity residual is taken after T^n, at the scale of h, so it stays at
    # round-off and the series ends with the limit loop's plateau
    res = decompose(0.01 * bilateral_shift(), unit(0) + 0.5 * unit(3))
    assert (res.n_used, res.j_used, res.flags) == (3, 2, ())
    assert res.power_residual <= 1e-15
    assert hashlib.sha256(_full_repr(res).encode()).hexdigest() == \
        "7a5662bac06dcbb076be391d99d4a3a45b76eb1c7aa396a4238b84843641eb37"


def _settle_operators():
    """Every fixture, its adjoint where that is left invertible, scaled shifts
    whose orbits underflow, and a two-band operator whose supports grow."""
    ops = []
    for name, T in make_zoo_fixtures():
        ops.append((name, T))
        if lower_bound_estimate(T.adjoint(), 8) > 1e-3:
            ops.append((name + "*", T.adjoint()))
    S = unilateral_shift()
    ops += [("0.01*bilateral", 0.01 * bilateral_shift()), ("1e-3*bergman", 1e-3 * bergman_shift()),
            ("S+S^2/2", S + 0.5 * (S ** 2))]
    return ops


_SETTLE_OPS = _settle_operators()


def _adjoint_orbit_settled(adjT, w, budget):
    """Reference walk: True when ``budget`` applications of ``adjT`` never
    shrink the support of ``w``, each walk started afresh."""
    size = len(w)
    for _ in range(budget):
        w = adjT.apply(w)
        if len(w) < size:
            return False
        size = len(w)
    return True


def _check_settle_tests(T, h, positions, end):
    """The linear-time settle test, at nondecreasing positions, against the walk."""
    adjT = T.adjoint()
    orbit = _Orbit(h, adjT.apply)
    walked = h
    for n in range(max(positions, default=0) + 1):
        assert orbit.at(n) == walked
        walked = adjT.apply(walked)
    for n in positions:
        assert orbit.settled(n, end) == _adjoint_orbit_settled(adjT, orbit.at(n), end - n)


@pytest.mark.parametrize("name", [name for name, _ in _SETTLE_OPS])
def test_settle_record_matches_walk(name):
    T = dict(_SETTLE_OPS)[name]
    rng = np.random.default_rng(20170426)
    for extent in (3, 12):
        h = rand_vec(T.lattice, rng, size=4, extent=extent)
        _check_settle_tests(T, h, range(25), 24)
    # amplitudes that underflow along the orbit of a contracting T*
    _check_settle_tests(T, 1e-300 * h, range(25), 24)


@seed(20170427)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_settle_record_matches_walk_on_random_supports(data):
    name, T = data.draw(st.sampled_from(_SETTLE_OPS))
    support = data.draw(st.lists(st.sampled_from(T.lattice.window(10)), min_size=1,
                                 max_size=5, unique=True))
    # tiny amplitudes underflow along the orbit of a contracting T*
    amps = data.draw(st.lists(st.sampled_from((1.0, -0.5j, 0.25 + 2j, 1e-300, 5e-324)),
                              min_size=len(support), max_size=len(support)))
    h = FinVec(dict(zip(support, amps)), rank=T.rank)
    end = data.draw(st.integers(0, 40))
    positions = sorted(data.draw(st.lists(st.integers(0, end), max_size=10)))
    _check_settle_tests(T, h, positions, end)


def test_convergence_errors_name_phase_and_iteration(monkeypatch):
    real = woldkit.wold.solve_gram
    calls = []

    def failing_at(k):
        def solve(*args, **kwargs):
            calls.append(1)
            if len(calls) == k:
                raise NoConvergence("window exhausted", residual=0.5, window=7)
            return real(*args, **kwargs)
        return solve

    # e3 under the Bergman shift: each step n = 1, 2, 3 solves the limit
    # loop's (T^n)~ h, then the left-inverse chain's T~ y_{n-1}
    for k, where in ((3, "limit phase, n=2"), (4, "left-inverse chain, n=2")):
        calls.clear()
        monkeypatch.setattr(woldkit.wold, "solve_gram", failing_at(k))
        with pytest.raises(NoConvergence) as exc:
            decompose(bergman_shift(), unit(3))
        assert str(exc.value) == f"{where}: window exhausted"
        assert (exc.value.residual, exc.value.window) == (0.5, 7)


# ---------------------------------------------------------------------------
# reducing residual and surjectivity witness
# ---------------------------------------------------------------------------

def test_reducing_residual_isometries():
    rng = np.random.default_rng(7)
    for T in (unilateral_shift(), bilateral_shift()):
        for n in (0, 1, 3):
            h = rand_vec(T.lattice, rng)
            assert reducing_residual(T, h, n) <= 1e-13


def test_reducing_residual_bergman():
    B = bergman_shift()
    rng = np.random.default_rng(8)
    for n in range(0, 7):
        h = rand_vec(B.lattice, rng)
        assert reducing_residual(B, h, n) <= 1e-11


def test_surjectivity_witness_bilateral():
    T = bilateral_shift()
    hp = surjectivity_witness(T, unit(5))
    assert hp == unit(4)


def test_surjectivity_witness_mixed_sum():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    h_inf = embed_summand(unit(0), 0)
    hp = surjectivity_witness(D, h_inf)
    assert hp == embed_summand(unit(-1), 0)
    assert (D.apply(hp) - h_inf).norm() <= 1e-10
    lim, _ = shift_limit_project(D, hp)
    assert (hp - lim).norm() <= 1e-10


def test_surjectivity_witness_rejects_series_vector():
    S = unilateral_shift()
    with pytest.raises(InputNotInHInfinity):
        surjectivity_witness(S, unit(0))


def test_surjectivity_witness_zero():
    assert surjectivity_witness(bilateral_shift(), zero(1)).is_zero
