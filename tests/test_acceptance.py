"""Acceptance suite: one pass/fail line per criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each criterion is a separate test so the suite also reads as a
checklist in the pytest report.
"""

import time

import numpy as np

from woldkit.bandop import bergman, constant, dirichlet, identity
from woldkit.classd import (
    classd_residual,
    default_probes,
    isometry_residual,
    product_closure_check,
    quasinormal_residual,
)
from woldkit.oracle import (
    dense_section,
    guard_ok,
    oracle_decompose,
    oracle_left_inverse,
    oracle_limit_project,
    oracle_project,
)
from woldkit.seqspace import FinVec, unit
from woldkit.wold import (
    InputNotInHInfinity,
    analytic_criterion,
    decompose,
    nested_project,
    reducing_residual,
    shift_limit_project,
    surjectivity_witness,
    wandering_basis,
)
from woldkit.wold2d import PART_TAGS, fourfold
from woldkit.zoo import (
    PhiFamily,
    bergman_shift,
    bilateral_shift,
    direct_sum,
    dirichlet_shift,
    embed_summand,
    quasinormal_block,
    tensor_pair,
    unilateral_shift,
    weighted_shift,
    weighted_translation,
)

from conftest import ZOO, rand_vec


def record(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_classd_membership_weighted_shifts():
    start = time.perf_counter()
    worst = 0.0
    for T in (bergman_shift(), dirichlet_shift()):
        rep = classd_residual(T, n_max=8, probes=default_probes(T.lattice),
                              tolerance=1e-10)
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    record("classd membership: Bergman and Dirichlet shifts",
           worst <= 1e-10 and elapsed < 5.0,
           f"residual {worst:.2e}, {elapsed:.2f}s")


def test_classd_membership_weighted_translations():
    start = time.perf_counter()
    worst = 0.0
    for T in (weighted_translation(PhiFamily.exp(1.0), t=1.0, h=1.0),
              weighted_translation(PhiFamily.power(2.0), t=2.0, h=1.0)):
        rep = classd_residual(T, n_max=8, probes=default_probes(T.lattice),
                              tolerance=1e-10)
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    record("classd membership: weighted translations",
           worst <= 1e-10 and elapsed < 5.0,
           f"residual {worst:.2e}, {elapsed:.2f}s")


def test_quasinormal_block_fixture():
    Q = quasinormal_block(np.diag([2.0, 3.0]))
    rq = quasinormal_residual(Q).residual
    rd = classd_residual(Q).residual
    ri = isometry_residual(Q, window=8).residual
    ok = rq <= 1e-12 and rd <= 1e-10 and abs(ri - 8.0) <= 1e-12
    record("quasinormal block: commutation, power compatibility, non-isometry",
           ok, f"quasinormal {rq:.2e}, classd {rd:.2e}, isometry {ri}")


def test_product_closure_fixtures():
    T1, T2 = tensor_pair(bergman(), dirichlet())
    r_tensor = product_closure_check(T1, T2, tolerance=1e-9).residual
    B = bergman_shift()
    r_normal = product_closure_check(B, 2 * identity(B.lattice), tolerance=1e-9).residual
    ok = r_tensor <= 1e-9 and r_normal <= 1e-9
    record("product closure: tensor pair and normal-invertible factor",
           ok, f"tensor {r_tensor:.2e}, scaled identity {r_normal:.2e}")


def test_isometry_biconditional():
    iso_s = isometry_residual(unilateral_shift(), window=16)
    iso_b = isometry_residual(bergman_shift(), window=16)
    ok = (iso_s.residual <= 1e-13
          and iso_s.details["left_inverse_vs_adjoint"] <= 1e-12
          and iso_b.residual >= 0.1
          and iso_b.details["left_inverse_vs_adjoint"] >= 0.1)
    record("isometry biconditional: Gram identity iff left inverse is adjoint",
           ok,
           f"shift ({iso_s.residual:.1e}, {iso_s.details['left_inverse_vs_adjoint']:.1e}), "
           f"Bergman ({iso_b.residual:.2f}, {iso_b.details['left_inverse_vs_adjoint']:.2f})")


def test_projection_suite_on_zoo():
    worst = {"law": 0.0, "nested": 0.0, "monotone": 0.0, "reducing": 0.0,
             "criterion": 0.0}
    for name, T in ZOO:
        rng = np.random.default_rng(0xACCE)
        probes = [rand_vec(T.lattice, rng, size=4, extent=4) for _ in range(2)]
        probes += [unit(ix) for ix in T.lattice.window(2)[:2]]
        for h in probes:
            hn = h.norm()
            prev_norm = hn
            for n in (1, 2, 3):
                Pn = nested_project(T, n, h)
                # projection law: idempotence and self-adjointness
                worst["law"] = max(worst["law"],
                                   (nested_project(T, n, Pn) - Pn).norm() / hn)
                g = probes[0]
                sym = abs(Pn.inner(g) - h.inner(nested_project(T, n, g)))
                worst["law"] = max(worst["law"], sym / (hn * g.norm()))
                # nestedness and monotonicity
                Pn1 = nested_project(T, n + 1, h)
                worst["nested"] = max(worst["nested"],
                                      (nested_project(T, n + 1, Pn) - Pn1).norm() / hn)
                worst["monotone"] = max(worst["monotone"],
                                        (Pn.norm() - prev_norm) / hn)
                prev_norm = Pn.norm()
            for n in (0, 2):
                worst["reducing"] = max(worst["reducing"], reducing_residual(T, h, n))
            for n in range(1, 9):
                crit = analytic_criterion(T, h, n)
                pn = nested_project(T, n, h).norm()
                worst["criterion"] = max(worst["criterion"], abs(crit - pn) / hn)
    ok = (worst["law"] <= 1e-11 and worst["nested"] <= 1e-11
          and worst["monotone"] <= 1e-11 and worst["reducing"] <= 1e-11
          and worst["criterion"] <= 1e-10)
    record("projection suite on every zoo fixture",
           ok, ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_wandering_subspace_suite():
    # wandering orthogonality across iterates up to power 10
    worst_cross = 0.0
    for T in (unilateral_shift(), bergman_shift(), dirichlet_shift(),
              weighted_shift(constant(1.0), step=3),
              direct_sum(bilateral_shift(), unilateral_shift())):
        basis = wandering_basis(T, window=12)
        iterates = []
        for w in basis:
            cur = w
            for m in range(11):
                iterates.append((m, cur))
                cur = T.apply(cur)
        for i, (m, u) in enumerate(iterates):
            for n, v in iterates:
                if m < n:
                    worst_cross = max(worst_cross, abs(u.inner(v)))

    # reconstruction with exact termination on support-10 probes
    rng = np.random.default_rng(0xACCE + 1)
    worst_recon = 0.0
    j_ok = True
    limit_zero = True
    for T in (unilateral_shift(), bergman_shift(), dirichlet_shift()):
        amps = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        h = FinVec({(k,): complex(a) for k, a in enumerate(amps)})
        res = decompose(T, h)
        worst_recon = max(worst_recon, res.reconstruction_residual / h.norm())
        j_ok = j_ok and res.j_used <= len(h) + 3
        limit_zero = limit_zero and res.limit_part.is_zero

    # the invertible summand of a mixed sum is exactly the limit part
    D = direct_sum(bilateral_shift(), unilateral_shift())
    u = embed_summand(unit(0) + 2 * unit(-3), 0)
    v = embed_summand(unit(1) + 0.5 * unit(4), 1)
    res = decompose(D, u + v)
    mixed_ok = (res.limit_part - u).norm() <= 1e-10

    ok = (worst_cross <= 1e-10 and worst_recon <= 1e-10 and j_ok
          and limit_zero and mixed_ok)
    record("wandering subspace suite: orthogonality, reconstruction, limit parts",
           ok, f"cross {worst_cross:.2e}, recon {worst_recon:.2e}")


def test_surjectivity_witness_criterion():
    D = direct_sum(bilateral_shift(), unilateral_shift())
    h_inf = embed_summand(unit(0), 0)
    hp = surjectivity_witness(D, h_inf)
    cert1 = (D.apply(hp) - h_inf).norm()
    lim, _ = shift_limit_project(D, hp)
    cert2 = (hp - lim).norm()
    raised = False
    try:
        surjectivity_witness(unilateral_shift(), unit(0))
    except InputNotInHInfinity:
        raised = True
    ok = cert1 <= 1e-10 and cert2 <= 1e-10 and raised
    record("surjectivity witness on the limit subspace",
           ok, f"certificates {cert1:.2e}, {cert2:.2e}; series input rejected: {raised}")


def test_fourfold_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0xACCE + 2)
    amps = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

    def grid_vec(lattice):
        v = FinVec({(i, j): complex(amps[i, j]) for i in range(8) for j in range(8)},
                   rank=2)
        return v * (1.0 / v.norm())

    fixtures = [
        ("s_s", tensor_pair(constant(1.0), constant(1.0), "nat", "nat")),
        ("inf_inf", tensor_pair(constant(1.0), constant(1.0), "int", "int")),
        ("inf_s", tensor_pair(constant(1.0), constant(1.0), "int", "nat")),
    ]
    ok = True
    details = []
    for tag, (T1, T2) in fixtures:
        h = grid_vec(T1.lattice)
        res = fourfold(T1, T2, h)
        main_err = (res.parts[tag] - h).norm()
        others = max(res.parts[t].norm() for t in PART_TAGS if t != tag)
        ok = ok and main_err <= 1e-10 and others <= 1e-10
        ok = ok and res.residual <= 1e-10 and res.cross_terms <= 1e-10
        details.append(f"{tag}: part {main_err:.1e}, rest {others:.1e}, "
                       f"residual {res.residual:.1e}, cross {res.cross_terms:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    record("fourfold suite on the three tensor fixtures",
           ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_oracle_equivalence_suite():
    start = time.perf_counter()
    worst = 0.0
    for name, T in ZOO:
        rng = np.random.default_rng(0xACCE + 3)
        D = dense_section(T, 16)
        probes = [rand_vec(T.lattice, rng, size=4, extent=4) for _ in range(2)]
        assert guard_ok(D, probes, depth=4), f"guard rule violated for {name}"
        for v in probes:
            vn = max(1.0, v.norm())
            from woldkit.bandop import left_inverse_apply
            worst = max(worst, (left_inverse_apply(T, v)
                                - oracle_left_inverse(D, v)).norm() / vn)
            for n in (1, 2):
                worst = max(worst, (nested_project(T, n, v)
                                    - oracle_project(D, v, n)).norm() / vn)

    # full decomposition agreement on the rank-1 shift fixtures
    rng = np.random.default_rng(0xACCE + 4)
    for T in (unilateral_shift(), bergman_shift(), dirichlet_shift()):
        h = FinVec({(k,): complex(a) for k, a in
                    enumerate(rng.standard_normal(6) + 1j * rng.standard_normal(6))})
        res = decompose(T, h)
        D = dense_section(T, 40)
        assert guard_ok(D, [h], depth=res.n_used + res.j_used + 1)
        ores = oracle_decompose(D, h)
        worst = max(worst, (res.limit_part - ores.limit_part).norm() / h.norm())
        for a, b in zip(res.components, ores.components):
            worst = max(worst, (a - b).norm() / h.norm())

    # fourfold parts against dense nested limits
    T1, T2 = tensor_pair(bergman(), dirichlet())
    h = rand_vec(T1.lattice, np.random.default_rng(0xACCE + 5), size=6, extent=4)
    res = fourfold(T1, T2, h)
    D1 = dense_section(T1, 16)
    D2 = dense_section(T2, 16)
    assert guard_ok(D1, [h], depth=8)
    q2h, _ = oracle_limit_project(D2, h)
    q1h, _ = oracle_limit_project(D1, h)
    dense_parts = {
        "inf_inf": oracle_limit_project(D1, q2h)[0],
        "inf_s": oracle_limit_project(D1, h - q2h)[0],
        "s_inf": oracle_limit_project(D2, h - q1h)[0],
    }
    dense_parts["s_s"] = h - q1h - q2h + dense_parts["inf_inf"]
    for tag in PART_TAGS:
        worst = max(worst, (res.parts[tag] - dense_parts[tag]).norm() / h.norm())

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    record("dense-oracle equivalence across the engine",
           ok, f"max relative delta {worst:.2e}, {elapsed:.2f}s")
