import numpy as np
import pytest

from woldkit import (
    bergman,
    bergman_shift,
    bilateral_shift,
    constant,
    direct_sum,
    dirichlet,
    dirichlet_shift,
    quasinormal_block,
    tensor_pair,
    unilateral_shift,
    weighted_shift,
    weighted_translation,
    PhiFamily,
)
from woldkit.seqspace import FinVec


def make_zoo_fixtures():
    """Every operator family the suites run over, as (name, operator) pairs."""
    t1, t2 = tensor_pair(constant(1.0), constant(1.0))
    tb, td = tensor_pair(bergman(), dirichlet())
    return [
        ("unilateral_shift", unilateral_shift()),
        ("bilateral_shift", bilateral_shift()),
        ("double_bilateral", weighted_shift(constant(2.0), 1, "int")),
        ("bergman_shift", bergman_shift()),
        ("dirichlet_shift", dirichlet_shift()),
        ("translation_exp", weighted_translation(PhiFamily.exp(1.0), 1.0, 1.0)),
        ("translation_power", weighted_translation(PhiFamily.power(2.0), 2.0, 1.0)),
        ("quasinormal_block", quasinormal_block(np.diag([2.0, 3.0]))),
        ("tensor_bergman_factor", tb),
        ("tensor_product", t1.compose(t2)),
        ("mixed_sum", direct_sum(bilateral_shift(), unilateral_shift())),
    ]


ZOO = make_zoo_fixtures()


@pytest.fixture(params=ZOO, ids=[name for name, _ in ZOO])
def zoo_op(request):
    return request.param


def rand_vec(lattice, rng, size=6, extent=8):
    """Seeded random finitely supported vector on a lattice window."""
    pool = lattice.window(extent)
    size = min(size, len(pool))
    picks = rng.choice(len(pool), size=size, replace=False)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return FinVec({pool[int(i)]: complex(a) for i, a in zip(picks, amps)},
                  rank=lattice.rank)


def small_probes(lattice, n_basis=6, n_random=2, seed=7, extent=8):
    """Light probe set for the heavier per-fixture sweeps."""
    from woldkit.classd import default_probes

    return default_probes(lattice, n_basis=n_basis, n_random=n_random,
                          max_support=6, seed=seed, extent=extent)
