"""Shared builders for the test suite.

Everything here is deliberately plain: spaces with hand-picked weights,
modules with small fibers, and seeded random elements.  Tests that need a
specific oracle value construct their inputs inline instead.
"""

import numpy as np
from scipy.optimize import linprog

from rieszmod import (
    Fiber,
    FiberModule,
    FiniteFStructure,
    FiniteMeasureSpace,
    Fn,
    GramNorm,
    Kind,
    LpNorm,
    ModuleElement,
)


def make_space(n, weights=None, aux=None):
    names = [f"a{i}" for i in range(n)]
    if weights is None:
        weights = [1.0] * n
    return FiniteMeasureSpace.make(names, weights, aux)


def make_structure(n, v="l2", weights=None, u="Linf"):
    """An f-structure over n atoms; v is 'l1', 'l2', 'linf', 'l0' or a float p."""
    space = make_space(n, weights)
    if v == "linf":
        v_kind = Kind("Linf")
    elif v == "l0":
        v_kind = Kind("L0")
    elif v == "l1":
        v_kind = Kind("Lp", 1.0)
    elif v == "l2":
        v_kind = Kind("Lp", 2.0)
    else:
        v_kind = Kind("Lp", float(v))
    u_kind = Kind("Linf") if u == "Linf" else Kind("L0")
    return FiniteFStructure(space, u_kind, v_kind)


def lp_module(structure, dims, p=2.0):
    fibers = tuple(Fiber(d, LpNorm(p)) for d in dims)
    return FiberModule(structure, fibers)


def gram_module(structure, grams):
    fibers = tuple(Fiber(g.shape[0], GramNorm(g)) for g in grams)
    return FiberModule(structure, fibers)


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def random_element(rng, module, scale=1.0):
    return ModuleElement(
        [scale * rng.standard_normal(f.dim) for f in module.fibers], module
    )


def random_fn(rng, space, scale=1.0):
    return Fn(scale * rng.standard_normal(space.n), space)


def indicator(space, mask):
    return space.indicator(np.asarray(mask, dtype=bool))


def primal_lp_distance(p, v, basis):
    """min over t of |v + basis^T t|_p for p in {1, inf}, as a primal LP.

    Epigraph form over (t, s): for p = 1, |(v + basis^T t)_i| <= s_i and
    the sum of s is minimized; for p = inf one s bounds every coordinate.
    """
    k, d = basis.shape
    s_count = d if p == 1.0 else 1
    cost = np.concatenate([np.zeros(k), np.ones(s_count)])
    spread = np.eye(d) if p == 1.0 else np.ones((d, 1))
    a_ub = np.block([[basis.T, -spread], [-basis.T, -spread]])
    res = linprog(cost, A_ub=a_ub, b_ub=np.concatenate([-v, v]),
                  bounds=[(None, None)] * k + [(0.0, None)] * s_count, method="highs")
    assert res.success, res.message
    return float(res.fun)
