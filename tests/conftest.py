import random
from bisect import bisect_left

import pytest

from lftlab import fixtures
from lftlab.transform import discrete_gradients, nontrivial_dual_range, regular_dual_grid


@pytest.fixture
def ex1():
    return fixtures.ex1()


@pytest.fixture
def ex2():
    return fixtures.ex2()


@pytest.fixture
def ex3():
    return fixtures.ex3()


def canonical_dual(f, k=None):
    g = discrete_gradients(f)
    return regular_dual_grid(nontrivial_dual_range(g), k or f.n)


def raises_exactly(build, error, message):
    """``build()`` raises ``error`` itself, not a subclass, with exactly
    ``message``."""
    with pytest.raises(error) as exc:
        build()
    assert (exc.type, str(exc.value)) == (error, message)


def rule_index(c, s):
    """The clamped half-open gradient rule for one dual point, the per-point
    reference for ``optimizer_map``: 0 when s <= c_0, n-1 when s >= c_{n-2},
    else the bisection for the first c_i >= s over c_0..c_{n-3}."""
    return 0 if s <= c[0] else len(c) if s >= c[-1] else bisect_left(c, s, 0, len(c) - 1)


def reg_names(lab):
    """The register names of a basis label, in order; garbage excluded."""
    return tuple(name for name, _ in lab.regs)


def first_attempt_successes(p, trials, seed):
    """Bernoulli acceptance counts over derived seeds (seed + trial index):
    trial t draws from its own ``Random(seed + t)``."""
    pf = float(p)
    hits = 0
    for t in range(trials):
        if random.Random(seed + t).random() < pf:
            hits += 1
    return hits


@pytest.fixture
def rng():
    return random.Random(1234)
