import random
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
