"""The instance generators' outputs, pinned byte for byte.

An output's digest is the sha256 of the protocol-4 pickle of the output
together with the rng's next ``random()`` draw, so a change to the values,
to which objects the output shares (one ``RegularGrid`` per axis) or to the
order of the rng's draws fails here. A ``Fraction`` pickles as its
numerator and denominator on every supported Python. Each pin is the
sha256 of the digests of one generator over its seeds, cut to 16 hex
digits.
"""

import hashlib
import io
import pickle
import random
from fractions import Fraction

import pytest

from lftlab import fixtures
from lftlab.errors import DegenerateGrid
from lftlab.multi import TensorGrid, TensorSamples

PINS_1D = {
    "random_convex_spec": {
        2: "7c767839527a29d0", 3: "ca6b503e6d3a02b5", 4: "890c6e1490aaba31", 5: "bd810b761073e602",
        8: "e27ef9170a2657ce", 17: "c9f5577e6ca73370", 100: "b6ab69c07089dd9a", 1000: "9cbd360803a7ab16",
    },
    "random_quadratic_spec": {
        2: "f23df17120aeb084", 3: "d2d17857104f9812", 4: "b2e06818491f355a", 5: "d799c6212cd59b9e",
        8: "6fbf67e7f2feff3e", 17: "aee913358cb50452", 100: "f08d0ad2f03210b8", 1000: "eb4f4fd95f95d67d",
    },
}
PINS_ND = {
    (1, 5, 1): "5debd439b3dc1087",
    (2, 4, 0): "c8d7af83e7121ca3",
    (2, 8, 2): "c4cc78f4e3f58a83",
    (3, 4, 1): "40f1aba535d1e91a",
    (2, 16, 2): "3e0645eb02024820",
    (3, 6, 1): "2312caa6678f3bef",
}
PINS_SUM = {
    ("quadratic-ex1", 1, 5): "9a391e8f3d16e41e",
    ("quadratic-ex1", 2, 4): "793f81df046049fa",
    ("quadratic-ex1", 2, 16): "6c59c632f0a0b4af",
    ("quadratic-ex1", 3, 6): "8537377d1c15aa44",
    ("pwl-ex2", 1, 5): "c51baf973c2f8a3a",
    ("pwl-ex2", 2, 4): "3721203cdacc9d37",
    ("pwl-ex2", 2, 16): "a57b90fedf0d8759",
    ("pwl-ex2", 3, 6): "8da3f48633fc060b",
    ("pwl-ex3", 1, 5): "5bca066b8b1e3728",
    ("pwl-ex3", 2, 4): "9dd7c82648ecde67",
    ("pwl-ex3", 2, 16): "facc9261a58daef2",
    ("pwl-ex3", 3, 6): "28fd4a1731aba6f2",
}


def _digest(output, rng=None) -> bytes:
    drawn = None if rng is None else rng.random()
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    # the same bytes whichever way a Python version reduces a Fraction
    pickler.dispatch_table = {Fraction: lambda f: (Fraction, (f.numerator, f.denominator))}
    pickler.dump((output, drawn))
    return hashlib.sha256(buf.getvalue()).digest()


def _pin(digests) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()[:16]


def _seeded(make, seeds) -> str:
    digests = []
    for seed in seeds:
        rng = random.Random(seed)
        digests.append(_digest(make(rng), rng))
    return _pin(digests)


@pytest.mark.parametrize(
    "name,n", [(name, n) for name, pins in PINS_1D.items() for n in pins]
)
def test_1d_generators_are_pinned(name, n):
    gen = getattr(fixtures, name)
    assert _seeded(lambda rng: gen(rng, n), range(60)) == PINS_1D[name][n]


@pytest.mark.parametrize("d,n,coupling", list(PINS_ND))
def test_random_convex_quadratic_nd_is_pinned(d, n, coupling):
    make = lambda rng: fixtures.random_convex_quadratic_nd(rng, d=d, n=n, coupling=coupling)
    assert _seeded(make, range(20)) == PINS_ND[d, n, coupling]


@pytest.mark.parametrize("base,d,n", list(PINS_SUM))
def test_separable_sum_is_pinned(base, d, n):
    assert _pin([_digest(fixtures.separable_sum(base, d=d, n=n))]) == PINS_SUM[base, d, n]


@pytest.mark.parametrize("n", [1, 0, -1])
def test_a_grid_of_fewer_than_two_points_is_degenerate(n):
    rng = random.Random(0)
    makes = [
        lambda: fixtures.random_convex_spec(rng, n),
        lambda: fixtures.random_quadratic_spec(rng, n),
        lambda: fixtures.random_convex_quadratic_nd(rng, d=2, n=n),
        lambda: fixtures.separable_sum(d=2, n=n),
    ]
    for make in makes:
        with pytest.raises(DegenerateGrid, match="need at least 2 grid points"):
            make()


def test_the_pins_see_a_shared_axis_grid():
    t = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
    shared = TensorGrid(axes=(t.grid.axes[0],) * 2)
    assert shared == t.grid
    again = TensorSamples(grid=shared, values=t.values)
    assert _pin([_digest(again)]) != PINS_SUM["quadratic-ex1", 2, 4]



# the closed forms on [0, 1] and their kinks
CLOSED_FORMS = {
    "quadratic-ex1": (fixtures.ex1_function, ()),
    "pwl-ex2": (fixtures.ex2_function, (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))),
    "pwl-ex3": (fixtures.ex3_function, (Fraction(1, 4), Fraction(3, 4))),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_each_conjugate_is_the_maximum_over_the_unit_interval(name):
    # s*x - f(x) is concave, so it peaks at an end, a kink or, for ex1, the
    # stationary point (s + 3/4) / 2 where that lies in [0, 1]. s from -3 to
    # 3 in eighths reaches every branch, the outer ones (ex1: s < -3/4 and
    # s > 5/4; ex2 and ex3: s < 0) included
    f, kinks = CLOSED_FORMS[name]
    conjugate = fixtures.conjugate_of(name)
    for s in (Fraction(k, 8) for k in range(-24, 25)):
        xs = [0, *kinks, 1]
        if name == "quadratic-ex1" and 0 <= (s + Fraction(3, 4)) / 2 <= 1:
            xs.append((s + Fraction(3, 4)) / 2)
        assert conjugate(s) == max(s * x - f(x) for x in xs), s
