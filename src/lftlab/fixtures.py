"""Worked-example fixtures and instance generators.

Three closed-form convex functions on [0,1] serve as golden fixtures:

  ex1  quadratic        x^2 - 3x/4 + 1/2
  ex2  piecewise linear kinks at 1/4, 1/2, 3/4 with slopes 0,1/4,1/2,3/4
  ex3  piecewise linear kinks at 1/4, 3/4 with slopes 0,1/2,1

Each comes with its exact continuous conjugate for convergence checks.
The ex3 conjugate's middle branch is 3s/4 - 1/4, the unique continuous
interpolant of its kink values (s/4 at 1/2 and s - 1/2 at 1).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .errors import DegenerateGrid
from .grids import FunctionSpec, RegularGrid
from .multi import TensorGrid, TensorSamples
from .rational import frac

F = Fraction


def unit_grid(n: int) -> RegularGrid:
    """n equispaced points covering [0, 1]."""
    if n < 2:
        raise DegenerateGrid(f"need at least 2 grid points, got {n}")
    return RegularGrid(x0=F(0), gamma=F(1, n - 1), n=n)


def ex1_function(x: Fraction) -> Fraction:
    return x * x - F(3, 4) * x + F(1, 2)


def ex1_conjugate(s: Fraction) -> Fraction:
    s = frac(s)
    if s < F(-3, 4):
        return F(-1, 2)
    if s > F(5, 4):
        return s - F(3, 4)
    return s * s / 4 + F(3, 8) * s - F(23, 64)


def ex2_function(x: Fraction) -> Fraction:
    x = frac(x)
    if x < F(1, 4):
        return F(0)
    if x < F(1, 2):
        return x / 4 - F(1, 16)
    if x < F(3, 4):
        return x / 2 - F(3, 16)
    return F(3, 4) * x - F(6, 16)


def ex2_conjugate(s: Fraction) -> Fraction:
    s = frac(s)
    if s < 0:
        return F(0)
    if s < F(1, 4):
        return s / 4
    if s < F(1, 2):
        return s / 2 - F(1, 16)
    if s < F(3, 4):
        return F(3, 4) * s - F(3, 16)
    return s - F(6, 16)


def ex3_function(x: Fraction) -> Fraction:
    x = frac(x)
    if x < F(1, 4):
        return F(0)
    if x < F(3, 4):
        return x / 2 - F(1, 8)
    return x - F(1, 2)


def ex3_conjugate(s: Fraction) -> Fraction:
    s = frac(s)
    if s < 0:
        return F(0)
    if s < F(1, 2):
        return s / 4
    if s < 1:
        return F(3, 4) * s - F(1, 4)
    return s - F(1, 2)


_CLOSED_FORMS: dict[str, tuple[Callable, Callable]] = {
    "quadratic-ex1": (ex1_function, ex1_conjugate),
    "pwl-ex2": (ex2_function, ex2_conjugate),
    "pwl-ex3": (ex3_function, ex3_conjugate),
}


def sampled(name: str, n: int = 5) -> FunctionSpec:
    """Sample a named fixture function on the n-point unit grid."""
    fn, _ = _CLOSED_FORMS[name]
    grid = unit_grid(n)
    return FunctionSpec(
        grid=grid, samples=tuple(fn(grid.point(i)) for i in range(n)), closed_form=name
    )


def conjugate_of(name: str) -> Callable[[Fraction], Fraction]:
    return _CLOSED_FORMS[name][1]


def ex1(n: int = 5) -> FunctionSpec:
    return sampled("quadratic-ex1", n)


def ex2(n: int = 5) -> FunctionSpec:
    return sampled("pwl-ex2", n)


def ex3(n: int = 5) -> FunctionSpec:
    return sampled("pwl-ex3", n)


def constant(value=0, n: int = 4) -> FunctionSpec:
    grid = unit_grid(n)
    return FunctionSpec(grid=grid, samples=tuple(frac(value) for _ in range(n)))


def random_convex_spec(rng: random.Random, n: int) -> FunctionSpec:
    """Random convex samples, in eighths, from nondecreasing gradients."""
    denom = 8
    grid = unit_grid(n)
    g0 = F(rng.randint(-2 * denom, 2 * denom), denom)
    increments = [F(rng.randint(0, denom), denom) for _ in range(n - 2)]
    c = [g0]
    for inc in increments:
        c.append(c[-1] + inc)
    samples = [F(rng.randint(-denom, denom), denom)]
    for ci in c:
        samples.append(samples[-1] + grid.gamma * ci)
    return FunctionSpec(grid=grid, samples=tuple(samples))


def random_quadratic_spec(rng: random.Random, n: int) -> FunctionSpec:
    """Random convex quadratic a x^2 + b x + c with rational coefficients."""
    a = F(rng.randint(1, 12), rng.randint(1, 3))
    b = F(rng.randint(-8, 8), rng.randint(1, 4))
    c = F(rng.randint(-4, 4), rng.randint(1, 4))
    grid = unit_grid(n)
    return FunctionSpec(
        grid=grid,
        samples=tuple(a * x * x + b * x + c for x in grid.points()),
    )


def separable_sum(base: str = "quadratic-ex1", d: int = 2, n: int = 5) -> TensorSamples:
    """f(x_0..x_{d-1}) = sum of one fixture function per coordinate."""
    fn, _ = _CLOSED_FORMS[base]
    grid = TensorGrid(axes=tuple(unit_grid(n) for _ in range(d)))
    return TensorSamples.from_function(grid, lambda *xs: sum(fn(x) for x in xs))


def random_convex_quadratic_nd(
    rng: random.Random, d: int, n: int, coupling: int = 1
) -> TensorSamples:
    """x^T Q x + <a, x> with Q = B^T B + I, B small random integers.

    The identity shift keeps Q positive definite; `coupling` scales the
    off-diagonal strength.
    """
    B = [[rng.randint(-coupling, coupling) for _ in range(d)] for _ in range(d)]
    Q = [
        [
            sum(B[k][i] * B[k][j] for k in range(d)) + (1 if i == j else 0)
            for j in range(d)
        ]
        for i in range(d)
    ]
    a = [F(rng.randint(-4, 4), 2) for _ in range(d)]
    grid = TensorGrid(axes=tuple(unit_grid(n) for _ in range(d)))

    def fn(*xs):
        quad = sum(Q[i][j] * xs[i] * xs[j] for i in range(d) for j in range(d))
        return quad + sum(a[i] * xs[i] for i in range(d))

    return TensorSamples.from_function(grid, fn)


def hypercube_grid(d: int) -> TensorGrid:
    return TensorGrid(
        axes=tuple(RegularGrid(x0=F(0), gamma=F(1), n=2) for _ in range(d))
    )
