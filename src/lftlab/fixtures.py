"""Worked-example fixtures and instance generators.

Three closed-form convex functions on [0,1] serve as golden fixtures:

  ex1  quadratic        x^2 - 3x/4 + 1/2
  ex2  piecewise linear kinks at 1/4, 1/2, 3/4 with slopes 0,1/4,1/2,3/4
  ex3  piecewise linear kinks at 1/4, 3/4 with slopes 0,1/2,1

Each comes with its exact continuous conjugate for convergence checks.
The ex3 conjugate's middle branch is 3s/4 - 1/4, the unique continuous
interpolant of its kink values (s/4 at 1/2 and s - 1/2 at 1).

The instance generators compute every sample's numerator on Python ints,
over a denominator they know in advance, and make each sample a
``Fraction`` once, through ``rational.reduced``. Each draws from its rng in
a fixed order and gives every axis its own ``RegularGrid``, so one seed
gives one output, pickle for pickle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, product
from operator import mul
from typing import Callable

from .errors import DegenerateGrid
from .grids import FunctionSpec, RegularGrid
from .multi import RatTensor, TensorGrid, TensorSamples, _lift
from .rational import frac, reduced

F = Fraction


def unit_grid(n: int) -> RegularGrid:
    """n equispaced points covering [0, 1]."""
    if n < 2:
        raise DegenerateGrid(f"need at least 2 grid points, got {n}")
    return RegularGrid(x0=F(0), gamma=reduced(1, n - 1), n=n)


def ex1_function(x: Fraction) -> Fraction:
    return x * x - reduced(3, 4) * x + reduced(1, 2)


def ex1_conjugate(s: Fraction) -> Fraction:
    s = frac(s)
    if s < reduced(-3, 4):
        return reduced(-1, 2)
    if s > reduced(5, 4):
        return s - reduced(3, 4)
    return s * s / 4 + reduced(3, 8) * s - reduced(23, 64)


def ex2_function(x: Fraction) -> Fraction:
    x = frac(x)
    if x < reduced(1, 4):
        return F(0)
    if x < reduced(1, 2):
        return x / 4 - reduced(1, 16)
    if x < reduced(3, 4):
        return x / 2 - reduced(3, 16)
    return reduced(3, 4) * x - reduced(6, 16)


def ex2_conjugate(s: Fraction) -> Fraction:
    s = frac(s)
    if s < 0:
        return F(0)
    if s < reduced(1, 4):
        return s / 4
    if s < reduced(1, 2):
        return s / 2 - reduced(1, 16)
    if s < reduced(3, 4):
        return reduced(3, 4) * s - reduced(3, 16)
    return s - reduced(6, 16)


def ex3_function(x: Fraction) -> Fraction:
    x = frac(x)
    if x < reduced(1, 4):
        return F(0)
    if x < reduced(3, 4):
        return x / 2 - reduced(1, 8)
    return x - reduced(1, 2)


def ex3_conjugate(s: Fraction) -> Fraction:
    s = frac(s)
    if s < 0:
        return F(0)
    if s < reduced(1, 2):
        return s / 4
    if s < 1:
        return reduced(3, 4) * s - reduced(1, 4)
    return s - reduced(1, 2)


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
    g0 = rng.randint(-2 * denom, 2 * denom)
    # the gradients' numerators over denom, all drawn before s0
    grads = list(accumulate((rng.randint(0, denom) for _ in range(n - 2)), initial=g0))
    # s_{k+1} = s_k + c_k / (n - 1): the samples' numerators over denom * (n - 1)
    sums = accumulate(grads, initial=rng.randint(-denom, denom) * (n - 1))
    return FunctionSpec(grid=grid, samples=tuple(reduced(s, denom * (n - 1)) for s in sums))


def random_quadratic_spec(rng: random.Random, n: int) -> FunctionSpec:
    """Random convex quadratic a x^2 + b x + c with rational coefficients."""
    an, ad = rng.randint(1, 12), rng.randint(1, 3)
    bn, bd = rng.randint(-8, 8), rng.randint(1, 4)
    cn, cd = rng.randint(-4, 4), rng.randint(1, 4)
    grid = unit_grid(n)
    m = n - 1  # at x = i / m: (A i^2 + B i + C) / (ad bd cd m^2)
    A, B, C = an * bd * cd, bn * ad * cd * m, cn * ad * bd * m * m
    den = ad * bd * cd * m * m
    return FunctionSpec(grid=grid, samples=tuple(reduced(A * i * i + B * i + C, den) for i in range(n)))


def separable_sum(base: str = "quadratic-ex1", d: int = 2, n: int = 5) -> TensorSamples:
    """f(x_0..x_{d-1}) = sum of one fixture function per coordinate."""
    fn, _ = _CLOSED_FORMS[base]
    grid = TensorGrid(axes=tuple(unit_grid(n) for _ in range(d)))
    nums, den = _lift([fn(x) for x in grid.axes[0].points()])
    flat = tuple(reduced(sum(k), den) for k in product(nums, repeat=d))
    return TensorSamples(grid=grid, values=RatTensor(grid.shape, flat))


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
    a2 = [rng.randint(-4, 4) for _ in range(d)]  # a = a2 / 2
    grid = TensorGrid(axes=tuple(unit_grid(n) for _ in range(d)))
    m = n - 1  # at x = k / m: (2 k^T Q k + m <a2, k>) / (2 m^2)
    nums = (
        2 * sum(q * ki * kj for Qi, ki in zip(Q, k) for q, kj in zip(Qi, k)) + m * sum(map(mul, a2, k))
        for k in product(range(n), repeat=d)
    )
    values = RatTensor(grid.shape, tuple(reduced(v, 2 * m * m) for v in nums))
    return TensorSamples(grid=grid, values=values)


def hypercube_grid(d: int) -> TensorGrid:
    return TensorGrid(
        axes=tuple(RegularGrid(x0=F(0), gamma=F(1), n=2) for _ in range(d))
    )
