"""One-dimensional discrete Legendre-Fenchel transforms.

The fast path assigns each dual point its optimizer through the gradient
rule: x*_j is the grid point x_i whose gradient interval (c_{i-1}, c_i]
contains s_j, with dual points at or below c_0 pinned to x_0 and points
at or above c_{n-2} pinned to x_{n-1}. The independent oracle, the
brute-force evaluation of the defining maximum, is ``multi.lft_brute``:
the one-axis case of the d-dimensional brute.

The fast path runs on Python ints, each as wide as the element it holds,
kept by the containers from construction: the numerators and denominators
of samples, gradients and explicit dual points (``FunctionSpec.ratios``,
``GradientVector.ratios``, ``DualGrid.ratios``) and a regular grid's
``progression`` (see ``grids``). The kernel's slopes and centered
midpoints are each over the lcm of its two operands' denominators, and not
reduced to lowest terms: every consumer floor-divides, cross-multiplies or
builds a ``Fraction`` (``rational.reduced``), which normalizes anyway. The
1D simulator's one-call runs (``qlft``) hold them as register words. One
count function, ``_rule``, gives the rule's multiplicities without a sweep
over the dual points: it is the rule kernel of the 1D routes and of every
nested nD pass, which reads its grid once and counts every line with it.
Each value s_j x_i - f_i is one integer fraction, made a ``Fraction`` only
when the result is returned.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import sub
from typing import Callable, Optional, Sequence

from .errors import DegenerateGrid, InvalidK, NonConvexInput, OutOfRangeDual
from .grids import DualGrid, FunctionSpec, GradientVector, RegularGrid
from .rational import Number, Vec, frac, nondecreasing, reduced

ADAPTIVE_VARIANTS = ("centered", "right", "left")


@dataclass(frozen=True)
class ConjugateResult:
    """Dual points paired with conjugate values and optimizer indices."""

    dual: DualGrid
    values: tuple
    optimizer_index: tuple[int, ...]

    def pairs(self):
        return tuple(zip(self.dual.points(), self.values))


def _slopes(v: Vec, step: Number) -> Vec:
    """(v_{i+1} - v_i) / step, for step > 0, as ratios not reduced to
    lowest terms (positive denominators), each over the lcm of its two
    values' denominators times step's numerator: a multiple of both."""
    (p, q), (g, h) = v, step.as_integer_ratio()
    ms = list(map(lcm, q, q[1:]))
    nums = [(b * (m // s) - a * (m // r)) * h for a, r, b, s, m in zip(p, q, p[1:], q[1:], ms)]
    return nums, [m * g for m in ms]


def _gradients(f: FunctionSpec) -> Vec:
    """The exact gradients c_i of ``f``, checked nondecreasing. The error
    names the least exact second difference, as a float for float samples."""
    if f.n < 3:
        raise DegenerateGrid(f"need n >= 3 primal points, got {f.n}")
    c = _slopes(f.ratios, f.grid.gamma)
    if not nondecreasing(c):
        exact = [Fraction(v) for v in f.samples]
        bad = min(u - 2 * v + w for u, v, w in zip(exact, exact[1:], exact[2:]))
        if any(isinstance(v, float) for v in f.samples):
            bad = float(bad)
        raise NonConvexInput(f"second differences go negative (min {bad})")
    return c


def discrete_gradients(f: FunctionSpec) -> GradientVector:
    """Forward differences (f(x_{i+1}) - f(x_i)) / gamma_x for all i; the
    kernel has checked them, so the vector does not check them again."""
    return GradientVector._of_checked(_gradients(f), f.grid)


def nontrivial_dual_range(g: GradientVector) -> tuple[Fraction, Fraction]:
    """The closed interval [c_0, c_{n-2}]; outside it optimizers are pinned."""
    return (g.lo, g.hi)


def regular_dual_grid(rng: tuple[Number, Number], k: int) -> DualGrid:
    """Regular grid with s_0 = lo and s_{k-1} = hi.

    A degenerate range (lo == hi) yields k coincident points with zero
    spacing rather than an error, so constant functions stay usable. A k
    past the index range, which no route could hold, is an OverflowError.
    """
    if k < 2:
        raise InvalidK(f"need k >= 2 dual points, got {k}")
    if k > sys.maxsize:
        raise OverflowError(f"k = {k} dual points exceed the index range")
    lo, hi = frac(rng[0]), frac(rng[1])
    if lo > hi:
        raise ValueError("dual range is reversed")
    gamma_s = (hi - lo) / (k - 1)
    return DualGrid(s0=lo, gamma_s=gamma_s, k=k, kind="regular")


def _rule(dual: DualGrid, unit: tuple[int, int] = (1, 1)) -> Callable[[Vec], list[int]]:
    """The gradient rule against one dual grid, its points times u / v for
    ``unit = (u, v)``, u, v > 0: a function from gradients c to the dual
    points per primal index under the clamped half-open rule. The grid's
    integer form is read here, once, however many lines the rule counts.

    s goes to 0 when s <= c_0, else to n-1 when s >= c_{n-2}, else to the
    i with c_{i-1} < s <= c_i. With N<=(t), N<(t) the numbers of dual
    points at most and below t and top = max(N<(c_{n-2}), N<=(c_0)): index
    0 gets N<=(c_0), index n-1 gets K - top, interior i gets
    min(N<=(c_i), top) - min(N<=(c_{i-1}), top). N<= and N< come by floor
    and ceil division on a regular grid with positive spacing, else by
    bisection over the indices of the sorted points, each probe one
    integer cross product with the grid's ratios.

    Precondition: the gradients c are nondecreasing (every caller passes
    checked ones), so N<=(c_i) is nondecreasing in i, and clamping it to
    [0, K] or capping it at top rewrites only a head and a tail, found by
    bisection.
    """
    k, (u, v) = dual.k, unit
    if dual.kind == "regular" and dual.gamma_s:
        a, p, b = dual.progression
        a, p, b = a * u, p * u, b * v

        def bounds(cn: list[int], cd: list[int]) -> tuple[list[int], int]:
            # s_j = (a + j*p) / b <= n/d  <=>  j <= (n*b - a*d) / (p*d)
            at_most = [(n * b - a * d) // (p * d) + 1 for n, d in zip(cn, cd)]
            n, d = cn[-1], cd[-1]
            return at_most, min(max(-((a * d - n * b) // (p * d)), 0), k)

    else:
        sn, sd = dual.point_ratios()
        js = range(k)

        def versus(n: int, d: int) -> Callable[[int], int]:
            # the sign of s_j * u / v - n / d, by cross products: it is
            # nondecreasing in j, so bisection over the indices reads log K points
            ud, nv = u * d, n * v
            return lambda j: sn[j] * ud - nv * sd[j]

        def bounds(cn: list[int], cd: list[int]) -> tuple[list[int], int]:
            at_most = [bisect_right(js, 0, key=versus(n, d)) for n, d in zip(cn, cd)]
            return at_most, bisect_left(js, 0, key=versus(cn[-1], cd[-1]))

    def counts(c: Vec) -> list[int]:
        at_most, below_top = bounds(*c)
        first = min(max(at_most[0], 0), k)
        top = max(below_top, first)
        head = bisect_right(at_most, 0)
        tail = bisect_right(at_most, top, head)
        capped = [0] * head + at_most[head:tail] + [top] * (len(at_most) - tail)
        return [first, *map(sub, capped[1:], capped), k - top]

    return counts


def _repeat_indices(counts: Sequence[int]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(map(repeat, range(len(counts)), counts)))


def _checked_counts(c: Vec, dual: DualGrid, clamp: bool) -> list[int]:
    """``_rule``'s counts; unless ``clamp``, every dual point must lie in
    the closed nontrivial range [c_0, c_{n-2}]."""
    lo, hi = reduced(c[0][0], c[1][0]), reduced(c[0][-1], c[1][-1])
    if not clamp and (dual.lo < lo or dual.hi > hi):
        s = next(s for s in dual.points() if s < lo or s > hi)
        raise OutOfRangeDual(f"dual point {s} outside [{lo}, {hi}]; clamp to proceed")
    return _rule(dual)(c)


def optimizer_map(
    g: GradientVector, dual: DualGrid, clamp: bool = False
) -> tuple[int, ...]:
    """Optimizer indices for every dual point, nondecreasing in j.

    Raises OutOfRangeDual for points outside the closed nontrivial range
    unless ``clamp`` is set, in which case they pin to the boundary
    optimizers (the trivial dual region).
    """
    return _repeat_indices(_checked_counts(g.ratios, dual, clamp))


def _conjugate_values(f: FunctionSpec, dual: DualGrid, idx: Sequence[int]) -> tuple:
    """s_j x_i - f_i for i = idx[j], each one integer fraction made a
    Fraction on return."""
    fn, fd = f.ratios
    a, dx, xd = f.grid.progression
    # over ls[i] = lcm(xd, q_i): x_i = xs[i] / ls[i] and f_i = fs[i] / ls[i], so
    # s x_i - f_i = (sn * xs[i] - fs[i] * sd) / (ls[i] * sd) for s = sn / sd
    ls = [lcm(xd, q) for q in fd]
    xs = [(a + i * dx) * (m // xd) for i, m in enumerate(ls)]
    fs = [p * (m // q) for p, q, m in zip(fn, fd, ls)]
    if dual.ratios is not None:
        sn, sd = dual.ratios
        nums = [n * xs[i] - fs[i] * d for n, d, i in zip(sn, sd, idx)]
        dens = [ls[i] * d for d, i in zip(sd, idx)]
    else:
        # one denominator sd for all points s_j = (s0 + j * step) / sd
        s0, step, sd = dual.progression
        fs, ls = [v * sd for v in fs], [m * sd for m in ls]
        sn = range(s0, s0 + dual.k * step, step) if step else repeat(s0, dual.k)
        nums = [n * xs[i] - fs[i] for n, i in zip(sn, idx)]
        dens = [ls[i] for i in idx]
    return tuple(map(reduced, nums, dens))


def lft_regular(f: FunctionSpec, dual: DualGrid, clamp: bool = False) -> ConjugateResult:
    """Linear-time transform on a sorted regular dual grid."""
    idx = _repeat_indices(_checked_counts(_gradients(f), dual, clamp))
    values = _conjugate_values(f, dual, idx)
    return ConjugateResult(dual=dual, values=values, optimizer_index=idx)


def check_adaptive_variant(variant: str) -> None:
    """Reject a variant outside ``ADAPTIVE_VARIANTS`` (a ``ValueError``)."""
    if variant not in ADAPTIVE_VARIANTS:
        raise ValueError(f"unknown adaptive variant {variant!r}")


def _adaptive_points(c: Vec, variant: str) -> Vec:
    """The adaptive dual points, one per primal index, from the exact
    gradients; the boundary midpoints collapse onto c_0 and c_{n-2}."""
    check_adaptive_variant(variant)
    cn, cd = c
    if variant == "centered":
        # the midpoint of a/d and b/d is (a + b) / (2*d); unequal d and e
        # rescale to their lcm first
        mn, md = [cn[0]], [cd[0]]
        for a, d, b, e in zip(cn, cd, cn[1:], cd[1:]):
            if d != e:
                m = lcm(d, e)
                a, b, d = a * (m // d), b * (m // e), m
            mn.append(a + b)
            md.append(2 * d)
        return mn + cn[-1:], md + cd[-1:]
    if variant == "right":
        return cn + cn[-1:], cd + cd[-1:]
    return cn[:1] + cn, cd[:1] + cd


def lft_adaptive(f: FunctionSpec, variant: str = "centered") -> ConjugateResult:
    """Adaptive-dual transform; each dual point's optimizer is its own index."""
    dual = DualGrid.from_points(map(reduced, *_adaptive_points(_gradients(f), variant)))
    idx = tuple(range(f.n))
    return ConjugateResult(dual=dual, values=_conjugate_values(f, dual, idx), optimizer_index=idx)


def double_transform(f: FunctionSpec, k: Optional[int] = None) -> ConjugateResult:
    """Transform twice over canonical dual grids; values never exceed f."""
    g = discrete_gradients(f)
    dual = regular_dual_grid(nontrivial_dual_range(g), k or f.n)
    if dual.gamma_s == 0:
        raise DegenerateGrid("double transform needs a nondegenerate dual range")
    first = lft_regular(f, dual)
    fstar = FunctionSpec(
        grid=RegularGrid(x0=dual.s0, gamma=dual.gamma_s, n=dual.k),
        samples=first.values,
    )
    g2 = discrete_gradients(fstar)
    dual2 = regular_dual_grid(nontrivial_dual_range(g2), k or f.n)
    return lft_regular(fstar, dual2)


def convergence_gap(
    f: FunctionSpec,
    continuous_conjugate: Callable[[Fraction], Fraction],
    dual: DualGrid,
) -> Fraction:
    """max_j |cc(s_j) - f*(s_j)| against a known closed-form conjugate."""
    pairs = lft_regular(f, dual).pairs()
    return max(Fraction(0), *(abs(continuous_conjugate(s) - v) for s, v in pairs))
