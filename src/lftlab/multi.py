"""d-dimensional discrete transforms via nested one-dimensional passes.

The d-dimensional conjugate factorizes into d nested one-dimensional
transforms: each pass replaces one primal axis by a dual axis, carrying
the negated partial transform g = -(max over that axis), and the final
negation restores f*. Row-major layout with axis 0 slowest; the brute
evaluation over all primal points is the oracle for everything here.
It assumes no convexity and no gradient rule: every primal point enters
the max, taken one axis at a time from the last, and each axis keeps its
first maximum, so ties go to the lexicographically smallest multi-index.

Every route computes on exact ints over a shared denominator, Fractions on
return: samples, grid points and dual components are scaled to Python ints
over one common denominator D, which each nested pass widens by an lcm
rescale once its dual grid is known. A gradient rule compares the integer
differences line[i+1] - line[i] with s * gamma * D, which orders them as
the gradients would, sorted or not. Where D would be wider than
``MAX_SHARED_BITS`` the same loops run on Fraction scalars over D = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from operator import add, floordiv, gt, sub
from typing import Callable, Optional, Sequence

from .errors import BruteCapExceeded, NonConvexSlice
from .grids import DualGrid, RegularGrid
from .rational import frac, progression, split
from .transform import _adaptive_points, _rule_index, regular_dual_grid

MAX_BRUTE_POINTS = 1 << 20
# Widest shared denominator, in bits, that the loops run on as ints. Past
# it, ints that wide cost more than Fractions of the per-element ratios:
# lft_nd_adaptive crosses over first, near 4 kbit (see CHANGES.md).
MAX_SHARED_BITS = 1 << 12


@dataclass(frozen=True)
class RatTensor:
    """Immutable row-major tensor of exact rationals (axis 0 slowest)."""

    shape: tuple[int, ...]
    flat: tuple

    def __post_init__(self):
        size = math.prod(self.shape)
        if size != len(self.flat):
            raise ValueError(f"shape {self.shape} needs {size} values, got {len(self.flat)}")

    @classmethod
    def build(cls, shape: Sequence[int], fn: Callable[[tuple[int, ...]], Fraction]) -> "RatTensor":
        shape = tuple(shape)
        flat = tuple(fn(idx) for idx in product(*(range(s) for s in shape)))
        return cls(shape=shape, flat=flat)

    def offset(self, idx: tuple[int, ...]) -> int:
        pos = 0
        for axis, i in enumerate(idx):
            if not 0 <= i < self.shape[axis]:
                raise IndexError(f"index {idx} out of bounds for shape {self.shape}")
            pos = pos * self.shape[axis] + i
        return pos

    def get(self, idx: tuple[int, ...]) -> Fraction:
        return self.flat[self.offset(idx)]

    def indices(self):
        return product(*(range(s) for s in self.shape))

    def line(self, axis: int, complement: tuple[int, ...]) -> tuple:
        """Values along ``axis`` with the remaining coordinates fixed.

        ``complement`` lists the fixed coordinates in axis order, skipping
        the varying axis.
        """
        start = self.offset((*complement[:axis], 0, *complement[axis:]))
        stride = math.prod(self.shape[axis + 1 :])
        return self.flat[start : start + self.shape[axis] * stride : stride]

    def complements(self, axis: int):
        ranges = [range(s) for a, s in enumerate(self.shape) if a != axis]
        return product(*ranges)


@dataclass(frozen=True)
class TensorGrid:
    """Per-axis regular grids with one shared spacing."""

    axes: tuple[RegularGrid, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("need at least one axis")
        gammas = {g.gamma for g in self.axes}
        if len(gammas) != 1:
            raise ValueError(f"axes must share one spacing, got {sorted(gammas)}")

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def gamma(self) -> Fraction:
        return self.axes[0].gamma

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.axes)

    @property
    def total(self) -> int:
        return math.prod(self.shape)

    def point(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(g.point(i) for g, i in zip(self.axes, idx))


@dataclass(frozen=True)
class TensorSamples:
    grid: TensorGrid
    values: RatTensor

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def from_function(cls, grid: TensorGrid, fn: Callable[..., Fraction]) -> "TensorSamples":
        values = RatTensor.build(grid.shape, lambda idx: frac(fn(*grid.point(idx))))
        return cls(grid=grid, values=values)

    @property
    def d(self) -> int:
        return self.grid.d

    def require_convex_axes(self) -> None:
        """Second differences nonnegative along every axis-aligned line."""
        flat = _lift(self.values.flat)[0]
        for axis in range(self.d):
            for _ in _lines(self.grid.shape, flat, axis, check_convex=True):
                pass


@dataclass(frozen=True)
class TensorConjugate:
    """Conjugate values on dual multi-points, with optimizer multi-indices.

    Regular results carry one DualGrid per axis (a product set); adaptive
    results carry explicit per-label dual multi-points instead.
    """

    values: RatTensor
    optimizer: tuple[tuple[int, ...], ...]
    duals: Optional[tuple[DualGrid, ...]] = None
    dual_points: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def dual_point(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        if self.duals is not None:
            return tuple(gq.point(j) for gq, j in zip(self.duals, idx))
        return self.dual_points[self.values.offset(idx)]


# Scalars over a shared denominator: (values, D, make) with value_i =
# values[i] / D. make(num, den) builds the scalar num / den: exact floor
# division of ints while D fits MAX_SHARED_BITS, else a Fraction with D = 1.
# A scalar that met a Fraction (dual points past the guard) stays one.
Scaled = tuple[list, int, Callable]


def _guard(D: int, make: Callable = floordiv) -> tuple[int, Callable]:
    """D with exact int division, or D = 1 with Fractions once D is too
    wide or the scalars are Fractions already."""
    if make is floordiv and D.bit_length() <= MAX_SHARED_BITS:
        return D, floordiv
    return 1, Fraction


def _lift(values: Sequence, den: int = 1) -> Scaled:
    """The values over the lcm of ``den`` and their denominators, which is
    not built past the guard."""
    nums, dens = split(values)
    D, distinct = den, set(dens)
    for q in distinct:
        D = math.lcm(D, q)
        if D.bit_length() > MAX_SHARED_BITS:
            break
    D, make = _guard(D)
    per = {q: make(D, q) for q in distinct}
    return [a * per[q] for a, q in zip(nums, dens)], D, make


def _widen(flat: list, D: int, make: Callable, den: int) -> Scaled:
    """The same scalars over lcm(D, den), or over 1 past the guard."""
    D2, make = _guard(math.lcm(D, den), make)
    if D2 != D:
        scale = make(D2, D)
        flat = [v * scale for v in flat]
    return flat, D2, make


def _fractions(flat: Sequence, D: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, D) for v in flat)


def _line_starts(shape: tuple[int, ...], axis: int) -> list[int]:
    """Flat offset of the first element of every line along ``axis``, in
    ``complements`` order; a line's elements lie prod(shape[axis+1:]) apart."""
    stride = math.prod(shape[axis + 1 :])
    block = shape[axis] * stride
    return [b + r for b in range(0, math.prod(shape), block) for r in range(stride)]


def _lines(shape: tuple[int, ...], flat: Sequence, axis: int, check_convex: bool):
    """Each line along ``axis`` in ``complements`` order: its fixed
    coordinates, its values and their differences. With ``check_convex``
    the differences must never decrease."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    comps = product(*(range(s) for a, s in enumerate(shape) if a != axis))
    for comp, a in zip(comps, _line_starts(shape, axis)):
        line = flat[a : a + n * stride : stride]
        diffs = list(map(sub, line[1:], line))
        if check_convex and any(map(gt, diffs, diffs[1:])):
            raise NonConvexSlice(f"axis {axis} line at {comp} is not discretely convex")
        yield comp, line, diffs


def axis_transform(
    values: RatTensor,
    axis: int,
    x_axis: RegularGrid,
    dual: DualGrid,
    assignments: Optional[dict] = None,
    check_convex: bool = True,
) -> RatTensor:
    """One-axis transform of a tensor; dual points clamp to each line's range.

    The output holds g = -(max over the axis), the form carried between
    nested passes. ``assignments`` (if given) records the chosen optimizer
    index per (complement, j) for later reconstruction.
    ``check_convex=False`` skips the per-line convexity guard; the gradient
    rule then still runs but its result is only meaningful for callers that
    verify the outcome independently.
    """
    shape, flat, D, _ = _pass(
        values.shape, _lift(values.flat), axis, x_axis, dual, assignments, check_convex
    )
    return RatTensor(shape, _fractions(flat, D))


def _pass(shape, scaled: Scaled, axis, x_axis, dual, assignments, check_convex):
    """``axis_transform`` on scalars over D; returns the new shape and the
    output over lcm(D, ds * dx), with ds and dx the denominators of the
    dual points and of the axis points."""
    n, k = shape[axis], dual.k
    new_shape = (*shape[:axis], k, *shape[axis + 1 :])
    stride = math.prod(shape[axis + 1 :])
    duals, ds, _ = _lift(dual.points())
    a0, p, dx = progression(x_axis.x0, x_axis.gamma)
    flat, D, make = _widen(*scaled, ds * dx)
    # s_j * gamma and s_j * x_i as scalars over D, for gamma = p / dx and
    # x_i = (a0 + i * p) / dx
    unit = make(D, ds * dx)
    s_unit = [s * unit for s in duals]
    thresholds = [s * p for s in s_unit]
    sx = [[s * (a0 + i * p) for i in range(n)] for s in s_unit]
    out = [None] * math.prod(new_shape)
    lines = zip(_lines(shape, flat, axis, check_convex), _line_starts(new_shape, axis))
    for (comp, line, diffs), b in lines:
        opt = [_rule_index(diffs, t) for t in thresholds]
        out[b : b + k * stride : stride] = [line[i] - row[i] for row, i in zip(sx, opt)]
        if assignments is not None:
            assignments.update(((comp, j), i) for j, i in enumerate(opt))
    return new_shape, out, D, make


def _shrink(v):
    """Integral Fractions as plain ints, the form of returned dual points."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


@dataclass(frozen=True)
class PartialTransform:
    """Result of transforming a single axis: g samples plus the dual used."""

    values: RatTensor
    axis: int
    dual: DualGrid


def partial_transform_g(
    f: TensorSamples, axis: int, dual_axis: DualGrid
) -> PartialTransform:
    """Negated one-axis transform g(..., s, ...) = -max_x {s x - f(..., x, ...)}."""
    if not 0 <= axis < f.d:
        raise IndexError(f"axis {axis} out of range for d={f.d}")
    values = axis_transform(f.values, axis, f.grid.axes[axis], dual_axis)
    return PartialTransform(values=values, axis=axis, dual=dual_axis)


def axis_bracket(values: RatTensor, axis: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """Shared dual range for one axis: the minimum first gradient over all
    lines up to the maximum last gradient, read off the boundary faces."""
    return _bracket(values.shape, _lift(values.flat), axis, gamma)


def _bracket(shape, scaled: Scaled, axis, gamma) -> tuple[Fraction, Fraction]:
    flat, D, _ = scaled
    ends = [(d[0], d[-1]) for _, _, d in _lines(shape, flat, axis, check_convex=False)]
    lo, hi = min(e[0] for e in ends), max(e[1] for e in ends)
    return Fraction(lo) / (gamma * D), Fraction(hi) / (gamma * D)


def canonical_nd_dual_grids(f: TensorSamples, ks: Sequence[int]) -> tuple[DualGrid, ...]:
    """Per-axis regular dual grids spanning each pass's shared range.

    Pass order is the last axis first; each later bracket is computed from
    the exactly transformed intermediate tensor.
    """
    if len(ks) != f.d:
        raise ValueError("need one dual size per axis")
    return _cascade(f, ks=ks)[0]


def lft_nd_regular(f: TensorSamples, duals: Sequence[DualGrid]) -> TensorConjugate:
    """Nested one-axis transforms over given per-axis dual grids.

    Exact for inputs whose axis lines (including those of the intermediate
    partial transforms) are discretely convex; equals the brute force
    enumeration elementwise there.
    """
    if len(duals) != f.d:
        raise ValueError("need one dual grid per axis")
    _, assign, (shape, flat, D, _) = _cascade(f, duals=duals)
    values = RatTensor(shape, _fractions([-v for v in flat], D))
    optimizer = _reconstruct_optimizers(shape, assign)
    return TensorConjugate(values=values, optimizer=optimizer, duals=tuple(duals))


def _cascade(
    f: TensorSamples,
    ks: Optional[Sequence[int]] = None,
    duals: Optional[Sequence[DualGrid]] = None,
    check_convex: bool = True,
) -> tuple[tuple[DualGrid, ...], list[dict], tuple]:
    """The classical nested passes, last axis first.

    Each pass runs over ``duals[axis]`` when grids are given, else over the
    canonical grid of ``ks[axis]`` points spanning ``axis_bracket`` of the
    tensor that pass receives. Returns the per-axis grids, the per-axis
    assignments recorded by ``axis_transform`` and the final g tensor as
    (shape, scalars, D, make).
    """
    shape, scaled = f.values.shape, _lift(f.values.flat)
    grids: list[Optional[DualGrid]] = [None] * f.d
    assign: list[dict] = [dict() for _ in range(f.d)]
    for axis in range(f.d - 1, -1, -1):
        if duals is not None:
            grids[axis] = duals[axis]
        else:
            grids[axis] = regular_dual_grid(_bracket(shape, scaled, axis, f.grid.gamma), ks[axis])
        shape, *scaled = _pass(
            shape, scaled, axis, f.grid.axes[axis], grids[axis], assign[axis], check_convex
        )
    return tuple(grids), assign, (shape, *scaled)


def _reconstruct_optimizers(shape, assign) -> tuple[tuple[int, ...], ...]:
    """Walk passes back to front to recover the optimizer multi-index.

    During the pass over axis a the untransformed axes 0..a-1 still hold
    primal coordinates, so resolving axis 0 first makes every lookup key
    available.
    """
    d = len(shape)
    out = []
    for jidx in product(*(range(s) for s in shape)):
        resolved: list[Optional[int]] = [None] * d
        for axis in range(d):
            comp = tuple(
                (resolved[a] if a < axis else jidx[a])
                for a in range(d)
                if a != axis
            )
            resolved[axis] = assign[axis][(comp, jidx[axis])]
        out.append(tuple(resolved))
    return tuple(out)


def lft_nd_adaptive(f: TensorSamples) -> TensorConjugate:
    """Nested per-slice centered adaptive passes; K = N and the optimizer of
    each dual multi-point is the identically indexed primal point."""
    shape = f.values.shape
    flat, D, make = _lift(f.values.flat)
    # K = N keeps every flat position fixed, so each axis's dual components
    # line up with the final multi-indices
    s_parts: list = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        n, stride = shape[axis], math.prod(shape[axis + 1 :])
        a0, p, dx = progression(f.grid.axes[axis].x0, f.grid.gamma)
        # with gamma = p / dx, a centered point is u * dx / (w * p * D), w
        # 1 or 2 on ints, so s * x_i is an int over 2 * p * D
        lines = _lines(shape, flat, axis, check_convex=True)
        flat, D2, make = _widen(flat, D, make, 2 * p * D)
        out = [None] * len(flat)
        s_parts[axis] = s_flat = [None] * len(flat)
        for (_, _, diffs), a in zip(lines, _line_starts(shape, axis)):
            run = slice(a, a + n * stride, stride)
            us, ws = _adaptive_points(split(diffs), "centered")
            s_flat[run] = [Fraction(u * dx, w * p * D) for u, w in zip(us, ws)]
            out[run] = [
                v - u * (a0 + i * p) * make(D2, w * p * D)
                for i, (v, u, w) in enumerate(zip(flat[run], us, ws))
            ]
        flat, D = out, D2
    values = RatTensor(shape, _fractions([-v for v in flat], D))
    return TensorConjugate(
        values=values,
        optimizer=tuple(values.indices()),
        dual_points=tuple(zip(*s_parts)),
    )


def _axis_max(inner: list, terms: list) -> tuple[list, list[int]]:
    """Row maxima of terms + row over the rows of ``inner`` (len(terms)
    entries each), with the first index attaining each maximum."""
    n = len(terms)
    maxima, firsts = [], []
    for row in range(0, len(inner), n):
        cands = list(map(add, terms, inner[row : row + n]))
        best = max(cands)
        maxima.append(best)
        firsts.append(cands.index(best))
    return maxima, firsts


def lft_nd_brute(
    f: TensorSamples, dual_points: Sequence[tuple]
) -> TensorConjugate:
    """Exhaustive max over all primal points for each dual multi-point.

    Every primal point enters the max, taken one axis at a time from the
    last: max_x (s.x - f(x)) = max_{x_0} (s_0 x_0 + max_{x_1} (s_1 x_1 +
    ... - f(x))). Each axis keeps its first maximum, so ties resolve to
    the lexicographically smallest primal multi-index. Dual points that
    share a suffix s[a:] share its table, which is built once. Accepts
    arbitrary (also nonconvex) samples and any list of dual points with
    d components each.
    """
    if f.grid.total > MAX_BRUTE_POINTS:
        raise BruteCapExceeded(f"brute force capped at {MAX_BRUTE_POINTS} primal points")
    d = f.d
    pts = [tuple(_shrink(frac(c)) for c in p) for p in dual_points]
    for s in pts:
        if len(s) != d:
            raise ValueError(f"dual point {s} has {len(s)} components; the samples have {d} axes")
    # s_a x_a for each axis and each distinct s_a (n_a products apiece),
    # as scalars over one D that the samples' denominators and ds * dx divide
    ids = [{} for _ in range(d)]
    keys = [tuple(ids[a].setdefault(c, len(ids[a])) for a, c in enumerate(s)) for s in pts]
    # x_i = (a0 + i * p) / dx on every axis, each distinct s_a over ds
    dx = math.lcm(*(q for g in f.grid.axes for q in (g.x0.denominator, g.gamma.denominator)))
    axis_pts = [(int(g.x0 * dx), int(g.gamma * dx), g.n) for g in f.grid.axes]
    comps, ds, _ = _lift([c for axis_ids in ids for c in axis_ids])
    flat, D, make = _lift(f.values.flat, ds * dx)
    unit = make(D, ds * dx)
    comps = iter(comps)
    terms = [
        [[s * unit * (a0 + i * p) for i in range(n)] for s in islice(comps, len(ids[a]))]
        for a, (a0, p, n) in enumerate(axis_pts)
    ]
    # maxima[a] holds the max over axes a.. for every primal prefix
    # x_0..x_{a-1}, firsts[a] the first index on axis a attaining it; both
    # depend on s[a:] only. Sorted by their components from the last axis,
    # points sharing a suffix come one after another, so each suffix's
    # table is built once and only one table per axis is alive at a time.
    maxima = [None] * d + [[-v for v in flat]]
    firsts = [None] * d
    values = [None] * len(pts)
    optimizer = [None] * len(pts)
    prev, last = (-1,) * d, None
    for j in sorted(range(len(pts)), key=lambda j: keys[j][::-1]):
        key = keys[j]
        top = d
        while top and key[top - 1] == prev[top - 1]:
            top -= 1
        for a in reversed(range(top)):
            maxima[a], firsts[a] = _axis_max(maxima[a + 1], terms[a][key[a]])
        prev = key
        row, idx = 0, []
        for a in range(d):
            i = firsts[a][row]
            idx.append(i)
            row = row * axis_pts[a][2] + i
        # a repeated point shares its value
        values[j] = values[last] if not top else Fraction(maxima[0][0], D)
        optimizer[j] = tuple(idx)
        last = j
    shape = (len(pts),)
    return TensorConjugate(
        values=RatTensor(shape, tuple(values)),
        optimizer=tuple(optimizer),
        dual_points=tuple(pts),
    )


def product_dual_points(duals: Sequence[DualGrid]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(product(*(g.points() for g in duals)))
