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
rescale once its dual grid is known; every division of those ints is
exact by construction. Likewise optimizers are flat primal offsets inside,
multi-indices on return. A gradient rule compares the integer differences
line[i+1] - line[i], or a nonconvex line's envelope slopes (Fractions over
D), with s * gamma * D, which orders them as the gradients would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from operator import add, gt, sub
from typing import Callable, Optional, Sequence

from .errors import BruteCapExceeded, NonConvexSlice
from .grids import DualGrid, RegularGrid
from .rational import frac, progression, split
from .transform import _adaptive_points, _rule_index, regular_dual_grid

MAX_BRUTE_POINTS = 1 << 20


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


# Scalars over a shared denominator: (values, D) with value_i = values[i] / D,
# every value a Python int.
Scaled = tuple[list, int]


def _lift(values: Sequence, den: int = 1) -> Scaled:
    """The values as ints over the lcm of ``den`` and their denominators."""
    nums, dens = split(values)
    distinct = set(dens)
    D = math.lcm(den, *distinct)
    per = {q: D // q for q in distinct}
    return [a * per[q] for a, q in zip(nums, dens)], D


def _rescale(D: int, den: int) -> tuple[int, int]:
    """lcm(D, den) and the factor that carries a scalar over D to it."""
    D2 = math.lcm(D, den)
    return D2, D2 // D


def _dual_products(points: Sequence, x_axis: RegularGrid, D: int):
    """One pass's s_j * gamma and s_j * x_i tables over lcm(D, ds * dx), with
    ds and dx the denominators of the dual points and of the axis points.
    Returns that D, the rescale factor from the old D and the two tables,
    indexed [j] and [j][i]."""
    duals, ds = _lift(points)
    a0, p, dx = progression(x_axis.x0, x_axis.gamma)
    D, scale = _rescale(D, ds * dx)
    # gamma = p / dx and x_i = (a0 + i * p) / dx
    unit = D // (ds * dx)
    s_unit = [s * unit for s in duals]
    sx = [[s * (a0 + i * p) for i in range(x_axis.n)] for s in s_unit]
    return D, scale, [s * p for s in s_unit], sx


def _fractions(flat: Sequence, D: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, D) for v in flat)


def _line_starts(shape: tuple[int, ...], axis: int) -> list[int]:
    """Flat offset of the first element of every line along ``axis``, in
    row-major order of the fixed coordinates; a line's elements lie
    prod(shape[axis+1:]) apart."""
    stride = math.prod(shape[axis + 1 :])
    block = shape[axis] * stride
    return [b + r for b in range(0, math.prod(shape), block) for r in range(stride)]


def _lines(shape: tuple[int, ...], flat: Sequence, axis: int, check_convex: bool):
    """Each line along ``axis`` in row-major order of its fixed coordinates:
    those coordinates, the flat offset of its first element, its values and
    their differences. With ``check_convex`` the differences must never
    decrease."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    comps = product(*(range(s) for a, s in enumerate(shape) if a != axis))
    for comp, a in zip(comps, _line_starts(shape, axis)):
        line = flat[a : a + n * stride : stride]
        diffs = list(map(sub, line[1:], line))
        if check_convex and any(map(gt, diffs, diffs[1:])):
            raise NonConvexSlice(f"axis {axis} line at {comp} is not discretely convex")
        yield comp, a, line, diffs


def axis_transform(values: RatTensor, axis: int, x_axis: RegularGrid, dual: DualGrid) -> RatTensor:
    """One-axis transform of a tensor; dual points clamp to each line's range.

    The output holds g = -(max over the axis), the form carried between
    nested passes; it is exact on every line, convex or not.
    """
    shape, (flat, D), _, _ = _pass(values.shape, _lift(values.flat), axis, x_axis, dual)
    return RatTensor(shape, _fractions(flat, D))


def _envelope(line: Sequence) -> list:
    """Step slopes of the lower convex envelope of (i, line[i]), collinear
    points kept: step i gets the slope of the hull edge over it."""

    def slope(a, b):
        return Fraction(line[b] - line[a], b - a)

    hull = [0]
    for i in range(1, len(line)):
        while len(hull) > 1 and slope(*hull[-2:]) > slope(hull[-1], i):
            hull.pop()
        hull.append(i)
    return [slope(a, b) for a, b in zip(hull, hull[1:]) for _ in range(a, b)]


def _pass(shape, scaled: Scaled, axis, x_axis, dual):
    """``axis_transform`` on scalars over D, with the elements taken.

    The rule runs on each line's differences or, where they decrease
    somewhere, on its ``_envelope`` slopes: it then lands on envelope
    vertices only, and those attain the line's maximum. Returns the new
    shape; the output over lcm(D, ds * dx), with ds and dx the
    denominators of the dual points and of the axis points, as (scalars,
    D); each line's counts, keyed by its fixed coordinates: how many dual
    points each axis index optimizes; and for each output element the flat
    offset, in the input, of the element it took.
    """
    n, k = shape[axis], dual.k
    new_shape = (*shape[:axis], k, *shape[axis + 1 :])
    stride = math.prod(shape[axis + 1 :])
    flat, D = scaled
    D2, scale, thresholds, sx = _dual_products(dual.points(), x_axis, D)
    if D2 != D:
        flat, D = [v * scale for v in flat], D2
    out = [None] * math.prod(new_shape)
    taken = [None] * len(out)
    counts = {}
    lines = zip(_lines(shape, flat, axis, check_convex=False), _line_starts(new_shape, axis))
    for (comp, a, line, diffs), b in lines:
        if any(map(gt, diffs, diffs[1:])):
            diffs = _envelope(line)
        opt = [_rule_index(diffs, t) for t in thresholds]
        run = slice(b, b + k * stride, stride)
        out[run] = [line[i] - row[i] for row, i in zip(sx, opt)]
        taken[run] = [a + i * stride for i in opt]
        counts[comp] = [opt.count(i) for i in range(n)]
    return new_shape, (out, D), counts, taken


def _shrink(v):
    """Integral Fractions as plain ints, the form of returned dual points."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def axis_bracket(values: RatTensor, axis: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """Shared dual range for one axis: the minimum first gradient over all
    lines up to the maximum last gradient, read off the boundary faces."""
    return _bracket(values.shape, _lift(values.flat), axis, gamma)


def _bracket(shape, scaled: Scaled, axis, gamma) -> tuple[Fraction, Fraction]:
    flat, D = scaled
    ends = [(d[0], d[-1]) for *_, d in _lines(shape, flat, axis, check_convex=False)]
    lo, hi = min(e[0] for e in ends), max(e[1] for e in ends)
    return Fraction(lo) / (gamma * D), Fraction(hi) / (gamma * D)


def canonical_nd_dual_grids(f: TensorSamples, ks: Sequence[int]) -> tuple[DualGrid, ...]:
    """Per-axis regular dual grids spanning each pass's shared range.

    Pass order is the last axis first; each later bracket is computed from
    the exactly transformed intermediate tensor, convex or not.
    """
    if len(ks) != f.d:
        raise ValueError("need one dual size per axis")
    return _cascade(f, ks=ks)[0]


def lft_nd_regular(f: TensorSamples, duals: Sequence[DualGrid]) -> TensorConjugate:
    """Nested one-axis transforms over given per-axis dual grids.

    Exact on every input, convex or not: its values equal the brute force
    enumeration elementwise. Each optimizer is the primal multi-index whose
    offset the passes carried to its dual multi-index, and attains its value.
    """
    if len(duals) != f.d:
        raise ValueError("need one dual grid per axis")
    _, _, origin, (shape, flat, D) = _cascade(f, duals=duals)
    values = RatTensor(shape, _fractions([-v for v in flat], D))
    optimizer = tuple(_index(f.values.shape, pos) for pos in origin)
    return TensorConjugate(values=values, optimizer=optimizer, duals=tuple(duals))


def _index(shape: tuple[int, ...], pos: int) -> tuple[int, ...]:
    """The multi-index at flat offset ``pos``: ``RatTensor.offset`` inverted."""
    idx = []
    for n in reversed(shape):
        pos, i = divmod(pos, n)
        idx.append(i)
    return tuple(idx[::-1])


def _cascade(
    f: TensorSamples,
    ks: Optional[Sequence[int]] = None,
    duals: Optional[Sequence[DualGrid]] = None,
) -> tuple[tuple[DualGrid, ...], list[dict], list[int], tuple]:
    """The classical nested passes, last axis first, exact on every input.

    Each pass runs over ``duals[axis]`` when grids are given, else over the
    canonical grid of ``ks[axis]`` points spanning ``axis_bracket`` of the
    tensor that pass receives. Every element carries the flat primal offset
    of the element it took (see ``_pass``), composed over the passes, so
    after the pass over axis 0 it is the optimizer. Returns the per-axis
    grids, the per-axis line counts of ``_pass``, the optimizer offsets in
    row-major order and the final g tensor as (shape, scalars, D).
    """
    shape, scaled = f.values.shape, _lift(f.values.flat)
    origin = range(f.grid.total)
    grids: list[Optional[DualGrid]] = [None] * f.d
    counts: list[Optional[dict]] = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        if duals is not None:
            grids[axis] = duals[axis]
        else:
            grids[axis] = regular_dual_grid(_bracket(shape, scaled, axis, f.grid.gamma), ks[axis])
        shape, scaled, counts[axis], taken = _pass(shape, scaled, axis, f.grid.axes[axis], grids[axis])
        origin = [origin[p] for p in taken]
    return tuple(grids), counts, origin, (shape, *scaled)


def _centered(shape: tuple[int, ...], flat: Sequence, axis: int) -> tuple[list, list]:
    """Each element's centered dual point along ``axis``, in row-major
    order, as ratios (u, w) of ``transform._adaptive_points`` on its line's
    differences: over a shared D and with gamma = p / dx, the point is
    u * dx / (w * p * D), and w is 1 or 2 on ints. Every line must be
    discretely convex (``NonConvexSlice``)."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    us, ws = [None] * len(flat), [None] * len(flat)
    for _, a, _, diffs in _lines(shape, flat, axis, check_convex=True):
        run = slice(a, a + n * stride, stride)
        us[run], ws[run] = _adaptive_points(split(diffs), "centered")
    return us, ws


def lft_nd_adaptive(f: TensorSamples) -> TensorConjugate:
    """Nested per-slice centered adaptive passes; K = N and the optimizer of
    each dual multi-point is the identically indexed primal point."""
    shape = f.values.shape
    flat, D = _lift(f.values.flat)
    # K = N keeps every flat position fixed, so each axis's dual components
    # line up with the final multi-indices
    s_parts: list = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        n, stride = shape[axis], math.prod(shape[axis + 1 :])
        a0, p, dx = progression(f.grid.axes[axis].x0, f.grid.gamma)
        us, ws = _centered(shape, flat, axis)
        s_parts[axis] = [Fraction(u * dx, w * p * D) for u, w in zip(us, ws)]
        # s * x_i is an int over 2 * p * D, with w 1 or 2
        D2, scale = _rescale(D, 2 * p * D)
        per = {w: D2 // (w * p * D) for w in (1, 2)}
        xs = [a0 + pos // stride % n * p for pos in range(len(flat))]
        flat = [v * scale - u * x * per[w] for v, u, w, x in zip(flat, us, ws, xs)]
        D = D2
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
    d = f.d
    pts = [tuple(_shrink(frac(c)) for c in p) for p in dual_points]
    for s in pts:
        if len(s) != d:
            raise ValueError(f"dual point {s} has {len(s)} components; the samples have {d} axes")
    # each axis's distinct components, in order of first appearance
    ids = [{} for _ in range(d)]
    keys = [tuple(ids[a].setdefault(c, len(ids[a])) for a, c in enumerate(s)) for s in pts]
    values, rows = _brute(f, ids, keys)
    shape = (len(pts),)
    return TensorConjugate(
        values=RatTensor(shape, tuple(values)),
        optimizer=tuple(_index(f.values.shape, row) for row in rows),
        dual_points=tuple(pts),
    )


def _brute(f: TensorSamples, comps: Sequence[Sequence], keys: Sequence[tuple]) -> tuple[list, list]:
    """``lft_nd_brute`` at the dual points keys[j] names: component
    comps[a][keys[j][a]] on axis a. Returns the values and the optimizers
    as flat primal offsets in ``keys`` order; equal keys share one value."""
    if f.grid.total > MAX_BRUTE_POINTS:
        raise BruteCapExceeded(f"brute force capped at {MAX_BRUTE_POINTS} primal points")
    d = f.d
    # s_a x_a for each axis and each distinct s_a (n_a products apiece),
    # as scalars over one D that the samples' denominators and ds * dx
    # divide: x_i = (a0 + i * p) / dx on every axis, each s_a over ds
    dx = math.lcm(*(q for g in f.grid.axes for q in (g.x0.denominator, g.gamma.denominator)))
    axis_pts = [(int(g.x0 * dx), int(g.gamma * dx), g.n) for g in f.grid.axes]
    nums, ds = _lift([c for axis_comps in comps for c in axis_comps])
    flat, D = _lift(f.values.flat, ds * dx)
    unit = D // (ds * dx)
    nums = iter(nums)
    terms = [
        [[s * unit * (a0 + i * p) for i in range(n)] for s in islice(nums, len(comps[a]))]
        for a, (a0, p, n) in enumerate(axis_pts)
    ]
    # maxima[a] holds the max over axes a.. for every primal prefix
    # x_0..x_{a-1}, firsts[a] the first index on axis a attaining it; both
    # depend on s[a:] only. Sorted by their components from the last axis,
    # points sharing a suffix come one after another, so each suffix's
    # table is built once and only one table per axis is alive at a time.
    maxima = [None] * d + [[-v for v in flat]]
    firsts = [None] * d
    values = [None] * len(keys)
    rows = [None] * len(keys)
    prev, last = (-1,) * d, None
    for j in sorted(range(len(keys)), key=lambda j: keys[j][::-1]):
        key = keys[j]
        top = d
        while top and key[top - 1] == prev[top - 1]:
            top -= 1
        for a in reversed(range(top)):
            maxima[a], firsts[a] = _axis_max(maxima[a + 1], terms[a][key[a]])
        prev = key
        row = 0
        for a in range(d):
            row = row * axis_pts[a][2] + firsts[a][row]
        # a repeated point shares its value
        values[j] = values[last] if not top else Fraction(maxima[0][0], D)
        rows[j] = row
        last = j
    return values, rows


def product_dual_points(duals: Sequence[DualGrid]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(product(*(g.points() for g in duals)))
