"""d-dimensional discrete transforms via nested one-dimensional passes.

The d-dimensional conjugate factorizes into d nested one-dimensional
transforms: each pass replaces one primal axis by a dual axis, carrying
the negated partial transform g = -(max over that axis), and the final
negation restores f*. Row-major layout with axis 0 slowest; the brute
evaluation over all primal points is the oracle for everything here.
It assumes no convexity and no gradient rule: every primal point enters
the max, taken one axis at a time from the last, and each axis keeps its
first maximum, so ties go to the lexicographically smallest multi-index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add
from typing import Callable, Optional, Sequence

from .errors import BruteCapExceeded, NonConvexSlice
from .grids import DualGrid, RegularGrid
from .rational import frac, split
from .transform import _adaptive_points, _rule_index, _slopes, regular_dual_grid

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
        for axis in range(self.d):
            if self.grid.shape[axis] < 3:
                continue
            for comp in self.values.complements(axis):
                _require_line_convex(self.values.line(axis, comp), axis, comp)


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


def _line_gradients(line: Sequence[Fraction], gamma: Fraction) -> list[Fraction]:
    return [(line[i + 1] - line[i]) / gamma for i in range(len(line) - 1)]


def _require_line_convex(line, axis, comp) -> None:
    for i in range(1, len(line) - 1):
        if line[i + 1] - 2 * line[i] + line[i - 1] < 0:
            raise NonConvexSlice(f"axis {axis} line at {comp} is not discretely convex")


def _line_starts(shape: tuple[int, ...], axis: int) -> list[int]:
    """Flat offset of the first element of every line along ``axis``, in
    ``complements`` order; a line's elements lie prod(shape[axis+1:]) apart."""
    stride = math.prod(shape[axis + 1 :])
    block = shape[axis] * stride
    return [b + r for b in range(0, math.prod(shape), block) for r in range(stride)]


def axis_transform(
    values: RatTensor,
    axis: int,
    x_axis: RegularGrid,
    dual: DualGrid,
    negate: bool = True,
    assignments: Optional[dict] = None,
    check_convex: bool = True,
) -> RatTensor:
    """One-axis transform of a tensor; dual points clamp to each line's range.

    With ``negate`` the output holds g = -(max over the axis), the form
    carried between nested passes. ``assignments`` (if given) records the
    chosen optimizer index per (complement, j) for later reconstruction.
    ``check_convex=False`` skips the per-line convexity guard; the gradient
    rule then still runs but its result is only meaningful for callers that
    verify the outcome independently.
    """
    shape, k = values.shape, dual.k
    new_shape = (*shape[:axis], k, *shape[axis + 1 :])
    stride = math.prod(shape[axis + 1 :])
    duals = dual.points()
    xs = x_axis.points()
    flat = [None] * math.prod(new_shape)
    lines = zip(values.complements(axis), _line_starts(shape, axis), _line_starts(new_shape, axis))
    for comp, a, b in lines:
        line = values.flat[a : a + shape[axis] * stride : stride]
        if check_convex:
            _require_line_convex(line, axis, comp)
        c = _line_gradients(line, x_axis.gamma)
        opt = [_rule_index(c, s) for s in duals]
        vals = [s * xs[i] - line[i] for s, i in zip(duals, opt)]
        flat[b : b + k * stride : stride] = [-v for v in vals] if negate else vals
        if assignments is not None:
            assignments.update(((comp, j), i) for j, i in enumerate(opt))
    return RatTensor(new_shape, tuple(flat))


def _shrink(v):
    """Integral Fractions as plain ints; exact and cheaper to combine."""
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
    values = axis_transform(f.values, axis, f.grid.axes[axis], dual_axis, negate=True)
    return PartialTransform(values=values, axis=axis, dual=dual_axis)


def axis_bracket(values: RatTensor, axis: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """Shared dual range for one axis: the minimum first gradient over all
    lines up to the maximum last gradient, read off the boundary faces."""
    lo = None
    hi = None
    n = values.shape[axis]
    for comp in values.complements(axis):
        line = values.line(axis, comp)
        first = (line[1] - line[0]) / gamma
        last = (line[n - 1] - line[n - 2]) / gamma
        lo = first if lo is None else min(lo, first)
        hi = last if hi is None else max(hi, last)
    return lo, hi


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
    _, assign, t = _cascade(f, duals=duals)
    values = RatTensor(t.shape, tuple(-v for v in t.flat))
    optimizer = _reconstruct_optimizers(t.shape, assign)
    return TensorConjugate(values=values, optimizer=optimizer, duals=tuple(duals))


def _cascade(
    f: TensorSamples,
    ks: Optional[Sequence[int]] = None,
    duals: Optional[Sequence[DualGrid]] = None,
    check_convex: bool = True,
) -> tuple[tuple[DualGrid, ...], list[dict], RatTensor]:
    """The classical nested passes, last axis first.

    Each pass runs over ``duals[axis]`` when grids are given, else over the
    canonical grid of ``ks[axis]`` points spanning ``axis_bracket`` of the
    tensor that pass receives. Returns the per-axis grids, the per-axis
    assignments recorded by ``axis_transform`` and the final g tensor.
    """
    t = f.values
    grids: list[Optional[DualGrid]] = [None] * f.d
    assign: list[dict] = [dict() for _ in range(f.d)]
    for axis in range(f.d - 1, -1, -1):
        if duals is not None:
            grids[axis] = duals[axis]
        else:
            grids[axis] = regular_dual_grid(axis_bracket(t, axis, f.grid.gamma), ks[axis])
        t = axis_transform(
            t, axis, f.grid.axes[axis], grids[axis],
            assignments=assign[axis], check_convex=check_convex,
        )
    return tuple(grids), assign, t


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
    t = f.values
    # K = N keeps every flat position fixed, so each axis's dual components
    # line up with the final multi-indices
    s_parts: list = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        stride = math.prod(t.shape[axis + 1 :])
        xs = f.grid.axes[axis].points()
        flat = [None] * len(t.flat)
        s_parts[axis] = s_flat = [None] * len(t.flat)
        for comp, a in zip(t.complements(axis), _line_starts(t.shape, axis)):
            run = slice(a, a + len(xs) * stride, stride)
            line = t.flat[run]
            _require_line_convex(line, axis, comp)
            c = _slopes(split(line), f.grid.gamma)
            pts = list(map(Fraction, *_adaptive_points(c, "centered")))
            s_flat[run] = pts
            flat[run] = [-(s * x - v) for s, x, v in zip(pts, xs, line)]
        t = RatTensor(t.shape, tuple(flat))
    values = RatTensor(t.shape, tuple(-v for v in t.flat))
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
    # s_a x_a for each axis and each distinct s_a (n_a products apiece);
    # plain ints where values allow: exact and much faster on 0/1 grids
    ids = [{} for _ in range(d)]
    keys = [tuple(ids[a].setdefault(c, len(ids[a])) for a, c in enumerate(s)) for s in pts]
    axis_pts = [[_shrink(x) for x in g.points()] for g in f.grid.axes]
    terms = [[[c * x for x in xs] for c in ids[a]] for a, xs in enumerate(axis_pts)]
    # maxima[a] holds the max over axes a.. for every primal prefix
    # x_0..x_{a-1}, firsts[a] the first index on axis a attaining it; both
    # depend on s[a:] only. Sorted by their components from the last axis,
    # points sharing a suffix come one after another, so each suffix's
    # table is built once and only one table per axis is alive at a time.
    maxima = [None] * d + [[-_shrink(v) for v in f.values.flat]]
    firsts = [None] * d
    values = [None] * len(pts)
    optimizer = [None] * len(pts)
    prev = (-1,) * d
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
            row = row * len(axis_pts[a]) + i
        values[j] = frac(maxima[0][0])
        optimizer[j] = tuple(idx)
    shape = (len(pts),)
    return TensorConjugate(
        values=RatTensor(shape, tuple(values)),
        optimizer=tuple(optimizer),
        dual_points=tuple(pts),
    )


def product_dual_points(duals: Sequence[DualGrid]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(product(*(g.points() for g in duals)))
