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
multi-indices on return, decoded one axis at a time. Each pass walks its
lines once (``_lines``): their differences, or a nonconvex line's envelope
slopes, as the numerator and denominator lists the 1D rule kernel reads
(over D), span a canonical grid and go to ``transform._rule_counts``
against the thresholds s_j * gamma * D.
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
from .transform import _adaptive_points, _repeat_indices, _rule_counts, regular_dual_grid

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
        _require_convex_axes(self.values.shape, _lift(self.values.flat)[0])


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


def _dual_products(points: Sequence, x_axis: RegularGrid, D: int):
    """One pass's s_j * x_i table, indexed [j][i], over lcm(D, ds * dx),
    with ds and dx the denominators of the dual points and of the axis
    points. Returns that D, the rescale factor from the old D and the
    table; row[1] - row[0] is s_j * gamma."""
    duals, ds = _lift(points)
    a0, p, dx = progression(x_axis.x0, x_axis.gamma)
    D2 = math.lcm(D, ds * dx)
    # gamma = p / dx and x_i = (a0 + i * p) / dx
    unit = D2 // (ds * dx)
    sx = [[s * unit * (a0 + i * p) for i in range(x_axis.n)] for s in duals]
    return D2, D2 // D, sx


def _fractions(flat: Sequence, D: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, D) for v in flat)


def _line_starts(shape: tuple[int, ...], axis: int) -> list[int]:
    """Flat offset of the first element of every line along ``axis``, in
    row-major order of the fixed coordinates; a line's elements lie
    prod(shape[axis+1:]) apart."""
    stride = math.prod(shape[axis + 1 :])
    block = shape[axis] * stride
    return [b + r for b in range(0, math.prod(shape), block) for r in range(stride)]


def _require_convex_axes(shape: tuple[int, ...], flat: Sequence) -> None:
    """``TensorSamples.require_convex_axes`` on lifted values."""
    for axis in range(len(shape)):
        for _ in _lines(shape, flat, axis, check_convex=True):
            pass


def _lines(shape: tuple[int, ...], flat: Sequence, axis: int, check_convex: bool):
    """Each line along ``axis`` in row-major order of its fixed coordinates:
    those coordinates, the flat offset of its first element, its values and
    the sorted slopes a gradient rule reads, as the kernel's ratios: its
    differences over 1 or, where they decrease somewhere, its ``_envelope``
    slopes; with ``check_convex`` such a line raises ``NonConvexSlice``."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    comps = product(*(range(s) for a, s in enumerate(shape) if a != axis))
    for comp, a in zip(comps, _line_starts(shape, axis)):
        line = flat[a : a + n * stride : stride]
        diffs = list(map(sub, line[1:], line))
        slopes = diffs, [1] * len(diffs)
        if any(map(gt, diffs, diffs[1:])):
            if check_convex:
                raise NonConvexSlice(f"axis {axis} line at {comp} is not discretely convex")
            slopes = split(_envelope(line))
        yield comp, a, line, slopes


def axis_transform(values: RatTensor, axis: int, x_axis: RegularGrid, dual: DualGrid) -> RatTensor:
    """One-axis transform of a tensor; dual points clamp to each line's range.

    The output holds g = -(max over the axis), the form carried between
    nested passes; it is exact on every line, convex or not.
    """
    shape, _, (flat, D), _, _ = _pass(values.shape, _lift(values.flat), axis, x_axis, dual)
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

    ``dual`` is a DualGrid, or the size of the canonical grid spanning the
    lines' ``_bracket``. One walk gives that bracket and each line's slopes,
    which ``_rule_counts`` reads against the thresholds s_j * gamma * D; on
    a nonconvex line it lands on envelope vertices only, which attain the
    line's maximum. Returns the new shape; the grid; the output over
    lcm(D, ds * dx), ds and dx the denominators of the dual and the axis
    points, as (scalars, D); each line's dual points per axis index, keyed
    by its fixed coordinates; and each output element's taken input offset.
    """
    stride = math.prod(shape[axis + 1 :])
    flat, D = scaled
    lines = list(_lines(shape, flat, axis, check_convex=False))
    if not isinstance(dual, DualGrid):
        dual = regular_dual_grid(_bracket(lines, D, x_axis.gamma), dual)
    k = dual.k
    new_shape = (*shape[:axis], k, *shape[axis + 1 :])
    D2, scale, sx = _dual_products(dual.points(), x_axis, D)
    # the slopes stay over D, so the thresholds are s_j * gamma * D
    unit = x_axis.gamma * D
    explicit = dual.explicit and tuple(s * unit for s in dual.explicit)
    thresholds = DualGrid(dual.s0 * unit, dual.gamma_s * unit, k, dual.kind, explicit)
    out = [None] * math.prod(new_shape)
    taken = [None] * len(out)
    counts = {}
    for (comp, a, line, slopes), b in zip(lines, _line_starts(new_shape, axis)):
        counts[comp] = _rule_counts(slopes, thresholds)
        opt = _repeat_indices(counts[comp])
        run = slice(b, b + k * stride, stride)
        out[run] = [line[i] * scale - row[i] for row, i in zip(sx, opt)]
        taken[run] = [a + i * stride for i in opt]
    return new_shape, dual, (out, D2), counts, taken


def _shrink(v):
    """Integral Fractions as plain ints, the form of returned dual points."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def axis_bracket(values: RatTensor, axis: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """Shared dual range for one axis: the minimum first slope over all
    lines up to the maximum last slope, over gamma. These are the slopes
    the rule reads (``_lines``), a nonconvex line's envelope's, so the
    range is never reversed."""
    flat, D = _lift(values.flat)
    return _bracket(list(_lines(values.shape, flat, axis, check_convex=False)), D, gamma)


def _bracket(lines: list, D: int, gamma) -> tuple[Fraction, Fraction]:
    """``axis_bracket`` from one pass's ``_lines`` over D."""
    lo = min(Fraction(nums[0], dens[0]) for *_, (nums, dens) in lines)
    hi = max(Fraction(nums[-1], dens[-1]) for *_, (nums, dens) in lines)
    return lo / (gamma * D), hi / (gamma * D)


def canonical_nd_dual_grids(f: TensorSamples, ks: Sequence[int]) -> tuple[DualGrid, ...]:
    """Per-axis regular dual grids spanning each pass's shared range.

    Pass order is the last axis first; each later bracket is computed from
    the exactly transformed intermediate tensor, convex or not. A range
    runs from the first to the last slope the rule reads on each line
    (``axis_bracket``): a nonconvex line's are its envelope's.
    """
    if len(ks) != f.d:
        raise ValueError("need one dual size per axis")
    return _cascade(f, _lift(f.values.flat), ks)[0]


def lft_nd_regular(f: TensorSamples, duals: Sequence[DualGrid]) -> TensorConjugate:
    """Nested one-axis transforms over given per-axis dual grids.

    Exact on every input, convex or not: its values equal the brute force
    enumeration elementwise. Each optimizer is the primal multi-index whose
    offset the passes carried to its dual multi-index, and attains its value.
    """
    if len(duals) != f.d:
        raise ValueError("need one dual grid per axis")
    _, _, origin, (shape, flat, D) = _cascade(f, _lift(f.values.flat), duals)
    values = RatTensor(shape, _fractions([-v for v in flat], D))
    optimizer = tuple(zip(*(_coords(f.values.shape, a, origin) for a in range(f.d))))
    return TensorConjugate(values=values, optimizer=optimizer, duals=tuple(duals))


def _coords(shape: tuple[int, ...], axis: int, offsets: Sequence[int]) -> list[int]:
    """The coordinate on ``axis`` of each flat offset."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    return [pos // stride % n for pos in offsets]


def _cascade(
    f: TensorSamples, scaled: Scaled, duals: Sequence
) -> tuple[tuple[DualGrid, ...], list[dict], list[int], tuple]:
    """The classical nested passes on ``scaled``, ``f`` lifted, last axis
    first, exact on every input.

    Each pass runs over ``duals[axis]``: a DualGrid, or the size of the
    canonical grid spanning ``axis_bracket`` of the tensor that pass
    receives. Every element carries the flat primal offset of the element
    it took (see ``_pass``), composed over the passes, so after the pass
    over axis 0 it is the optimizer. Returns the per-axis grids, the
    per-axis line counts of ``_pass``, the optimizer offsets in row-major
    order and the final g tensor as (shape, scalars, D).
    """
    shape, origin = f.values.shape, range(f.grid.total)
    grids: list[Optional[DualGrid]] = [None] * f.d
    counts: list[Optional[dict]] = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        x_axis, dual = f.grid.axes[axis], duals[axis]
        shape, grids[axis], scaled, counts[axis], taken = _pass(shape, scaled, axis, x_axis, dual)
        origin = [origin[p] for p in taken]
    return tuple(grids), counts, origin, (shape, *scaled)


def _centered(shape: tuple[int, ...], flat: Sequence, axis: int) -> tuple[list, list]:
    """Each element's centered dual point along ``axis``, in row-major
    order, as ratios (u, w) of ``transform._adaptive_points`` on its line's
    differences, which ``_centered_step`` turns into points; w is 1 or 2
    on ints. Every line must be discretely convex (``NonConvexSlice``)."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    us, ws = [None] * len(flat), [None] * len(flat)
    for _, a, _, diffs in _lines(shape, flat, axis, check_convex=True):
        run = slice(a, a + n * stride, stride)
        us[run], ws[run] = _adaptive_points(diffs, "centered")
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
        idx = _coords(shape, axis, range(len(flat)))
        centered = (*_centered(shape, flat, axis), D)
        flat, D, s_parts[axis] = _centered_step(flat, idx, centered, D, f.grid.axes[axis])
    values = RatTensor(shape, _fractions([-v for v in flat], D))
    return TensorConjugate(
        values=values,
        optimizer=tuple(values.indices()),
        dual_points=tuple(zip(*s_parts)),
    )


def _centered_step(values: Sequence, idx: Sequence, centered: tuple, D: int, x_axis: RegularGrid):
    """One adaptive pass on scalars over D: element e takes the point
    s = u * dx / (w * p * D0) of ``centered = (us, ws, D0)`` (``_centered``
    over a D0 that divides D, with gamma = p / dx) and maps with its
    optimizer i = idx[e]: f -> f - s * x_i. Returns the mapped scalars
    over 2 * p * D, that denominator and the points."""
    us, ws, D0 = centered
    a0, p, dx = progression(x_axis.x0, x_axis.gamma)
    # s * x_i = u * (a0 + i * p) / (w * p * D0), with w 1 or 2
    D2 = 2 * p * D
    per = {w: D2 // (w * p * D0) for w in (1, 2)}
    out = [v * 2 * p - u * (a0 + i * p) * per[w] for v, u, w, i in zip(values, us, ws, idx)]
    return out, D2, [Fraction(u * dx, w * p * D0) for u, w in zip(us, ws)]


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
        optimizer=tuple(zip(*(_coords(f.values.shape, a, rows) for a in range(d)))),
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
