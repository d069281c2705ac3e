"""d-dimensional discrete transforms via nested one-dimensional passes.

The d-dimensional conjugate factorizes into d nested one-dimensional
transforms: each pass replaces one primal axis by a dual axis, carrying
the negated partial transform g = -(max over that axis), and the final
negation restores f*. Row-major layout with axis 0 slowest; the brute
evaluation over all primal points is the oracle for everything here and,
on one axis (``lft_brute``), for the 1D routes.
It assumes no convexity and no gradient rule: every candidate enters the
max, taken one axis at a time from the last, as one packed int key: with M
primal points, its value times M plus M - 1 - its row-major offset. So a
plain max breaks ties to the lexicographically smallest multi-index. Dual
points that differ only on axis 0 share every table and take one max each.

Every route computes on exact ints over a shared denominator, Fractions on
return: samples, grid points and dual components are scaled to Python ints
over one common denominator D, which each nested pass, and the brute, widens
by an lcm rescale once its dual points are known. The samples' ints are
their lift, ``TensorSamples.lifted``, made once when they are built, so no
route lifts them again; grid points come from the grids' integer forms
(``RegularGrid.progression``, ``DualGrid.point_ratios``), and every
division of those ints is exact by construction. A pass's shared dual range
compares the lines' end slopes by integer cross products. Likewise
optimizers are flat primal offsets inside, multi-indices on return,
decoded one axis at a time. Each pass walks its lines once (``_lines``):
their differences, or a nonconvex line's envelope slopes, as the numerator
and denominator lists the 1D rule kernel reads (over D), span a canonical
grid and go to ``transform._rule``, which scales the dual grid's integer
form by gamma * D on ints once per pass. Each value forms its s_j * x_i
from the pass's K dual and n axis numerators (``_pass_factors``), so a
pass's time and memory are linear in its elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, product
from operator import add, gt, sub
from typing import Callable, Optional, Sequence

from .errors import BruteCapExceeded, NonConvexSlice
from .grids import DualGrid, FunctionSpec, RegularGrid
from .rational import frac, reduced, split
from .transform import ConjugateResult, _adaptive_points, _repeat_indices, _rule, regular_dual_grid

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
    """Samples on a tensor grid. ``lifted`` holds the values as ints over
    one denominator D (``_lift``), the form every nD route reads; it is
    derived once, when the samples are built, so it stays out of the
    constructor, equality, hashing, the repr and pickles, and loading
    rebuilds it."""

    grid: TensorGrid
    values: RatTensor
    lifted: Scaled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "lifted", _lift(self.values.flat))

    def __getstate__(self) -> dict:
        return {name: v for name, v in self.__dict__.items() if name != "lifted"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, lifted=_lift(state["values"].flat))

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
            for _ in _lines(self.values.shape, self.lifted[0], axis, check_convex=True):
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
Scaled = tuple[Sequence[int], int]


def _lift(values: Sequence) -> tuple[tuple[int, ...], int]:
    """The values as a tuple of ints over the lcm of their denominators."""
    nums, dens = split(values)
    distinct = set(dens)
    D = math.lcm(*distinct)
    per = {q: D // q for q in distinct}
    return tuple([a * per[q] for a, q in zip(nums, dens)]), D


def _pass_factors(dual: DualGrid, x_axis: RegularGrid, D: int):
    """One pass's factors of s_j * x_i over lcm(D, ds * dx), ds and dx the
    dual and the axis points' denominators: that D, the rescale factor from
    the old D, the K dual numerators su over it and the axis numerators
    xs[i] = a0 + i * p = x_i * dx, a range; s_j * x_i is su[j] * xs[i]."""
    sn, sd = dual.point_ratios()
    ds = math.lcm(*sd)
    a0, p, dx = x_axis.progression
    D2 = math.lcm(D, ds * dx)
    unit = D2 // (ds * dx)
    su = [n * (ds // d) * unit for n, d in zip(sn, sd)]
    return D2, D2 // D, su, range(a0, a0 + x_axis.n * p, p)


def _fractions(flat: Sequence, D: int) -> tuple[Fraction, ...]:
    return tuple(reduced(v, D) for v in flat)


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
        return reduced(line[b] - line[a], b - a)

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
    which ``_rule`` reads against the thresholds s_j * gamma * D; on
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
    D2, scale, su, xs = _pass_factors(dual, x_axis, D)
    # the slopes stay over D, so the thresholds are s_j * gamma * D, gamma = p / dx
    _, p, dx = x_axis.progression
    rule = _rule(dual, (p * D, dx))
    out = [None] * math.prod(new_shape)
    taken = [None] * len(out)
    counts = {}
    for (comp, a, line, slopes), b in zip(lines, _line_starts(new_shape, axis)):
        counts[comp] = rule(slopes)
        opt = _repeat_indices(counts[comp])
        run = slice(b, b + k * stride, stride)
        out[run] = [line[i] * scale - su[j] * xs[i] for j, i in enumerate(opt)]
        taken[run] = [a + i * stride for i in opt]
    return new_shape, dual, (out, D2), counts, taken


def axis_bracket(values: RatTensor, axis: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """Shared dual range for one axis: the minimum first slope over all
    lines up to the maximum last slope, over gamma. These are the slopes
    the rule reads (``_lines``), a nonconvex line's envelope's, so the
    range is never reversed."""
    flat, D = _lift(values.flat)
    return _bracket(list(_lines(values.shape, flat, axis, check_convex=False)), D, gamma)


def _bracket(lines: list, D: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """``axis_bracket`` from one pass's ``_lines`` over D. The lines' end
    slopes are compared by integer cross products; only the two extremes
    become Fractions."""
    ends = [(nums[0], dens[0], nums[-1], dens[-1]) for *_, (nums, dens) in lines]
    lo, lo_d, hi, hi_d = ends[0]
    for a, b, c, e in ends:
        if a * lo_d < lo * b:
            lo, lo_d = a, b
        if c * hi_d > hi * e:
            hi, hi_d = c, e
    # slope / (gamma * D) with gamma = p / dx
    p, dx = gamma.as_integer_ratio()
    return reduced(lo * dx, lo_d * p * D), reduced(hi * dx, hi_d * p * D)


def canonical_nd_dual_grids(f: TensorSamples, ks: Sequence[int]) -> tuple[DualGrid, ...]:
    """Per-axis regular dual grids spanning each pass's shared range.

    Pass order is the last axis first; each later bracket is computed from
    the exactly transformed intermediate tensor, convex or not. A range
    runs from the first to the last slope the rule reads on each line
    (``axis_bracket``): a nonconvex line's are its envelope's.
    """
    if len(ks) != f.d:
        raise ValueError("need one dual size per axis")
    return _cascade(f, ks)[0]


def lft_nd_regular(f: TensorSamples, duals: Sequence[DualGrid]) -> TensorConjugate:
    """Nested one-axis transforms over given per-axis dual grids.

    Exact on every input, convex or not: its values equal the brute force
    enumeration elementwise. Each optimizer is the primal multi-index whose
    offset the passes carried to its dual multi-index, and attains its value.
    """
    if len(duals) != f.d:
        raise ValueError("need one dual grid per axis")
    _, _, origin, (shape, flat, D) = _cascade(f, duals)
    values = RatTensor(shape, _fractions([-v for v in flat], D))
    optimizer = tuple(zip(*(_coords(f.values.shape, a, origin) for a in range(f.d))))
    return TensorConjugate(values=values, optimizer=optimizer, duals=tuple(duals))


def _coords(shape: tuple[int, ...], axis: int, offsets: Sequence[int]) -> list[int]:
    """The coordinate on ``axis`` of each flat offset."""
    n, stride = shape[axis], math.prod(shape[axis + 1 :])
    return [pos // stride % n for pos in offsets]


def _cascade(f: TensorSamples, duals: Sequence) -> tuple[tuple[DualGrid, ...], list[dict], list[int], tuple]:
    """The classical nested passes on ``f.lifted``, last axis first, exact
    on every input.

    Each pass runs over ``duals[axis]``: a DualGrid, or the size of the
    canonical grid spanning ``axis_bracket`` of the tensor that pass
    receives. Every element carries the flat primal offset of the element
    it took (see ``_pass``), composed over the passes, so after the pass
    over axis 0 it is the optimizer. Returns the per-axis grids, the
    per-axis line counts of ``_pass``, the optimizer offsets in row-major
    order and the final g tensor as (shape, scalars, D).
    """
    shape, scaled, origin = f.values.shape, f.lifted, range(f.grid.total)
    grids: list[Optional[DualGrid]] = [None] * f.d
    counts: list[Optional[dict]] = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        x_axis, dual = f.grid.axes[axis], duals[axis]
        shape, grids[axis], scaled, counts[axis], taken = _pass(shape, scaled, axis, x_axis, dual)
        origin = [origin[p] for p in taken]
    return tuple(grids), counts, origin, (shape, *scaled)


def _centered(f: TensorSamples) -> list[tuple[list, list, int]]:
    """Every element's centered dual point along each axis, from the input's
    lines: per axis (us, ws, D), in row-major order, the ratios (u, w) of
    ``transform._adaptive_points`` on each line's differences over the
    samples' D; w is 1 or 2. Walks each line once, axis 0 first; every line
    must be discretely convex (``NonConvexSlice``)."""
    shape, (flat, D) = f.values.shape, f.lifted
    out = []
    for axis in range(f.d):
        n, stride = shape[axis], math.prod(shape[axis + 1 :])
        us, ws = [None] * len(flat), [None] * len(flat)
        for _, a, _, diffs in _lines(shape, flat, axis, check_convex=True):
            run = slice(a, a + n * stride, stride)
            us[run], ws[run] = _adaptive_points(diffs, "centered")
        out.append((us, ws, D))
    return out


def lft_nd_adaptive(f: TensorSamples) -> TensorConjugate:
    """Nested centered adaptive passes; K = N and the optimizer of each dual
    multi-point is the identically indexed primal point. Each s_a is the
    input's centered difference quotient along axis a (``_centered``), and
    the value <s, x_j> - f(j): the simulator's adaptive rule, by its step."""
    shape, (flat, D) = f.values.shape, f.lifted
    centered = _centered(f)
    # K = N keeps every flat position fixed, so each axis's dual components
    # line up with the final multi-indices
    s_parts: list = [None] * f.d
    for axis in range(f.d - 1, -1, -1):
        idx = _coords(shape, axis, range(len(flat)))
        flat, D, s_parts[axis] = _centered_step(flat, idx, centered[axis], D, f.grid.axes[axis])
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
    a0, p, dx = x_axis.progression
    # s * x_i = u * (a0 + i * p) / (w * p * D0), with w 1 or 2
    D2 = 2 * p * D
    per = {w: D2 // (w * p * D0) for w in (1, 2)}
    out = [v * 2 * p - u * (a0 + i * p) * per[w] for v, u, w, i in zip(values, us, ws, idx)]
    return out, D2, [reduced(u * dx, w * p * D0) for u, w in zip(us, ws)]


def lft_nd_brute(f: TensorSamples, dual_points: Sequence[tuple]) -> TensorConjugate:
    """Exhaustive max over all primal points for each dual multi-point.

    Every candidate s.x - f(x) is formed and compared, one axis at a time
    from the last: max_x (s.x - f(x)) = max_{x_0} (s_0 x_0 + max_{x_1}
    (s_1 x_1 + ... - f(x))). Ties resolve to the lexicographically
    smallest primal multi-index. Dual points that share a suffix s[1:]
    share its tables, which are built once. Accepts arbitrary (also
    nonconvex) samples and any list of dual points with d int, float or
    Fraction components each. Components are told apart by their integer
    ratios, one axis at a time, so equal components of any type are one.
    """
    d = f.d
    pts = [tuple(p) for p in dual_points]
    for s in pts:
        if len(s) != d:
            raise ValueError(f"dual point {s} has {len(s)} components; the samples have {d} axes")
    columns, comps, keys = _components(pts, d)
    values, rows = _brute(f, comps, keys)
    # components returned as ints when integral, else as given, floats as Fractions
    cols = [
        [n if q == 1 else c if isinstance(c, Fraction) else reduced(n, q) for c, (n, q) in zip(col, ratios)]
        for col, ratios in columns
    ]
    return TensorConjugate(
        values=RatTensor((len(pts),), tuple(values)),
        optimizer=tuple(zip(*(_coords(f.values.shape, a, rows) for a in range(d)))),
        dual_points=tuple(zip(*cols)),
    )


def _components(pts: Sequence[tuple], d: int) -> tuple[list, list, list]:
    """The dual points as ``_brute`` reads them: each axis's distinct
    components, told apart by their integer ratios in order of first
    appearance, as (nums, dens), and each point's key of component
    indices; also each axis's column of components with their ratios."""
    columns, comps, ids = [], [], []
    for col in list(zip(*pts)) or [()] * d:
        ratios = [c.as_integer_ratio() for c in col]
        seen = {}
        ids.append([seen.setdefault(r, len(seen)) for r in ratios])
        comps.append([[n for n, _ in seen], [q for _, q in seen]])
        columns.append((col, ratios))
    return columns, comps, list(zip(*ids))


def lft_brute(f: FunctionSpec, dual: DualGrid) -> ConjugateResult:
    """``lft_nd_brute`` on one axis, the oracle for the 1D routes; float
    samples convert exactly. On convex samples its first maximum is the
    gradient rule's index except at s = c_{n-2} > c_0: the rule pins n-1,
    this keeps the first i with c_i = c_{n-2}. Both attain the value."""
    tensor = TensorSamples(grid=TensorGrid(axes=(f.grid,)), values=RatTensor((f.n,), f.samples))
    res = lft_nd_brute(tensor, [(s,) for s in dual.points()])
    opt = tuple(i for (i,) in res.optimizer)
    return ConjugateResult(dual=dual, values=res.values.flat, optimizer_index=opt)


def _products(s: int, a0: int, p: int, n: int, stride: int) -> range:
    """s * (a0 + i * p) + (n - 1 - i) * stride for i < n: an axis's
    products s_a x_i, each with its tie term, as a range. Its step is
    never 0, since s is a multiple of the key base M and 0 < stride < M."""
    start, step = s * a0 + (n - 1) * stride, s * p - stride
    return range(start, start + n * step, step)


def _brute(f: TensorSamples, comps: Sequence[Sequence], keys: Sequence[tuple]) -> tuple[list, list]:
    """``lft_nd_brute`` at the dual points keys[j] names: on axis a the
    component nums[c] / dens[c] of comps[a] = (nums, dens), c = keys[j][a].
    Returns the values and the optimizers as flat primal offsets in
    ``keys`` order; equal keys share one value.

    Each candidate is one int key, value * M + (M - 1 - offset), with M
    the number of primal points, the value over D and the offset
    row-major: values that differ differ by at least M, and the tie terms
    sum to less, so a plain max takes the largest value and, among equal
    ones, the smallest offset, the lexicographically smallest
    multi-index. divmod by M gives both back."""
    if f.grid.total > MAX_BRUTE_POINTS:
        raise BruteCapExceeded(f"brute force capped at {MAX_BRUTE_POINTS} primal points")
    d, M = f.d, f.grid.total
    # s_a x_i on each axis for each distinct s_a, over D = lcm(D0, ds * dx),
    # the samples' lift over D0 widened by one factor: x_i = (a0 + i * p) / dx
    # on every axis, each s_a over ds. Keys scale them by M.
    forms = [(*g.progression, g.n) for g in f.grid.axes]
    dx = math.lcm(*(den for _, _, den, _ in forms))
    axis_pts = [
        (a0 * (dx // den), p * (dx // den), n, math.prod(f.grid.shape[a + 1 :]))
        for a, (a0, p, den, n) in enumerate(forms)
    ]
    ds = math.lcm(*(q for _, dens in comps for q in dens))
    flat, D0 = f.lifted
    D = math.lcm(D0, ds * dx)
    widen = -(D // D0) * M
    flat = [v * widen for v in flat]  # g = -f, where the maxima start
    unit = D // (ds * dx) * M
    scaled = [[s * (ds // q) * unit for s, q in zip(*axis_comps)] for axis_comps in comps]
    # Rows of axes 0..d-2 are listed once: every suffix reads them again. A
    # last-axis row is made when read, once per component, the points being
    # sorted by it; a one-axis brute keeps it a range and so holds O(N + K)
    # words. maxima[a] holds the max over axes a.. for every primal prefix
    # x_0..x_{a-1} and depends on s[a:] only: the tables of axes 1.. are
    # built once per suffix s[1:], one per axis alive at a time, and axis 0
    # takes one max per component.
    terms = [[list(_products(s, *axis_pts[a])) for s in scaled[a]] for a in range(d - 1)]
    maxima = [None] * d + [flat]
    values, rows = [None] * len(keys), [None] * len(keys)
    prev = (None,) * d
    order = sorted(range(len(keys)), key=lambda j: keys[j][::-1])
    for suffix, group in groupby(order, key=lambda j: keys[j][1:]):
        top = d
        while top > 1 and suffix[top - 2] == prev[top - 2]:
            top -= 1
        for a in range(top - 1, 0, -1):
            c = suffix[a - 1]
            sx = terms[a][c] if a < d - 1 else list(_products(scaled[a][c], *axis_pts[a]))
            inner, n = maxima[a + 1], len(sx)
            maxima[a] = [max(map(add, sx, inner[r : r + n])) for r in range(0, len(inner), n)]
        prev = suffix
        for c, same in groupby(group, key=lambda j: keys[j][0]):
            sx = terms[0][c] if d > 1 else _products(scaled[0][c], *axis_pts[0])
            num, tie = divmod(max(map(add, sx, maxima[1])), M)
            # a repeated point shares its value
            value, row = reduced(num, D), M - 1 - tie
            for j in same:
                values[j], rows[j] = value, row
    return values, rows


def product_dual_points(duals: Sequence[DualGrid]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(product(*(g.points() for g in duals)))
