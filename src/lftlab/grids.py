"""Primal and dual grid types plus sampled-function containers.

Grids are sorted and, in the regular case, equispaced. A dual grid is
either regular (``s0 + j*gamma_s``) or adaptive (an explicit sorted point
list chosen from the gradient structure of the transformed function).
Grids carry the integer form every route computes on, made only here: a
regular grid's ``progression`` (a, p, den), point j being (a + j*p) / den,
computed from its fields; an explicit grid's ``ratios``, its points split
once when it is built, kept out of equality, hashing, repr and pickles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateGrid, InvalidK, NonConvexInput
from .rational import Number, Vec, frac, lowest_terms, nondecreasing, progression, reduced, split


@dataclass(frozen=True)
class RegularGrid:
    """Equispaced sorted primal points x_i = x0 + i*gamma."""

    x0: Fraction
    gamma: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "x0", frac(self.x0))
        object.__setattr__(self, "gamma", frac(self.gamma))
        if self.n < 2:
            raise DegenerateGrid(f"need at least 2 grid points, got {self.n}")
        if self.gamma <= 0:
            raise DegenerateGrid(f"grid spacing must be positive, got {self.gamma}")

    def point(self, i: int) -> Fraction:
        return self.x0 + i * self.gamma

    @property
    def progression(self) -> tuple[int, int, int]:
        return progression(self.x0, self.gamma)

    def points(self) -> tuple[Fraction, ...]:
        a, p, den = self.progression
        return tuple(reduced(a + i * p, den) for i in range(self.n))

    @property
    def hi(self) -> Fraction:
        return self.point(self.n - 1)


@dataclass(frozen=True)
class DualGrid:
    """Sorted dual points; regular kind is equispaced, adaptive is explicit.

    ``k >= 1``; operations that require a genuine range enforce ``k >= 2``
    themselves. A degenerate regular grid (``gamma_s == 0``) is allowed and
    represents the single-point dual range of a constant function.
    """

    s0: Fraction
    gamma_s: Fraction
    k: int
    kind: str = "regular"
    explicit: Optional[tuple[Fraction, ...]] = None
    ratios: Optional[Vec] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s0", frac(self.s0))
        object.__setattr__(self, "gamma_s", frac(self.gamma_s))
        if self.k < 1:
            raise InvalidK(f"dual grid needs at least one point, got k={self.k}")
        if self.kind not in ("regular", "adaptive"):
            raise ValueError(f"unknown dual grid kind {self.kind!r}")
        if self.kind == "regular":
            if self.gamma_s < 0:
                raise InvalidK("regular dual spacing must be nonnegative")
            if self.explicit is not None:
                raise ValueError("regular dual grids are procedural, not explicit")
        else:
            if self.explicit is None or len(self.explicit) != self.k:
                raise ValueError("adaptive dual grid needs an explicit point list of length k")
            object.__setattr__(self, "explicit", tuple(map(frac, self.explicit)))
            object.__setattr__(self, "ratios", split(self.explicit))
            if not nondecreasing(self.ratios):
                raise ValueError("dual points must be sorted")

    def __getstate__(self) -> dict:
        return {name: v for name, v in self.__dict__.items() if name != "ratios"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, ratios=state["explicit"] and split(state["explicit"]))

    @classmethod
    def from_points(cls, points: Sequence[Number]) -> "DualGrid":
        """An explicit (adaptive-kind) grid over the sorted points."""
        pts = tuple(points)
        if not pts:
            raise InvalidK("dual grid needs at least one point, got none")
        s0 = frac(pts[0])
        return cls(s0=s0, gamma_s=Fraction(0), k=len(pts), kind="adaptive", explicit=(s0, *pts[1:]))

    @classmethod
    def _of_sorted(cls, points: tuple[Fraction, ...]) -> "DualGrid":
        """The ``from_points`` grid over points already reduced and sorted,
        as the adaptive transform makes them: ``ratios`` is read off the
        points' slots, with no ``frac``, ``split`` or sortedness pass. It
        equals, hashes and pickles as the ``from_points`` grid does."""
        g = object.__new__(cls)
        g.__dict__.update(
            s0=points[0],
            gamma_s=Fraction(0),
            k=len(points),
            kind="adaptive",
            explicit=points,
            ratios=lowest_terms(points),
        )
        return g

    def point(self, j: int) -> Fraction:
        if self.kind == "adaptive":
            return self.explicit[j]
        return self.s0 + j * self.gamma_s

    @property
    def progression(self) -> tuple[int, int, int]:
        return progression(self.s0, self.gamma_s)

    def point_ratios(self) -> Vec:
        """``ratios``, or on a regular grid lists made from ``progression``."""
        if self.ratios is not None:
            return self.ratios
        a, p, den = self.progression
        return [a + j * p for j in range(self.k)], [den] * self.k

    def points(self) -> tuple[Fraction, ...]:
        return self.explicit or tuple(map(reduced, *self.point_ratios()))

    @property
    def lo(self) -> Fraction:
        return self.point(0)

    @property
    def hi(self) -> Fraction:
        return self.point(self.k - 1)


@dataclass(frozen=True)
class FunctionSpec:
    """A function known through samples f(x_i) on a regular grid.

    Construction only checks shapes. Discrete convexity is a precondition
    of the gradient-based transforms and is validated there (the brute
    transform accepts nonconvex samples). ``ratios`` holds the numerators
    and denominators of the samples (floats convert exactly), the form the
    integer kernel reads; it is derived, so it stays out of the
    constructor, equality, hashing and the repr.
    """

    grid: RegularGrid
    samples: tuple
    closed_form: Optional[str] = None
    ratios: Vec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(
            frac(v) if not isinstance(v, float) else v for v in self.samples
        )
        object.__setattr__(self, "samples", vals)
        if len(vals) != self.grid.n:
            raise ValueError(
                f"sample count {len(vals)} does not match grid size {self.grid.n}"
            )
        object.__setattr__(self, "ratios", split(vals))

    @classmethod
    def _of_reduced(cls, grid: RegularGrid, samples: tuple) -> "FunctionSpec":
        """The spec over one reduced ``Fraction`` per grid point, as the
        instance generators make them: ``ratios`` is read off the samples
        once, with no ``frac`` or ``split`` pass, and holds what the
        constructor's would."""
        f = object.__new__(cls)
        f.__dict__.update(
            grid=grid,
            samples=samples,
            closed_form=None,
            ratios=lowest_terms(samples),
        )
        return f

    @property
    def n(self) -> int:
        return self.grid.n


def _checked_ratios(c: Sequence) -> Vec:
    """The ratios of gradients c_0..c_{n-2}, split once and checked: at
    least two of them, nondecreasing."""
    if len(c) < 2:
        raise DegenerateGrid("need at least two discrete gradients")
    ratios = split(c)
    if not nondecreasing(ratios):
        raise NonConvexInput("gradients must be nondecreasing")
    return ratios


@dataclass(frozen=True)
class GradientVector:
    """Forward-difference gradients c_0..c_{n-2}, nondecreasing.

    ``ratios`` holds the numerators and denominators of ``c`` (floats
    convert exactly), the form the integer kernel reads; it is derived, so
    it stays out of the constructor, equality, hashing and the repr.
    """

    c: tuple
    grid: Optional[RegularGrid] = None
    ratios: Vec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(frac(v) if not isinstance(v, float) else v for v in self.c)
        object.__setattr__(self, "c", vals)
        object.__setattr__(self, "ratios", _checked_ratios(vals))

    @classmethod
    def _of_checked(cls, ratios: Vec, grid: Optional[RegularGrid]) -> "GradientVector":
        """The vector over ratios already checked as ``_checked_ratios``
        checks them: each gradient becomes a ``Fraction`` once, and
        ``ratios`` holds their lowest terms, as the constructor's would."""
        c = tuple(map(reduced, *ratios))
        g = object.__new__(cls)
        g.__dict__.update(c=c, grid=grid, ratios=lowest_terms(c))
        return g

    @property
    def n(self) -> int:
        """Number of primal points of the underlying function."""
        return len(self.c) + 1

    @property
    def lo(self) -> Fraction:
        return self.c[0]

    @property
    def hi(self) -> Fraction:
        return self.c[-1]
