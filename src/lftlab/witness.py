"""Post-selection diagnostics: the sharing parameter W, the slope ratio nu,
and the acceptance set pairing (index, copy) slots with dual indices.

W is the maximum number of dual points sharing one optimizer. It is
computed by direct multiplicity count, which is authoritative; the floor
of (largest gradient jump)/gamma_s is reported alongside as a cross-check
because alignment of gradients with the dual lattice can shift the true
count by one in either direction (see the package notes in README).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv
from typing import Optional

from .errors import EmptyAcceptance, IndexOutOfRange, ZeroSpacing
from .grids import DualGrid, GradientVector
from .rational import reduced
from .transform import _rule, _slopes


@dataclass(frozen=True)
class WitnessReport:
    w: int
    nu: Fraction
    success_probability: Fraction
    w_floor: Optional[int] = None


def assignment_counts(g: GradientVector, dual: DualGrid) -> tuple[int, ...]:
    """How many dual points each primal index optimizes (clamped rule)."""
    return tuple(_rule(dual)(g.ratios))


def witness_params(g: GradientVector, dual: DualGrid) -> WitnessReport:
    """Sharing parameter, slope ratio, and exact success probability K/(N W)."""
    if dual.kind == "regular" and dual.gamma_s == 0:
        raise ZeroSpacing("witness parameters need a positive dual spacing")
    c = g.ratios
    w = max(_rule(dual)(c))
    if w < 1:
        raise EmptyAcceptance("no primal index optimizes any dual point")
    w_floor = None
    if dual.kind == "regular":
        # floor((largest gradient jump) / gamma_s), the largest floor
        w_floor = max(map(floordiv, *_slopes(c, dual.gamma_s)))
    if g.grid is None:
        raise ValueError("gradient vector lacks its primal grid")
    span = g.grid.hi - g.grid.x0
    nu = (g.hi - g.lo) / span
    success = reduced(dual.k, g.n * w)
    return WitnessReport(w=w, nu=nu, success_probability=success, w_floor=w_floor)


def _slot(i: int, m: int, g: GradientVector, dual: DualGrid) -> tuple[int, int]:
    """First dual index and count of primal index i, in O(1) on a regular
    grid: both depend only on c_0, c_{i-1}, c_i and c_{n-2}, so the rule
    runs on that sub-vector, where index i sits at position 0, 2 or 4."""
    if not 0 <= i < g.n:
        raise IndexOutOfRange(f"index {i} outside [0, {g.n})")
    if m < 0:
        raise IndexOutOfRange(f"copy slot m must be nonnegative, got {m}")
    cn, cd = g.ratios
    pos = 0 if i == 0 else 4 if i == g.n - 1 else 2
    at = (0, max(i - 1, 0), min(i, len(cn) - 1), -1)
    counts = _rule(dual)(([cn[t] for t in at], [cd[t] for t in at]))
    return sum(counts[:pos]), counts[pos]


def in_acceptance_set(i: int, m: int, g: GradientVector, dual: DualGrid) -> bool:
    """True when copy m of index i corresponds to some dual point.

    Membership is the exact statement "at least m+1 dual points are
    assigned to x_i"; the total count of member pairs therefore equals K
    and the map to dual indices below is a bijection. On grids whose
    points sit at gradient values this reduces to the floor condition
    floor((c_i - c_{i-1})/gamma_s) >= m+1 for interior i with the two
    boundary (m = 0) slots added.
    """
    return m < _slot(i, m, g, dual)[1]


def dual_index(i: int, m: int, g: GradientVector, dual: DualGrid) -> Optional[int]:
    """Dual index j owning copy m of primal index i; None outside the set.

    Restricted to member pairs this enumerates [K] bijectively: the first
    copy of index i lands on the first dual point assigned to i, further
    copies on the following dual indices.
    """
    first, count = _slot(i, m, g, dual)
    return first + m if m < count else None
