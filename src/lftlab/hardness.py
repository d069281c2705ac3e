"""Executable reductions: the conjugate of a hidden-string distance
function reveals the string, sampling its values solves for the string by
exact linear algebra, and the sharing parameter W is invariant under the
normalizing rescaling.

Instances carry a mutable query counter, so a single instance must not be
shared across concurrent runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import RecoveryFailed, ZeroXi
from .grids import DualGrid, FunctionSpec, RegularGrid
from .multi import RatTensor, TensorSamples, lft_nd_brute
from .fixtures import hypercube_grid
from .rational import frac
from .transform import discrete_gradients, lft_regular
from .witness import witness_params

F = Fraction
_BITS = frozenset((0, 1))


@dataclass
class HiddenStringInstance:
    """f(x) = scale * max_i |x_i - z_i| with query accounting.

    f(z) = 0 and f(x) = scale on every other hypercube vertex. scale = 1
    suits point-query recovery; scale = 2^d makes every sampled conjugate
    value equal <z, s>.
    """

    z: tuple[int, ...]
    scale: Fraction = F(1)
    query_counter: int = 0

    def __post_init__(self):
        if not self.z or any(b not in (0, 1) for b in self.z):
            raise ValueError("hidden string must be a nonempty 0/1 tuple")
        self.scale = frac(self.scale)

    @property
    def d(self) -> int:
        return len(self.z)

    @classmethod
    def for_point_queries(cls, z: Sequence[int]) -> "HiddenStringInstance":
        return cls(z=tuple(z), scale=F(1))

    @classmethod
    def for_sampling(cls, z: Sequence[int]) -> "HiddenStringInstance":
        return cls(z=tuple(z), scale=F(2) ** len(tuple(z)))

    def evaluate(self, x: Sequence) -> Fraction:
        """f(x), one query. An int 0/1 vertex of length d takes no rational
        arithmetic: it is 0 at z and ``scale`` (the object itself) elsewhere."""
        self.query_counter += 1
        x = tuple(x)
        if len(x) == len(self.z) and _BITS.issuperset(x) and {*map(type, x)} == {int}:
            return F(0) if x == self.z else self.scale
        worst = 0
        for xi, zi in zip(x, self.z):
            dev = xi - zi if isinstance(xi, int) else frac(xi) - zi
            if dev < 0:
                dev = -dev
            if dev > worst:
                worst = dev
        return self.scale * worst

    def sample_tensor(self) -> TensorSamples:
        """Fresh hypercube samples; costs 2^d queries."""
        grid = hypercube_grid(self.d)
        values = RatTensor.build(grid.shape, self.evaluate)
        return TensorSamples(grid=grid, values=values)


def unit_vector(d: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(d))


def recover_via_point_queries(inst: HiddenStringInstance) -> tuple[int, ...]:
    """Read z off the conjugate at the unit dual vectors: f*(e_j) = z_j.

    Each conjugate value is brute-forced from a fresh sample pass, so the
    total query count is d * 2^d.
    """
    if inst.scale != 1:
        raise ValueError("point-query recovery expects the unscaled instance")
    bits = []
    for j in range(inst.d):
        samples = inst.sample_tensor()
        res = lft_nd_brute(samples, [unit_vector(inst.d, j)])
        value = res.values.flat[0]
        if value not in (0, 1):
            raise RecoveryFailed(f"conjugate at e_{j} must be a bit, got {value}")
        bits.append(int(value))
    recovered = tuple(bits)
    if recovered != inst.z:
        raise RecoveryFailed("conjugate identity failed to reveal the string")
    return recovered


def sample_conjugate_pair(
    inst: HiddenStringInstance, rng_seed: int = 0
) -> tuple[tuple[int, ...], Fraction]:
    """Uniformly random s in {0,1}^d paired with f*(s) = <z, s>."""
    if inst.scale != F(2) ** inst.d:
        raise ValueError("sampling expects the 2^d-scaled instance")
    rng = random.Random(rng_seed)
    s = tuple(rng.randint(0, 1) for _ in range(inst.d))
    value = F(sum(zi * si for zi, si in zip(inst.z, s)))
    return s, value


@dataclass(frozen=True)
class RecoveryOutcome:
    success: bool
    recovered: Optional[tuple[int, ...]]
    equations: int
    rank: int


def _solve_binary_system(rows: list[tuple[int, ...]], rhs: list[Fraction], d: int):
    """Exact Gaussian elimination over the rationals; None if rank < d."""
    aug = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    rank = 0
    for col in range(d):
        pivot = None
        for r in range(rank, len(aug)):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [v / pv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    if rank < d:
        return None, rank
    # full rank: every reduced row with a pivot is e_col = value
    solution: list[Optional[Fraction]] = [None] * d
    for row in aug:
        pivots = [c for c in range(d) if row[c] != 0]
        if len(pivots) == 1 and row[pivots[0]] == 1:
            solution[pivots[0]] = row[d]
    if any(v is None for v in solution):
        raise RecoveryFailed("full-rank system left a coordinate unsolved")
    return solution, rank


def recover_via_sampling(
    inst: HiddenStringInstance, t: int, rng_seed: int = 0
) -> RecoveryOutcome:
    """Draw d + t sampled pairs and solve <s, x> = <z, s> exactly.

    Full rank over the rationals recovers z; rank deficiency is a failure
    outcome, not an exception. With t extra equations the empirical
    success rate is at least about 1 - 2^-t; t must be nonnegative.
    """
    if t < 0:
        raise ValueError(f"need t >= 0 extra equations, got {t}")
    d = inst.d
    count = d + t
    rows, rhs = [], []
    for q in range(count):
        s, value = sample_conjugate_pair(inst, rng_seed=rng_seed + q)
        rows.append(s)
        rhs.append(value)
    solution, rank = _solve_binary_system(rows, rhs, d)
    if solution is None:
        return RecoveryOutcome(success=False, recovered=None, equations=count, rank=rank)
    recovered = tuple(int(v) for v in solution)
    return RecoveryOutcome(success=True, recovered=recovered, equations=count, rank=rank)


@dataclass(frozen=True)
class RescaledInstance:
    """Normalized copy of a 1D instance with its exact value mapping.

    xi is the largest gradient jump per unit spacing. The rescaled
    function lives on a unit-spaced grid, has unit xi, shares W with the
    original, and satisfies f*(s_j) = value_scale * f~*(s~_j) with
    value_scale = xi * gamma_x^2 (equal to xi on unit-spaced inputs).
    """

    original: FunctionSpec
    original_dual: DualGrid
    rescaled: FunctionSpec
    rescaled_dual: DualGrid
    xi: Fraction
    value_scale: Fraction

    def map_value(self, rescaled_value: Fraction) -> Fraction:
        return self.value_scale * rescaled_value


def rescale_instance(f: FunctionSpec, dual: DualGrid) -> RescaledInstance:
    g = discrete_gradients(f)
    gamma = f.grid.gamma
    jumps = [g.c[i] - g.c[i - 1] for i in range(1, len(g.c))]
    xi = max(jumps) / gamma
    if xi == 0:
        raise ZeroXi("affine function: every gradient jump is zero")
    value_scale = xi * gamma * gamma
    new_grid = RegularGrid(x0=f.grid.x0 / gamma, gamma=F(1), n=f.n)
    rescaled = FunctionSpec(
        grid=new_grid, samples=tuple(frac(v) / value_scale for v in f.samples)
    )
    s_scale = xi * gamma
    if dual.kind == "regular":
        new_dual = DualGrid(
            s0=dual.s0 / s_scale, gamma_s=dual.gamma_s / s_scale, k=dual.k
        )
    else:
        new_dual = DualGrid.from_points([p / s_scale for p in dual.points()])
    return RescaledInstance(
        original=f,
        original_dual=dual,
        rescaled=rescaled,
        rescaled_dual=new_dual,
        xi=xi,
        value_scale=value_scale,
    )


def rescaling_checks(r: RescaledInstance) -> dict:
    """Exact verification data: W equality and the value mapping."""
    orig = lft_regular(r.original, r.original_dual, clamp=True)
    resc = lft_regular(r.rescaled, r.rescaled_dual, clamp=True)
    w_orig = witness_params(discrete_gradients(r.original), r.original_dual).w
    w_resc = witness_params(discrete_gradients(r.rescaled), r.rescaled_dual).w
    mapping_exact = all(
        ov == r.map_value(rv) for ov, rv in zip(orig.values, resc.values)
    )
    return {
        "w": w_orig,
        "w_rescaled": w_resc,
        "w_invariant": w_orig == w_resc,
        "mapping_exact": mapping_exact,
        "xi": r.xi,
        "value_scale": r.value_scale,
    }
