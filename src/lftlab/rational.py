"""Exact rational helpers.

The 1D kernel holds samples, gradients and dual points as lists of
numerators and denominators (``split``), so the half-open optimizer rule
never suffers rounding and no integer grows with the number of elements;
``fractions.Fraction`` appears only at the API boundary. Sample and
gradient containers and explicit dual grids split their values once, when
they are built, and a regular grid's points come from its ``progression``
(``grids`` makes both); the slopes the kernel derives stay unreduced, since
each use floor-divides, cross-multiplies or builds a ``Fraction`` through
``reduced``, the one place where two ints become a ``Fraction``: it
reduces by ``math.gcd`` as ``Fraction(n, d)`` does and fills the two slots
directly, without the constructor's type dispatch, and ``lowest_terms``
reads those slots back. Serialized documents write rationals as "p/q"
strings; floats convert exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, le, mul
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int]
Vec = tuple[list[int], list[int]]  # numerators, positive denominators
Number = Union[Fraction, int, float]
_new = object.__new__
_numerator, _denominator = attrgetter("_numerator"), attrgetter("_denominator")


def reduced(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints n and d: in lowest terms, with a positive
    denominator, and ``ZeroDivisionError`` on d = 0. The slots are filled
    directly, as the standard library's ``Fraction._from_coprime_ints``
    (3.12+) does, so the result is equal, hashes and pickles the same."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def lowest_terms(values: Sequence[Fraction]) -> Vec:
    """The numerators and denominators of ``Fraction``s, read off their
    slots: in lowest terms, the denominators positive."""
    return list(map(_numerator, values)), list(map(_denominator, values))


def frac(value: Number | str) -> Fraction:
    """Coerce to an exact Fraction. Strings use the "p/q" wire form."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        # a float by its exact binary expansion; callers wanting decimal
        # semantics should pass a string instead
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def split(values: Iterable[Number]) -> Vec:
    """Numerators and positive denominators of the values; floats convert
    exactly."""
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    return [v.numerator for v in exact], [v.denominator for v in exact]


def nondecreasing(v: Vec) -> bool:
    """v_0 <= v_1 <= ..., compared by integer cross products."""
    p, q = v
    return all(map(le, map(mul, p, q[1:]), map(mul, p[1:], q)))


def progression(start: Fraction, step: Fraction) -> tuple[int, int, int]:
    """(a, p, den) with start + j*step == (a + j*p) / den for every j."""
    (a, b), (p, q) = start.as_integer_ratio(), step.as_integer_ratio()
    den = lcm(b, q)
    return a * (den // b), p * (den // q), den


def exact_sum(nums: Iterable[int], dens: Iterable[int]) -> Fraction:
    """The sum of nums[i] / dens[i], on ints over the lcm of the
    denominators seen so far; a repeated denominator adds a bare numerator."""
    num, den = 0, 1
    for p, q in zip(nums, dens):
        if q == den:
            num += p
        else:
            m = lcm(den, q)
            num, den = num * (m // den) + p * (m // q), m
    return reduced(num, den)


def format_rational(value: Number) -> str:
    """Render a rational as "p/q" (or "p" for integers)."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
