"""Exact rational helpers.

The 1D kernel holds samples, gradients and dual points as lists of
numerators and denominators (``split``), so the half-open optimizer rule
never suffers rounding and no integer grows with the number of elements;
``fractions.Fraction`` appears only at the API boundary. Serialized
documents write rationals as "p/q" strings. Float samples enter the kernel
by exact conversion and face the same exact checks as rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Rational = Union[Fraction, int]
Vec = tuple[list[int], list[int]]  # numerators, positive denominators
Number = Union[Fraction, int, float]


def frac(value: Number | str) -> Fraction:
    """Coerce to an exact Fraction. Strings use the "p/q" wire form."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # exact binary expansion; callers wanting decimal semantics should
        # pass a string instead
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
    return all(a * s <= b * r for a, r, b, s in zip(p, q, p[1:], q[1:]))


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
    return Fraction(num, den)


def format_rational(value: Number) -> str:
    """Render a rational as "p/q" (or "p" for integers)."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
