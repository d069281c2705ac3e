"""``rational.reduced``, the package's one two-int ``Fraction`` constructor,
against ``Fraction(n, d)``: the same value, int slots, repr, hash and
pickle bytes, and the same error on a zero denominator. ``lowest_terms``
reads the slots back as ``split`` would."""

import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lftlab.rational import frac, lowest_terms, reduced, split

from conftest import raises_exactly

huge = st.integers(-(2**300), 2**300)
numerators = st.one_of(st.integers(-50, 50), st.just(0), huge)
denominators = st.one_of(st.integers(-50, -1), st.integers(1, 50), huge.filter(bool))


def test_fraction_keeps_the_two_slots_reduced_fills():
    # reduced writes these slots directly; a new layout must fail here first
    assert F.__slots__ == ("_numerator", "_denominator")


@given(n=numerators, d=denominators)
@settings(max_examples=400, deadline=None)
def test_reduced_is_fraction(n, d):
    got, want = reduced(n, d), F(n, d)
    assert type(got) is F and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert got.denominator > 0
    assert repr(got) == repr(want) and str(got) == str(want)
    assert hash(got) == hash(want)
    assert pickle.dumps(got, protocol=4) == pickle.dumps(want, protocol=4)
    assert pickle.loads(pickle.dumps(got, protocol=4)) == want


@given(n=numerators)
def test_zero_denominator_raises_as_fraction_does(n):
    with pytest.raises(ZeroDivisionError) as want:
        F(n, 0)
    with pytest.raises(ZeroDivisionError) as got:
        reduced(n, 0)
    assert str(got.value) == str(want.value)


@given(values=st.lists(st.one_of(st.builds(F, numerators, denominators), st.builds(reduced, numerators, denominators))))
def test_lowest_terms_is_split(values):
    got = lowest_terms(values)
    assert got == split(values)
    assert all(type(v) is int for v in got[0] + got[1])


@pytest.mark.parametrize("value", [None, [1], (1, 2)])
def test_frac_rejects_what_is_no_rational(value):
    raises_exactly(lambda: frac(value), TypeError, f"cannot interpret {value!r} as a rational")
