import pickle
from fractions import Fraction as F

import pytest

from lftlab import qstate
from lftlab.errors import MalformedState
from lftlab.qlft import digital_to_analog
from lftlab.qstate import UNDEFINED, Amplitude, QState, is_undefined, label
from lftlab.rational import exact_sum

from conftest import reg_names


def amp(sq):
    return Amplitude(sign=1, sq=F(sq))


class TestAmplitude:
    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_plus_minus_one_raises(self, sign):
        with pytest.raises(ValueError, match=r"^amplitude sign must be \+1 or -1$"):
            Amplitude(sign=sign, sq=F(1, 2))

    @pytest.mark.parametrize("sq", [F(-1, 3), F(-5), -1, F(-1, 2**80)])
    def test_negative_squared_magnitude_raises(self, sq):
        with pytest.raises(ValueError, match=r"^squared magnitude must be nonnegative$"):
            Amplitude(sign=1, sq=sq)

    @pytest.mark.parametrize("sq", [F(0), 0, F(1, 3), 1, F(2**80, 3)])
    def test_nonnegative_squared_magnitude_is_kept(self, sq):
        a = Amplitude(sign=-1, sq=sq)
        assert a.sq is sq and a.sign == -1


class TestDistinctLabels:
    def test_duplicate_with_colliding_first_register_raises(self):
        lab = label(("i", 0), ("x", F(1, 3)))
        with pytest.raises(MalformedState, match="duplicate basis label"):
            QState(entries=((lab, amp(F(1, 2))), (label(("i", 0), ("x", F(1, 3))), amp(F(1, 2)))))

    def test_shared_first_register_differing_later_is_accepted(self):
        a = label(("i", 0), ("x", F(1, 3)))
        b = label(("i", 0), ("x", F(2, 3)))
        assert len(QState.uniform([a, b])) == 2

    def test_labels_differing_only_in_garbage_are_accepted(self):
        a = label(("j", 1), ("fstar", F(1)), garbage=(("m", 0),))
        b = label(("j", 1), ("fstar", F(1)), garbage=(("m", 1),))
        assert len(QState.uniform([a, b])) == 2
        with pytest.raises(MalformedState):
            QState.uniform([a, label(("j", 1), ("fstar", F(1)), garbage=(("m", 0),))])

    def test_equal_words_of_different_types_collide(self):
        # labels compare by value, so 1 and Fraction(1) are one label
        with pytest.raises(MalformedState):
            QState.uniform([label(("i", 1)), label(("i", F(1)))])

    def test_empty_regs(self):
        assert len(QState.uniform([label()])) == 1
        distinct = [label(garbage=(("m", m),)) for m in range(3)]
        assert len(QState.uniform(distinct)) == 3
        with pytest.raises(MalformedState):
            QState.uniform([label(), label()])

    def test_map_labels_that_merges_branches_raises(self):
        state = QState.uniform([label(("i", i), ("x", F(i, 7))) for i in range(4)])
        assert state.map_labels(lambda lab: label(("i", lab.get("i") + 1))).labels()[0] == label(("i", 1))
        with pytest.raises(MalformedState, match="duplicate basis label"):
            state.map_labels(lambda lab: label(("i", lab.get("i") // 2)))

    def test_uniform_over_zero_labels_raises(self):
        with pytest.raises(MalformedState):
            QState.uniform([])


class TestNorm:
    def test_uniform_norm_is_one(self):
        state = QState.uniform([label(("i", i)) for i in range(12)])
        assert state.norm_sq() == 1
        assert type(state.norm_sq()) is F

    def test_mixed_denominators_equal_fraction_sum(self):
        sqs = [F(1, 6), F(1, 6), F(1, 4), F(1, 10), F(3, 20), 0, F(1, 6)]
        state = QState(entries=tuple((label(("j", j)), amp(sq)) for j, sq in enumerate(sqs)))
        assert state.norm_sq() == sum(sqs, F(0)) == 1
        odd = [F(2, 3), F(5, 7), F(1, 3), F(11, 35), 3]
        state = QState(entries=tuple((label(("j", j)), amp(sq)) for j, sq in enumerate(odd)))
        assert state.norm_sq() == sum(odd, F(0))
        assert type(state.norm_sq()) is F
        # high-bit, pairwise different denominators and a bare int word
        high = [F(3**60, 7**30), F(1, 2**70), 2, F(5**40 - 1, 11**25), F(0), F(1, 3**45)]
        state = QState(entries=tuple((label(("j", j)), Amplitude(1, sq)) for j, sq in enumerate(high)))
        assert pickle.dumps(state.norm_sq(), 4) == pickle.dumps(sum(high, F(0)), 4)

    def test_empty_state_norm_is_zero(self):
        assert QState(entries=()).norm_sq() == 0

    @pytest.fixture
    def summed(self, monkeypatch):
        """Counts the calls of the exact sum."""
        calls, real = [], qstate.exact_sum

        def counted(nums, dens):
            calls.append(1)
            return real(nums, dens)

        monkeypatch.setattr(qstate, "exact_sum", counted)
        return calls

    @pytest.mark.parametrize("size", [1, 3, 7, 4096])
    @pytest.mark.parametrize("sq", [F(1, 6), F(2, 7), 3, F(0)])
    def test_one_shared_amplitude_is_its_square_times_the_count(self, summed, size, sq):
        shared = Amplitude(sign=-1, sq=sq)
        state = QState(entries=tuple((label(("j", j)), shared) for j in range(size)))
        exact = exact_sum([F(sq).numerator] * size, [F(sq).denominator] * size)
        assert pickle.dumps(state.norm_sq(), 4) == pickle.dumps(exact, 4)
        assert pickle.dumps(QState.uniform(state.labels()).norm_sq(), 4) == pickle.dumps(F(1), 4)
        assert not summed

    def test_equal_but_distinct_amplitudes_take_the_sum(self, summed):
        state = QState(entries=tuple((label(("j", j)), amp(F(1, 3))) for j in range(3)))
        assert state.entries[0][1] == state.entries[1][1]
        assert pickle.dumps(state.norm_sq(), 4) == pickle.dumps(F(1), 4)
        assert summed == [1]

    def test_an_analog_state_takes_the_sum(self, summed):
        flat = QState.uniform([label(("j", j), ("fstar", F(-2, 3))) for j in range(4)])
        state = digital_to_analog(flat).state
        assert len({a for _, a in state.entries}) == 1 < len({id(a) for _, a in state.entries})
        summed.clear()
        assert pickle.dumps(state.norm_sq(), 4) == pickle.dumps(F(1), 4)
        assert summed == [1]


class TestRegisters:
    def test_require_regs_names_the_missing_register(self):
        with pytest.raises(MalformedState, match="one register schema"):
            QState.uniform([label(("i", 0), ("x", F(0))), label(("i", 1))])
        state = QState.uniform([label(("i", 0)), label(("i", 1))])
        state.require_regs("i")
        with pytest.raises(MalformedState, match="'x'"):
            state.require_regs("i", "x")
        with pytest.raises(MalformedState, match="'c_hi'"):
            state.require_regs("c_hi", "i")

    def test_require_regs_finds_garbage_registers(self):
        state = QState.uniform([label(("j", 0), garbage=(("m", 0),))])
        state.require_regs("j", "m")
        with pytest.raises(MalformedState, match="'i'"):
            state.require_regs("m", "i")

    def test_schema_is_shared_and_survives_pickling(self):
        a, b = label(("j", 0), garbage=(("m", 0),)), label(("j", 1), garbage=(("m", 1),))
        assert a.schema is b.schema and reg_names(a) == ("j",) and a.garbage == (("m", 0),)
        with pytest.raises(MalformedState, match="'x'"):
            a.get("x")
        state = QState.uniform([a, b])
        copy = pickle.loads(pickle.dumps(state))
        assert copy == state and copy.entries[0][0].schema is a.schema

    def test_is_undefined(self):
        assert is_undefined(UNDEFINED) and is_undefined("".join("undef"))
        assert not any(is_undefined(w) for w in (F(0), 0, "x", None))
