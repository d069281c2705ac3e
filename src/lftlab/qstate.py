"""Sparse superposition states over labeled multi-register basis states.

Amplitudes of every state arising here are real with exactly rational
squared magnitude (uniform 1/sqrt(M) layers and value-weighted encodings
v_j/sqrt(alpha)), so an amplitude is stored as a sign plus an exact
squared magnitude and norms are checked with equality, not tolerance.

Register words are exact rationals or integers; out-of-grid neighbor
slots hold the tagged UNDEFINED word, which any arithmetic use would
raise on rather than silently absorb.

A state's labels must be pairwise distinct. Every state the simulators
build leads each label with an index register (``i`` or ``j``) that is
already unique, so the check compares first registers, which hash as
small ints or int tuples, and hashes whole labels (every rational word)
only when two first registers collide. Equal labels have equal first
registers, so the check stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Iterable, Union

from .errors import MalformedState
from .rational import exact_sum, split

UNDEFINED = "undef"
Word = Union[Fraction, int, str]


@dataclass(frozen=True)
class Amplitude:
    sign: int
    sq: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("amplitude sign must be +1 or -1")
        if self.sq < 0:
            raise ValueError("squared magnitude must be nonnegative")

    @property
    def value(self) -> float:
        return self.sign * sqrt(float(self.sq))


@dataclass(frozen=True)
class BasisLabel:
    regs: tuple[tuple[str, Word], ...]
    garbage: tuple[tuple[str, Word], ...] = ()

    def get(self, name: str) -> Word:
        for key, value in self.regs:
            if key == name:
                return value
        for key, value in self.garbage:
            if key == name:
                return value
        raise MalformedState(f"label has no register {name!r}")

    def has(self, name: str) -> bool:
        return any(k == name for k, _ in self.regs) or any(
            k == name for k, _ in self.garbage
        )

    def reg_names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.regs)


def is_undefined(word: Word) -> bool:
    """``word == UNDEFINED``, without comparing a rational with a str."""
    return isinstance(word, str) and word == UNDEFINED


def label(*regs: tuple[str, Word], garbage: tuple = ()) -> BasisLabel:
    return BasisLabel(regs=tuple(regs), garbage=tuple(garbage))


@dataclass(frozen=True)
class QState:
    entries: tuple[tuple[BasisLabel, Amplitude], ...]

    def __post_init__(self):
        labs = [lab for lab, _ in self.entries]
        if len({lab.regs[:1] for lab in labs}) < len(labs) and len(set(labs)) < len(labs):
            raise MalformedState("duplicate basis label")

    @classmethod
    def uniform(cls, labels: Iterable[BasisLabel]) -> "QState":
        labs = tuple(labels)
        if not labs:
            raise MalformedState("cannot build a state over zero labels")
        amp = Amplitude(sign=1, sq=Fraction(1, len(labs)))
        return cls(entries=tuple((lab, amp) for lab in labs))

    def norm_sq(self) -> Fraction:
        return exact_sum(*split(a.sq for _, a in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple[BasisLabel, ...]:
        return tuple(lab for lab, _ in self.entries)

    def map_labels(self, fn: Callable[[BasisLabel], BasisLabel]) -> "QState":
        """Relabel every basis state; amplitudes unchanged (reversible step)."""
        return QState(entries=tuple((fn(lab), amp) for lab, amp in self.entries))

    def require_regs(self, *names: str) -> None:
        need = frozenset(names)
        for lab, _ in self.entries:
            if not need <= {k for k, _ in lab.regs}:
                for name in names:
                    if not lab.has(name):
                        raise MalformedState(f"state lacks register {name!r}")

    def reg_values(self, name: str) -> tuple[Word, ...]:
        return tuple(lab.get(name) for lab, _ in self.entries)
