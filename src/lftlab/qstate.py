"""Sparse superposition states over labeled multi-register basis states.

Amplitudes of every state arising here are real with exactly rational
squared magnitude (uniform 1/sqrt(M) layers and value-weighted encodings
v_j/sqrt(alpha)), so an amplitude is stored as a sign plus an exact
squared magnitude and norms are checked with equality, not tolerance.

Register words are exact rationals or integers; out-of-grid neighbor
slots hold the tagged UNDEFINED word, which any arithmetic use would
raise on rather than silently absorb.

A label holds one value per register; the register names live once, in a
schema that every label of a state shares: the names in order, how many of
them are registers rather than garbage, and a name -> position index, so a
register read is one dict lookup. Schemas are interned (one object per
layout, re-interned on unpickling), so labels compare and hash their
schemas by identity, and a pickled state writes its schema once, as the
state in memory holds it once.

A state's labels must share one schema and be pairwise distinct. Every
state the simulators build leads each label with an index register (``i``
or ``j``) that is already unique, so the check compares first values, which
hash as small ints or int tuples, and hashes whole labels (every rational
word) only when two first values collide. Under one schema, equal labels
have equal first values, so the check stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Union

from .errors import MalformedState
from .rational import exact_sum

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


@dataclass(frozen=True, eq=False)
class Schema:
    names: tuple[str, ...]
    n_regs: int  # names[:n_regs] are registers, the rest garbage
    index: dict[str, int] = field(repr=False)

    def __reduce__(self):
        return _schema, (self.names, self.n_regs)


@cache
def _schema(names: tuple[str, ...], n_regs: int) -> Schema:
    index: dict[str, int] = {}
    for pos, name in enumerate(names):
        index.setdefault(name, pos)  # a repeated name reads its first slot
    return Schema(names, n_regs, index)


@dataclass(frozen=True)
class BasisLabel:
    schema: Schema
    values: tuple[Word, ...]

    def get(self, name: str) -> Word:
        try:
            return self.values[self.schema.index[name]]
        except KeyError:
            raise MalformedState(f"label has no register {name!r}") from None

    @property
    def regs(self) -> tuple[tuple[str, Word], ...]:
        return tuple(zip(self.schema.names, self.values[: self.schema.n_regs]))

    @property
    def garbage(self) -> tuple[tuple[str, Word], ...]:
        n = self.schema.n_regs
        return tuple(zip(self.schema.names[n:], self.values[n:]))


def is_undefined(word: Word) -> bool:
    """``word == UNDEFINED``, without comparing a rational with a str."""
    return isinstance(word, str) and word == UNDEFINED


def label(*regs: tuple[str, Word], garbage: tuple = ()) -> BasisLabel:
    pairs = (*regs, *garbage)
    names, values = zip(*pairs) if pairs else ((), ())
    return BasisLabel(_schema(names, len(regs)), values)


@dataclass(frozen=True)
class QState:
    entries: tuple[tuple[BasisLabel, Amplitude], ...]

    def __post_init__(self):
        labs = [lab for lab, _ in self.entries]
        if len({lab.schema for lab in labs}) > 1:
            raise MalformedState("labels of one state must share one register schema")
        firsts = {lab.values[0] for lab in labs if lab.values}
        if len(firsts) < len(labs) and len(set(labs)) < len(labs):
            raise MalformedState("duplicate basis label")

    @classmethod
    def uniform(cls, labels: Iterable[BasisLabel]) -> "QState":
        labs = tuple(labels)
        if not labs:
            raise MalformedState("cannot build a state over zero labels")
        amp = Amplitude(sign=1, sq=Fraction(1, len(labs)))
        return cls(entries=tuple((lab, amp) for lab in labs))

    def norm_sq(self) -> Fraction:
        sqs = [a.sq for _, a in self.entries]
        return exact_sum([q.numerator for q in sqs], [q.denominator for q in sqs])

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple[BasisLabel, ...]:
        return tuple(lab for lab, _ in self.entries)

    def map_labels(self, fn: Callable[[BasisLabel], BasisLabel]) -> "QState":
        """Relabel every basis state; amplitudes unchanged (reversible step)."""
        return QState(entries=tuple((fn(lab), amp) for lab, amp in self.entries))

    def require_regs(self, *names: str) -> None:
        if not self.entries:
            return
        index = self.entries[0][0].schema.index
        for name in names:
            if name not in index:
                raise MalformedState(f"state lacks register {name!r}")
