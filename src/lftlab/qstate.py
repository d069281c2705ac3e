"""Sparse superposition states over labeled multi-register basis states.

Amplitudes of every state arising here are real with exactly rational
squared magnitude (uniform 1/sqrt(M) layers and value-weighted encodings
v_j/sqrt(alpha)), so an amplitude is stored as a sign plus an exact
squared magnitude and norms are checked with equality, not tolerance.
A uniform layer's 1/M is made by ``rational.reduced``, and an amplitude
reads a ``Fraction`` square's sign from its numerator, so building one
does no ``Fraction`` comparison.

Register words are exact rationals, integers or (numerator, denominator)
pairs of ints; out-of-grid neighbor slots hold the tagged UNDEFINED word,
which any arithmetic use would raise on rather than silently absorb.

A label holds one value per register; the register names live once, in a
schema that every label of a state shares: the names in order, how many of
them are registers rather than garbage, and a name -> position index, so a
register read is one dict lookup. Schemas are interned (one object per
layout, re-interned on unpickling), so labels compare and hash their
schemas by identity, and a pickled state writes its schema once, as the
state in memory holds it once.

Labels and amplitudes are value records: equal when their fields are (a
schema by identity), hashed as the tuple of their fields, immutable, and
pickled as their class and fields, so a label unpickles onto the interned
schema. Each simulator step rebuilds every branch's label: one ``sim-1d``
benchmark pass (two inputs, N = K = 4096) builds 73,728 labels and 8,198
amplitudes, one ``nd-verify`` pass 6,682 labels. So they are ``__slots__``
classes, as ``Fraction`` is, with private slots behind read-only public
names that the simulators' per-branch loops read directly; a frozen
dataclass stores each field through ``object.__setattr__``, which made a
record 2.3 to 2.7 times as costly to build (CPython 3.11).

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
from itertools import repeat
from operator import attrgetter, is_
from typing import Callable, Iterable, Union

from .errors import MalformedState
from .rational import exact_sum, reduced

UNDEFINED = "undef"
Word = Union[Fraction, int, str, tuple[int, int]]


class Amplitude:
    """Sign (+1 or -1) and exact squared magnitude of one branch."""

    __slots__ = ("_sign", "_sq")

    def __init__(self, sign: int, sq: Fraction):
        if sign not in (-1, 1):
            raise ValueError("amplitude sign must be +1 or -1")
        # a Fraction's sign is its numerator's, read without a Fraction compare
        if (sq.numerator if type(sq) is Fraction else sq) < 0:
            raise ValueError("squared magnitude must be nonnegative")
        self._sign = sign
        self._sq = sq

    sign = property(attrgetter("_sign"))
    sq = property(attrgetter("_sq"))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._sign, self._sq) == (other._sign, other._sq)
        return NotImplemented

    def __hash__(self):
        return hash((self._sign, self._sq))

    def __repr__(self):
        return f"{type(self).__qualname__}(sign={self._sign!r}, sq={self._sq!r})"

    def __reduce__(self):
        return type(self), (self._sign, self._sq)


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


class BasisLabel:
    """One basis state: a schema and one word per name in it."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: tuple[Word, ...]):
        self._schema = schema
        self._values = values

    schema = property(attrgetter("_schema"))
    values = property(attrgetter("_values"))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._schema is other._schema and self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash((self._schema, self._values))

    def __repr__(self):
        return f"{type(self).__qualname__}(schema={self._schema!r}, values={self._values!r})"

    def __reduce__(self):
        return type(self), (self._schema, self._values)

    def get(self, name: str) -> Word:
        try:
            return self._values[self._schema.index[name]]
        except KeyError:
            raise MalformedState(f"label has no register {name!r}") from None

    @property
    def regs(self) -> tuple[tuple[str, Word], ...]:
        return tuple(zip(self._schema.names, self._values[: self._schema.n_regs]))

    @property
    def garbage(self) -> tuple[tuple[str, Word], ...]:
        n = self._schema.n_regs
        return tuple(zip(self._schema.names[n:], self._values[n:]))


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
        if len({lab._schema for lab in labs}) > 1:
            raise MalformedState("labels of one state must share one register schema")
        firsts = {lab._values[0] for lab in labs if lab._values}
        if len(firsts) < len(labs) and len(set(labs)) < len(labs):
            raise MalformedState("duplicate basis label")

    @classmethod
    def uniform(cls, labels: Iterable[BasisLabel]) -> "QState":
        labs = tuple(labels)
        if not labs:
            raise MalformedState("cannot build a state over zero labels")
        amp = Amplitude(sign=1, sq=reduced(1, len(labs)))
        return cls(entries=tuple((lab, amp) for lab in labs))

    def norm_sq(self) -> Fraction:
        """The exact sum of the squared magnitudes; when every entry holds
        one ``Amplitude`` object, as a uniform layer does, its ``sq`` times
        the count (told apart by identity, at C speed)."""
        amps = [a for _, a in self.entries]
        if amps and all(map(is_, amps, repeat(amps[0]))):
            sq = amps[0]._sq
            return reduced(sq.numerator * len(amps), sq.denominator)
        sqs = [a._sq for a in amps]
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
