"""Core data types for partial deterministic finite automata and for the
finite-automata intersection (FAI) instances the gadgets reduce from.

A partial DFA keeps its transition table as a dense (state x letter) grid
whose entries are either a target state index or ``None`` for "undefined".
Undefined stays a distinguished table value throughout: it is never patched
over with a sink state, and the image of a state set under a word simply
drops the states whose path hits an undefined entry.

The searches of the package share two primitives defined here: the image
of a state set under a per-letter table of masks (``union_image``) and the
walk back from a breadth-first search's node to its word through the
parent each visited node keeps (``witness_word``).
The oracles the tests check them against (``tests/bruteforce.py`` and
``gadgets.has_common_word``) deliberately keep their own code.

The exponential searches (``rank.exact_rank``, the saturation search and
``birecurrent.determinize_reversal``) take tens of thousands of images per
call, so each compiles one packed table for all letters once with
``byte_tables`` and reads the state set a byte at a time: one lookup per 8
states instead of one per member.  Entry ``s`` holds every letter's image
of state ``s`` for rank and saturation (``rank.packed_images``), and every
letter's preimage of ``s`` for the reversal, letter ``a`` at bits ``a * n``
to ``a * n + n - 1``, so one image per subset serves every letter, each
cut out by a shift and a mask.  The saturation search hands its table to
the rank search it starts with (``rank.exact_rank_on_tables``).  Each of
the three loops reads its table in one inline walk per node, ``images |=
chunk[mask & 255]`` for each byte until the mask runs out, since a call
per edge took about a fifth of their time; the config search reads its
inside and outside images in the same walk.  The witness walk recovers
its letters with ``union_image`` over the automaton's own images, so it
shares no read with the loop whose nodes it checks.  The compiled form
lives only as long as its search and is not cached on the automaton,
which would keep 256 entries per 8 states alive for every automaton a
caller holds.
One-off images (``step_mask``, ``image_mask``) use ``union_image`` too,
since compiling a table costs more than it saves there.  Images are masks
in and masks out: a caller that checks one, such as the saturation
postconditions, combines masks with ``&`` and counts them with
``int.bit_count``, and ``StateSet`` only carries a mask across the API.

All values here are immutable after construction and safe to share between
concurrent readers.  The value types of the package are records: plain
frozen classes that the ``record`` decorator below gives an ``__init__``,
equality, hashing, a ``repr`` and read-only fields, and nothing more: a
record with other values is built anew by its class, through its checks.
The standard library's ``@dataclass`` would do the same, but its module
imports ``inspect`` and it compiles each class's methods with ``exec``,
which cost every ``padfa`` process about 7 ms, a third of its time above
a bare interpreter's start.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

Word = tuple[int, ...]

T = TypeVar("T")

DEFAULT_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when a subset/config search exceeds its visited-node budget."""


class SearchBudget:
    """Mutable countdown of how many search nodes may still be visited.

    Several searches can share one instance so that their combined work is
    capped by a single limit.
    """

    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if type(limit) is not int:
            raise ValueError(f"budget must be an int, not {limit!r}")
        if limit < 1:
            raise ValueError("budget must be positive")
        self.limit = limit
        self.remaining = limit

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise self.exhausted()

    def exhausted(self) -> BudgetExceededError:
        """The error that a search past this budget raises."""
        return BudgetExceededError(f"search budget of {self.limit} visited nodes exhausted")

    @classmethod
    def ensure(cls, value: "int | SearchBudget") -> "SearchBudget":
        if isinstance(value, SearchBudget):
            return value
        return cls(value)


def members(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_image(table: Sequence[int], mask: int) -> int:
    """OR of ``table[i]`` over the set bits ``i`` of ``mask``.

    With ``table = dfa.letter_images[a]`` this is the image of the state set
    ``mask`` under letter ``a``.
    """
    image = 0
    while mask:
        i = mask.bit_length() - 1
        image |= table[i]
        mask ^= 1 << i
    return image


def byte_tables(table: Sequence[int]) -> tuple[list[int], ...]:
    """Compile ``table`` for a search loop that reads a mask a byte at a
    time: ``union_image(table, mask)`` is the OR of ``chunks[c][byte c of
    mask]`` over the chunks.

    ``chunks[c][b]`` is the OR of ``table[8c + i]`` over the set bits ``i``
    of ``b``.  Each run of 8 states is built by doubling, so the last run,
    when shorter, has ``2 ** len(run)`` entries.  A zero image (an undefined
    transition) only repeats the entries so far, which a list copy does
    faster than the OR loop.  The runs whose images are all zero share one
    chunk of 256 zeros, so a letter undefined on most states costs a
    reference per run rather than 256 entries.
    """
    chunks = []
    zero = [0] * 256
    for start in range(0, len(table), 8):
        chunk = [0]
        for image in table[start : start + 8]:
            chunk += [x | image for x in chunk] if image else chunk
        # The last entry is the union of the run's images.
        chunks.append(chunk if chunk[-1] else zero)
    return tuple(chunks)


def witness_word(
    parents: Mapping[int, Optional[int]],
    node: int,
    step: Callable[[int, int], Optional[int]],
    letter_count: int,
) -> Word:
    """The word of ``node`` in a breadth-first search that kept only each
    visited node's parent in ``parents`` (``None`` for the start).

    A word letter is recovered as the first letter under which the parent
    steps to the child, since an earlier one would have found the child
    first; so ``step(node, letter)`` must give the search's successor, or
    something other than a node for a pruned one.  The search expanded the
    letters in declaration order, so the word is the node's length-then-
    lexicographically first one.  When no letter steps a parent to its
    child, the search and ``step`` disagree, and the walk raises
    ``RuntimeError`` rather than return a word.
    """
    alphabet = range(letter_count)
    letters: list[int] = []
    while (parent := parents[node]) is not None:
        for letter in alphabet:
            if step(parent, letter) == node:
                break
        else:
            raise RuntimeError(f"no letter steps node {parent} to its child {node}")
        letters.append(letter)
        node = parent
    return tuple(reversed(letters))


def record(cls: type[T]) -> type[T]:
    """Make ``cls`` a frozen record whose fields are its annotated class
    attributes, in order.  An annotated attribute's value is the field's
    default, one object shared by every instance, so it must be immutable.

    ``__init__`` takes the fields by position or keyword and then calls
    ``__post_init__`` when the class has one.  ``__eq__`` is true for an
    instance of the same class with equal fields, ``__hash__`` hashes the
    fields, ``__repr__`` lists them (unless the class defines its own), and
    assigning or deleting any attribute raises ``AttributeError``.

    ``__init__`` sets each field with ``object.__setattr__``, as a frozen
    dataclass does.  Writing to ``self.__dict__`` instead would turn
    CPython's compact attribute storage into a full dict, which makes
    every attribute read slower and every instance larger.  Instances still
    have a ``__dict__``, so ``functools.cached_property``, ``copy`` and
    ``pickle`` work on them.
    """
    class_name = cls.__name__
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{class_name}() takes {len(names)} arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{class_name}() missing argument {name!r}")
            set_field(self, name, value)
        if kwargs:
            raise TypeError(
                f"{class_name}() got an unexpected or repeated argument {next(iter(kwargs))!r}"
            )
        if post_init:
            self.__post_init__()

    # The field values, compared and hashed as one tuple (a bare value for
    # a one-field record).
    fields = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        listed = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({listed})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {class_name} is a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {class_name} is a frozen record")

    methods = [__init__, __eq__, __hash__, __setattr__, __delattr__]
    if "__repr__" not in vars(cls):
        methods.append(__repr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@record
class StateSet:
    """Subset of ``range(universe)`` backed by a bitmask: ``mask`` bit ``i``
    set means state ``i`` is a member.  Set algebra works on the masks.  The
    universe, the mask and the members are plain ``int``, never ``bool``."""

    universe: int
    mask: int = 0

    def __post_init__(self):
        if type(self.universe) is not int or type(self.mask) is not int:
            raise ValueError(
                f"universe and mask must be ints, not {self.universe!r} and {self.mask!r}"
            )
        if self.universe < 0:
            raise ValueError("universe must be non-negative")
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError(f"members out of range for universe {self.universe}")

    @classmethod
    def from_iterable(cls, universe: int, members: Iterable[int]) -> "StateSet":
        mask = 0
        for m in members:
            if type(m) is not int or not 0 <= m < universe:
                raise ValueError(f"state {m} out of range for universe {universe}")
            mask |= 1 << m
        return cls(universe, mask)

    @classmethod
    def full(cls, universe: int) -> "StateSet":
        return cls(universe, (1 << universe) - 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.universe and self.mask >> state & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return members(self.mask)

    def __repr__(self) -> str:
        return f"StateSet({self.universe}, {{{', '.join(map(str, self))}}})"


@record
class PartialDfa:
    """A partial deterministic finite automaton without initial/accepting data.

    ``transitions[s][a]`` is the target of state ``s`` under letter index
    ``a``, or ``None`` when undefined.  Letter order is the declaration
    order and is semantically significant (binarization enumerates the
    alphabet in this order).  States and letters are plain ``int`` indices,
    never ``bool``.  ``state_count`` may be 0 only for the canonical empty
    acceptor; analyses that need a nonempty state set reject it.
    """

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        n = self.state_count
        if type(n) is not int or n < 0:
            raise ValueError("state_count must be a non-negative int")
        for name in self.alphabet:
            if type(name) is not str or not name:
                raise ValueError(f"alphabet names must be nonempty strings, not {name!r}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet names must be unique")
        if len(self.transitions) != n:
            raise ValueError("transition table must have one row per state")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition row width must match alphabet size")
            for target in row:
                if target is not None and not (type(target) is int and 0 <= target < n):
                    raise ValueError(f"transition target {target!r} out of range")

    @classmethod
    def from_map(
        cls,
        state_count: int,
        alphabet: Iterable[str],
        delta: Mapping[tuple[int, str], int],
    ) -> "PartialDfa":
        """Build from a ``{(state, letter_name): target}`` mapping.

        Only states that appear in ``delta`` get a row of their own; every
        other state shares one all-undefined row, so a large declared state
        count with few transitions stays small.
        """
        letters = tuple(alphabet)
        index = {name: i for i, name in enumerate(letters)}
        rows: dict[int, list[Optional[int]]] = {}
        for (state, name), target in delta.items():
            if type(state) is not int or not 0 <= state < state_count:
                raise ValueError(f"state {state} out of range")
            if name not in index:
                raise ValueError(f"unknown letter {name!r}")
            rows.setdefault(state, [None] * len(letters))[index[name]] = target
        undefined = (None,) * len(letters)
        return cls(
            state_count,
            letters,
            tuple(
                tuple(rows[state]) if state in rows else undefined
                for state in range(state_count)
            ),
        )

    @property
    def letter_count(self) -> int:
        return len(self.alphabet)

    def letter_index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise ValueError(f"unknown letter {name!r}") from None

    def _letters(self, word: Word) -> Word:
        """``word`` as a tuple if each of its letters is a letter index of
        this automaton: an ``int``, never a ``bool``, in range.  A tuple is
        returned as it is; an iterator is read once, here."""
        word = tuple(word)
        k = len(self.alphabet)
        for letter in word:
            if type(letter) is not int or not 0 <= letter < k:
                raise ValueError(f"letter index {letter} out of range")
        return word

    def _check_mask(self, mask: int) -> None:
        """Raise unless ``mask`` is a set of states of this automaton: a
        non-negative ``int``, never a ``bool``, with no bit at or above
        ``state_count``."""
        if type(mask) is not int or mask < 0 or mask >> self.state_count:
            raise ValueError(f"state mask {mask!r} out of range")

    def word_names(self, word: Word) -> tuple[str, ...]:
        return tuple(self.alphabet[a] for a in self._letters(word))

    def run(self, state: int, word: Word) -> Optional[int]:
        """Apply a word to one state, ``None`` as soon as a step is undefined."""
        current: Optional[int] = state
        if type(state) is not int or not 0 <= state < self.state_count:
            raise ValueError(f"state {state} out of range")
        for letter in self._letters(word):
            current = self.transitions[current][letter]
            if current is None:
                return None
        return current

    def image_mask(self, mask: int, word: Word) -> int:
        """Image of a bitmask of states under a word (undefined images drop)."""
        self._check_mask(mask)
        images = self.letter_images
        for letter in self._letters(word):
            mask = union_image(images[letter], mask)
        return mask

    def step_mask(self, mask: int, letter: int) -> int:
        """Image of a bitmask of states under one letter."""
        return self.image_mask(mask, (letter,))

    @cached_property
    def letter_images(self) -> tuple[tuple[int, ...], ...]:
        """``letter_images[a][s]`` is ``1 << delta(s, a)``, or 0 where undefined."""
        return tuple(
            tuple(0 if row[a] is None else 1 << row[a] for row in self.transitions)
            for a in range(len(self.alphabet))
        )

    @cached_property
    def letter_domains(self) -> tuple[int, ...]:
        """``letter_domains[a]`` is the mask of states on which ``a`` is defined."""
        return tuple(
            sum(1 << s for s, image in enumerate(images) if image)
            for images in self.letter_images
        )

    def is_complete(self) -> bool:
        return all(target is not None for row in self.transitions for target in row)

    def is_permutation(self) -> bool:
        """True when every letter is a total bijection on the states."""
        for letter in range(len(self.alphabet)):
            seen = set()
            for row in self.transitions:
                target = row[letter]
                if target is None or target in seen:
                    return False
                seen.add(target)
        return True


@record
class Acceptor:
    """A partial DFA with an initial state and a set of accepting states.

    The canonical empty acceptor (zero states, ``initial is None``) stands
    for the empty language, and ``minimize`` returns it for that language.
    """

    dfa: PartialDfa
    initial: Optional[int]
    accepting: StateSet

    def __post_init__(self):
        n = self.dfa.state_count
        if not isinstance(self.accepting, StateSet):
            raise ValueError(f"accepting must be a StateSet, not {self.accepting!r}")
        if self.accepting.universe != n:
            raise ValueError("accepting set universe does not match automaton")
        if n == 0:
            if self.initial is not None:
                raise ValueError("empty acceptor cannot have an initial state")
        elif type(self.initial) is not int or not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")

    @classmethod
    def empty(cls, alphabet: Iterable[str] = ()) -> "Acceptor":
        return cls(PartialDfa(0, tuple(alphabet), ()), None, StateSet(0))

    @property
    def is_empty(self) -> bool:
        return self.dfa.state_count == 0


@record
class IntersectionInstance:
    """A finite-automata intersection instance: complete acceptors sharing
    one alphabet."""

    machines: tuple[Acceptor, ...]

    def __post_init__(self):
        if not self.machines:
            raise ValueError("an instance needs at least one machine")
        alphabet = self.machines[0].dfa.alphabet
        for i, machine in enumerate(self.machines):
            if machine.is_empty:
                raise ValueError(f"machine {i} has no states")
            if machine.dfa.alphabet != alphabet:
                raise ValueError(f"machine {i} uses a different alphabet")
            if not machine.dfa.is_complete():
                raise ValueError(f"machine {i} is not complete")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.machines[0].dfa.alphabet
