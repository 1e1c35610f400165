"""Core data types for partial deterministic finite automata and for the
finite-automata intersection (FAI) instances the gadgets reduce from.

A partial DFA keeps its transition table as a dense (state x letter) grid
whose entries are either a target state index or ``None`` for "undefined".
Undefined stays a distinguished table value throughout: it is never patched
over with a sink state, and the image of a state set under a word simply
drops the states whose path hits an undefined entry.

The searches of the package share two primitives defined here: the image
of a state set under a per-letter table of masks (``union_image``) and
breadth-first search for a node of a target size that returns the node and
its word (``breadth_first``).
The oracles the tests check them against (``bruteforce`` and
``gadgets.has_common_word``) deliberately keep their own code.

The exponential searches (``rank.exact_rank``, the saturation search and
``birecurrent.determinize_reversal``) take tens of thousands of images per
call, so each compiles its tables once with ``byte_tables`` and reads the
state set a byte at a time with ``byte_image``: one lookup per 8 states
instead of one per member.  Rank and saturation compile one table per
letter, and the saturation search hands its tables to the rank search it
starts with (``rank.exact_rank_on_tables``).  The reversal compiles one
packed table for all letters, whose entries hold every letter's preimage
side by side, so one image per subset serves every letter.  The compiled
form lives only as long as its search and is not cached on the automaton,
which would keep 256 entries per 8 states and letter alive for every
automaton a caller holds.  One-off images (``step_mask``, ``image_mask``)
use ``union_image``, since compiling a table costs more than it saves
there.  Images are masks in and masks out: a caller that checks one, such
as the saturation postconditions, combines masks with ``&`` and counts
them with ``int.bit_count``, and ``StateSet`` only carries a mask across
the API.

All values here are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

Word = tuple[int, ...]

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
            raise BudgetExceededError(
                f"search budget of {self.limit} visited nodes exhausted"
            )

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
        low = mask & -mask
        image |= table[low.bit_length() - 1]
        mask ^= low
    return image


def byte_tables(table: Sequence[int]) -> tuple[list[int], ...]:
    """Compile ``table`` for :func:`byte_image`.

    ``chunks[c][b]`` is the OR of ``table[8c + i]`` over the set bits ``i``
    of ``b``.  Each run of 8 states is built by doubling, so the last run,
    when shorter, has ``2 ** len(run)`` entries.  A zero image (an undefined
    transition) only repeats the entries so far, which a list copy does
    faster than the OR loop.
    """
    chunks = []
    for start in range(0, len(table), 8):
        chunk = [0]
        for image in table[start : start + 8]:
            chunk += [x | image for x in chunk] if image else chunk
        chunks.append(chunk)
    return tuple(chunks)


def byte_image(chunks: Sequence[Sequence[int]], mask: int) -> int:
    """``union_image(table, mask)`` with ``chunks = byte_tables(table)``,
    reading ``mask`` a byte at a time."""
    image = 0
    for chunk in chunks:
        image |= chunk[mask & 255]
        mask >>= 8
        if not mask:
            break
    return image


def breadth_first(
    start: int,
    letter_count: int,
    step: Callable[[int, int], Optional[int]],
    target: int,
    budget: SearchBudget,
) -> tuple[int, Word]:
    """Breadth-first search from ``start`` over int-encoded nodes for a node
    with ``target`` set bits.

    ``step(node, letter)`` gives the successor, or ``None`` to prune it.
    Every newly seen node, the start included, spends one unit of
    ``budget``.  Returns the first node with ``target`` set bits or, when
    none is reachable, the first node with the fewest set bits, together
    with its word.  Letters are expanded in declaration order, so the node's
    word is its length-then-lexicographically first one, and the first node
    of a size in discovery order is the first of that size in that order of
    words.

    Each visited node keeps only its parent.  A word letter is recovered as
    the first letter under which the parent steps to the child, since an
    earlier one would have found the child first; so ``step`` must give the
    same successor each time it is asked.
    """
    budget.spend()
    parents: dict[int, Optional[int]] = {start: None}
    found = start if start.bit_count() == target else None
    queue = deque([start])
    while queue and found is None:
        node = queue.popleft()
        for letter in range(letter_count):
            new = step(node, letter)
            if new is None or new in parents:
                continue
            budget.spend()
            parents[new] = node
            if new.bit_count() == target:
                found = new
                break
            queue.append(new)
    if found is None:
        found = min(parents, key=int.bit_count)
    letters: list[int] = []
    node = found
    while (parent := parents[node]) is not None:
        letters.append(next(a for a in range(letter_count) if step(parent, a) == node))
        node = parent
    return found, tuple(reversed(letters))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PartialDfa:
    """A partial deterministic finite automaton without initial/accepting data.

    ``transitions[s][a]`` is the target of state ``s`` under letter index
    ``a``, or ``None`` when undefined.  Letter order is the declaration
    order and is semantically significant (binarization enumerates the
    alphabet in this order).  States are plain ``int`` indices, never
    ``bool``.  ``state_count`` may be 0 only for the canonical empty
    acceptor; analyses that need a nonempty state set reject it.
    """

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        n = self.state_count
        if type(n) is not int or n < 0:
            raise ValueError("state_count must be a non-negative int")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet names must be unique")
        for name in self.alphabet:
            if not name:
                raise ValueError("alphabet names must be nonempty")
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

    def word_names(self, word: Word) -> tuple[str, ...]:
        return tuple(self.alphabet[a] for a in word)

    def run(self, state: int, word: Word) -> Optional[int]:
        """Apply a word to one state, ``None`` as soon as a step is undefined."""
        current: Optional[int] = state
        if type(state) is not int or not 0 <= state < self.state_count:
            raise ValueError(f"state {state} out of range")
        for letter in word:
            if not 0 <= letter < len(self.alphabet):
                raise ValueError(f"letter index {letter} out of range")
            current = self.transitions[current][letter]
            if current is None:
                return None
        return current

    def image_mask(self, mask: int, word: Word) -> int:
        """Image of a bitmask of states under a word (undefined images drop)."""
        for letter in word:
            mask = self.step_mask(mask, letter)
        return mask

    def step_mask(self, mask: int, letter: int) -> int:
        """Image of a bitmask of states under one letter."""
        if not 0 <= letter < len(self.alphabet):
            raise ValueError(f"letter index {letter} out of range")
        return union_image(self.letter_images[letter], mask)

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
