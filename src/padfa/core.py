"""Core data types for partial deterministic finite automata and for the
finite-automata intersection (FAI) instances the gadgets reduce from.

A partial DFA keeps its transition table as a dense (state x letter) grid
whose entries are either a target state index or ``None`` for "undefined".
Undefined stays a distinguished table value throughout: it is never patched
over with a sink state, and the image of a state set under a word simply
drops the states whose path hits an undefined entry.

The searches of the package share two primitives defined here: the image
of a state set under a per-letter table of masks (``union_image``) and
breadth-first search with a parent map (``breadth_first`` and ``word_to``).
The oracles the tests check them against (``bruteforce`` and
``gadgets.has_common_word``) deliberately keep their own code.

The exponential searches (``rank.exact_rank``, the saturation search and
``birecurrent.determinize_reversal``) take tens of thousands of images per
call, so each compiles its tables once with ``byte_tables`` and reads the
state set a byte at a time with ``byte_image``: one lookup per 8 states
instead of one per member.  The saturation search hands its tables to the
rank search it starts with (``rank.exact_rank_on_tables``).  The compiled
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


# parents[node] is (parent, letter), or None for the start node.
Parents = dict[int, Optional[tuple[int, int]]]


def breadth_first(
    start: int,
    letter_count: int,
    step: Callable[[int, int], Optional[int]],
    goal: Callable[[int], bool],
    budget: SearchBudget,
) -> tuple[Optional[int], Parents]:
    """Breadth-first search from ``start`` over int-encoded nodes.

    ``step(node, letter)`` gives the successor, or ``None`` to prune it.
    Letters are expanded in declaration order, so ``word_to`` of any visited
    node is its length-then-lexicographically first word.  Every newly seen
    node, the start included, spends one unit of ``budget`` and is then
    tested against ``goal``.  Returns the first node meeting the goal (or
    ``None`` when the reachable nodes are exhausted) and the parent map,
    whose keys are the visited nodes in discovery order.
    """
    budget.spend()
    parents: Parents = {start: None}
    if goal(start):
        return start, parents
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for letter in range(letter_count):
            new = step(node, letter)
            if new is None or new in parents:
                continue
            budget.spend()
            parents[new] = (node, letter)
            if goal(new):
                return new, parents
            queue.append(new)
    return None, parents


def word_to(parents: Parents, node: int) -> Word:
    """The word labelling the search-tree path from the start to ``node``."""
    letters: list[int] = []
    link = parents[node]
    while link is not None:
        node, letter = link
        letters.append(letter)
        link = parents[node]
    return tuple(reversed(letters))


@dataclass(frozen=True)
class StateSet:
    """Subset of ``range(universe)`` backed by a bitmask: ``mask`` bit ``i``
    set means state ``i`` is a member.  Set algebra works on the masks."""

    universe: int
    mask: int = 0

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("universe must be non-negative")
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError(f"members out of range for universe {self.universe}")

    @classmethod
    def from_iterable(cls, universe: int, members: Iterable[int]) -> "StateSet":
        mask = 0
        for m in members:
            if not 0 <= m < universe:
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
    alphabet in this order).  ``state_count`` may be 0 only for the
    canonical empty automaton produced by trimming; analyses that need a
    nonempty state set reject it.
    """

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        if self.state_count < 0:
            raise ValueError("state_count must be non-negative")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet names must be unique")
        for name in self.alphabet:
            if not name:
                raise ValueError("alphabet names must be nonempty")
        if len(self.transitions) != self.state_count:
            raise ValueError("transition table must have one row per state")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition row width must match alphabet size")
            for target in row:
                if target is not None and not 0 <= target < self.state_count:
                    raise ValueError(f"transition target {target} out of range")

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
            if not 0 <= state < state_count:
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
        if not 0 <= state < self.state_count:
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
    for the empty language; it is what trimming returns when no useful
    state survives.
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
        elif self.initial is None or not 0 <= self.initial < n:
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
