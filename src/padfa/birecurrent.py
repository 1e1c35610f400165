"""Deciding whether an acceptor recognizes a birecurrent set.

A language is birecurrent when its minimal partial DFA and the minimal
partial DFA of its reversal are both strongly connected.  Two independent
deciders are provided and cross-checked (Dolce, Perrin, Reutenauer and
Rindone, "Birecurrent sets", IJAC 2017):

* the direct route minimizes the acceptor and tests strong connectivity of
  it and of the determinization of its reversal (by Brzozowski, the
  minimal DFA of the reversed language).  ``determinize_reversal`` builds
  it from one packed preimage table for all letters, as subset masks and
  one flat row table, and makes an ``Acceptor`` of it only when that is
  read, which the decider never does: the construction only builds
  subsets reachable from its start (the accepting set), so it is strongly
  connected exactly when every subset reaches the start again, which one
  backward pass over the rows decides;
* the characterization route minimizes, then asks whether the accepting set
  is saturated by a word of minimum rank.

Both deciders first minimize and require the minimal automaton to be
strongly connected.  ``is_birecurrent`` takes that step once and hands the
minimal acceptor to both, which share nothing past it; each public decider
called on its own takes it for itself.  An acceptor read from a file has
at most ``formats.MAX_STATES`` states: a file declaring more is rejected
before either decider runs.

For the empty language both return False by convention (the minimal
automaton is empty, so "strongly connected" has no meaningful reading).
The one-state corner case (initial state accepting, e.g. a language
containing the empty word recognized by a single state) follows the formal
definitions and comes out birecurrent whenever both trivial automata are
strongly connected.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    Acceptor,
    PartialDfa,
    SearchBudget,
    StateSet,
    byte_tables,
    record,
)
from .graphs import (
    backward_closure,
    coreachable_to,
    is_strongly_connected,
    reachable_from,
)
from .saturate import find_saturating_min_rank_word


class MethodDisagreement(RuntimeError):
    """The two birecurrence deciders disagreed; indicates an internal bug."""


def minimize(acceptor: Acceptor) -> Acceptor:
    """The minimal trim partial acceptor for the same language.

    Partition refinement over the useful states, those reachable from the
    initial state and co-reachable to an accepting one.  ``block_of`` holds
    only these, so ``map(block_of.get, row)`` reads undefined and useless
    targets alike as ``None``, its own transition outcome: that is the whole
    trim, and no dead state is ever materialized.  The result is unique up
    to isomorphism; the empty language yields the canonical empty acceptor.
    """
    dfa = acceptor.dfa
    if acceptor.is_empty:
        return acceptor
    useful = reachable_from(dfa, [acceptor.initial])
    useful &= coreachable_to(dfa, acceptor.accepting)
    if acceptor.initial not in useful:
        return Acceptor.empty(dfa.alphabet)
    states = sorted(useful)

    block_of = {s: 1 if s in acceptor.accepting else 0 for s in states}
    count = len(set(block_of.values()))
    while True:
        blocks: dict[tuple, list[int]] = {}
        for s in states:
            sig = (block_of[s], *map(block_of.get, dfa.transitions[s]))
            blocks.setdefault(sig, []).append(s)
        # Insertion order is the order of first members, so every round
        # numbers its blocks by first occurrence and the result is
        # deterministic.
        for i, members in enumerate(blocks.values()):
            for s in members:
                block_of[s] = i
        if len(blocks) == count:
            break
        count = len(blocks)

    rows = tuple(
        tuple(map(block_of.get, dfa.transitions[members[0]]))
        for members in blocks.values()
    )
    accepting = StateSet.from_iterable(
        count, {block_of[s] for s in acceptor.accepting if s in block_of}
    )
    return Acceptor(
        PartialDfa(count, dfa.alphabet, rows), block_of[acceptor.initial], accepting
    )


@record
class SubsetAutomaton:
    """Determinization of the reversal of ``source``, as its subset loop
    leaves it.

    ``nodes`` are the reachable nonempty subsets of the source's states as
    masks, in discovery order, the accepting set first.  ``rows`` lays
    their rows end to end: entry ``node * letter_count + letter`` is the
    index of the subset's preimage under ``letter``, or ``None`` where it
    is empty.  Both are the loop's own lists, so the construction keeps no
    container per subset, which would set off garbage collections in
    proportion to the subset count.  An empty accepting set gives no nodes.
    """

    source: Acceptor
    nodes: list[int]
    rows: list[Optional[int]]

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    @cached_property
    def acceptor(self) -> Acceptor:
        """The reversal as a plain acceptor, built on first read.  State i
        is node i, state 0 is initial, and a state accepts when its subset
        holds the source's initial state; with no nodes it is empty."""
        alphabet = self.source.dfa.alphabet
        if not self.nodes:
            return Acceptor.empty(alphabet)
        k, count, initial = len(alphabet), len(self.nodes), self.source.initial
        transitions = tuple(tuple(self.rows[i * k : i * k + k]) for i in range(count))
        held = (i for i, mask in enumerate(self.nodes) if mask >> initial & 1)
        accepting = StateSet.from_iterable(count, held)
        return Acceptor(PartialDfa(count, alphabet, transitions), 0, accepting)

    def as_dfa(self) -> PartialDfa:
        return self.acceptor.dfa

    def is_strongly_connected(self) -> bool:
        """Decided on ``rows`` alone: every node is reachable from node 0,
        so it is enough that node 0 is reachable from every node."""
        if not self.nodes:
            raise ValueError("strong connectivity is undefined for the empty automaton")
        k = self.source.dfa.letter_count
        return all(backward_closure(self.rows, len(self.nodes), k, [0]))


def determinize_reversal(
    acceptor: Acceptor, budget: int | SearchBudget = DEFAULT_BUDGET
) -> SubsetAutomaton:
    """Subset construction on the reversed transition relation.

    Starts from the accepting set and expands only reachable nonempty
    subsets, spending one unit of ``budget`` per new subset.  An empty
    accepting set yields the empty subset automaton.

    The preimages of all letters share one compiled table: bits
    ``letter * n`` to ``letter * n + n - 1`` of ``preimages[target]`` hold
    the sources that ``letter`` sends to ``target``, so one image per
    subset, read from the chunks inline a byte of the subset at a time,
    gives every letter's preimage, each cut out by a shift and a mask.

    The budget is counted in a local and written back on every exit, as in
    ``rank.exact_rank_on_tables``.  An exhausted construction raises
    ``budget.exhausted()`` at the first subset past the budget and leaves
    ``budget.remaining == -1``.
    """
    if not acceptor.accepting:
        return SubsetAutomaton(acceptor, [], [])
    budget = SearchBudget.ensure(budget)
    dfa = acceptor.dfa
    n = dfa.state_count
    full = (1 << n) - 1
    shifts = range(0, dfa.letter_count * n, n)
    preimages = [0] * n
    for source, row in enumerate(dfa.transitions):
        for shift, target in zip(shifts, row):
            if target is not None:
                preimages[target] |= 1 << source + shift
    chunks = byte_tables(preimages)

    start = acceptor.accepting.mask
    budget.spend()
    index = {start: 0}
    order = [start]
    rows: list[Optional[int]] = []
    remaining = budget.remaining
    try:
        for mask in order:  # order doubles as the queue: it only grows at the end
            images = 0
            rest = mask
            for chunk in chunks:
                images |= chunk[rest & 255]
                rest >>= 8
                if not rest:
                    break
            for shift in shifts:
                new = images >> shift & full
                if not new:
                    rows.append(None)
                    continue
                node = index.get(new)
                if node is None:
                    remaining -= 1
                    if remaining < 0:
                        raise budget.exhausted()
                    node = index[new] = len(order)
                    order.append(new)
                rows.append(node)
    finally:
        budget.remaining = remaining
    return SubsetAutomaton(acceptor, order, rows)


def _strongly_connected_minimal(acceptor: Acceptor) -> Optional[Acceptor]:
    """The minimal acceptor, or ``None`` when it is empty or not strongly
    connected, where both deciders answer no.  A nonempty minimal acceptor
    is trim, so its accepting set is nonempty and its reversal is never
    empty."""
    minimal = minimize(acceptor)
    if minimal.is_empty or not is_strongly_connected(minimal.dfa):
        return None
    return minimal


def is_birecurrent_direct(
    acceptor: Acceptor, budget: int | SearchBudget = DEFAULT_BUDGET
) -> bool:
    """Minimize, then require the automaton and the determinization of its
    reversal to both be strongly connected.  Only the subset construction
    spends ``budget``."""
    minimal = _strongly_connected_minimal(acceptor)
    return minimal is not None and determinize_reversal(minimal, budget).is_strongly_connected()


def is_birecurrent_characterization(
    acceptor: Acceptor, budget: int | SearchBudget = DEFAULT_BUDGET
) -> bool:
    """Minimize, then require the accepting set to be saturated by a word of
    minimum rank (and the automaton to be strongly connected)."""
    minimal = _strongly_connected_minimal(acceptor)
    if minimal is None:
        return False
    word = find_saturating_min_rank_word(minimal.dfa, minimal.accepting, budget)
    return word is not None


def is_birecurrent(
    acceptor: Acceptor, budget: int | SearchBudget = DEFAULT_BUDGET
) -> bool:
    """Minimize once, run both deciders and return the shared verdict.

    Both draw on one shared ``budget``.  A disagreement means a bug in one
    of them and raises :class:`MethodDisagreement` rather than guessing.
    """
    shared = SearchBudget.ensure(budget)
    minimal = _strongly_connected_minimal(acceptor)
    if minimal is None:
        return False
    direct = determinize_reversal(minimal, shared).is_strongly_connected()
    word = find_saturating_min_rank_word(minimal.dfa, minimal.accepting, shared)
    characterized = word is not None
    if direct != characterized:
        raise MethodDisagreement(
            f"direct={direct} but characterization={characterized}"
        )
    return direct
