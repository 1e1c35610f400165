"""Graph utilities over the transition structure of a partial DFA.

Covers reachability, strong connectivity, trimming of acceptors, and the
pair automaton (the restriction of the power automaton to subsets of size
at most two) that drives the polynomial minimum-rank search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Optional

from .core import Acceptor, PartialDfa, StateSet


def _successors(dfa: PartialDfa) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(dfa.state_count)]
    for state, row in enumerate(dfa.transitions):
        for target in row:
            if target is not None:
                out[state].add(target)
    return out


def _predecessors(dfa: PartialDfa) -> list[set[int]]:
    inn: list[set[int]] = [set() for _ in range(dfa.state_count)]
    for state, row in enumerate(dfa.transitions):
        for target in row:
            if target is not None:
                inn[target].add(state)
    return inn


def _closure(adjacency: list[set[int]], starts: Iterable[int]) -> set[int]:
    seen = set(starts)
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reachable_from(dfa: PartialDfa, starts: Iterable[int]) -> set[int]:
    """States reachable from ``starts`` along defined transitions."""
    return _closure(_successors(dfa), starts)


def coreachable_to(dfa: PartialDfa, targets: Iterable[int]) -> set[int]:
    """States from which some state in ``targets`` is reachable."""
    return _closure(_predecessors(dfa), targets)


def is_strongly_connected(dfa: PartialDfa) -> bool:
    """True iff every state reaches every other along defined transitions."""
    if dfa.state_count == 0:
        raise ValueError("strong connectivity is undefined for the empty automaton")
    n = dfa.state_count
    return (
        len(reachable_from(dfa, [0])) == n and len(coreachable_to(dfa, [0])) == n
    )


def trim(acceptor: Acceptor) -> tuple[Acceptor, dict[int, int]]:
    """Restrict to states both reachable from the initial state and
    co-reachable to an accepting state.

    Indices are re-packed in ascending order; the old-to-new map is returned
    alongside.  When the initial state itself is not useful the canonical
    empty acceptor is returned (callers must handle it).
    """
    if acceptor.is_empty:
        return acceptor, {}
    dfa = acceptor.dfa
    useful = sorted(
        reachable_from(dfa, [acceptor.initial])
        & coreachable_to(dfa, list(acceptor.accepting))
    )
    if acceptor.initial not in useful:
        return Acceptor.empty(dfa.alphabet), {}
    old_to_new = {old: new for new, old in enumerate(useful)}
    rows = []
    for old in useful:
        row = []
        for target in dfa.transitions[old]:
            row.append(old_to_new.get(target) if target is not None else None)
        rows.append(tuple(row))
    trimmed = PartialDfa(len(useful), dfa.alphabet, tuple(rows))
    accepting = StateSet.from_iterable(
        len(useful), (old_to_new[s] for s in acceptor.accepting if s in old_to_new)
    )
    return Acceptor(trimmed, old_to_new[acceptor.initial], accepting), old_to_new


def _image_node(n: int, p: Optional[int], q: Optional[int]) -> int:
    """Pair-automaton node of the image set {p, q} of an ``n``-state
    automaton, undefined (``None``) members dropped: dead, a singleton, or a
    pair."""
    if p is None:
        p = q
    elif q is None:
        q = p
    if p is None:
        return PairAutomaton.DEAD
    if p == q:
        return 1 + p
    if p > q:
        p, q = q, p
    # Pairs are laid out after the singletons, ordered by (p, q).
    return 1 + n + p * (2 * n - p - 1) // 2 + (q - p - 1)


@dataclass(frozen=True)
class PairAutomaton:
    """Power automaton restricted to subsets of size at most two.

    Node 0 is the absorbing dead node, nodes ``1..n`` are the singletons,
    and the remaining nodes are the unordered pairs.  ``step[node][letter]``
    is total: a pair moves to the (pair or singleton) image of its two
    states, to the singleton of the surviving state when exactly one image
    is defined, and to dead when neither is.
    """

    state_count: int
    step: tuple[tuple[int, ...], ...]

    DEAD = 0

    def singleton_index(self, state: int) -> int:
        return 1 + state

    def pair_index(self, p: int, q: int) -> int:
        if p == q:
            raise ValueError("a pair needs two distinct states")
        return _image_node(self.state_count, p, q)

    def merge_policy(self) -> tuple[list[Optional[int]], list[Optional[int]]]:
        """Shortest word length from each node to any singleton (None if
        none) and, per node, the smallest letter moving one step closer.

        Backward breadth-first search from the singletons, which are at
        distance 0; the dead node is unreachable.  Every edge into level d
        is seen before any node of level d + 1 is expanded, so a node's
        policy is the smallest letter over all its edges into the level
        below it.
        """
        letter_count = len(self.step[0])
        # preds[target] holds node * letter_count + letter per edge node ->
        # target: an int takes less than half the memory of a tuple.
        preds: list[list[int]] = [[] for _ in self.step]
        for node, row in enumerate(self.step):
            base = node * letter_count
            for letter, target in enumerate(row):
                preds[target].append(base + letter)
        dist: list[Optional[int]] = [None] * len(self.step)
        policy: list[Optional[int]] = [None] * len(self.step)
        queue: deque[int] = deque()
        for state in range(self.state_count):
            idx = self.singleton_index(state)
            dist[idx] = 0
            queue.append(idx)
        while queue:
            node = queue.popleft()
            closer = dist[node] + 1
            for edge in preds[node]:
                pred, letter = divmod(edge, letter_count)
                if pred == self.DEAD:
                    continue
                if dist[pred] is None:
                    dist[pred] = closer
                    policy[pred] = letter
                    queue.append(pred)
                elif dist[pred] == closer and letter < policy[pred]:
                    policy[pred] = letter
        return dist, policy


def pair_automaton(dfa: PartialDfa) -> PairAutomaton:
    """Build the size-at-most-two power automaton of ``dfa``."""
    n = dfa.state_count
    table = dfa.transitions
    # A singleton {s} has the row of the pair {s, s}.
    sources = chain(((s, s) for s in range(n)), combinations(range(n), 2))
    rows = [(PairAutomaton.DEAD,) * dfa.letter_count]
    rows.extend(
        tuple(_image_node(n, tp, tq) for tp, tq in zip(table[p], table[q]))
        for p, q in sources
    )
    return PairAutomaton(n, tuple(rows))
