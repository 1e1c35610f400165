"""Graph utilities over the transition structure of a partial DFA.

Covers reachability, strong connectivity, trimming of acceptors, and the
pair automaton (the restriction of the power automaton to subsets of size
at most two) that drives the polynomial minimum-rank search.

Every backward walk reads the predecessor table of ``predecessor_links``:
coreachability (so ``trim`` and strong connectivity), the merge policy of
the pair automaton, and the direct birecurrence test on the reversal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, compress
from typing import Iterable, Optional

from .core import Acceptor, PartialDfa, StateSet


def predecessor_links(
    rows: Iterable[Optional[int]], node_count: int, letter_count: int
) -> tuple[list[int], list[int]]:
    """Predecessor lists of a row table as two flat int lists, which set off
    no garbage collections as a container per node would.

    ``rows`` yields the targets in entry order: entry ``node * letter_count
    + letter`` is the target of ``node`` under ``letter``, or ``None``.  The
    entries that point at node t are ``head[t]``, ``link[head[t]]``, and so
    on until -1.
    """
    head = [-1] * node_count
    link = [-1] * (node_count * letter_count)
    for entry, target in enumerate(rows):
        if target is not None:
            link[entry] = head[target]
            head[target] = entry
    return head, link


def backward_closure(
    rows: Iterable[Optional[int]], node_count: int, letter_count: int,
    targets: Iterable[int],
) -> bytearray:
    """A byte per node of ``rows``, laid out as for :func:`predecessor_links`:
    1 iff the node reaches a node in ``targets``."""
    head, link = predecessor_links(rows, node_count, letter_count)
    stack = list(targets)
    seen = bytearray(node_count)
    for target in stack:
        seen[target] = 1
    while stack:
        entry = head[stack.pop()]
        while entry >= 0:
            node = entry // letter_count
            if not seen[node]:
                seen[node] = 1
                stack.append(node)
            entry = link[entry]
    return seen


def reachable_from(dfa: PartialDfa, starts: Iterable[int]) -> set[int]:
    """States reachable from ``starts`` along defined transitions."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for target in dfa.transitions[stack.pop()]:
            if target is not None and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def coreachable_to(dfa: PartialDfa, targets: Iterable[int]) -> set[int]:
    """States from which some state in ``targets`` is reachable."""
    rows = chain.from_iterable(dfa.transitions)
    seen = backward_closure(rows, dfa.state_count, dfa.letter_count, targets)
    return set(compress(range(dfa.state_count), seen))


def is_strongly_connected(dfa: PartialDfa) -> bool:
    """True iff every state reaches every other along defined transitions."""
    if dfa.state_count == 0:
        raise ValueError("strong connectivity is undefined for the empty automaton")
    n = dfa.state_count
    return len(reachable_from(dfa, [0])) == n == len(coreachable_to(dfa, [0]))


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
        head, link = predecessor_links(
            chain.from_iterable(self.step), len(self.step), letter_count
        )
        dist: list[Optional[int]] = [None] * len(self.step)
        policy: list[Optional[int]] = [None] * len(self.step)
        queue = deque(map(self.singleton_index, range(self.state_count)))
        for node in queue:
            dist[node] = 0
        while queue:
            node = queue.popleft()
            closer = dist[node] + 1
            entry = head[node]
            while entry >= 0:
                pred, letter = divmod(entry, letter_count)
                if dist[pred] is None:
                    dist[pred] = closer
                    policy[pred] = letter
                    queue.append(pred)
                elif dist[pred] == closer and letter < policy[pred]:
                    policy[pred] = letter
                entry = link[entry]
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
