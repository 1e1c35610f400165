"""Graph utilities over the transition structure of a partial DFA.

Covers reachability, strong connectivity, and the pair automaton (the
restriction of the power automaton to subsets of size at most two) that
drives the polynomial minimum-rank search.

The pair automaton is stored as one column per letter, filled a state at
a time: the pairs {p, q} with q > p are consecutive nodes, so one ``map``
reads all their targets off row t(p) of the image-node matrix
``node_of``, where index n stands for "undefined".  Its merge policy, and
the merge rounds of ``rank.min_rank_word_sc``, read many entries at once by
``gather``, one C-level ``itemgetter`` call per list of indices.  The merge
policy also returns the merging pairs in the order its search found them,
level by level and sorted within each level, which is (distance, p, q)
order; each merge round takes its pair from that order.  The columns are
also the only image the pair automaton offers: a set of states moves as
its singleton nodes, which drop into the dead node where a transition is
undefined.

Every backward walk reads the predecessor table of ``predecessor_links``:
coreachability (so strong connectivity and the useful states of
``birecurrent.minimize``), the direct birecurrence test on the reversal,
and the merge policy of the pair automaton (one table per letter column)
once it stops pulling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter, not_
from typing import Iterable, Optional, Sequence, TypeVar

from .core import PartialDfa

T = TypeVar("T")

# The merge policy pulls until the unassigned pairs, summed over its pull
# levels, would pass PULL_LIMIT node counts, and then pushes for good: a
# ski-rental rule, which pays for the predecessor links only once the pulls
# have cost a few times as much.  Random questions finish after pulling about
# 2.3 node counts, in 0.55-0.75 of the time that pushing takes; C_n, with its
# thousands of one-node levels, switches after four levels and takes 1.25-1.7
# times as long as pushing throughout (CPython 3.11: n = 200 and 800, C_64
# and C_128).
PULL_LIMIT = 4


def gather(seq: Sequence[T], indices: Sequence[int]) -> tuple[T, ...]:
    """``tuple(seq[i] for i in indices)`` in one C-level call.

    ``itemgetter`` returns a bare item for one index and cannot be built
    for none, so those two cases take the generator.
    """
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return tuple(seq[i] for i in indices)


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


@dataclass(frozen=True)
class PairAutomaton:
    """Power automaton restricted to subsets of size at most two.

    Node 0 is the absorbing dead node, node ``1 + s`` is the singleton
    {s}, and the remaining nodes are the unordered pairs, ordered by (p, q):
    {p, q} is node ``node_of[p][q]``.  The endpoint lists map back:
    ``first[node]`` and ``second[node]`` are the smaller and the larger
    state of a pair node, and both are s for the singleton {s}.
    The table is one column per letter: ``columns[letter][node]`` is total,
    a pair moving to the (pair or singleton) image of its two states, to
    the singleton of the surviving state when exactly one image is defined,
    and to dead when neither is.  ``step[node][letter]`` reads the same
    entry row-wise.  A singleton column entry is the image of one state, so
    the columns also carry the image of any state set: gather its singleton
    nodes and drop the dead node.

    State index n stands for "undefined".
    ``node_of`` is the (n+1) x (n+1) matrix of image nodes, so
    ``node_of[x][y]`` is the node of the set {x, y} with n dropped:
    ``node_of[x][n]`` is the singleton x and ``node_of[n][n]`` is dead.

    ``merge_policy`` is a breadth-first search from the singletons that
    pulls while its levels are few and large and pushes once they are not
    (Beamer, Asanović and Patterson, "Direction-optimizing breadth-first
    search", SC 2012), switching one way only, after ``PULL_LIMIT`` node
    counts of pulls.
    """

    state_count: int
    columns: tuple[list[int], ...]
    node_of: list[list[int]]
    first: list[int]
    second: list[int]

    DEAD = 0

    @property
    def node_count(self) -> int:
        return len(self.first)

    @cached_property
    def step(self) -> list[tuple[int, ...]]:
        """The rows of the table, built on first read: ``step[node][letter]``
        is ``columns[letter][node]``, and a node's row is empty over an
        empty alphabet.  No search reads the rows; the benchmark's trace
        counts them."""
        if not self.columns:
            return [()] * self.node_count
        return list(zip(*self.columns))

    def merge_policy(
        self,
    ) -> tuple[list[Optional[int]], list[Optional[int]], list[int]]:
        """Shortest word length from each node to any singleton (None if
        none), per node the smallest letter moving one step closer, and the
        order: every node at a positive distance, sorted by (distance,
        node).  As the pairs are numbered in (p, q) order, the order lists
        the merging pairs {p, q} in (distance, p, q) order.

        Breadth-first search from the singletons, which are at distance 0,
        one level at a time; the dead node is never reached.  It starts by
        pulling: at level d, letter by letter, it gathers the targets of the
        still-unassigned pairs in the letter's column and then gathers the
        marks of level d - 1 at those targets, so the first letter to hit a
        node is its smallest letter into the level below.  A pull level
        reads every unassigned pair, which pays on a few large levels but
        not on many small ones (C_n has thousands of one-node levels).  So
        once the unassigned pairs summed over the pulled levels would pass
        ``PULL_LIMIT`` node counts, it builds one ``predecessor_links`` table
        per letter and pushes from that level on, letter by letter, walking
        the predecessors of each node of the level.  Each level is
        sorted before it joins the order; a pull level is one ascending run
        per letter, so the sort only merges runs.  ``unassigned`` is sliced
        from the rows of ``node_of``, so the pulled levels and the order
        hold its int objects rather than one new int per pair.
        """
        node_count = self.node_count
        n = self.state_count
        dist: list[Optional[int]] = [None] * node_count
        policy: list[Optional[int]] = [None] * node_count
        order: list[int] = []
        level = list(range(1, n + 1))
        dist[1 : n + 1] = [0] * n
        marks = bytearray(node_count)
        marks[1 : n + 1] = b"\x01" * n
        unassigned = []
        for p, row in enumerate(self.node_of[:n]):
            unassigned += row[p + 1 : n]
        pulls = PULL_LIMIT * node_count
        links = None
        distance = 0
        while level:
            distance += 1
            farther = []
            if links is None and pulls >= len(unassigned):
                pulls -= len(unassigned)
                reached = bytearray(node_count)
                for letter, column in enumerate(self.columns):
                    hits = gather(marks, gather(column, unassigned))
                    found = list(compress(unassigned, hits))
                    if found:
                        unassigned = list(compress(unassigned, map(not_, hits)))
                        for node in found:
                            dist[node] = distance
                            policy[node] = letter
                            reached[node] = 1
                        farther += found
                    # Free the hits before the next letter gathers its own:
                    # both alive would set the search's memory peak.
                    del hits
                marks = reached
            else:
                # The first push level builds the predecessor tables.
                links = links or [predecessor_links(c, node_count, 1) for c in self.columns]
                for letter, (head, link) in enumerate(links):
                    for node in level:
                        pred = head[node]
                        while pred >= 0:
                            if dist[pred] is None:
                                dist[pred] = distance
                                policy[pred] = letter
                                farther.append(pred)
                            pred = link[pred]
            farther.sort()
            order += farther
            level = farther
        return dist, policy, order


def pair_automaton(dfa: PartialDfa) -> PairAutomaton:
    """Build the size-at-most-two power automaton of ``dfa``."""
    n = dfa.state_count
    dead = PairAutomaton.DEAD
    # Row p holds the pairs {q, p} (q < p) of the rows above, {p}, the
    # pairs {p, q} (q > p), which are numbered consecutively from the
    # number of nodes so far, and at index n the set {p, undefined} = {p}.
    # The endpoint lists grow with the numbering and share the ints of
    # ``states``; the dead node's entries are placeholders.
    states = list(range(n))
    first = [0, *states]
    second = [0, *states]
    node_of: list[list[int]] = []
    for p in states:
        row = list(map(itemgetter(p), node_of))
        row.append(1 + p)
        row += range(len(first), len(first) + n - 1 - p)
        row.append(1 + p)
        node_of.append(row)
        first += [p] * (n - 1 - p)
        second += states[p + 1 :]
    node_of.append([*range(1, n + 1), dead])
    columns = []
    for letter in range(dfa.letter_count):
        # successors[s] is the successor of state s, or n where undefined.
        successors = [
            n if row[letter] is None else row[letter] for row in dfa.transitions
        ]
        column = [dead]
        # The singleton {s} moves to {t(s)}, which row n holds.
        column += map(node_of[n].__getitem__, successors)
        for p in range(n):
            column += map(node_of[successors[p]].__getitem__, successors[p + 1 :])
        columns.append(column)
    return PairAutomaton(n, tuple(columns), node_of, first, second)
