"""Walks over the transition structure of a partial DFA and over row
tables: reachability, coreachability and strong connectivity.

Every backward walk reads the predecessor table of ``predecessor_links``:
coreachability (so strong connectivity and the useful states of
``birecurrent.minimize``), the direct birecurrence test on the reversal,
and the merge policy of ``rank.PairAutomaton`` (one table per letter
column), built on its first push level and kept for every later one.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, Optional

from .core import PartialDfa


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
