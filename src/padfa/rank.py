"""Rank computation for partial DFAs.

Two routes are provided.  ``exact_rank`` runs a breadth-first search over
the reachable nonempty subsets of the power automaton, so it is exact for
any partial DFA but exponential in the worst case; it is intended for small
state counts (roughly n <= 16) and fails loudly via the search budget
instead of hanging.  ``min_rank_word_sc`` is the polynomial algorithm for
strongly connected automata: it repeatedly merges a pair of surviving
states by solving reachability in the pair automaton.

Both produce deterministic witnesses: results do not depend on execution
order or hash seeds, only on the automaton and the declared letter order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_
from typing import Sequence

from .core import (
    DEFAULT_BUDGET,
    PartialDfa,
    SearchBudget,
    Word,
    breadth_first,
    byte_image,
    byte_tables,
)
from .graphs import gather, is_strongly_connected, pair_automaton


@dataclass(frozen=True)
class RankResult:
    """Minimum nonzero image size together with a word achieving it."""

    rank: int
    witness: Word

    @property
    def word_length(self) -> int:
        return len(self.witness)


def exact_rank(dfa: PartialDfa, budget: int | SearchBudget = DEFAULT_BUDGET) -> RankResult:
    """Exact rank of the automaton and a shortest word attaining it.

    Breadth-first over reachable subsets, expanding letters in declaration
    order, so the witness is the length-then-lexicographically first word
    reaching a minimum-size image.  The empty word already attains rank n.
    """
    tables = [byte_tables(images) for images in dfa.letter_images]
    return exact_rank_on_tables(tables, dfa.state_count, budget)


def exact_rank_on_tables(
    tables: Sequence[Sequence[Sequence[int]]],
    state_count: int,
    budget: int | SearchBudget,
) -> RankResult:
    """:func:`exact_rank` of an automaton with ``state_count`` states whose
    ``letter_images`` the caller has already compiled into ``tables`` (one
    ``byte_tables`` result per letter), so a search that needs the same
    tables compiles them once."""
    if state_count == 0:
        raise ValueError("rank is undefined for the empty automaton")

    def step(mask: int, letter: int) -> int | None:
        # Rank counts nonzero image sizes only; the empty set is also
        # absorbing, so there is nothing to explore beyond it.
        return byte_image(tables[letter], mask) or None

    best, witness = breadth_first(
        (1 << state_count) - 1, len(tables), step, 1, SearchBudget.ensure(budget)
    )
    return RankResult(best.bit_count(), witness)


def is_synchronizing(
    dfa: PartialDfa, budget: int | SearchBudget = DEFAULT_BUDGET
) -> tuple[bool, Word | None]:
    """Whether some word has rank 1; returns the witness when one exists."""
    result = exact_rank(dfa, budget)
    if result.rank == 1:
        return True, result.witness
    return False, None


def min_rank_word_sc(dfa: PartialDfa) -> RankResult:
    """Minimum-rank word for a strongly connected partial DFA in polynomial time.

    Keeps a surviving set S (initially all states) and a word w (initially
    empty).  While some pair of S can reach a singleton in the pair
    automaton, append a shortest such merging word (choosing the pair with
    the shortest word, ties broken by smallest state indices, and at each
    step the smallest letter moving closer) and replace S by its image.
    Each round strictly shrinks S, and when no pair of S merges, |S| is the
    rank of the automaton.

    S is a sorted list of states.  The merge policy's order lists the
    merging pair nodes in (d, p, q) order, so a round's pair is the first
    entry whose two states both survive.  A round scans the order for it in
    chunks that double from |S| entries; a chunk gathers the first and the
    second states of its pairs from the pair automaton's endpoint lists and
    then their survivor marks.  The scan
    stops after |S|(|S| - 1)/2 entries, the number of pairs of S.  If that
    covered the whole order, no pair of S merges; otherwise the round falls
    back to listing: it lists the pair nodes {p, q} of survivors p < q
    in (p, q) order, one ``gather`` from row p of the pair automaton's
    ``node_of`` matrix per p, gathers their distances in one call and takes
    the first smallest.  The chosen pair then leads one walk list and the
    survivors follow as their singleton nodes, so one ``gather`` per letter
    of the segment advances them all through the letter's column; the
    survivors that reach the dead node drop out, and the endpoint list maps
    the others back to their states.
    """
    if dfa.state_count == 0:
        raise ValueError("rank is undefined for the empty automaton")
    if not is_strongly_connected(dfa):
        raise ValueError("min_rank_word_sc requires a strongly connected automaton")

    pairs = pair_automaton(dfa)
    dist, policy, order = pairs.merge_policy()
    node_of, columns, first, second = pairs.node_of, pairs.columns, pairs.first, pairs.second
    n = dfa.state_count
    survivors = list(range(n))
    witness: list[int] = []
    while len(survivors) > 1:
        alive = bytearray(n)
        for s in survivors:
            alive[s] = 1
        # Scan the order for the first pair of survivors, reading no more
        # entries than listing their pairs would.
        listing = len(survivors) * (len(survivors) - 1) // 2
        node = None
        start, size = 0, len(survivors)
        while node is None and start < min(listing, len(order)):
            chunk = order[start : min(start + size, listing)]
            firsts = gather(alive, gather(first, chunk))
            seconds = gather(alive, gather(second, chunk))
            node = next(compress(chunk, map(and_, firsts, seconds)), None)
            start, size = start + len(chunk), 2 * size
        if node is None:
            if start == len(order):
                break
            # The pair nodes of the survivors in (p, q) order, so the first
            # smallest distance belongs to the (d, p, q)-smallest pair.
            nodes: list[int] = []
            for i, p in enumerate(survivors[:-1]):
                nodes += gather(node_of[p], survivors[i + 1 :])
            distances = gather(dist, nodes)
            # A pair is never at distance 0, so this drops the unmerged ones.
            distance = min(filter(None, distances), default=None)
            if distance is None:
                break
            node = nodes[distances.index(distance)]
        distance = dist[node]
        walk = [node, *gather(node_of[n], survivors)]
        for _ in range(distance):
            letter = policy[walk[0]]
            if letter is None:
                raise RuntimeError(
                    f"pair node {walk[0]} is {dist[walk[0]]} letters from a "
                    "singleton but has no merging letter"
                )
            witness.append(letter)
            walk = gather(columns[letter], walk)
        # The chosen pair has merged, so at least one survivor is left and
        # at least one is gone.
        image = gather(first, sorted(set(walk[1:]) - {pairs.DEAD}))
        if not 0 < len(image) < len(survivors):
            raise RuntimeError(
                f"a round of {distance} letters took {len(survivors)} survivors "
                f"to {len(image)}"
            )
        survivors = image
    return RankResult(len(survivors), tuple(witness))


def rank_word_length_bound(n: int, r: int) -> int:
    """Length bound (n-1)((n-r)(n+2)-2)/2 for a shortest minimum-rank word
    in an n-state strongly connected partial DFA of rank r.

    For r = n the formula is negative (-(n-1)); the empty word already has
    rank n, so the value is clamped to 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= r <= n:
        raise ValueError("r must satisfy 1 <= r <= n")
    value = (n - 1) * ((n - r) * (n + 2) - 2)
    # The product is always even: n odd makes n-1 even, n even makes n+2 even.
    return max(0, value // 2)
