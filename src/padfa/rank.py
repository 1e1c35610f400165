"""Rank computation for partial DFAs.

Two routes are provided.  ``exact_rank`` runs a breadth-first search over
the reachable nonempty subsets of the power automaton, so it is exact for
any partial DFA but exponential in the worst case; it is intended for small
state counts (roughly n <= 16) and fails loudly via the search budget
instead of hanging.  It compiles one packed table of every letter's
images (``packed_images``), and its loop reads a subset's images under all
letters from it in one inline walk, then cuts out each letter's image.
Its word comes from ``core.witness_word``, which steps by ``union_image``
over the automaton's own images.
``min_rank_word_sc`` is the polynomial algorithm for strongly connected
automata: it repeatedly merges a pair of surviving states by solving
reachability in the pair automaton.

The pair automaton is the restriction of the power automaton to subsets of
size at most two.  It is stored as one column per letter, filled a state at
a time: the pairs {p, q} with q > p are consecutive nodes, so one ``map``
reads all their targets off row t(p) of the image-node matrix
``node_of``, where index n stands for "undefined".  Its merge policy, and
the merge rounds of ``min_rank_word_sc``, read many entries at once by
``gather``, one C-level ``itemgetter`` call per list of indices.  The merge
policy also returns the merging pairs in the order its search found them,
level by level and sorted within each level, which is (distance, p, q)
order; each merge round takes its pair from that order, whose endpoints
are gathered once per answer.  The columns move only the chosen pair: the
survivors of a round move as states, through one successor table per
letter in which index n again stands for "undefined" and maps to itself.
While n <= 255 the tables are bytes and one ``bytes.translate`` per letter
moves all the survivors; past that they are lists, read by ``gather``.

Both produce deterministic witnesses: results do not depend on execution
order or hash seeds, only on the automaton and the declared letter order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import and_, itemgetter, not_
from typing import Optional, Sequence, TypeVar

from .core import (
    DEFAULT_BUDGET,
    PartialDfa,
    SearchBudget,
    Word,
    byte_tables,
    record,
    union_image,
    witness_word,
)
from .graphs import is_strongly_connected, predecessor_links

T = TypeVar("T")

# The merge policy's direction switch, the β of Beamer, Asanović and
# Patterson.  It pulls at distance 1 and whenever the level just found holds
# at least 1/SWITCH_RATIO of the pairs still unassigned, and it pushes every
# other level, so it can switch either way, and more than once.  A pull by
# the level rule reads at most SWITCH_RATIO times the level before it, so
# all the pulls read at most SWITCH_RATIO + 1 node counts per letter.  8 is
# the smallest power of two at which the partial random automata of the
# benchmark almost never push: 1 of 400 seeded n = 200 draws pushes, against
# 112 at 4, where the n = 200 policy takes 1.4 times as long.  At 16 and 32,
# complete random automata (n = 200 and 400, k = 2 and 3) give back part of
# the gain: their policy takes 0.60-0.74 and 0.59-0.83 of the time of the
# former one-way switch, against 0.52-0.65 at 8.  At every ratio tried, C_n
# pushes from distance 2 until only a few of its one-pair levels are left
# (CPython 3.11).
SWITCH_RATIO = 8


@record
class RankResult:
    """Minimum nonzero image size together with a word achieving it."""

    rank: int
    witness: Word

    @property
    def word_length(self) -> int:
        return len(self.witness)


def packed_images(dfa: PartialDfa) -> list[int]:
    """Every letter's image of each state in one entry: bits ``a * n`` to
    ``a * n + n - 1`` of ``images[s]`` hold ``dfa.letter_images[a][s]``, so
    one image of a subset under this table holds its image under every
    letter, each cut out by a shift and a mask."""
    n = dfa.state_count
    shifts = range(0, dfa.letter_count * n, n)
    images = [0] * n
    for source, row in enumerate(dfa.transitions):
        for shift, target in zip(shifts, row):
            if target is not None:
                images[source] |= 1 << target + shift
    return images


def exact_rank(dfa: PartialDfa, budget: int | SearchBudget = DEFAULT_BUDGET) -> RankResult:
    """Exact rank of the automaton and a shortest word attaining it.

    Breadth-first over reachable subsets, expanding letters in declaration
    order, so the witness is the length-then-lexicographically first word
    reaching a minimum-size image.  The empty word already attains rank n.
    """
    return exact_rank_on_tables(dfa, byte_tables(packed_images(dfa)), budget)


def exact_rank_on_tables(
    dfa: PartialDfa,
    tables: Sequence[Sequence[int]],
    budget: int | SearchBudget,
) -> RankResult:
    """:func:`exact_rank` of ``dfa``, whose ``packed_images`` the caller has
    already compiled into ``tables`` (one ``byte_tables`` result), so a
    search that needs the same tables compiles them once.

    The search walks a plain list queue while it grows.  It reads each
    subset's images under all letters from the chunks in one inline walk,
    then cuts out each letter's image in declaration order.  Every newly
    seen subset, the full set included, spends one unit of ``budget``; the
    empty set is never a node, since rank counts nonzero image sizes only
    and nothing lies beyond it.  The first singleton found is the answer,
    or else the first subset with the fewest states.  The budget is counted
    in a local and written back on every exit, also when a lookup raises;
    an exhausted search raises ``budget.exhausted()`` at the first subset
    past the budget and leaves ``budget.remaining == -1``, as a spend per
    subset would.  The witness walk steps by ``dfa.letter_images``, not by
    ``tables``, so a subset that its parent does not reach makes it raise
    ``RuntimeError``.
    """
    if dfa.state_count == 0:
        raise ValueError("rank is undefined for the empty automaton")
    budget = SearchBudget.ensure(budget)
    n = dfa.state_count
    full = (1 << n) - 1
    shifts = range(0, dfa.letter_count * n, n)
    budget.spend()
    parents: dict[int, Optional[int]] = {full: None}
    found = full if n == 1 else None
    queue = [full]
    append = queue.append
    remaining = budget.remaining
    try:
        for mask in queue:  # the queue only grows at the end
            if found is not None:
                break
            images = 0
            rest = mask
            for chunk in tables:
                images |= chunk[rest & 255]
                rest >>= 8
                if not rest:
                    break
            for shift in shifts:
                image = images >> shift & full
                if not image or image in parents:
                    continue
                remaining -= 1
                if remaining < 0:
                    raise budget.exhausted()
                parents[image] = mask
                if image.bit_count() == 1:
                    found = image
                    break
                append(image)
    finally:
        budget.remaining = remaining
    if found is None:
        found = min(parents, key=int.bit_count)
    letter_images = dfa.letter_images
    word = witness_word(
        parents, found, lambda mask, a: union_image(letter_images[a], mask), len(letter_images)
    )
    return RankResult(found.bit_count(), word)


def is_synchronizing(
    dfa: PartialDfa, budget: int | SearchBudget = DEFAULT_BUDGET
) -> tuple[bool, Word | None]:
    """Whether some word has rank 1; returns the witness when one exists."""
    result = exact_rank(dfa, budget)
    if result.rank == 1:
        return True, result.witness
    return False, None


def gather(seq: Sequence[T], indices: Sequence[int]) -> tuple[T, ...]:
    """``tuple(seq[i] for i in indices)`` in one C-level call.

    ``itemgetter`` returns a bare item for one index and cannot be built
    for none, so those two cases take the generator.
    """
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return tuple(seq[i] for i in indices)


@record
class PairAutomaton:
    """Power automaton restricted to subsets of size at most two.

    Node 0 is the absorbing dead node, node ``1 + s`` is the singleton
    {s}, and the remaining nodes are the unordered pairs, ordered by (p, q):
    {p, q} is node ``node_of[p][q]``.  ``endpoints`` maps back.
    The table is one column per letter: ``columns[letter][node]`` is total,
    a pair moving to the (pair or singleton) image of its two states, to
    the singleton of the surviving state when exactly one image is defined,
    and to dead when neither is.  ``step[node][letter]`` reads the same
    entry row-wise.

    State index n stands for "undefined".
    ``node_of`` is the (n+1) x (n+1) matrix of image nodes, so
    ``node_of[x][y]`` is the node of the set {x, y} with n dropped:
    ``node_of[x][n]`` is the singleton x and ``node_of[n][n]`` is dead.

    ``merge_policy`` is a breadth-first search from the singletons that
    pulls a level when it is large against the pairs left to assign and
    pushes it when it is small (Beamer, Asanović and Patterson,
    "Direction-optimizing breadth-first search", SC 2012), switching either
    way at every level by the ratio ``SWITCH_RATIO``.
    """

    state_count: int
    columns: tuple[list[int], ...]
    node_of: list[list[int]]

    DEAD = 0

    @property
    def node_count(self) -> int:
        n = self.state_count
        return 1 + n + n * (n - 1) // 2

    @cached_property
    def endpoints(self) -> tuple[list[int], list[int]]:
        """``(first, second)``, built on first read: ``first[node]`` and
        ``second[node]`` are the smaller and the larger state of a pair node,
        both s for the singleton {s}, and placeholders for the dead node.
        Both lists hold the ints of one list of the states.

        ``min_rank_word_sc`` reads them after ``merge_policy`` has freed its
        temporaries, and each list is allocated once at its full size, so it
        can take the memory of one of them: at n = 800 that takes 5.4 of
        the answer's 42.9 MB peak (tracemalloc, CPython 3.11)."""
        n = self.state_count
        states = list(range(n))
        first = [0] * self.node_count
        second = first.copy()
        first[1 : n + 1] = second[1 : n + 1] = states
        start = n + 1
        for p in states:
            end = start + n - 1 - p
            first[start:end] = [p] * (n - 1 - p)
            second[start:end] = states[p + 1 :]
            start = end
        return first, second

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
        past distance 1 a level is pulled when level d - 1 holds at least
        1/``SWITCH_RATIO`` of the unassigned pairs and pushed otherwise;
        each such pull reads at most ``SWITCH_RATIO`` times the level before
        it, so all the pulls read at most ``SWITCH_RATIO`` + 1 node counts
        per letter.  A push walks, letter by letter, the predecessors of
        each node of level d - 1 in one ``predecessor_links`` table per
        letter, built by the first push and kept.  A pull after a push first
        marks level d - 1 and drops the pairs the pushes assigned from
        ``unassigned``; the counts that decide need neither.  Each level is
        sorted before it joins the order; a pull level is one ascending run
        per letter, so the sort only merges runs.  ``unassigned`` is sliced
        from the rows of ``node_of``, so the pulled levels and the order hold
        its int objects rather than one new int per pair.
        """
        node_count = self.node_count
        n = self.state_count
        dist: list[Optional[int]] = [None] * node_count
        policy: list[Optional[int]] = [None] * node_count
        order: list[int] = []
        level = list(range(1, n + 1))
        dist[1 : n + 1] = [0] * n
        marks: Optional[bytearray] = bytearray(node_count)
        marks[1 : n + 1] = b"\x01" * n
        unassigned = []
        for p, row in enumerate(self.node_of[:n]):
            unassigned += row[p + 1 : n]
        left = len(unassigned)
        links = None
        distance = 0
        while level:
            distance += 1
            farther = []
            if distance == 1 or SWITCH_RATIO * len(level) >= left:
                if marks is None:
                    # Back from pushing: mark the level and drop the pairs
                    # the pushes assigned.
                    marks = bytearray(node_count)
                    for node in level:
                        marks[node] = 1
                    unassigned = [node for node in unassigned if dist[node] is None]
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
                # The first push level builds the predecessor tables, and
                # every later one reuses them.
                links = links or [predecessor_links(c, node_count, 1) for c in self.columns]
                marks = None
                for letter, (head, link) in enumerate(links):
                    for node in level:
                        pred = head[node]
                        while pred >= 0:
                            if dist[pred] is None:
                                dist[pred] = distance
                                policy[pred] = letter
                                farther.append(pred)
                            pred = link[pred]
            left -= len(farther)
            farther.sort()
            order += farther
            level = farther
        return dist, policy, order


def _successors(dfa: PartialDfa) -> list[list[int]]:
    """One list per letter: the successor of each state, or the state count
    n where the transition is undefined."""
    n = dfa.state_count
    return [
        [n if row[letter] is None else row[letter] for row in dfa.transitions]
        for letter in range(dfa.letter_count)
    ]


def pair_automaton(dfa: PartialDfa) -> PairAutomaton:
    """Build the size-at-most-two power automaton of ``dfa``."""
    n = dfa.state_count
    dead = PairAutomaton.DEAD
    # Row p holds the pairs {q, p} (q < p) of the rows above, {p}, the
    # pairs {p, q} (q > p), which are numbered consecutively from the
    # number of nodes so far, and at index n the set {p, undefined} = {p}.
    node_of: list[list[int]] = []
    count = 1 + n
    for p in range(n):
        row = list(map(itemgetter(p), node_of))
        row.append(1 + p)
        row += range(count, count + n - 1 - p)
        row.append(1 + p)
        node_of.append(row)
        count += n - 1 - p
    node_of.append([*range(1, n + 1), dead])
    columns = []
    for successors in _successors(dfa):
        column = [dead]
        # The singleton {s} moves to {t(s)}, which row n holds.
        column += map(node_of[n].__getitem__, successors)
        for p in range(n):
            column += map(node_of[successors[p]].__getitem__, successors[p + 1 :])
        columns.append(column)
    return PairAutomaton(n, tuple(columns), node_of)


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
    chunks that double from |S| entries, reading the survivor marks of the
    first and the second states of each chunk's pairs.  Those states are
    gathered from the pair automaton's endpoint lists once per answer, up to
    the furthest entry any round has scanned, and a chunk's marks are one
    ``gather`` for each side.  The scan stops after |S|(|S| - 1)/2 entries,
    the number of pairs of S.  If that covered the whole order, no pair of
    S merges; otherwise the round falls back to listing: it lists the pair
    nodes {p, q} of survivors p < q in (p, q) order, one ``gather`` from
    row p of the pair automaton's ``node_of`` matrix per p, gathers their
    distances in one call and takes the first smallest.  The chosen pair
    then walks as one node through the letter columns, and the survivors
    follow as states through one successor table per letter, where an
    undefined transition goes to the sentinel n and n stays at n.  With
    n <= 255 every state and the sentinel fit in a byte, so a table is 256
    bytes and one ``bytes.translate`` per letter advances all the
    survivors; otherwise a table is a list and one ``gather`` per letter
    does.  The round's image is the set of the moved
    survivors without the sentinel.
    """
    if dfa.state_count == 0:
        raise ValueError("rank is undefined for the empty automaton")
    if not is_strongly_connected(dfa):
        raise ValueError("min_rank_word_sc requires a strongly connected automaton")

    pairs = pair_automaton(dfa)
    dist, policy, order = pairs.merge_policy()
    node_of, columns = pairs.node_of, pairs.columns
    first, second = pairs.endpoints
    n = dfa.state_count
    # steps[letter][s] is the successor of state s, or the sentinel n where
    # it is undefined, and n maps to itself.  While every state and the
    # sentinel fit in a byte, a table is the 256 bytes of ``bytes.translate``.
    if n < 256:
        pack, move = bytes, bytes.translate
        steps = [bytes(step + [n] * (256 - n)) for step in _successors(dfa)]
    else:
        pack, move = tuple, lambda moved, step: gather(step, moved)
        steps = [step + [n] for step in _successors(dfa)]
    # firsts[i] and seconds[i] are the states of the pair order[i], gathered
    # up to the furthest entry a scan has read.
    firsts: list[int] = []
    seconds: list[int] = []
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
            end = min(start + size, listing, len(order))
            if end > len(firsts):
                chunk = order[len(firsts) : end]
                firsts.extend(gather(first, chunk))
                seconds.extend(gather(second, chunk))
            both = map(
                and_, gather(alive, firsts[start:end]), gather(alive, seconds[start:end])
            )
            node = next(compress(order[start:end], both), None)
            start, size = end, 2 * size
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
        moved = pack(survivors)
        for _ in range(distance):
            letter = policy[node]
            if letter is None:
                raise RuntimeError(
                    f"pair node {node} is {dist[node]} letters from a "
                    "singleton but has no merging letter"
                )
            witness.append(letter)
            node = columns[letter][node]
            moved = move(moved, steps[letter])
        # The chosen pair has merged, so at least one survivor is left and
        # at least one is gone.
        image = sorted(set(moved) - {n})
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
    if type(n) is not int or type(r) is not int:
        raise ValueError(f"n and r must be ints, not {n!r} and {r!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= r <= n:
        raise ValueError("r must satisfy 1 <= r <= n")
    value = (n - 1) * ((n - r) * (n + 2) - 2)
    # The product is always even: n odd makes n-1 even, n even makes n+2 even.
    return max(0, value // 2)
