"""Seeded input families and independent answer checks for the benchmark.

Everything here is plain Python over transition tables (``rows[state][letter]``
is a target index or ``None``).  It does not import padfa, so the checks in
this module walk the tables themselves instead of trusting padfa's image
functions.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional, Sequence

Rows = tuple[tuple[Optional[int], ...], ...]


def cerny(n: int) -> Rows:
    """Černý automaton C_n: ``a`` cycles the states, ``b`` sends 0 to 1 and
    fixes the rest.  Rank 1, shortest reset word of length (n-1)^2."""
    return tuple(((s + 1) % n, 1 if s == 0 else s) for s in range(n))


def reversal_blowup(n: int) -> tuple[Rows, int, list[int]]:
    """R_n over letters (a, b, c): the language "the n-th letter is a", plus
    ``c`` from the accepting state back to 0.  States 0..n, initial 0,
    accepting {n}.  Strongly connected and birecurrent; the determinized
    reversal has exactly 2^n subsets."""
    rows: list[tuple[Optional[int], ...]] = [(i + 1, i + 1, None) for i in range(n - 1)]
    rows.append((n, None, None))
    rows.append((n, n, 0))
    return tuple(rows), 0, [n]


def random_cycle(rng: random.Random, n: int) -> list[int]:
    """Successor map of a uniformly random n-cycle."""
    order = list(range(n))
    rng.shuffle(order)
    successor = [0] * n
    for i, state in enumerate(order):
        successor[state] = order[(i + 1) % n]
    return successor


def random_sc(rng: random.Random, n: int, letters: int, density: float) -> Rows:
    """Strongly connected partial DFA: letter 0 is a random n-cycle (which
    makes every state reach every other), the other letters are random
    partial maps defined with probability ``density``.  Unlike rejection
    sampling this returns at once for any n."""
    cycle = random_cycle(rng, n)
    return tuple(
        (cycle[s],)
        + tuple(
            rng.randrange(n) if rng.random() < density else None
            for _ in range(letters - 1)
        )
        for s in range(n)
    )


def random_permutation_rows(rng: random.Random, n: int) -> Rows:
    """Two permutation letters, the first a random n-cycle (so the automaton
    is strongly connected)."""
    cycle = random_cycle(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple((cycle[s], perm[s]) for s in range(n))


def random_complete_machine(
    rng: random.Random, n: int, letters: int
) -> tuple[Rows, int, list[int]]:
    """A complete acceptor meeting the complete-gadget assumptions for itself
    and for its complement: every state reachable from the initial state,
    and every state reaching both an accepting and a rejecting state."""
    while True:
        rows = tuple(tuple(rng.randrange(n) for _ in range(letters)) for _ in range(n))
        initial = rng.randrange(n)
        accepting = [s for s in range(n) if rng.random() < 0.4]
        rejecting = [s for s in range(n) if s not in accepting]
        if (
            accepting
            and rejecting
            and len(_closure(rows, [initial])) == n
            and len(_coclosure(rows, accepting)) == n
            and len(_coclosure(rows, rejecting)) == n
        ):
            return rows, initial, accepting


def common_word_exists(machines: Sequence[tuple[Rows, int, list[int]]]) -> bool:
    """Whether some word is accepted by every complete machine: a search of
    the product automaton, independent of padfa's ``has_common_word``."""
    start = tuple(initial for _, initial, _ in machines)
    accepting = [set(acc) for _, _, acc in machines]
    seen = {start}
    queue = deque(seen)
    while queue:
        states = queue.popleft()
        if all(s in acc for s, acc in zip(states, accepting)):
            return True
        for letter in range(len(machines[0][0][0])):
            nxt = tuple(rows[s][letter] for s, (rows, _, _) in zip(states, machines))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def _closure(rows: Rows, starts: Sequence[int]) -> set[int]:
    seen = set(starts)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for target in rows[state]:
            if target is not None and target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def _coclosure(rows: Rows, targets: Sequence[int]) -> set[int]:
    preds: list[list[int]] = [[] for _ in rows]
    for state, row in enumerate(rows):
        for target in row:
            if target is not None:
                preds[target].append(state)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for source in preds[state]:
            if source not in seen:
                seen.add(source)
                queue.append(source)
    return seen


def singleton_word(
    rng: random.Random, rows: Rows, max_length: int, attempts: int
) -> Optional[tuple[tuple[int, ...], int]]:
    """A seeded random word of at most ``max_length`` letters whose image of
    the whole state set is a single state, with the mask of the states that
    survive it; ``None`` when ``attempts`` random words all fail.

    Such a word proves the automaton has rank 1, and the set of survivors is
    saturated by it, so a saturation search from that set must succeed with
    a word no longer than this one.
    """
    n = len(rows)
    letters = len(rows[0])
    for _ in range(attempts):
        word: list[int] = []
        image = set(range(n))
        while len(image) > 1 and len(word) < max_length:
            letter = rng.randrange(letters)
            word.append(letter)
            image = {rows[s][letter] for s in image} - {None}
        if len(image) == 1:
            return tuple(word), walk(rows, (1 << n) - 1, word)[1]
    return None


def walk(rows: Rows, mask: int, word: Sequence[int]) -> tuple[int, int]:
    """Image mask of ``mask`` under ``word`` and the mask of the members of
    ``mask`` that survive the whole word."""
    image = 0
    survivors = 0
    for state in range(len(rows)):
        if not mask >> state & 1:
            continue
        current: Optional[int] = state
        for letter in word:
            current = rows[current][letter]
            if current is None:
                break
        if current is not None:
            image |= 1 << current
            survivors |= 1 << state
    return image, survivors


def saturates(rows: Rows, mask: int, word: Sequence[int], rank: int) -> bool:
    """True iff every state of ``mask`` survives ``word``, the images of the
    set and of its complement are disjoint, and together have ``rank``
    states."""
    full = (1 << len(rows)) - 1
    inside, survivors = walk(rows, mask, word)
    outside, _ = walk(rows, full & ~mask, word)
    return (
        survivors == mask
        and inside & outside == 0
        and (inside | outside).bit_count() == rank
    )


def parse_rows(text: str) -> tuple[tuple[str, ...], Rows]:
    """Alphabet and transition table of an automaton file (the ``states:``,
    ``alphabet:`` and ``trans:`` lines; everything else is ignored)."""
    n = 0
    alphabet: tuple[str, ...] = ()
    trans: list[tuple[int, str, int]] = []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key == "states":
            n = int(rest)
        elif key == "alphabet":
            alphabet = tuple(rest.split())
        elif key == "trans":
            src, letter, dst = rest.split()
            trans.append((int(src), letter, int(dst)))
    index = {name: i for i, name in enumerate(alphabet)}
    table: list[list[Optional[int]]] = [[None] * len(alphabet) for _ in range(n)]
    for src, letter, dst in trans:
        table[src][index[letter]] = dst
    return alphabet, tuple(tuple(row) for row in table)
