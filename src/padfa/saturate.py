"""Saturation checks and search.

A set S is saturated by a word w when every state of S has a defined image
under w and no state outside S is mapped into the image of S.  The searched
question is whether S is saturated by some word whose rank equals the rank
of the automaton; the search node is just the pair of images
(inside, outside), packed into one int as ``inside | outside << n``, since
saturation and the rank of a word depend on nothing else.  A node whose
inside image lost a member is dead and never expanded: no extension of its
word can saturate S.
"""

from __future__ import annotations

from .core import (
    DEFAULT_BUDGET,
    PartialDfa,
    SearchBudget,
    StateSet,
    Word,
    breadth_first,
    byte_image,
    byte_tables,
    word_to,
)
from .rank import exact_rank_on_tables


def is_saturated_by(dfa: PartialDfa, states: StateSet, word: Word) -> bool:
    """True iff every state of ``states`` survives ``word`` and the images of
    ``states`` and of its complement are disjoint."""
    if states.universe != dfa.state_count:
        raise ValueError("state set universe does not match automaton")
    for state in states:
        if dfa.run(state, word) is None:
            return False
    inside = dfa.image(states, word)
    outside = dfa.image(states.complement(), word)
    return not inside.intersection(outside)


def find_saturating_min_rank_word(
    dfa: PartialDfa,
    states: StateSet,
    budget: int | SearchBudget = DEFAULT_BUDGET,
) -> Word | None:
    """Shortest word of minimum rank saturating ``states``, or ``None``.

    Computes the automaton rank r first, then breadth-first searches config
    space from (S, Q \\ S): a config accepts when it is alive, its two
    images are disjoint, and their union has exactly r states.  Configs
    whose inside image lost a member are dead and pruned.  The rank
    computation and the config search draw on one shared budget and read
    one compiled copy of the letter tables.
    """
    if states.universe != dfa.state_count:
        raise ValueError("state set universe does not match automaton")
    if dfa.state_count == 0:
        raise ValueError("saturation search is undefined for the empty automaton")
    shared = SearchBudget.ensure(budget)
    n = dfa.state_count
    tables = [byte_tables(images) for images in dfa.letter_images]
    target_rank = exact_rank_on_tables(tables, n, shared).rank

    full = (1 << n) - 1
    domains = dfa.letter_domains

    def step(config: int, letter: int) -> int | None:
        inside = config & full
        if inside & ~domains[letter]:
            return None
        chunks = tables[letter]
        return byte_image(chunks, inside) | byte_image(chunks, config >> n) << n

    def accepts(config: int) -> bool:
        inside, outside = config & full, config >> n
        return inside & outside == 0 and (inside | outside).bit_count() == target_rank

    start = states.mask | (full & ~states.mask) << n
    found, parents = breadth_first(start, dfa.letter_count, step, accepts, shared)
    if found is None:
        return None
    word = word_to(parents, found)
    if not is_saturated_by(dfa, states, word):
        raise RuntimeError(f"search returned {word}, which does not saturate the set")
    if dfa.rank_of_word(StateSet.full(n), word) != target_rank:
        raise RuntimeError(f"search returned {word}, which is not of rank {target_rank}")
    return word
