"""Saturation checks and search.

A set S is saturated by a word w when every state of S has a defined image
under w and no state outside S is mapped into the image of S.  The searched
question is whether S is saturated by some word whose rank equals the rank
of the automaton; the search node is just the pair of images
(inside, outside), packed into one int as ``inside | outside << n``, since
saturation and the rank of a word depend on nothing else.  A node whose
inside image lost a member is dead and never expanded: no extension of its
word can saturate S.

A node whose two images meet is dropped too.  A node is expanded under a
letter only if every state of its inside image has that letter, so a state
in both images keeps a defined image, and that image lies in both new
images: an overlap never goes away, and no saturating word passes through
one.  Overlapping nodes lead only to overlapping nodes, so the kept nodes
keep their discovery order and their parents, and every word and every
"none" is the one the unpruned search would give, for no more budget.

The search reads a node's inside and outside images under all letters
from the rank search's packed table (``rank.packed_images``) in one walk
over the chunks, then cuts out each live letter's two images, and its
word comes from ``core.witness_word`` with a step that repeats the alive
test on the automaton's own images.

The config search is skipped when the rank search's witness already
saturates S.  That witness is the length-then-lexicographically first word
of minimum rank, and every word the config search accepts has minimum rank
(its two disjoint images make up the image of Q), so a witness that
saturates S is the first saturating word of minimum rank: the config
search's own answer.  A miss costs one ``is_saturated_by`` call.
"""

from __future__ import annotations

from .core import (
    DEFAULT_BUDGET,
    PartialDfa,
    SearchBudget,
    StateSet,
    Word,
    byte_tables,
    union_image,
    witness_word,
)
from .rank import exact_rank_on_tables, packed_images


def _check_states(dfa: PartialDfa, states: StateSet) -> None:
    if not isinstance(states, StateSet):
        raise ValueError(f"states must be a StateSet, not {states!r}")
    if states.universe != dfa.state_count:
        raise ValueError("state set universe does not match automaton")


def is_saturated_by(dfa: PartialDfa, states: StateSet, word: Word) -> bool:
    """True iff every state of ``states`` survives ``word`` and the images of
    ``states`` and of its complement are disjoint."""
    _check_states(dfa, states)
    for state in states:
        if dfa.run(state, word) is None:
            return False
    outside = ((1 << dfa.state_count) - 1) & ~states.mask
    return dfa.image_mask(states.mask, word) & dfa.image_mask(outside, word) == 0


def find_saturating_min_rank_word(
    dfa: PartialDfa,
    states: StateSet,
    budget: int | SearchBudget = DEFAULT_BUDGET,
) -> Word | None:
    """Shortest word of minimum rank saturating ``states``, or ``None``.

    Computes the automaton rank r first, then breadth-first searches config
    space from (S, Q \\ S): a config accepts when it is alive, its two
    images are disjoint, and their union has exactly r states.  Configs
    whose inside image lost a member are dead and pruned, and so are
    configs whose two images meet, since an overlap never goes away; every
    kept config is therefore disjoint, and it accepts when it holds r
    states.  The rank computation and the config search draw on one shared
    budget and read one compiled packed table of every letter's images.

    When the rank witness saturates ``states`` it is returned without the
    config search.  It is the length-then-lexicographically first word of
    minimum rank, and every word the config search accepts has minimum
    rank, so it is also the first one that search would accept.

    The config search walks a plain list queue while it grows and reads
    both images under all letters from the chunks in one inline walk per
    config.  It spends the shared budget as the rank search does: one unit
    per newly seen config, the start included, counted in a local that is
    written back on every exit, and an exhausted search raises at the
    first config past the budget with ``budget.remaining == -1``.
    """
    _check_states(dfa, states)
    if dfa.state_count == 0:
        raise ValueError("saturation search is undefined for the empty automaton")
    shared = SearchBudget.ensure(budget)
    n = dfa.state_count
    tables = byte_tables(packed_images(dfa))
    ranked = exact_rank_on_tables(dfa, tables, shared)
    if is_saturated_by(dfa, states, ranked.witness):
        return ranked.witness
    target_rank = ranked.rank

    full = (1 << n) - 1
    # A letter expands a config only if every state of the inside image has
    # it, that is, if the inside image misses the letter's blocked states.
    blocked = [full & ~domain for domain in dfa.letter_domains]
    letters = tuple(zip(range(0, dfa.letter_count * n, n), blocked))
    start = states.mask | (full & ~states.mask) << n
    shared.spend()
    parents: dict[int, int | None] = {start: None}
    found = start if start.bit_count() == target_rank else None
    queue = [start]
    append = queue.append
    remaining = shared.remaining
    try:
        for config in queue:  # the queue only grows at the end
            if found is not None:
                break
            inside = config & full
            images = others = 0
            rest, more = inside, config >> n
            for chunk in tables:
                images |= chunk[rest & 255]
                others |= chunk[more & 255]
                rest >>= 8
                more >>= 8
                if not rest | more:
                    break
            for shift, block in letters:
                if inside & block:
                    continue
                image = images >> shift & full
                other = others >> shift & full
                if image & other:
                    continue
                new = image | other << n
                if new in parents:
                    continue
                remaining -= 1
                if remaining < 0:
                    raise shared.exhausted()
                parents[new] = config
                if new.bit_count() == target_rank:
                    found = new
                    break
                append(new)
    finally:
        shared.remaining = remaining
    if found is None:
        return None

    def step(config: int, letter: int) -> int | None:
        inside = config & full
        if inside & blocked[letter]:
            return None
        table = dfa.letter_images[letter]
        return union_image(table, inside) | union_image(table, config >> n) << n

    word = witness_word(parents, found, step, dfa.letter_count)
    if not is_saturated_by(dfa, states, word):
        raise RuntimeError(f"search returned {word}, which does not saturate the set")
    if dfa.image_mask(full, word).bit_count() != target_rank:
        raise RuntimeError(f"search returned {word}, which is not of rank {target_rank}")
    return word
