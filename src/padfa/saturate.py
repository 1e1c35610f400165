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

The config search runs first, and the rank search only answers whether
some image is smaller than the smallest config so far.  A kept config's
two images are disjoint and make up the image of Q, so its size is the
rank of its word, and the answer is the first config whose size is the
rank.  So each time the smallest config size m falls, the search needs
to know whether the rank is below m.  A config of one state settles it;
so does an image of fewer than m states that the rank search has already
found; otherwise the rank search (``rank.smaller_subsets``) resumes where
it stopped until it finds one, and if it runs out, m is the rank.  The
rank search never runs past the point where ``rank.exact_rank`` stops, its
first singleton, and the config search stops at the first config of
minimum rank, as it did after a full rank search.  When every word
saturates the set (S empty, or S = Q on a complete automaton), the answer
is the rank search's own witness, the first word of minimum rank.
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
from .rank import exact_rank, packed_images, smaller_subsets


def _check_states(dfa: PartialDfa, states: StateSet) -> None:
    if not isinstance(states, StateSet):
        raise ValueError(f"states must be a StateSet, not {states!r}")
    if states.universe != dfa.state_count:
        raise ValueError("state set universe does not match automaton")


def is_saturated_by(dfa: PartialDfa, states: StateSet, word: Word) -> bool:
    """True iff every state of ``states`` survives ``word`` and the images of
    ``states`` and of its complement are disjoint.  ``word`` may be any
    iterable of letter indices; it is read once."""
    _check_states(dfa, states)
    word = dfa._letters(word)
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

    Breadth-first searches config space from (S, Q \\ S).  Configs whose
    inside image lost a member are dead and pruned, and so are configs
    whose two images meet, since an overlap never goes away; every kept
    config is therefore disjoint, and its size is the rank of its word.  It
    accepts the first config whose size is the rank of the automaton.

    The rank comes from the exact rank search (``rank.smaller_subsets``),
    asked only whether some image is smaller than the smallest config so
    far.  It is asked first with bound n: if it cannot beat that, the rank
    is n and the empty word is the answer, before any config is spent.
    Then it is asked at each new smallest config size m > 1 that no image
    found so far undercuts.  A config of one state, or a bound m that the
    rank search cannot beat, ends the search at that config.  The rank
    search resumes where it stopped, so it never runs past where
    ``rank.exact_rank`` stops.  When every word saturates
    ``states`` (S empty, or S = Q on a complete automaton), the answer is
    ``exact_rank``'s witness, the first word of minimum rank.  The two
    searches draw on one shared budget and read one compiled packed table
    of every letter's images.

    The config search walks a plain list queue while it grows and reads
    both images under all letters from the chunks in one inline walk per
    config.  It spends the shared budget as the rank search does: one unit
    per newly seen config, the start included, counted in a local that is
    written back around each question to the rank search and on every
    exit, and an exhausted search raises at the first config or subset
    past the budget with ``budget.remaining == -1``.  Every word returned is
    checked to saturate ``states`` and to have the rank found.
    """
    _check_states(dfa, states)
    if dfa.state_count == 0:
        raise ValueError("saturation search is undefined for the empty automaton")
    shared = SearchBudget.ensure(budget)
    n = dfa.state_count
    full = (1 << n) - 1
    if not states or states.mask == full and dfa.is_complete():
        ranked = exact_rank(dfa, shared)
        return _checked(dfa, states, ranked.witness, ranked.rank)
    tables = byte_tables(packed_images(dfa))
    ranks = smaller_subsets(dfa, tables, shared, {})
    next(ranks)

    def smaller(size: int) -> int:
        """The size of the rank search's next image of fewer than ``size``
        states, or 0 when there is none, so that ``size`` is the rank."""
        if size > 1:
            try:
                return ranks.send(size).bit_count()
            except StopIteration:
                pass
        return 0

    # The smallest image the rank search has found, 0 once the rank is known.
    low = smaller(n)
    if not low:
        # Every word has rank n, and the empty word saturates every set.
        return _checked(dfa, states, (), n)
    # A letter expands a config only if every state of the inside image has
    # it, that is, if the inside image misses the letter's blocked states.
    blocked = [full & ~domain for domain in dfa.letter_domains]
    letters = tuple(zip(range(0, dfa.letter_count * n, n), blocked))
    start = states.mask | (full & ~states.mask) << n
    shared.spend()
    parents: dict[int, int | None] = {start: None}
    found = None
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
                # A config no larger than every image found so far is a new
                # smallest config that no image undercuts.
                if new.bit_count() <= low:
                    shared.remaining = remaining
                    try:
                        low = smaller(new.bit_count())
                    finally:
                        remaining = shared.remaining
                    if not low:
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
    return _checked(dfa, states, word, found.bit_count())


def _checked(dfa: PartialDfa, states: StateSet, word: Word, rank: int) -> Word:
    """``word``, once it is checked to saturate ``states`` and to have
    ``rank``; a search that returned another word raises ``RuntimeError``."""
    if not is_saturated_by(dfa, states, word):
        raise RuntimeError(f"search returned {word}, which does not saturate the set")
    if dfa.image_mask((1 << dfa.state_count) - 1, word).bit_count() != rank:
        raise RuntimeError(f"search returned {word}, which is not of rank {rank}")
    return word
