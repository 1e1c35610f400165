"""Brute-force reference implementations, used by tests as oracles.

Everything here enumerates words outright and applies them by walking the
raw transition table, sharing no search machinery with the engine modules;
agreement between the two routes is what the test suite leans on.  Words
are enumerated in length-then-lexicographic order so "first found" matches
the breadth-first engines.  Not built for performance.
"""

from __future__ import annotations

from itertools import product

from padfa.core import (
    DEFAULT_BUDGET,
    Acceptor,
    BudgetExceededError,
    PartialDfa,
    StateSet,
    Word,
)


def _word_count(letter_count: int, max_len: int) -> int:
    return sum(letter_count**length for length in range(max_len + 1))


def _check_budget(letter_count: int, max_len: int, budget: int) -> None:
    if _word_count(letter_count, max_len) > budget:
        raise BudgetExceededError(
            f"enumerating words up to length {max_len} over {letter_count} "
            f"letters exceeds the budget of {budget}"
        )


def _words(letter_count: int, max_len: int):
    for length in range(max_len + 1):
        yield from product(range(letter_count), repeat=length)


def _apply(table, state: int, word: Word):
    for letter in word:
        state = table[state][letter]
        if state is None:
            return None
    return state


def brute_rank(
    dfa: PartialDfa, max_len: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, Word]:
    """Minimum nonzero image size over all words up to ``max_len``, with the
    first word attaining it."""
    if dfa.state_count == 0:
        raise ValueError("rank is undefined for the empty automaton")
    _check_budget(dfa.letter_count, max_len, budget)
    table = dfa.transitions
    best = dfa.state_count
    witness: Word = ()
    for word in _words(dfa.letter_count, max_len):
        image = {
            target
            for state in range(dfa.state_count)
            if (target := _apply(table, state, word)) is not None
        }
        if 0 < len(image) < best:
            best = len(image)
            witness = word
            if best == 1:
                break
    return best, witness


def brute_saturating_word(
    dfa: PartialDfa, states: StateSet, max_len: int, budget: int = DEFAULT_BUDGET
) -> Word | None:
    """First word up to ``max_len`` that saturates ``states`` and has minimum
    rank (minimum measured over the same word horizon)."""
    if states.universe != dfa.state_count:
        raise ValueError("state set universe does not match automaton")
    _check_budget(dfa.letter_count, max_len, budget)
    rank, _ = brute_rank(dfa, max_len, budget)
    table = dfa.transitions
    members = list(states)
    others = [s for s in range(dfa.state_count) if s not in states]
    for word in _words(dfa.letter_count, max_len):
        inside = set()
        for state in members:
            target = _apply(table, state, word)
            if target is None:
                break
            inside.add(target)
        else:
            outside = {
                target
                for state in others
                if (target := _apply(table, state, word)) is not None
            }
            if not inside & outside and len(inside | outside) == rank:
                return word
    return None


def brute_language(
    acceptor: Acceptor, max_len: int, budget: int = DEFAULT_BUDGET
) -> set[Word]:
    """All accepted words up to ``max_len``, by direct simulation."""
    if acceptor.is_empty:
        return set()
    _check_budget(acceptor.dfa.letter_count, max_len, budget)
    table = acceptor.dfa.transitions
    accepted = set()
    for word in _words(acceptor.dfa.letter_count, max_len):
        target = _apply(table, acceptor.initial, word)
        if target is not None and target in acceptor.accepting:
            accepted.add(word)
    return accepted


def brute_is_birecurrent(
    acceptor: Acceptor, max_len: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Birecurrence read off the Myhill–Nerode classes of the language L and
    of its reversal, with no automaton built: L is birecurrent when the
    nonempty residuals ``{v : uv in L}`` of each, with ``a`` moving u's
    residual to ua's, form a nonempty strongly connected graph.  A residual
    is known by its words up to ``max_len`` and reached by the words u up to
    ``max_len``.  That is exact when ``max_len`` >= 2^n - 2 for n states:
    the reversal has m <= 2^n - 1 nonempty residuals, each reached, and told
    from the others and from the empty one, by words of at most m - 1 letters.
    """
    k = acceptor.dfa.letter_count
    words = list(_words(k, max_len))
    language = brute_language(acceptor, 2 * max_len + 1, budget)
    for accepted in (language, {word[::-1] for word in language}):

        def residual(u: Word) -> frozenset[Word]:
            return frozenset(v for v in words if u + v in accepted)

        moves = {residual(u): {residual(u + (a,)) for a in range(k)} for u in words}
        moves.pop(frozenset(), None)
        nodes = moves.keys()
        reach = {r: {r} for r in nodes}
        for _ in nodes:
            reach = {r: s.union(*map(moves.get, s)) & nodes for r, s in reach.items()}
        if not nodes or any(s != nodes for s in reach.values()):
            return False
    return True
