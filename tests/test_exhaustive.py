"""Every small binary partial DFA, checked against the brute-force oracles.

There are 4,181 binary partial DFAs with at most three states, and with
initial state 0 and a nonempty accepting set they give 28,919 acceptors.
A relabelling of the states carries every answer along with it, so each
question is asked once per class of inputs that a relabelling maps onto
each other.  Rank and saturation do not read the initial state and are
asked up to any relabelling; ``minimize`` and the file round trip are asked
up to relabelling of the non-initial states.  Each test pins how many
inputs its classes stand for, so that the reduction leaves none out.

The oracles list words up to a horizon.  Each test says why its horizon is
long enough, or which comparison stays one-sided.
"""

from padfa import (
    Acceptor,
    SearchBudget,
    StateSet,
    exact_rank,
    find_saturating_min_rank_word,
    is_birecurrent,
    minimize,
)
from padfa.formats import parse_automaton, serialize_automaton

from bruteforce import (
    brute_is_birecurrent,
    brute_language,
    brute_rank,
    brute_saturating_word,
)
from support import binary_automata, binary_classes, unpruned_saturating_word


def _acceptors():
    classes = binary_classes()[2]
    assert len(classes) == 14679
    assert sum(size for _, _, size in classes) == 28919
    return [Acceptor(dfa, 0, StateSet(dfa.state_count, mask)) for dfa, mask, _ in classes]


def test_exact_rank_and_its_witness_match_brute_force():
    # A shortest word of minimum rank passes through distinct nonempty
    # subsets from the full set on, so it has at most 2^n - 2 letters, and
    # brute_rank's first word of minimum rank is the length-then-
    # lexicographically first one, as exact_rank's witness must be.
    classes = binary_classes()[0]
    assert len(classes) == 769
    assert sum(size for _, _, size in classes) == 4181
    for dfa, _, _ in classes:
        result = exact_rank(dfa)
        assert (result.rank, result.witness) == brute_rank(dfa, 2**dfa.state_count - 2)


def test_saturating_word_matches_brute_force():
    # Every prefix of a saturating word leaves the set's image nonempty and
    # disjoint from the image of its complement, and a shortest one meets
    # each such pair of images once: there are 3^n - 2^n of them, so it has
    # at most 4 letters for n = 2 and the horizon of 6 is exact there.  For
    # n = 3 the bound is 18 letters, too many words to list.  The search
    # finds no word longer than 5 here, so each word it finds is checked
    # both ways at horizon 6; where it finds none, the check is one-sided:
    # no word of at most 6 letters saturates the set with minimum rank.
    # The unpruned search of the next test closes that gap.  Horizon 6 also
    # gives brute_rank the exact rank (see above).
    classes = binary_classes()[1]
    assert len(classes) == 5010
    assert sum(size for _, _, size in classes) == 28919
    found = 0
    for dfa, mask, _ in classes:
        states = StateSet(dfa.state_count, mask)
        word = find_saturating_min_rank_word(dfa, states)
        assert word == brute_saturating_word(dfa, states, 6)
        found += word is not None
    assert found == 1662


def test_overlap_prune_keeps_every_answer_and_spends_less():
    # The unpruned search expands every config whose inside image survives,
    # so its answer is exact at any length, "none" included, and it runs
    # the whole rank search first.  The pruned search must give the same
    # answer and spend no more budget; the totals pin how much the prune,
    # and the rank search that stops once it can no longer undercut the
    # smallest config, save.
    spent = {"pruned": 0, "unpruned": 0}
    saved = 0
    for dfa, mask, _ in binary_classes()[1]:
        states = StateSet(dfa.state_count, mask)
        pruned, unpruned = SearchBudget(), SearchBudget()
        word = find_saturating_min_rank_word(dfa, states, pruned)
        assert word == unpruned_saturating_word(dfa, states, unpruned)
        assert pruned.remaining >= unpruned.remaining
        saved += pruned.remaining > unpruned.remaining
        spent["pruned"] += pruned.limit - pruned.remaining
        spent["unpruned"] += unpruned.limit - unpruned.remaining
    assert spent == {"pruned": 22666, "unpruned": 30287}
    assert saved == 2814


def test_minimize_keeps_the_language_and_leaves_a_minimal_trim_acceptor():
    # Moore's refinement tells apart the inequivalent states of a DFA with
    # c classes by words of at most c - 2 letters.  The acceptor and its
    # m-state minimal acceptor, each completed with a dead state, have at
    # most n + m + 1 classes together, the dead states being equivalent, so
    # words of at most n + m - 1 letters decide whether the two languages
    # are equal.  In the minimal acceptor with its dead state, words of at
    # most m - 1 letters reach every reachable state, lead every
    # co-reachable state to an accepting one, and tell apart any two
    # inequivalent states.
    minimals = set()
    for acceptor in _acceptors():
        minimal = minimize(acceptor)
        n, m = acceptor.dfa.state_count, minimal.dfa.state_count
        assert brute_language(minimal, n + m - 1) == brute_language(acceptor, n + m - 1)
        minimals.add(minimal)
    assert len(minimals) == 4170
    for minimal in minimals:
        m = minimal.dfa.state_count
        reached = [
            brute_language(Acceptor(minimal.dfa, minimal.initial, StateSet(m, 1 << s)), m - 1)
            for s in range(m)
        ]
        residuals = [
            frozenset(brute_language(Acceptor(minimal.dfa, s, minimal.accepting), m - 1))
            for s in range(m)
        ]
        assert all(reached) and all(residuals)
        assert len(set(residuals)) == m


def test_files_round_trip():
    for acceptor in _acceptors():
        text = serialize_automaton(acceptor.dfa, acceptor.initial, acceptor.accepting)
        assert parse_automaton(text).require_acceptor() == acceptor


def test_residual_route_agrees_on_every_binary_acceptor_up_to_two_states():
    # 2^n - 2 <= 2 for n <= 2, so horizon 2 makes the residual route exact.
    # The empty accepting set is included: its language is empty, which is
    # not birecurrent.
    verdicts = [
        (brute_is_birecurrent(acceptor, 2), is_birecurrent(acceptor))
        for dfa in binary_automata(2)
        for acceptor in (
            Acceptor(dfa, 0, StateSet(dfa.state_count, mask))
            for mask in range(1 << dfa.state_count)
        )
    ]
    assert len(verdicts) == 332
    assert all(brute == engine for brute, engine in verdicts)
    assert sum(engine for _, engine in verdicts) == 150
