import random
import re

import pytest

import padfa.saturate
from padfa import (
    BudgetExceededError,
    PartialDfa,
    SearchBudget,
    StateSet,
    exact_rank,
    find_saturating_min_rank_word,
    is_saturated_by,
)
from padfa.bruteforce import brute_saturating_word

from support import (
    d2,
    m2,
    p2,
    random_partial_dfa,
    random_word,
    unpruned_saturating_word,
)


class TestIsSaturatedBy:
    def test_whole_set_of_complete_dfa(self):
        dfa = m2()
        for word in [(), (0,), (0, 0, 0)]:
            assert is_saturated_by(dfa, StateSet.full(2), word)

    def test_outside_state_lands_in_image(self):
        # State 0 is outside {1} but also maps to 1.
        assert not is_saturated_by(m2(), StateSet.from_iterable(2, [1]), (0,))

    def test_outside_state_may_die(self):
        # Image of {0} is {1}; the outside state 1 drops out entirely.
        assert is_saturated_by(d2(), StateSet.from_iterable(2, [0]), (0,))

    def test_inside_state_must_survive(self):
        assert not is_saturated_by(d2(), StateSet.from_iterable(2, [1]), (0,))

    def test_empty_set_saturated_by_everything(self):
        dfa = m2()
        for word in [(), (0,), (0, 0)]:
            assert is_saturated_by(dfa, StateSet(2), word)


class TestFindSaturatingMinRankWord:
    def test_p2_initial_config_accepts(self):
        assert find_saturating_min_rank_word(p2(), StateSet.from_iterable(2, [0])) == ()

    def test_m2_singleton_never_saturates(self):
        # Every nonempty word merges both states; the empty word fails the
        # rank condition because the automaton has rank 1.
        assert find_saturating_min_rank_word(m2(), StateSet.from_iterable(2, [0])) is None

    def test_whole_set_picks_everywhere_defined_word(self):
        # Both letters have rank 1, but only "a" keeps every state alive.
        dfa = PartialDfa.from_map(
            2, ["a", "b"], {(0, "a"): 0, (1, "a"): 0, (0, "b"): 0}
        )
        assert exact_rank(dfa).rank == 1
        assert find_saturating_min_rank_word(dfa, StateSet.full(2)) == (0,)

    def test_whole_set_unsaturatable_when_min_rank_words_kill(self):
        # Rank 1 needs the partial letter, which always kills a state; the
        # everywhere-defined words are powers of the swap and keep rank 2.
        dfa = PartialDfa.from_map(
            2, ["a", "b"], {(0, "a"): 0, (0, "b"): 1, (1, "b"): 0}
        )
        assert exact_rank(dfa).rank == 1
        assert find_saturating_min_rank_word(dfa, StateSet.full(2)) is None

    def test_empty_automaton_rejected(self):
        with pytest.raises(ValueError):
            find_saturating_min_rank_word(PartialDfa(0, ("a",), ()), StateSet(0))

    def test_self_consistency_on_random_inputs(self):
        rng = random.Random(301)
        for _ in range(80):
            n = rng.randint(1, 6)
            dfa = random_partial_dfa(rng, n, rng.randint(1, 3), rng.uniform(0.4, 1.0))
            states = StateSet.from_iterable(
                n, [s for s in range(n) if rng.random() < 0.5]
            )
            word = find_saturating_min_rank_word(dfa, states)
            if word is not None:
                assert is_saturated_by(dfa, states, word)
                rank = dfa.image_mask(StateSet.full(n).mask, word).bit_count()
                assert rank == exact_rank(dfa).rank


def test_search_matches_brute_enumeration_on_small_automata():
    rng = random.Random(302)
    for _ in range(60):
        n = rng.randint(1, 4)
        dfa = random_partial_dfa(rng, n, 2, rng.uniform(0.4, 1.0))
        states = StateSet.from_iterable(n, [s for s in range(n) if rng.random() < 0.5])
        found = find_saturating_min_rank_word(dfa, states)
        # Horizon long enough for the oracle to see the true minimum rank.
        horizon = max(
            8, exact_rank(dfa).word_length, 0 if found is None else len(found)
        )
        brute = brute_saturating_word(dfa, states, horizon)
        if found is None:
            assert brute is None
        else:
            assert brute == found


def test_overlap_prune_matches_the_unpruned_search_on_random_inputs():
    rng = random.Random(305)
    saved = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        dfa = random_partial_dfa(rng, n, rng.randint(1, 3), rng.uniform(0.4, 1.0))
        states = StateSet.from_iterable(n, [s for s in range(n) if rng.random() < 0.5])
        pruned, unpruned = SearchBudget(), SearchBudget()
        word = find_saturating_min_rank_word(dfa, states, pruned)
        assert word == unpruned_saturating_word(dfa, states, unpruned)
        assert pruned.remaining >= unpruned.remaining
        saved += pruned.remaining > unpruned.remaining
    assert saved > 0


def test_budget_that_only_the_pruned_search_fits():
    # States 2, 4 and 6 are saturated by a 10-letter word.  The pruned
    # search spends 101 units on it (rank search included), the unpruned
    # one 270, so a budget of 101 answers with the prune and runs out
    # without it.
    dfa = PartialDfa(
        7,
        ("a", "b"),
        ((4, 1), (5, 6), (4, 0), (None, 3), (0, 2), (0, 3), (6, 4)),
    )
    states = StateSet.from_iterable(7, [2, 4, 6])
    word = find_saturating_min_rank_word(dfa, states)
    assert word is not None and len(word) == 10
    assert find_saturating_min_rank_word(dfa, states, SearchBudget(101)) == word
    with pytest.raises(BudgetExceededError):
        find_saturating_min_rank_word(dfa, states, SearchBudget(100))
    with pytest.raises(BudgetExceededError):
        unpruned_saturating_word(dfa, states, SearchBudget(101))
    assert unpruned_saturating_word(dfa, states, SearchBudget(270)) == word


def test_dead_config_is_absorbing():
    # Once a member of the inside image hits an undefined transition, no
    # extension is ever saturating, so the search never returns such a word.
    rng = random.Random(303)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        dfa = random_partial_dfa(rng, n, 2, rng.uniform(0.3, 0.8))
        states = StateSet.from_iterable(n, [s for s in range(n) if rng.random() < 0.6])
        killer = random_word(rng, 2, 4)
        if not states or all(dfa.run(s, killer) is not None for s in states):
            continue
        checked += 1
        assert not is_saturated_by(dfa, states, killer)
        for _ in range(10):
            extension = random_word(rng, 2, 4)
            assert not is_saturated_by(dfa, states, killer + extension)
        word = find_saturating_min_rank_word(dfa, states)
        if word is not None:
            assert all(dfa.run(s, word) is not None for s in states)
            assert word[: len(killer)] != killer


def test_whole_set_case_ignores_outside_condition():
    # With S = Q the outside image is empty and stays empty; acceptance is
    # purely "an everywhere-defined word of minimum rank exists".
    dfa = PartialDfa.from_map(
        3,
        ["a", "b"],
        {(0, "a"): 1, (1, "a"): 1, (2, "a"): 1, (0, "b"): 0, (1, "b"): 0},
    )
    word = find_saturating_min_rank_word(dfa, StateSet.full(3))
    assert word == (0,)
    rng = random.Random(304)
    for _ in range(20):
        word = random_word(rng, 2, 5)
        defined = all(dfa.run(s, word) is not None for s in range(3))
        assert is_saturated_by(dfa, StateSet.full(3), word) == defined


def test_failed_postcondition_raises_even_without_asserts(monkeypatch):
    # The result is re-checked by explicit code, not by ``assert``, so the
    # check survives ``python -O``.
    monkeypatch.setattr(padfa.saturate, "is_saturated_by", lambda *args: False)
    with pytest.raises(RuntimeError):
        find_saturating_min_rank_word(p2(), StateSet.from_iterable(2, [0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: is_saturated_by(m2(), StateSet(3), ()),
        lambda: find_saturating_min_rank_word(m2(), StateSet(3)),
    ],
    ids=["is_saturated_by", "find_saturating_min_rank_word"],
)
def test_saturation_rejects_a_set_of_another_universe(build):
    message = "state set universe does not match automaton"
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
