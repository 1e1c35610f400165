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

from bruteforce import brute_saturating_word
from support import (
    binary_automata,
    binary_classes,
    cerny,
    d2,
    m2,
    p2,
    per_letter_saturation,
    random_partial_dfa,
    random_word,
    recording_walk,
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

    def test_a_word_may_be_an_iterator(self):
        # a swaps 0 and 1 and kills 2, so a kills a state of Q; the word is
        # read once, not once per state, so an iterator gives the same
        # answer as its tuple.
        dfa = PartialDfa(3, ("a", "b"), ((1, 1), (0, 1), (None, 2)))
        assert not is_saturated_by(dfa, StateSet.full(3), (0,))
        assert not is_saturated_by(dfa, StateSet.full(3), iter((0,)))
        rng = random.Random(306)
        for _ in range(300):
            n = rng.randint(1, 6)
            dfa = random_partial_dfa(rng, n, 2, rng.uniform(0.4, 1.0))
            states = StateSet(n, rng.randrange(1 << n))
            word = random_word(rng, 2, 5)
            assert is_saturated_by(dfa, states, iter(word)) == is_saturated_by(dfa, states, word)

    def test_a_bad_letter_is_rejected(self):
        with pytest.raises(ValueError, match="letter index 1 out of range"):
            is_saturated_by(m2(), StateSet(2), (0, 1))


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
    # Letter 0 is defined everywhere, so the configs of a random set stay
    # alive under it: on even draws it is a permutation, which also keeps
    # the two images apart, and on odd draws a random map.  One or two
    # partial letters follow it.
    rng = random.Random(305)
    saved = 0
    configs = []
    for draw in range(300):
        n = rng.randint(1, 9)
        first = [rng.randrange(n) for _ in range(n)] if draw % 2 else rng.sample(range(n), n)
        partial = random_partial_dfa(rng, n, rng.randint(1, 2), rng.uniform(0.4, 1.0))
        rows = tuple((t, *row) for t, row in zip(first, partial.transitions))
        dfa = PartialDfa(n, tuple("abc"[: len(rows[0])]), rows)
        states = StateSet.from_iterable(n, [s for s in range(n) if rng.random() < 0.5])
        pruned, unpruned = SearchBudget(), SearchBudget()
        word = find_saturating_min_rank_word(dfa, states, pruned)
        assert word == unpruned_saturating_word(dfa, states, unpruned)
        assert pruned.remaining >= unpruned.remaining
        saved += pruned.remaining > unpruned.remaining
        parents, _ = per_letter_saturation(dfa, states, SearchBudget())
        configs.append(0 if parents is None else len(parents))
    assert saved > 0
    # How many inputs reach a second config, and how many reach ten.
    assert (sum(c >= 2 for c in configs), sum(c >= 10 for c in configs)) == (161, 55)


def _same_as_per_letter_search(
    walked: list, dfa: PartialDfa, states: StateSet, limit: int = 1 << 20
) -> int:
    """Check the packed saturation search against the per-letter reference
    and return the number of configs, 0 when every word saturates the set
    and the rank search answers, and -1 when both run out of budget at the
    same node.  The config search's
    witness walk must record its parents in ``walked``."""
    packed, reference = SearchBudget(limit), SearchBudget(limit)
    try:
        word = find_saturating_min_rank_word(dfa, states, packed)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            per_letter_saturation(dfa, states, reference)
        assert packed.remaining == reference.remaining == -1
        return -1
    parents, expected = per_letter_saturation(dfa, states, reference)
    assert word == expected
    assert packed.remaining == reference.remaining
    if parents is None:
        assert walked == []
        return 0
    # The walk runs only when the search finds a config.
    assert walked == ([] if word is None else [list(parents.items())])
    walked.clear()
    return len(parents)


class TestPackedConfigSearch:
    """One packed table of every letter's images, read once for the inside
    and once for the outside image of a config, gives the parents, in
    discovery order, the word and the budget units of one table per
    letter."""

    @pytest.fixture
    def walked(self, monkeypatch):
        walked = []
        monkeypatch.setattr(padfa.saturate, "witness_word", recording_walk(walked))
        return walked

    def test_every_subset_of_every_binary_automaton_up_to_three_states(self, walked):
        inputs = configs = 0
        for dfa in binary_automata(3):
            for mask in range(1 << dfa.state_count):
                configs += _same_as_per_letter_search(walked, dfa, StateSet(dfa.state_count, mask))
                inputs += 1
        assert inputs == 33_100
        assert configs == 59_956

    # As for the rank search: either side of a byte of the table and of a
    # 30-bit int digit, and entries past two digits.  Letter 0 is defined
    # everywhere and the other letters are partial.  On odd draws letter 0
    # is a random map and the set is Q, whose configs stay alive; on even
    # draws it is a permutation, which keeps the two images of a random set
    # apart.
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 31])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_automata(self, walked, n, k):
        rng = random.Random(2000 * n + k)
        configs = []
        for draw in range(6):
            first = [rng.randrange(n) for _ in range(n)] if draw % 2 else rng.sample(range(n), n)
            partial = random_partial_dfa(rng, n, k - 1, rng.uniform(0.5, 1.0))
            rows = tuple((t, *row) for t, row in zip(first, partial.transitions))
            dfa = PartialDfa(n, tuple("abcd"[:k]), rows)
            held = [s for s in range(n) if draw % 2 or rng.random() < 0.5]
            states = StateSet.from_iterable(n, held)
            configs.append(_same_as_per_letter_search(walked, dfa, states, 1 << 14))
        assert max(configs) > 1 or n == 1 or k == 1


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


def test_rank_witness_that_saturates_answers_without_the_config_search():
    # C_8 is complete, so every word saturates its full set, and the full
    # set is answered by the rank witness within the rank search's 248
    # units; the config search alone would spend 248 more.
    dfa = cerny(8)
    spent = SearchBudget()
    ranked = exact_rank(dfa, spent)
    assert spent.limit - spent.remaining == 248
    assert find_saturating_min_rank_word(dfa, StateSet.full(8), SearchBudget(248)) == (
        ranked.witness
    )
    with pytest.raises(BudgetExceededError):
        find_saturating_min_rank_word(dfa, StateSet.full(8), SearchBudget(247))


def test_saturation_spends_less_than_the_rank_search_on_a_fixed_share_of_the_small_classes():
    # The config search runs first and resumes the rank search only to ask
    # whether some image is smaller than its smallest config, so a question
    # can end before the rank search reaches its first singleton, and spend
    # less than exact_rank alone.  Of the 5,010 classes of binary DFAs with
    # at most three states paired with a nonempty set, 356 do; they stand
    # for 2,136 of the 28,919 pairs.
    classes = hits = 0
    for dfa, mask, size in binary_classes()[1]:
        total, rank_only = SearchBudget(), SearchBudget()
        find_saturating_min_rank_word(dfa, StateSet(dfa.state_count, mask), total)
        exact_rank(dfa, rank_only)
        if total.remaining > rank_only.remaining:
            classes += 1
            hits += size
    assert (classes, hits) == (356, 2136)


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


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: find_saturating_min_rank_word(m2(), [0, 1]),
            "states must be a StateSet, not [0, 1]",
        ),
        (
            lambda: is_saturated_by(m2(), 0b01, (0,)),
            "states must be a StateSet, not 1",
        ),
    ],
)
def test_saturate_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
