import pytest

from padfa import Acceptor, BudgetExceededError, StateSet

from bruteforce import brute_language, brute_rank, brute_saturating_word
from support import c4, m2, p2


class TestBruteRank:
    def test_m2(self):
        assert brute_rank(m2(), 3) == (1, (0,))

    def test_c4_shortest_is_length_nine(self):
        rank, witness = brute_rank(c4(), 9)
        assert rank == 1
        assert len(witness) == 9

    def test_p2_stays_full(self):
        assert brute_rank(p2(), 5) == (2, ())

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            brute_rank(c4(), 30, budget=1000)


class TestBruteSaturatingWord:
    def test_p2_singleton(self):
        assert brute_saturating_word(p2(), StateSet.from_iterable(2, [0]), 2) == ()

    def test_m2_singleton(self):
        assert brute_saturating_word(m2(), StateSet.from_iterable(2, [0]), 4) is None


class TestBruteLanguage:
    def test_even_length_parity(self):
        acc = Acceptor(p2(), 0, StateSet.from_iterable(2, [0]))
        assert brute_language(acc, 4) == {(), (0, 0), (0, 0, 0, 0)}

    def test_nonempty_words(self):
        acc = Acceptor(m2(), 0, StateSet.from_iterable(2, [1]))
        assert brute_language(acc, 2) == {(0,), (0, 0)}

    def test_empty_acceptor(self):
        assert brute_language(Acceptor.empty(("a",)), 3) == set()
