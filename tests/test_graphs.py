import random

import pytest

from padfa import (
    Acceptor,
    PairAutomaton,
    PartialDfa,
    StateSet,
    coreachable_to,
    is_strongly_connected,
    pair_automaton,
    reachable_from,
    trim,
)
from padfa.graphs import gather

from support import c4, m2, p2, random_partial_dfa


class TestStrongConnectivity:
    def test_p2_connected(self):
        assert is_strongly_connected(p2())

    def test_m2_not_connected(self):
        assert not is_strongly_connected(m2())
        assert not is_strongly_connected(PartialDfa(2, (), ((), ())))

    def test_single_state_vacuously_connected(self):
        assert is_strongly_connected(PartialDfa(1, ("a",), ((None,),)))
        assert is_strongly_connected(PartialDfa(1, (), ((),)))

    def test_empty_automaton_rejected(self):
        with pytest.raises(ValueError):
            is_strongly_connected(PartialDfa(0, ("a",), ()))


def _brute_reach(dfa: PartialDfa, start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for target in dfa.transitions[state]:
            if target is not None and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def _brute_all_pairs_reachable(dfa: PartialDfa) -> bool:
    n = dfa.state_count
    return all(len(_brute_reach(dfa, start)) == n for start in range(n))


def _component(dfa: PartialDfa, state: int) -> set[int]:
    """The strongly connected component of ``state``, from the closures."""
    return reachable_from(dfa, [state]) & coreachable_to(dfa, [state])


class TestScc:
    def test_m2_two_components(self):
        dfa = m2()
        assert _component(dfa, 0) == {0}
        assert _component(dfa, 1) == {1}
        assert reachable_from(dfa, [0]) == {0, 1}
        assert reachable_from(dfa, [1]) == {1}

    def test_p2_single_component(self):
        assert _component(p2(), 0) == {0, 1}

    def test_c4_single_component_vs_brute(self):
        dfa = c4()
        assert _brute_all_pairs_reachable(dfa)
        assert is_strongly_connected(dfa)
        assert _component(dfa, 0) == set(range(4))

    def test_matches_is_strongly_connected(self):
        rng = random.Random(101)
        for _ in range(60):
            dfa = random_partial_dfa(rng, rng.randint(1, 6), rng.randint(1, 3), rng.uniform(0.3, 1.0))
            assert is_strongly_connected(dfa) == _brute_all_pairs_reachable(dfa)
            assert is_strongly_connected(dfa) == (len(_component(dfa, 0)) == dfa.state_count)
            n = dfa.state_count
            ends = rng.sample(range(n), rng.randint(1, n))
            reach = {s: _brute_reach(dfa, s) for s in range(n)}
            assert reachable_from(dfa, ends) == set().union(*(reach[s] for s in ends))
            assert coreachable_to(dfa, ends) == {
                s for s in range(n) if reach[s].intersection(ends)
            }


class TestTrim:
    def test_useful_acceptor_unchanged(self):
        acc = Acceptor(m2(), 0, StateSet.from_iterable(2, [1]))
        trimmed, mapping = trim(acc)
        assert trimmed == acc
        assert mapping == {0: 0, 1: 1}

    def test_unreachable_state_dropped(self):
        acc = Acceptor(m2(), 1, StateSet.from_iterable(2, [1]))
        trimmed, mapping = trim(acc)
        assert trimmed.dfa.state_count == 1
        assert mapping == {1: 0}
        assert trimmed.initial == 0 and 0 in trimmed.accepting

    def test_no_accepting_states_gives_empty(self):
        acc = Acceptor(m2(), 0, StateSet(2))
        trimmed, mapping = trim(acc)
        assert trimmed.is_empty
        assert mapping == {}

    def test_idempotent(self):
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(1, 6)
            dfa = random_partial_dfa(rng, n, rng.randint(1, 3), rng.uniform(0.3, 1.0))
            accepting = StateSet.from_iterable(
                n, [s for s in range(n) if rng.random() < 0.4]
            )
            once, _ = trim(Acceptor(dfa, rng.randrange(n), accepting))
            twice, _ = trim(once)
            assert once == twice


class TestPairAutomaton:
    def test_m2_pair_merges(self):
        pa = pair_automaton(m2())
        assert pa.step[pa.pair_index(0, 1)][0] == pa.singleton_index(1)

    def test_d2_exactly_one_defined(self):
        dfa = PartialDfa.from_map(2, ["a"], {(0, "a"): 1})
        pa = pair_automaton(dfa)
        assert pa.step[pa.pair_index(0, 1)][0] == pa.singleton_index(1)

    def test_p2_never_merges(self):
        pa = pair_automaton(p2())
        node = pa.pair_index(0, 1)
        assert pa.step[node][0] == node
        assert pa.merge_policy()[0][node] is None

    def test_dead_is_absorbing(self):
        pa = pair_automaton(d2_like())
        for letter in range(1):
            assert pa.step[pa.DEAD][letter] == pa.DEAD

    def test_node_kinds(self):
        # Dead node first, then the singletons 1..n, then the pairs in
        # (p, q) order.
        n = 4
        pa = pair_automaton(c4())
        assert pa.DEAD == 0
        assert [pa.singleton_index(s) for s in range(n)] == list(range(1, n + 1))
        pairs = [pa.pair_index(p, q) for p in range(n) for q in range(p + 1, n)]
        assert pairs == list(range(n + 1, len(pa.step)))
        assert len(pa.step) == 1 + n + n * (n - 1) // 2
        for p, q in ((0, 0), (0, n), (-1, 0)):
            with pytest.raises(ValueError):
                pa.pair_index(p, q)

    def test_merge_policy_of_one_state(self):
        for dfa in (
            PartialDfa(1, (), ((),)),
            PartialDfa(1, ("a",), ((0,),)),
            PartialDfa(1, ("a", "b"), ((None, 0),)),
        ):
            assert pair_automaton(dfa).merge_policy() == ([None, 0], [None, None])

    def test_merge_policy_of_two_states_has_one_pair(self):
        # Node 3 is the only pair; it merges under the first letter that
        # maps both states to one state or leaves exactly one defined.
        cases = {
            m2(): ([None, 0, 0, 1], [None, None, None, 0]),
            d2_like(): ([None, 0, 0, 1], [None, None, None, 0]),
            PartialDfa(2, ("a", "b"), ((1, 0), (0, 0))): ([None, 0, 0, 1], [None, None, None, 1]),
            PartialDfa(2, ("a", "b"), ((1, 1), (0, 1))): ([None, 0, 0, 1], [None, None, None, 1]),
        }
        for dfa, expected in cases.items():
            pa = pair_automaton(dfa)
            assert pa.node_count == 4
            assert pa.merge_policy() == expected

    def test_merge_policy_leaves_unmerged_pairs_unassigned(self):
        # The pair of p2 never reaches a singleton, so the pull sweep ends
        # with it still unassigned.
        assert pair_automaton(p2()).merge_policy() == ([None, 0, 0, None], [None] * 4)
        # State 2 is fixed by both letters and no other state ever reaches
        # it, so {0, 1} merges under b while {0, 2} and {1, 2} never merge.
        dfa = PartialDfa(3, ("a", "b"), ((1, 0), (0, 0), (2, 2)))
        assert pair_automaton(dfa).merge_policy() == (
            [None, 0, 0, 0, 1, None, None],
            [None, None, None, None, 1, None, None],
        )


def test_gather_takes_any_number_of_indices():
    seq = [10, 11, 12, 13]
    assert gather(seq, []) == ()
    assert gather(seq, [2]) == (12,)
    assert gather(seq, [3, 0, 3]) == (13, 10, 13)
    assert gather(bytearray(b"\x00\x01"), [1]) == (1,)


def d2_like() -> PartialDfa:
    return PartialDfa.from_map(2, ["a"], {(0, "a"): 1})


def _brute_pair_merge_lengths(dfa: PartialDfa, max_len: int) -> dict[tuple[int, int], int]:
    """Shortest word per pair after which at most one distinct image survives
    (but at least one), by depth-first enumeration with no dedup."""
    merged: dict[tuple[int, int], int] = {}
    k = dfa.letter_count
    for p in range(dfa.state_count):
        for q in range(p + 1, dfa.state_count):
            stack = [(p, q, 0)]
            best = None
            while stack:
                sp, sq, depth = stack.pop()
                if best is not None and depth >= best:
                    continue
                survivors = {s for s in (sp, sq) if s is not None}
                if len(survivors) == 1:
                    best = depth
                    continue
                if not survivors or depth == max_len:
                    continue
                for letter in range(k):
                    tp = None if sp is None else dfa.transitions[sp][letter]
                    tq = None if sq is None else dfa.transitions[sq][letter]
                    stack.append((tp, tq, depth + 1))
            if best is not None:
                merged[(p, q)] = best
    return merged


def test_singleton_reachability_matches_brute_enumeration():
    rng = random.Random(104)
    cases = [c4()] + [
        random_partial_dfa(rng, rng.randint(2, 5), 2, rng.uniform(0.4, 1.0))
        for _ in range(5)
    ]
    for dfa in cases:
        n = dfa.state_count
        max_len = n * (n - 1) // 2 + n
        expected = _brute_pair_merge_lengths(dfa, max_len)
        pa = pair_automaton(dfa)
        dist = pa.merge_policy()[0]
        for p in range(n):
            for q in range(p + 1, n):
                assert dist[pa.pair_index(p, q)] == expected.get((p, q))


def test_merge_policy_walks_to_a_singleton():
    rng = random.Random(105)
    cases = [PartialDfa(2, (), ((), ()))] + [
        random_partial_dfa(rng, rng.randint(2, 6), rng.randint(1, 3), 0.8)
        for _ in range(30)
    ]
    for dfa in cases:
        pa = pair_automaton(dfa)
        dist, policy = pa.merge_policy()
        assert dist[PairAutomaton.DEAD] is None
        for node in range(len(pa.step)):
            if dist[node] in (None, 0):
                continue
            # The policy is the smallest letter one step closer.
            closer = [
                a for a, target in enumerate(pa.step[node])
                if dist[target] == dist[node] - 1
            ]
            assert policy[node] == closer[0]
            walk = node
            for _ in range(dist[node]):
                walk = pa.step[walk][policy[walk]]
            assert 1 <= walk <= dfa.state_count  # a singleton
