import random
from itertools import combinations, product

import pytest

import padfa.graphs
from padfa import (
    BudgetExceededError,
    PartialDfa,
    RankResult,
    SearchBudget,
    StateSet,
    exact_rank,
    is_strongly_connected,
    is_synchronizing,
    min_rank_word_sc,
    pair_automaton,
    rank_word_length_bound,
)

from support import c4, cerny, m2, p2, random_sc_dfa


class TestExactRank:
    def test_m2(self):
        result = exact_rank(m2())
        assert result.rank == 1
        assert result.witness == (0,)

    def test_p2_empty_word(self):
        result = exact_rank(p2())
        assert result.rank == 2
        assert result.witness == ()

    def test_c4_needs_length_nine(self):
        result = exact_rank(c4())
        assert result.rank == 1
        assert result.word_length == 9
        assert c4().image_mask(0b1111, result.witness).bit_count() == 1

    def test_witness_always_attains_rank(self):
        rng = random.Random(201)
        for _ in range(50):
            dfa = random_sc_dfa(rng, max_states=6)
            result = exact_rank(dfa)
            full = StateSet.full(dfa.state_count).mask
            assert dfa.image_mask(full, result.witness).bit_count() == result.rank

    def test_empty_automaton_rejected(self):
        with pytest.raises(ValueError):
            exact_rank(PartialDfa(0, ("a",), ()))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            exact_rank(c4(), budget=2)

    @pytest.mark.parametrize("n", [*range(3, 11), 16])
    def test_cerny_visits_and_witness_length(self, n):
        # Every subset but n - 1 of the singletons is reached before the
        # first singleton ends the search; the shortest reset word of C_n
        # has length (n-1)^2.
        budget = SearchBudget(1 << 20)
        result = exact_rank(cerny(n), budget)
        assert budget.limit - budget.remaining == 2**n - n
        assert result.rank == 1
        assert result.word_length == (n - 1) ** 2


class TestIsSynchronizing:
    def test_m2_yes(self):
        ok, witness = is_synchronizing(m2())
        assert ok and witness == (0,)

    def test_p2_no(self):
        ok, witness = is_synchronizing(p2())
        assert not ok and witness is None


class TestMinRankWordSc:
    def test_p2_no_mergeable_pair(self):
        result = min_rank_word_sc(p2())
        assert result.rank == 2
        assert result.witness == ()

    def test_c4_reaches_rank_one_within_bound(self):
        result = min_rank_word_sc(c4())
        assert result.rank == 1
        assert result.word_length <= rank_word_length_bound(4, 1)
        assert c4().image_mask(0b1111, result.witness).bit_count() == 1

    def test_three_state_cycle_with_partial_letter(self):
        dfa = PartialDfa.from_map(
            3,
            ["a", "b"],
            {(0, "a"): 1, (1, "a"): 2, (2, "a"): 0, (0, "b"): 0, (1, "b"): 0},
        )
        assert min_rank_word_sc(dfa).rank == 1
        assert exact_rank(dfa).rank == 1

    def test_empty_alphabet(self):
        dfa = PartialDfa(1, (), ((),))
        pa = pair_automaton(dfa)
        assert len(pa.step) == 2
        assert pa.step[pa.singleton_index(0)] == ()
        assert pa.merge_policy() == ([None, 0], [None, None])
        assert min_rank_word_sc(dfa) == RankResult(1, ())

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(ValueError):
            min_rank_word_sc(m2())

    def test_agrees_with_exact_rank(self):
        rng = random.Random(202)
        for _ in range(60):
            dfa = random_sc_dfa(rng, max_states=7)
            assert min_rank_word_sc(dfa).rank == exact_rank(dfa).rank

    def test_step_words_stay_within_pair_node_count(self):
        rng = random.Random(203)
        for _ in range(30):
            dfa = random_sc_dfa(rng, max_states=6)
            pa = pair_automaton(dfa)
            dist, _ = pa.merge_policy()
            finite = [d for d in dist if d is not None]
            # Every merging segment comes from a shortest path in the pair
            # automaton, so no segment exceeds the node count.
            assert all(d <= len(pa.step) for d in finite)


def _enumerate_shortest_rank(dfa: PartialDfa, max_len: int) -> tuple[int, int]:
    """(minimum nonzero rank, shortest witness length) by word enumeration."""
    from itertools import product

    best = dfa.state_count
    best_len = 0
    for length in range(max_len + 1):
        for word in product(range(dfa.letter_count), repeat=length):
            size = dfa.image_mask(StateSet.full(dfa.state_count).mask, word).bit_count()
            if 0 < size < best:
                best = size
                best_len = length
                if best == 1:
                    return best, best_len
    return best, best_len


def test_exact_rank_witness_is_shortest():
    rng = random.Random(204)
    cases = [m2(), p2(), c4()]
    while len(cases) < 12:
        n = rng.randint(1, 4)
        rows = tuple(
            tuple(
                rng.randrange(n) if rng.random() < 0.75 else None
                for _ in range(2)
            )
            for _ in range(n)
        )
        cases.append(PartialDfa(n, ("a", "b"), rows))
    for dfa in cases:
        result = exact_rank(dfa)
        rank, shortest = _enumerate_shortest_rank(dfa, max(result.word_length, 10))
        assert result.rank == rank
        assert result.word_length == shortest


def test_prefix_extension_reaches_minimum_rank():
    # Any word of nonzero rank extends to a word of minimum rank in a
    # strongly connected automaton: restart the pair-merging loop from the
    # image and check it bottoms out at the automaton's rank.
    rng = random.Random(205)
    for _ in range(40):
        dfa = random_sc_dfa(rng, max_states=6)
        target = exact_rank(dfa).rank
        prefix = tuple(
            rng.randrange(dfa.letter_count) for _ in range(rng.randint(0, 6))
        )
        mask = dfa.image_mask((1 << dfa.state_count) - 1, prefix)
        if mask == 0:
            continue
        pa = pair_automaton(dfa)
        dist, policy = pa.merge_policy()
        while True:
            members = [s for s in range(dfa.state_count) if mask >> s & 1]
            candidates = [
                (dist[pa.pair_index(p, q)], p, q)
                for i, p in enumerate(members)
                for q in members[i + 1 :]
                if dist[pa.pair_index(p, q)] is not None
            ]
            if not candidates:
                break
            _, p, q = min(candidates)
            node = pa.pair_index(p, q)
            word = []
            while dist[node] != 0:
                word.append(policy[node])
                node = pa.step[node][policy[node]]
            mask = dfa.image_mask(mask, tuple(word))
        assert mask.bit_count() == target


def _reference_pair_merge(dfa: PartialDfa):
    """Greedy pair merging written from its definition: the pair automaton
    over frozensets, distances by backward breadth-first search from the
    singletons, per node the smallest letter into the level below, then the
    (d, p, q)-smallest mergeable pair of the survivors, round by round.

    Returns the rank, the witness, and ``dist``/``policy`` keyed by node."""
    n, k = dfa.state_count, dfa.letter_count

    def image(node: frozenset, letter: int) -> frozenset:
        return frozenset(dfa.transitions[s][letter] for s in node) - {None}

    nodes = [frozenset(c) for size in (0, 1, 2) for c in combinations(range(n), size)]
    preds: dict[frozenset, list] = {node: [] for node in nodes}
    for node in nodes:
        for letter in range(k):
            preds[image(node, letter)].append((node, letter))
    level = [node for node in nodes if len(node) == 1]
    dist = dict.fromkeys(level, 0)
    policy: dict[frozenset, int] = {}
    distance = 0
    while level:
        distance += 1
        farther: dict[frozenset, int] = {}
        for node in level:
            for pred, letter in preds[node]:
                if pred not in dist:
                    farther[pred] = min(letter, farther.get(pred, letter))
        for pred, letter in farther.items():
            dist[pred] = distance
            policy[pred] = letter
        level = list(farther)

    survivors = set(range(n))
    witness: list[int] = []
    while True:
        candidates = [
            (dist[frozenset(pair)], *pair)
            for pair in combinations(sorted(survivors), 2)
            if frozenset(pair) in dist
        ]
        if not candidates:
            break
        _, p, q = min(candidates)
        node = frozenset((p, q))
        while dist[node]:
            letter = policy[node]
            witness.append(letter)
            node = image(node, letter)
            survivors = {dfa.transitions[s][letter] for s in survivors} - {None}
    return len(survivors), tuple(witness), dist, policy


def test_pair_merging_matches_the_reference():
    rng = random.Random(207)
    cases = [
        random_sc_dfa(rng, max_states=9, density_range=(0.3, 1.0))
        for _ in range(300)
    ]
    cases += [cerny(n) for n in range(2, 31)]
    for dfa in cases:
        rank, witness, dist, policy = _reference_pair_merge(dfa)
        assert min_rank_word_sc(dfa) == RankResult(rank, witness)
        pa = pair_automaton(dfa)
        nodes = [frozenset()] + [frozenset((s,)) for s in range(dfa.state_count)]
        nodes += map(frozenset, combinations(range(dfa.state_count), 2))
        assert pa.merge_policy() == (
            [dist.get(node) for node in nodes],
            [policy.get(node) for node in nodes],
        )


def _reference_lists(dfa: PartialDfa, dist: dict, policy: dict):
    """The reference ``dist`` and ``policy`` as lists in pair-automaton node
    order: dead, the singletons, then the pairs in (p, q) order."""
    nodes = [frozenset()] + [frozenset((s,)) for s in range(dfa.state_count)]
    nodes += map(frozenset, combinations(range(dfa.state_count), 2))
    return [dist.get(node) for node in nodes], [policy.get(node) for node in nodes]


def _dense_random(n: int, seed: int) -> PartialDfa:
    """A cycle letter (so strongly connected) and two random letters, each
    entry defined with probability 0.9."""
    rng = random.Random(seed)
    rows = tuple(
        ((s + 1) % n, *(rng.randrange(n) if rng.random() < 0.9 else None for _ in range(2)))
        for s in range(n)
    )
    return PartialDfa(n, ("a", "b", "c"), rows)


@pytest.mark.parametrize(
    "dfa, tables",
    # A few large levels: the pull sweep finishes and builds no table.
    # Hundreds of one-pair levels: it switches to pushing, one table per letter.
    [(_dense_random(60, 208), 0), (cerny(10), 2), (cerny(30), 2)],
    ids=["random60", "cerny10", "cerny30"],
)
def test_merge_policy_pulls_shallow_searches_and_pushes_deep_ones(monkeypatch, dfa, tables):
    built = []
    links = padfa.graphs.predecessor_links

    def counting(*args):
        built.append(args)
        return links(*args)

    monkeypatch.setattr(padfa.graphs, "predecessor_links", counting)
    _, _, dist, policy = _reference_pair_merge(dfa)
    assert pair_automaton(dfa).merge_policy() == _reference_lists(dfa, dist, policy)
    assert len(built) == tables


def _binary_automata(max_states: int):
    """Every binary partial DFA with 1 to ``max_states`` states."""
    for n in range(1, max_states + 1):
        for flat in product([None, *range(n)], repeat=2 * n):
            yield PartialDfa(n, ("a", "b"), tuple(zip(flat[::2], flat[1::2])))


def test_pair_route_on_every_binary_automaton_up_to_three_states():
    automata = list(_binary_automata(3))
    assert len(automata) == 2**2 + 3**4 + 4**6 == 4181
    strongly_connected = [dfa for dfa in automata if is_strongly_connected(dfa)]
    assert len(strongly_connected) == 857
    for dfa in strongly_connected:
        rank, witness, dist, policy = _reference_pair_merge(dfa)
        result = min_rank_word_sc(dfa)
        assert result == RankResult(rank, witness)
        assert result.rank == exact_rank(dfa).rank
        assert pair_automaton(dfa).merge_policy() == _reference_lists(dfa, dist, policy)


class TestLengthBound:
    def test_four_states_rank_one(self):
        assert rank_word_length_bound(4, 1) == 24

    def test_rank_equals_states_clamps_to_zero(self):
        for n in range(1, 8):
            assert rank_word_length_bound(n, n) == 0

    def test_two_states_rank_one(self):
        # Direct formula evaluation: (2-1)*((2-1)*(2+2)-2)/2 = 1.
        assert rank_word_length_bound(2, 1) == 1

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            rank_word_length_bound(3, 0)
        with pytest.raises(ValueError):
            rank_word_length_bound(3, 4)

    def test_bound_holds_on_random_sc_family(self):
        rng = random.Random(206)
        for _ in range(60):
            dfa = random_sc_dfa(rng, max_states=7)
            result = exact_rank(dfa)
            assert result.word_length <= rank_word_length_bound(
                dfa.state_count, result.rank
            )
