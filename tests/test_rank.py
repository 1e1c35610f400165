import random
import re
from collections import Counter
from itertools import combinations, zip_longest

import pytest

import padfa.rank
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

from support import (
    binary_automata,
    c4,
    certified_rank,
    cerny,
    cycle_sc_dfa,
    cyclic_product,
    m2,
    p2,
    per_letter_rank,
    random_partial_dfa,
    random_sc_dfa,
    recording_walk,
)


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


def _same_as_per_letter_rank(walked: list, dfa: PartialDfa) -> int:
    """Check the packed rank search against the per-letter reference and
    return the number of subsets.  The search's witness walk must record
    its parents in ``walked``."""
    packed, reference = SearchBudget(1 << 20), SearchBudget(1 << 20)
    walked.clear()
    result = exact_rank(dfa, packed)
    parents, word = per_letter_rank(dfa, reference)
    assert walked == [list(parents.items())]
    assert result.witness == word
    assert result.rank == dfa.image_mask((1 << dfa.state_count) - 1, word).bit_count()
    assert packed.remaining == reference.remaining == packed.limit - len(parents)
    return len(parents)


class TestPackedRankSearch:
    """One packed table of every letter's images gives the parents, in
    discovery order, the word and the budget units of one table per
    letter."""

    @pytest.fixture
    def walked(self, monkeypatch):
        walked = []
        monkeypatch.setattr(padfa.rank, "witness_word", recording_walk(walked))
        return walked

    def test_every_binary_automaton_up_to_three_states(self, walked):
        automata = subsets = 0
        for dfa in binary_automata(3):
            subsets += _same_as_per_letter_rank(walked, dfa)
            automata += 1
        assert automata == 4_181
        assert subsets == 11_720

    # 7 to 9 and 15 to 17 states sit on either side of a byte boundary of
    # the table and of a 30-bit int digit at two letters; 31 states of 2
    # to 4 letters make entries past two digits.
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 31])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_automata(self, walked, n, k):
        rng = random.Random(1000 * n + k)
        subsets = []
        for _ in range(6):
            dfa = random_partial_dfa(rng, n, k, rng.uniform(0.5, 1.0))
            subsets.append(_same_as_per_letter_rank(walked, dfa))
        assert max(subsets) > 1 or n == 1


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

    def test_survivor_dies_on_the_last_letter_of_a_long_round(self):
        # a: 0 -> 0, 1 -> 0, 2 -> 2; b: 0 -> 2, 2 -> 1, undefined on 1.  The
        # first round merges {0, 1} by a.  The second merges {0, 2} by bb:
        # 0 -> 2 -> 1, while 2 -> 1 dies on the second b, and state 0 is not
        # in the image {1}.  A survivor walk that sent an undefined
        # transition to state 0 would keep 0 and could not shrink.  (No
        # survivor can die before its round's last letter: it would make a
        # pair with the chosen one that merges sooner.)
        dfa = PartialDfa(3, ("a", "b"), ((0, 2), (0, None), (2, 1)))
        assert is_strongly_connected(dfa)
        assert min_rank_word_sc(dfa) == RankResult(1, (0, 1, 1))
        assert dfa.image_mask(0b101, (1, 1)) == 0b010

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("seed", [211, 212])
    def test_witnesses_on_both_sides_of_the_byte_tables(self, n, seed):
        # Up to n = 255 the survivors move through byte tables whose
        # sentinel is n; from n = 256 on through lists.
        dfa = cycle_sc_dfa(random.Random(seed), n, 3, 0.9)
        result = min_rank_word_sc(dfa)
        assert result == _listing_pair_merge(dfa)[0]
        full = (1 << n) - 1
        assert dfa.image_mask(full, result.witness).bit_count() == result.rank

    def test_empty_alphabet(self):
        dfa = PartialDfa(1, (), ((),))
        pa = pair_automaton(dfa)
        assert pa.node_count == 2
        assert pa.columns == ()
        assert pa.merge_policy() == ([None, 0], [None, None], [])
        assert min_rank_word_sc(dfa) == RankResult(1, ())

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(ValueError):
            min_rank_word_sc(m2())

    def test_partial_automaton_that_is_not_strongly_connected_rejected(self):
        # Without the precondition the greedy merge reads rank 2 here: it
        # merges {0, 1} by a, which kills state 0, and then no pair of
        # {1, 2} merges; yet b alone kills 1 and 2 and has rank 1.  The
        # precondition may be relaxed for complete automata, which keep
        # every state alive, but not for partial ones like this.
        dfa = PartialDfa(3, ("a", "b"), ((None, 0), (1, None), (2, None)))
        assert not dfa.is_complete()
        assert exact_rank(dfa).rank == 1
        with pytest.raises(ValueError, match="requires a strongly connected automaton"):
            min_rank_word_sc(dfa)

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
            dist, _, _ = pa.merge_policy()
            finite = [d for d in dist if d is not None]
            # Every merging segment comes from a shortest path in the pair
            # automaton, so no segment exceeds the node count.
            assert all(d <= pa.node_count for d in finite)


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
        dist, policy, _ = pa.merge_policy()
        while True:
            members = [s for s in range(dfa.state_count) if mask >> s & 1]
            candidates = [
                (dist[pa.node_of[p][q]], p, q)
                for i, p in enumerate(members)
                for q in members[i + 1 :]
                if dist[pa.node_of[p][q]] is not None
            ]
            if not candidates:
                break
            _, p, q = min(candidates)
            node = pa.node_of[p][q]
            word = []
            # A bounded walk, so that a wrong policy fails the test rather
            # than walking forever: dist[node] letters must reach a singleton.
            for _ in range(dist[node]):
                word.append(policy[node])
                node = pa.columns[policy[node]][node]
            assert dist[node] == 0
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
    # Sparse partial automata, where survivors die on rounds' last letters.
    cases += [
        random_sc_dfa(rng, max_states=12, density_range=(0.2, 0.6))
        for _ in range(100)
    ]
    cases += [cerny(n) for n in range(2, 31)]
    for dfa in cases:
        rank, witness, dist, policy = _reference_pair_merge(dfa)
        assert min_rank_word_sc(dfa) == RankResult(rank, witness)
        assert pair_automaton(dfa).merge_policy() == _reference_lists(dfa, dist, policy)


def _reference_lists(dfa: PartialDfa, dist: dict, policy: dict):
    """The reference ``dist`` and ``policy`` as lists in pair-automaton node
    order (dead, the singletons, then the pairs in (p, q) order), and the
    nodes at a positive distance sorted by (distance, node)."""
    nodes = [frozenset()] + [frozenset((s,)) for s in range(dfa.state_count)]
    nodes += map(frozenset, combinations(range(dfa.state_count), 2))
    dists = [dist.get(node) for node in nodes]
    order = sorted((i for i, d in enumerate(dists) if d), key=lambda i: (dists[i], i))
    return dists, [policy.get(node) for node in nodes], order


def _counted_policy(monkeypatch, pa):
    """``pa.merge_policy()`` with its calls recorded in order: "pull" for a
    gather from a letter column, "links" for a predecessor table.  Asserts
    that the pulls read at most ``SWITCH_RATIO`` + 1 node counts per letter,
    and returns the policy and the calls."""
    calls, reads = [], 0
    gather, links = padfa.rank.gather, padfa.rank.predecessor_links

    def counting_gather(seq, indices):
        nonlocal reads
        if any(seq is column for column in pa.columns):
            calls.append("pull")
            reads += len(indices)
        return gather(seq, indices)

    def counting_links(*args):
        calls.append("links")
        return links(*args)

    monkeypatch.setattr(padfa.rank, "gather", counting_gather)
    monkeypatch.setattr(padfa.rank, "predecessor_links", counting_links)
    policy = pa.merge_policy()
    bound = (padfa.rank.SWITCH_RATIO + 1) * pa.node_count * len(pa.columns)
    assert reads <= bound, f"{reads / bound:.2f} times the bound"
    return policy, calls


@pytest.mark.parametrize(
    "dfa, tables",
    # A few large levels: the pull sweep finishes and builds no table.
    # Hundreds of one-pair levels: it switches to pushing, one table per letter.
    [(cycle_sc_dfa(random.Random(208), 60, 3, 0.9), 0), (cerny(10), 2), (cerny(30), 2)],
    ids=["random60", "cerny10", "cerny30"],
)
def test_merge_policy_pulls_shallow_searches_and_pushes_deep_ones(monkeypatch, dfa, tables):
    _, _, dist, policy = _reference_pair_merge(dfa)
    found, calls = _counted_policy(monkeypatch, pair_automaton(dfa))
    assert found == _reference_lists(dfa, dist, policy)
    assert calls.count("links") == tables


def test_merge_policy_pulls_again_once_the_pushed_levels_grow(monkeypatch):
    # A complete random automaton's levels grow and then shrink.  Its policy
    # pulls at distance 1, pushes the small levels that follow, and pulls
    # again once a level holds 1/SWITCH_RATIO of the pairs left.
    dfa = random_partial_dfa(random.Random(210), 120, 2, 1.0)
    _, _, dist, policy = _reference_pair_merge(dfa)
    expected = _reference_lists(dfa, dist, policy)
    found, calls = _counted_policy(monkeypatch, pair_automaton(dfa))
    # Each list is compared on its own and a mismatch names its first
    # difference: pytest -v would diff lists of 7,261 entries for minutes.
    for name, got, want in zip(("dist", "policy", "order"), found, expected):
        if got != want:
            entries = zip_longest(got, want, fillvalue="none")
            at = next(i for i, (mine, theirs) in enumerate(entries) if mine != theirs)
            pytest.fail(f"{name}[{at}]: {got[at : at + 1]} != {want[at : at + 1]}")
    assert calls.count("links") == dfa.letter_count
    first_push = calls.index("links")
    assert "pull" in calls[:first_push]
    assert "pull" in calls[first_push + dfa.letter_count :]


def test_merge_policy_pushes_a_thin_tail(monkeypatch):
    # C_30 on states 0..29 and 60 more states that only c defines, sending
    # them all to state 30.  All but 434 of the 4,005 pairs merge at
    # distance 1, so distance 2 is pulled too; the one-pair levels from
    # there on are each far smaller than the pairs left, so the policy
    # pushes from distance 3.  Pulling each of them would read the whole
    # tail again: about 23 node counts per letter.
    m, extra = 30, 60
    rows = [((s + 1) % m, 1 if s == 0 else s, None) for s in range(m)]
    rows += [(None, None, m)] * extra
    dfa = PartialDfa(m + extra, ("a", "b", "c"), tuple(rows))
    _, _, dist, policy = _reference_pair_merge(dfa)
    found, calls = _counted_policy(monkeypatch, pair_automaton(dfa))
    assert found == _reference_lists(dfa, dist, policy)
    assert calls.count("links") == dfa.letter_count
    assert calls.index("links") == 2 * dfa.letter_count


@pytest.mark.parametrize(
    "dfa, tables",
    # Pull only; pull then push, on one-node levels (C_10) and on levels
    # where a node has two predecessors under one letter (b fixes all but
    # state 4, which it sends to 1); a pair that never merges; no pair at
    # all; and pairs with no letter to move them.
    [
        (cycle_sc_dfa(random.Random(208), 60, 3, 0.9), 0),
        (cerny(10), 2),
        (PartialDfa(7, ("a", "b"), tuple(((s + 1) % 7, 1 if s == 4 else s) for s in range(7))), 2),
        (p2(), 0),
        (PartialDfa(1, ("a",), ((0,),)), 0),
        (PartialDfa(2, (), ((), ())), 0),
    ],
    ids=["random60", "cerny10", "cycle-merge7", "p2", "one-state", "no-letters"],
)
def test_merge_policy_order_is_the_merging_nodes_by_distance(monkeypatch, dfa, tables):
    (dist, _, order), calls = _counted_policy(monkeypatch, pair_automaton(dfa))
    assert calls.count("links") == tables
    merging = [node for node, d in enumerate(dist) if d is not None and d > 0]
    assert order == sorted(merging, key=lambda node: (dist[node], node))


def _listing_pair_merge(dfa: PartialDfa) -> tuple[RankResult, list[str]]:
    """Greedy pair merging whose rounds list every pair of survivors and take
    the (d, p, q)-smallest that merges, as ``min_rank_word_sc`` did before
    it scanned the merge policy's order; the walk moves the survivors by the
    transition table.

    Also returns, per round, the way the order scan must end, with s
    survivors: "hit" when the chosen pair is among the first s(s - 1)/2
    entries of the order, "exhausted" when the order is no longer than that
    (so no pair merges), and "listing" otherwise."""
    pa = pair_automaton(dfa)
    dist, policy, order = pa.merge_policy()
    position = {node: i for i, node in enumerate(order)}
    survivors = list(range(dfa.state_count))
    witness: list[int] = []
    branches = []
    while len(survivors) > 1:
        listing = len(survivors) * (len(survivors) - 1) // 2
        nodes = [pa.node_of[p][q] for p, q in combinations(survivors, 2)]
        merging = [node for node in nodes if dist[node] is not None]
        node = min(merging, key=lambda node: dist[node], default=None)
        if node is not None and position[node] < listing:
            branches.append("hit")
        elif len(order) <= listing:
            branches.append("exhausted")
        else:
            branches.append("listing")
        if node is None:
            break
        members = set(survivors)
        # Bounded, as in test_prefix_extension_reaches_minimum_rank.
        for _ in range(dist[node]):
            letter = policy[node]
            witness.append(letter)
            node = pa.columns[letter][node]
            members = {dfa.transitions[s][letter] for s in members} - {None}
        assert dist[node] == 0
        survivors = sorted(members)
    return RankResult(len(survivors), tuple(witness)), branches


def _blocked_sc_dfa(rng: random.Random) -> PartialDfa:
    """A strongly connected DFA of up to 30 states whose rank can be large:
    its states fall into r blocks by index mod r, and each letter sends
    all of block i to block i + c (mod r), so a letter defined everywhere
    merges no two blocks.  Letter 0 is the cycle s -> s + 1 (mod n)."""
    r = rng.randint(1, 15)
    m = rng.randint(1, 30 // r)
    n = r * m
    rows = [[(s + 1) % n] for s in range(n)]
    for _ in range(rng.randint(0, 2)):
        shift = rng.randrange(r)
        density = rng.uniform(0.7, 1.0)
        for s, row in enumerate(rows):
            target = (s + shift + r * rng.randrange(m)) % n
            row.append(target if rng.random() < density else None)
    letter_count = len(rows[0])
    return PartialDfa(n, ("a", "b", "c")[:letter_count], tuple(map(tuple, rows)))


def test_order_scan_matches_listing_every_pair():
    rng = random.Random(209)
    cases = [_blocked_sc_dfa(rng) for _ in range(400)]
    cases += [random_sc_dfa(rng, max_states=12, density_range=(0.3, 1.0)) for _ in range(200)]
    cases += [cerny(n) for n in range(2, 41)]
    cases += [dfa for dfa in binary_automata(3) if is_strongly_connected(dfa)]
    branches: Counter[str] = Counter()
    ranks = set()
    for dfa in cases:
        expected, taken = _listing_pair_merge(dfa)
        assert min_rank_word_sc(dfa) == expected
        branches.update(taken)
        ranks.add(expected.rank)
    # Every way a round's scan can end is taken, on ranks 1 to over 10.
    assert set(branches) == {"hit", "listing", "exhausted"}
    assert 1 in ranks and max(ranks) > 10


def test_order_scan_matches_listing_past_a_byte():
    # From n = 256 on, the survivors move through lists, not byte tables,
    # so every way a round's scan can end runs there too.  No one
    # automaton takes both "listing" and "exhausted": a round that lists has
    # a merging pair past C(s, 2) >= C(rank, 2) entries of the order, and an
    # exhausted one reads the whole order within C(rank, 2).  So a random
    # automaton of rank 1 takes "hit" and "listing", and the cyclic product
    # of a two-state automaton with Z_128, of rank 128, takes "exhausted".
    two = PartialDfa(2, ("a", "b"), ((1, 0), (0, 0)))
    cases = [cycle_sc_dfa(random.Random(211), 256, 3, 0.9), cyclic_product(two, 128)]
    branches: Counter[str] = Counter()
    for dfa in cases:
        assert dfa.state_count == 256
        expected, taken = _listing_pair_merge(dfa)
        assert min_rank_word_sc(dfa) == expected
        branches.update(taken)
    assert set(branches) == {"hit", "listing", "exhausted"}


def test_pair_route_on_every_binary_automaton_up_to_three_states():
    automata = list(binary_automata(3))
    assert len(automata) == 2**2 + 3**4 + 4**6 == 4181
    strongly_connected = [dfa for dfa in automata if is_strongly_connected(dfa)]
    assert len(strongly_connected) == 857
    for dfa in strongly_connected:
        rank, witness, dist, policy = _reference_pair_merge(dfa)
        result = min_rank_word_sc(dfa)
        assert result == RankResult(rank, witness)
        assert result.rank == exact_rank(dfa).rank
        assert pair_automaton(dfa).merge_policy() == _reference_lists(dfa, dist, policy)


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_cyclic_products_have_r_times_the_rank_at_scale(r):
    # P × Z_r with about 200 states: its rank is r·rank(P), and both ranks
    # are certified without the subset search.  r = 1 is the rank-1 control.
    rng = random.Random(213 + r)
    dfa = None
    while dfa is None or not is_strongly_connected(dfa):
        base = cycle_sc_dfa(rng, 200 // r, 3, 0.9)
        dfa = cyclic_product(base, r)
    inner = min_rank_word_sc(base)
    assert certified_rank(base, inner.witness) == inner.rank == 1
    result = min_rank_word_sc(dfa)
    assert certified_rank(dfa, result.witness) == result.rank == r
    # The empty word leaves pairs that merge, so it certifies nothing.
    assert certified_rank(dfa, ()) is None


def test_cyclic_products_agree_with_exact_rank():
    rng = random.Random(217)
    checked = 0
    while checked < 60:
        base = random_sc_dfa(rng, max_states=5, density_range=(0.5, 1.0))
        r = rng.choice((2, 3))
        dfa = cyclic_product(base, r)
        if not is_strongly_connected(dfa):
            continue
        rank = r * exact_rank(base).rank
        result = min_rank_word_sc(dfa)
        assert exact_rank(dfa).rank == result.rank == rank
        assert certified_rank(dfa, result.witness) == rank
        checked += 1


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


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: min_rank_word_sc(PartialDfa(0, ("a",), ())),
            "rank is undefined for the empty automaton",
        ),
        (lambda: rank_word_length_bound(0, 1), "n must be positive"),
        (
            lambda: rank_word_length_bound(4.0, 1),
            "n and r must be ints, not 4.0 and 1",
        ),
        (
            lambda: rank_word_length_bound(True, True),
            "n and r must be ints, not True and True",
        ),
    ],
)
def test_rank_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
