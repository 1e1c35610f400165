import random

import pytest

import padfa.birecurrent
import padfa.core
import padfa.rank
import padfa.saturate
from padfa import (
    Acceptor,
    BudgetExceededError,
    PartialDfa,
    SearchBudget,
    StateSet,
    SubsetAutomaton,
    binarize,
    binarize_with_selfloop,
    build_complete_gadget,
    build_saturation_gadget,
    build_sc_gadget,
    determinize_reversal,
    find_saturating_min_rank_word,
    has_common_word,
    is_birecurrent,
    is_birecurrent_characterization,
    is_birecurrent_direct,
    is_strongly_connected,
    minimize,
)
from padfa.cli import main
from padfa.formats import serialize_automaton

from bruteforce import brute_language
from support import (
    binary_automata,
    disjoint_instance,
    m2,
    parity_instance,
    per_letter_reversal,
    reversal_blowup,
    p2,
    random_acceptor,
    random_complete_gadget_instance,
    random_partial_dfa,
    random_permutation_acceptor,
)


def p2_acceptor() -> Acceptor:
    return Acceptor(p2(), 0, StateSet.from_iterable(2, [0]))


def m2_acceptor() -> Acceptor:
    return Acceptor(m2(), 0, StateSet.from_iterable(2, [1]))


class TestMinimize:
    def test_distinguishable_states_untouched(self):
        minimal = minimize(m2_acceptor())
        assert minimal.dfa.state_count == 2

    def test_equivalent_accepting_sinks_merge(self):
        dfa = PartialDfa.from_map(
            3,
            ["a", "b"],
            {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (2, "a"): 2},
        )
        acc = Acceptor(dfa, 0, StateSet.from_iterable(3, [1, 2]))
        minimal = minimize(acc)
        assert minimal.dfa.state_count == 2
        assert brute_language(minimal, 6) == brute_language(acc, 6)
        assert minimal == Acceptor(
            PartialDfa(2, ("a", "b"), ((1, 1), (1, None))),
            0,
            StateSet.from_iterable(2, [1]),
        )
        # With state 0 accepting, the first round is already stable and its
        # blocks must still be numbered by first occurrence.
        flipped = PartialDfa.from_map(
            3,
            ["a", "b"],
            {(0, "a"): 1, (0, "b"): 2, (1, "a"): 0, (2, "a"): 0},
        )
        assert minimize(Acceptor(flipped, 0, StateSet.from_iterable(3, [0]))) == (
            Acceptor(
                PartialDfa(2, ("a", "b"), ((1, 1), (0, None))),
                0,
                StateSet.from_iterable(2, [0]),
            )
        )
        # Useless states read as undefined: state 2 is reached by b but
        # reaches no accepting state, and state 3 is never reached.
        useless = PartialDfa(4, ("a", "b"), ((1, 2), (1, None), (2, None), (1, 1)))
        assert minimize(Acceptor(useless, 0, StateSet.from_iterable(4, [1]))) == (
            Acceptor(
                PartialDfa(2, ("a", "b"), ((1, None), (1, None))),
                0,
                StateSet.from_iterable(2, [1]),
            )
        )
        # Started from its accepting sink, m2 keeps that state alone.
        assert minimize(Acceptor(m2(), 1, StateSet.from_iterable(2, [1]))) == (
            Acceptor(PartialDfa(1, ("a",), ((0,),)), 0, StateSet.full(1))
        )

    def test_empty_accepting_set_gives_empty_acceptor(self):
        assert minimize(Acceptor(m2(), 0, StateSet(2))).is_empty

    def test_language_preserved_on_random_acceptors(self):
        rng = random.Random(401)
        for _ in range(50):
            acc = random_acceptor(rng, max_states=6)
            minimal = minimize(acc)
            assert brute_language(minimal, 8) == brute_language(acc, 8)

    def test_minimize_is_idempotent(self):
        rng = random.Random(402)
        acceptors = [random_acceptor(rng, max_states=6) for _ in range(40)]
        acceptors += [random_permutation_acceptor(rng) for _ in range(20)]
        for acc in acceptors:
            once = minimize(acc)
            assert minimize(once) == once
            if once.is_empty:
                continue
            # Brzozowski: the determinized reversal of an accessible DFA is
            # minimal, and minimize numbers its states in the same order.
            reversal = determinize_reversal(once).acceptor
            assert minimize(reversal) == reversal


class TestDeterminizeReversal:
    def test_p2_reversal_is_the_swap(self):
        result = determinize_reversal(p2_acceptor())
        assert result.nodes == [0b01, 0b10]
        assert not result.is_empty
        assert result.as_dfa() is result.acceptor.dfa
        assert result.acceptor == Acceptor(p2(), 0, StateSet.from_iterable(2, [0]))
        assert result.is_strongly_connected()
        assert is_strongly_connected(result.acceptor.dfa)

    def test_m2_reversal_grows_then_stalls(self):
        result = determinize_reversal(m2_acceptor())
        assert result.nodes == [0b10, 0b11]
        assert result.acceptor.dfa.transitions[1][0] == 1

    def test_reverse_language_membership(self):
        rng = random.Random(403)
        for _ in range(30):
            acc = random_acceptor(rng, max_states=5, max_letters=2)
            reversal = determinize_reversal(acc)
            if not reversal.nodes:
                assert not acc.accepting
                continue
            reversed_acc = reversal.acceptor
            expected = {word[::-1] for word in brute_language(acc, 5)}
            assert brute_language(reversed_acc, 5) == expected

    def test_empty_accepting_set(self):
        for acceptor in (Acceptor(m2(), 0, StateSet(2)), Acceptor.empty(("a",))):
            result = determinize_reversal(acceptor)
            assert result.nodes == result.rows == []
            assert result.is_empty
            assert result.acceptor == Acceptor.empty(("a",))
            assert result.as_dfa() is result.acceptor.dfa
            with pytest.raises(ValueError, match="undefined for the empty automaton"):
                result.is_strongly_connected()

    def test_deciders_and_cli_never_build_the_reversal_acceptor(self, monkeypatch, tmp_path):
        def unbuilt(self):
            pytest.fail("the reversal's Acceptor was built")

        monkeypatch.setattr(SubsetAutomaton, "acceptor", property(unbuilt))
        rng = random.Random(409)
        acceptors = [reversal_blowup(6), p2_acceptor()]
        acceptors += [random_acceptor(rng, max_states=6) for _ in range(50)]
        verdicts = []
        for i, acc in enumerate(acceptors):
            verdict = is_birecurrent(acc)
            assert is_birecurrent_direct(acc) == verdict
            path = tmp_path / f"{i}.aut"
            path.write_text(serialize_automaton(acc.dfa, acc.initial, acc.accepting), "utf-8")
            for method in ("direct", "both"):
                assert main(["birecurrent", str(path), "--method", method]) == 1 - verdict
            verdicts.append(verdict)
        assert verdicts[:2] == [True, True] and False in verdicts

    # R_7 and R_15 have exactly 8 and 16 states: one and two full bytes.
    @pytest.mark.parametrize("n", [3, 6, 7, 9, 15])
    def test_direct_route_spends_one_unit_per_subset(self, n):
        budget = SearchBudget(1 << 20)
        assert is_birecurrent_direct(reversal_blowup(n), budget)
        assert budget.limit - budget.remaining == 2**n

    def test_budget_stops_the_subset_construction(self):
        with pytest.raises(BudgetExceededError):
            determinize_reversal(reversal_blowup(10), budget=100)

    def test_both_deciders_share_one_budget(self):
        acceptor = reversal_blowup(6)
        direct, char = SearchBudget(1 << 20), SearchBudget(1 << 20)
        is_birecurrent_direct(acceptor, direct)
        is_birecurrent_characterization(acceptor, char)
        shared = SearchBudget(1 << 20)
        assert is_birecurrent(acceptor, shared)
        spent = [b.limit - b.remaining for b in (direct, char, shared)]
        assert spent[2] == spent[0] + spent[1]


def _same_as_per_letter_loop(acceptor: Acceptor) -> int:
    """Check the packed construction against the per-letter reference and
    return the number of subsets."""
    packed, reference = SearchBudget(1 << 20), SearchBudget(1 << 20)
    result = determinize_reversal(acceptor, packed)
    nodes, rows = per_letter_reversal(acceptor, reference)
    assert result.nodes == nodes
    assert result.rows == rows
    assert packed.remaining == reference.remaining == packed.limit - len(nodes)
    return len(nodes)


def _log_expansions(monkeypatch, expanded, stop=None, error=None):
    """Make the reversal's compiled table log in ``expanded`` each subset
    it expands, and raise ``error`` at the expansion past the first
    ``stop`` ones.  Every subset of a reversal of at most 8 states is read
    in one lookup of the table's one chunk."""

    class Chunk(list):
        def __getitem__(self, mask):
            if len(expanded) == stop:
                raise error
            expanded.append(mask)
            return list.__getitem__(self, mask)

    def compile_tables(table):
        (chunk,) = padfa.core.byte_tables(table)
        return (Chunk(chunk),)

    monkeypatch.setattr(padfa.birecurrent, "byte_tables", compile_tables)


class TestPackedReversal:
    """One packed preimage table for all letters gives the nodes, rows and
    budget units of one table per letter."""

    def test_every_binary_acceptor_up_to_three_states(self):
        # The reversal never reads the initial state.
        acceptors = subsets = 0
        for dfa in binary_automata(3):
            for mask in range(1, 1 << dfa.state_count):
                subsets += _same_as_per_letter_loop(
                    Acceptor(dfa, 0, StateSet(dfa.state_count, mask))
                )
                acceptors += 1
        assert acceptors == 28_919
        assert subsets == 85_327

    def test_reversal_blowup_family(self):
        for n in range(1, 13):
            assert _same_as_per_letter_loop(reversal_blowup(n)) == 2**n

    # 7 to 9 and 16 to 17 states sit on either side of a byte boundary of
    # the table; 4 letters of 20 states make 80-bit table entries.
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 20])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_acceptors(self, n, k):
        rng = random.Random(1000 * n + k)
        subsets = []
        for _ in range(6):
            dfa = random_partial_dfa(rng, n, k, rng.uniform(0.5, 1.0))
            held = [s for s in range(n) if rng.random() < 0.45] or [n - 1]
            acceptor = Acceptor(dfa, 0, StateSet.from_iterable(n, held))
            subsets.append(_same_as_per_letter_loop(acceptor))
        assert max(subsets) > 1 or n == 1

    def test_budget_runs_out_at_the_same_subset(self):
        rng = random.Random(421)
        acceptors = [reversal_blowup(n) for n in (1, 5, 9)]
        acceptors += [random_acceptor(rng, max_states=9, max_letters=4) for _ in range(20)]
        for acceptor in acceptors:
            if not acceptor.accepting:
                continue
            subsets = len(determinize_reversal(acceptor).nodes)
            if subsets > 1:
                for build in (determinize_reversal, per_letter_reversal):
                    with pytest.raises(BudgetExceededError):
                        build(acceptor, SearchBudget(subsets - 1))
            for build in (determinize_reversal, per_letter_reversal):
                budget = SearchBudget(subsets)
                build(acceptor, budget)
                assert budget.remaining == 0

    def test_budget_runs_out_at_the_subset_past_it(self, monkeypatch):
        # The construction counts the budget in a local.  Spent a unit per
        # subset, as the per-letter reference does, the budget runs out at
        # the first subset past it: it is found while its parent, the first
        # subset whose row holds it, is expanded.
        acceptor, k = reversal_blowup(5), 3
        rows = determinize_reversal(acceptor).rows
        expanded = []
        _log_expansions(monkeypatch, expanded)
        for limit in range(1, 32):
            expanded.clear()
            message = f"^search budget of {limit} visited nodes exhausted$"
            budgets = SearchBudget(limit), SearchBudget(limit)
            for build, budget in zip((determinize_reversal, per_letter_reversal), budgets):
                with pytest.raises(BudgetExceededError, match=message):
                    build(acceptor, budget)
                assert budget.remaining == -1
            assert len(expanded) == rows.index(limit) // k + 1

    @pytest.mark.parametrize("expansions", [0, 1, 2, 7, 20])
    def test_budget_is_written_back_when_the_construction_raises(
        self, monkeypatch, expansions
    ):
        class Stop(Exception):
            pass

        acceptor, k = reversal_blowup(5), 3
        rows = determinize_reversal(acceptor).rows
        expanded = []
        _log_expansions(monkeypatch, expanded, expansions, Stop)
        budget = SearchBudget(1000)
        with pytest.raises(Stop):
            determinize_reversal(acceptor, budget)
        seen = 1 + max((node for node in rows[: expansions * k] if node is not None), default=0)
        assert budget.limit - budget.remaining == seen

    # (transitions, initial, accepting, subsets of the reversal, units of
    # the saturation search, verdict).  The config search runs in both: the
    # rank witness saturates neither accepting set.
    @pytest.mark.parametrize(
        "transitions, initial, accepting, subsets, saturation_units, verdict",
        [
            (((2, 0), (0, None), (3, 2), (1, 2)), 0, [1, 3], 12, 14, True),
            (((1, 2), (3, 1), (1, 4), (0, 4), (3, 0)), 0, [0, 1, 2, 4], 11, 41, False),
        ],
    )
    def test_reversal_and_saturation_add_up_on_one_budget(
        self, transitions, initial, accepting, subsets, saturation_units, verdict
    ):
        n = len(transitions)
        dfa = PartialDfa(n, ("a", "b"), transitions)
        acceptor = Acceptor(dfa, initial, StateSet.from_iterable(n, accepting))
        minimal = minimize(acceptor)
        assert len(determinize_reversal(minimal).nodes) == subsets
        alone = SearchBudget(1 << 20)
        find_saturating_min_rank_word(minimal.dfa, minimal.accepting, alone)
        assert alone.limit - alone.remaining == saturation_units
        units = subsets + saturation_units
        budget = SearchBudget(units)
        assert is_birecurrent(acceptor, budget) == verdict
        assert budget.remaining == 0
        for limit in (subsets - 1, subsets, units - 1):
            short = SearchBudget(limit)
            with pytest.raises(BudgetExceededError, match=f"^search budget of {limit} "):
                is_birecurrent(acceptor, short)
            assert short.remaining == -1

    def test_acceptor_without_letters(self):
        dfa = PartialDfa(3, (), ((), (), ()))
        acceptor = Acceptor(dfa, 0, StateSet.from_iterable(3, [0, 2]))
        result = determinize_reversal(acceptor)
        assert result.nodes == [0b101]
        assert result.rows == []
        assert result.is_strongly_connected()
        assert _same_as_per_letter_loop(acceptor) == 1


class TestBirecurrenceDeciders:
    def test_permutation_acceptor_is_birecurrent(self):
        assert is_birecurrent_direct(p2_acceptor())
        assert is_birecurrent_characterization(p2_acceptor())

    def test_m2_not_strongly_connected(self):
        assert not is_birecurrent_direct(m2_acceptor())
        assert not is_birecurrent_characterization(m2_acceptor())

    def test_empty_language_not_birecurrent(self):
        empty = Acceptor(m2(), 0, StateSet(2))
        assert not is_birecurrent_direct(empty)
        assert not is_birecurrent_characterization(empty)
        assert not is_birecurrent(empty)

    def test_single_state_epsilon_language(self):
        # One accepting state and no transitions: both trivial automata are
        # strongly connected, so the formal definition says birecurrent.
        acc = Acceptor(PartialDfa(1, ("a",), ((None,),)), 0, StateSet.full(1))
        assert is_birecurrent(acc)

    def test_saturation_gadget_of_no_instance_with_all_states_accepting(self):
        gadget, _ = build_saturation_gadget(disjoint_instance())
        acc = Acceptor(gadget, 0, StateSet.full(gadget.state_count))
        assert not is_birecurrent_characterization(acc)
        assert not is_birecurrent(acc)


class TestCombinedRoute:
    def test_is_birecurrent_minimizes_once(self, monkeypatch):
        calls = []

        def counting(acceptor):
            calls.append(acceptor)
            return minimize(acceptor)

        monkeypatch.setattr(padfa.birecurrent, "minimize", counting)
        rng = random.Random(407)
        acceptors = [p2_acceptor(), m2_acceptor(), reversal_blowup(5)]
        acceptors += [random_acceptor(rng, max_states=6) for _ in range(20)]
        for acc in acceptors:
            calls.clear()
            is_birecurrent(acc)
            assert calls == [acc]

    def test_row_table_check_is_strong_connectivity_of_the_reversal(self):
        rng = random.Random(408)
        acceptors = [random_acceptor(rng, max_states=7) for _ in range(240)]
        acceptors += [random_permutation_acceptor(rng) for _ in range(60)]
        acceptors += [reversal_blowup(n) for n in range(1, 11)]
        outcomes = []
        for acc in acceptors:
            # The check holds for any acceptor with accepting states, not
            # only for minimal ones, so both are compared.
            for candidate in (acc, minimize(acc)):
                if candidate.is_empty or not candidate.accepting:
                    continue
                budget = SearchBudget(1 << 20)
                reversal = determinize_reversal(candidate, budget)
                fast = reversal.is_strongly_connected()
                assert fast == is_strongly_connected(reversal.acceptor.dfa)
                assert budget.limit - budget.remaining == len(reversal.nodes)
                outcomes.append(fast)
        assert len(outcomes) >= 300
        assert True in outcomes and False in outcomes

    def test_characterization_compiles_each_letter_table_once(self, monkeypatch):
        calls = []
        compile_tables = padfa.core.byte_tables

        def counting(table):
            calls.append(tuple(table))
            return compile_tables(table)

        users = [
            module
            for module in vars(padfa).values()
            if module is not padfa.core
            and getattr(module, "byte_tables", None) is compile_tables
        ]
        assert padfa.rank in users and padfa.saturate in users
        assert padfa.birecurrent in users
        for module in users:
            monkeypatch.setattr(module, "byte_tables", counting)
        for acc in (p2_acceptor(), reversal_blowup(6)):
            k = acc.dfa.letter_count
            calls.clear()
            assert is_birecurrent_characterization(acc)
            assert len(calls) == k
            assert len(set(calls)) == k
            # The direct route compiles one packed preimage table for all
            # letters.
            calls.clear()
            assert is_birecurrent_direct(acc)
            assert len(calls) == 1
            calls.clear()
            assert is_birecurrent(acc)
            assert len(calls) == k + 1


def test_methods_agree_on_random_acceptors():
    rng = random.Random(404)
    for _ in range(80):
        acc = random_acceptor(rng, max_states=6)
        assert is_birecurrent_direct(acc) == is_birecurrent_characterization(acc)


def test_deciders_agree_on_every_binary_acceptor_up_to_three_states():
    # is_birecurrent raises MethodDisagreement if the deciders differ.
    acceptors = verdicts = 0
    for dfa in binary_automata(3):
        for mask in range(1, 1 << dfa.state_count):
            acceptor = Acceptor(dfa, 0, StateSet(dfa.state_count, mask))
            acceptors += 1
            verdicts += is_birecurrent(acceptor)
    assert acceptors == 4 * 1 + 3**4 * 3 + 4**6 * 7 == 28_919
    assert verdicts == 12_526


def test_permutation_acceptors_always_birecurrent():
    rng = random.Random(405)
    for _ in range(40):
        acc = random_permutation_acceptor(rng)
        assert is_birecurrent(acc)


def test_birecurrence_invariant_under_reversal():
    rng = random.Random(406)
    for _ in range(40):
        acc = random_acceptor(rng, max_states=5, max_letters=2)
        minimal = minimize(acc)
        if minimal.is_empty:
            continue
        reversed_acc = determinize_reversal(minimal).acceptor
        assert is_birecurrent(acc) == is_birecurrent(reversed_acc)


def test_gadgets_are_birecurrent_iff_the_instance_has_a_common_word():
    # The paper's theorem, read on each gadget as an acceptor from state 0:
    # the sc gadget with every state accepting, also as a binary partial
    # DFA, and the complete gadget accepting its distinguished set, also
    # binarized into a binary complete DFA.
    rng = random.Random(407)
    instances = [disjoint_instance(), parity_instance()]
    wanted = {True: 10, False: 10}
    while any(wanted.values()):
        instance = random_complete_gadget_instance(rng, total_states=4)
        expected = has_common_word(instance) is not None
        if wanted[expected]:
            wanted[expected] -= 1
            instances.append(instance)
    for instance in instances:
        expected = has_common_word(instance) is not None
        sc, _ = build_sc_gadget(instance)
        selfloop, _ = binarize_with_selfloop(sc)
        complete, layout, distinguished = build_complete_gadget(instance)
        binary, _ = binarize(complete, layout.meta["reset_letter"])
        columns = complete.letter_count
        copies = [state * columns + c for state in distinguished for c in range(columns)]
        assert selfloop.letter_count == binary.letter_count == 2
        assert complete.is_complete() and binary.is_complete()
        readings = [
            Acceptor(sc, 0, StateSet.full(sc.state_count)),
            Acceptor(selfloop, 0, StateSet.full(selfloop.state_count)),
            Acceptor(complete, 0, distinguished),
            Acceptor(binary, 0, StateSet.from_iterable(binary.state_count, copies)),
        ]
        assert [is_birecurrent(reading) for reading in readings] == [expected] * 4
