import random
import re
from itertools import product

import pytest

import padfa.core
import padfa.gadgets
from padfa import (
    Acceptor,
    IntersectionInstance,
    PartialDfa,
    StateSet,
    binarize,
    binarize_with_selfloop,
    build_complete_gadget,
    build_saturation_gadget,
    build_sc_gadget,
    build_sync_gadget,
    exact_rank,
    find_saturating_min_rank_word,
    has_common_word,
    is_saturated_by,
    is_strongly_connected,
    is_synchronizing,
    pair_automaton,
    strongly_connect_gadget,
)

from support import (
    disjoint_instance,
    ends_with_letter,
    m2,
    p2,
    random_complete_gadget_instance,
    random_instance,
    random_saturation_instance,
)


def one_state_universal() -> Acceptor:
    return Acceptor(
        PartialDfa.from_map(1, ["a", "b"], {(0, "a"): 0, (0, "b"): 0}),
        0,
        StateSet.full(1),
    )


def yes_instance() -> IntersectionInstance:
    contains_b = Acceptor(
        PartialDfa.from_map(
            2, ["a", "b"], {(0, "a"): 0, (0, "b"): 1, (1, "a"): 1, (1, "b"): 1}
        ),
        0,
        StateSet.from_iterable(2, [1]),
    )
    return IntersectionInstance((ends_with_letter("a"), contains_b))


class TestHasCommonWord:
    def test_initial_accepting_gives_empty_word(self):
        assert has_common_word(IntersectionInstance((one_state_universal(),))) == ()

    def test_disjoint_languages(self):
        assert has_common_word(disjoint_instance()) is None

    def test_shortest_common_word(self):
        word = has_common_word(yes_instance())
        assert word == (1, 0)  # "ba": contains b, ends with a

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(501)
        alphabet = ("a", "b")
        for _ in range(25):
            instance = random_instance(rng, max_machines=2, max_states=3)
            found = has_common_word(instance)
            horizon = 9  # product automaton has at most 9 states
            exhaustive = None
            for length in range(horizon + 1):
                for word in product(range(2), repeat=length):
                    # The machines are complete, so every run ends in a state.
                    if all(
                        m.dfa.run(m.initial, word) in m.accepting
                        for m in instance.machines
                    ):
                        exhaustive = word
                        break
                if exhaustive is not None:
                    break
            assert found == exhaustive

    def test_incomplete_machine_rejected(self):
        with pytest.raises(ValueError):
            IntersectionInstance(
                (Acceptor(PartialDfa.from_map(1, ["a"], {}), 0, StateSet.full(1)),)
            )

    def test_mismatched_alphabets_rejected(self):
        a_only = Acceptor(
            PartialDfa.from_map(1, ["a"], {(0, "a"): 0}), 0, StateSet.full(1)
        )
        with pytest.raises(ValueError):
            IntersectionInstance((one_state_universal(), a_only))

    def test_instance_type_lives_in_core(self):
        # One class, reachable from the package, ``core`` and ``gadgets``.
        assert IntersectionInstance is padfa.core.IntersectionInstance
        assert IntersectionInstance is padfa.gadgets.IntersectionInstance


class TestSyncGadget:
    def test_state_arithmetic_for_trivial_instance(self):
        gadget, layout = build_sync_gadget(
            IntersectionInstance((one_state_universal(),))
        )
        # input machine + appended universal machine + both sinks
        assert gadget.state_count == 4
        assert set(layout.special_states) == {"accept_sink", "reject_sink"}
        assert len(gadget.alphabet) == 4

    def test_yes_instance_reset_word_check_synchronizes(self):
        instance = yes_instance()
        gadget, layout = build_sync_gadget(instance)
        word = has_common_word(instance)
        reset = layout.letter_map[layout.meta["reset_letter"]]
        check = layout.letter_map[layout.meta["check_letter"]]
        staged = (reset,) + word + (check,)
        full = StateSet.full(gadget.state_count).mask
        assert gadget.image_mask(full, staged).bit_count() == 1
        ok, _ = is_synchronizing(gadget)
        assert ok

    def test_no_instance_not_synchronizing(self):
        gadget, _ = build_sync_gadget(disjoint_instance())
        ok, witness = is_synchronizing(gadget)
        assert not ok and witness is None

    def test_added_letter_names_avoid_collisions(self):
        machine = Acceptor(
            PartialDfa.from_map(
                1, ["reset", "check"], {(0, "reset"): 0, (0, "check"): 0}
            ),
            0,
            StateSet.full(1),
        )
        gadget, layout = build_sync_gadget(IntersectionInstance((machine,)))
        assert layout.meta["reset_letter"] == "reset2"
        assert layout.meta["check_letter"] == "check2"
        assert len(set(gadget.alphabet)) == len(gadget.alphabet)

    def test_reduction_soundness_on_random_instances(self):
        rng = random.Random(502)
        verdicts = set()
        for _ in range(40):
            instance = random_instance(rng, max_machines=3, max_states=3)
            gadget, _ = build_sync_gadget(instance)
            expected = has_common_word(instance) is not None
            assert is_synchronizing(gadget)[0] == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestSaturationGadget:
    def test_rank_is_always_one(self):
        rng = random.Random(503)
        for _ in range(20):
            instance = random_saturation_instance(rng)
            gadget, _ = build_saturation_gadget(instance)
            total = sum(m.dfa.state_count for m in instance.machines)
            assert gadget.state_count == total + 1
            assert len(gadget.alphabet) == len(instance.alphabet) + 2
            assert exact_rank(gadget).rank == 1

    def test_yes_instance_whole_set_saturates(self):
        gadget, layout = build_saturation_gadget(yes_instance())
        word = find_saturating_min_rank_word(gadget, StateSet.full(gadget.state_count))
        assert word is not None
        # The staged reset-word-check witness saturates as well.
        common = has_common_word(yes_instance())
        reset = layout.letter_map[layout.meta["reset_letter"]]
        check = layout.letter_map[layout.meta["check_letter"]]
        staged = (reset,) + common + (check,)
        full = StateSet.full(gadget.state_count)
        assert is_saturated_by(gadget, full, staged)
        assert gadget.image_mask(full.mask, staged).bit_count() == 1

    def test_no_instance_never_saturates(self):
        gadget, _ = build_saturation_gadget(disjoint_instance())
        assert find_saturating_min_rank_word(gadget, StateSet.full(gadget.state_count)) is None

    def test_unreachable_accepting_state_rejected(self):
        trap = Acceptor(
            PartialDfa.from_map(
                2, ["a", "b"], {(0, "a"): 0, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1}
            ),
            0,
            StateSet.from_iterable(2, [1]),
        )
        with pytest.raises(ValueError):
            build_saturation_gadget(IntersectionInstance((trap,)))

    def test_reduction_soundness_on_random_instances(self):
        rng = random.Random(504)
        verdicts = set()
        instances = [disjoint_instance()] + [
            random_saturation_instance(rng) for _ in range(30)
        ]
        for instance in instances:
            gadget, _ = build_saturation_gadget(instance)
            expected = has_common_word(instance) is not None
            found = find_saturating_min_rank_word(
                gadget, StateSet.full(gadget.state_count)
            )
            assert (found is not None) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestStronglyConnectGadget:
    def test_already_connected_input_unchanged(self):
        dfa = p2()
        result, layout = strongly_connect_gadget(dfa, 0)
        assert result == dfa
        assert layout.meta["targets"] == []

    def test_hub_unreachable_from_some_state_rejected(self):
        with pytest.raises(ValueError):
            strongly_connect_gadget(m2(), 0)  # state 1 never reaches 0

    def test_sc_gadget_merges_both_layouts(self):
        instance = random_saturation_instance(random.Random(511))
        base, base_layout = build_saturation_gadget(instance)
        sink = base_layout.special_states["accept_sink"]
        jumped, jump_layout = strongly_connect_gadget(base, sink)
        gadget, layout = build_sc_gadget(instance)
        assert gadget == jumped
        assert layout.state_map == base_layout.state_map
        assert layout.special_states == {"accept_sink": sink, "hub": sink}
        assert layout.letter_map == {**base_layout.letter_map, **jump_layout.letter_map}
        assert layout.meta == {**base_layout.meta, "targets": jump_layout.meta["targets"]}

    def test_saturation_gadget_becomes_strongly_connected(self):
        rng = random.Random(505)
        for _ in range(20):
            gadget, layout = build_saturation_gadget(random_saturation_instance(rng))
            connected, _ = strongly_connect_gadget(
                gadget, layout.special_states["accept_sink"]
            )
            assert is_strongly_connected(connected)

    def test_verdict_and_rank_preserved(self):
        rng = random.Random(506)
        for _ in range(20):
            instance = random_saturation_instance(rng)
            gadget, layout = build_saturation_gadget(instance)
            connected, _ = strongly_connect_gadget(
                gadget, layout.special_states["accept_sink"]
            )
            assert exact_rank(connected).rank == 1
            before = find_saturating_min_rank_word(
                gadget, StateSet.full(gadget.state_count)
            )
            after = find_saturating_min_rank_word(
                connected, StateSet.full(connected.state_count)
            )
            assert (before is None) == (after is None)


class TestBinarize:
    def test_state_arithmetic(self):
        dfa = PartialDfa(5, ("w", "x", "y", "z"), tuple(((None,) * 4,) * 5))
        binary, _ = binarize(dfa, "z")
        assert binary.state_count == 20
        assert binary.alphabet == ("0", "1")

    def test_advance_then_apply_realizes_last_letter(self):
        rng = random.Random(507)
        instance = random_saturation_instance(rng)
        gadget, layout = build_saturation_gadget(instance)
        reset_name = layout.meta["reset_letter"]
        binary, blayout = binarize(gadget, reset_name)
        columns = gadget.letter_count
        word = (0,) * (columns - 1) + (1,)
        full = StateSet.full(binary.state_count)
        image = StateSet(binary.state_count, binary.image_mask(full.mask, word))
        reset = gadget.letter_index(reset_name)
        expected_states = {
            target
            for s in range(gadget.state_count)
            if (target := gadget.transitions[s][reset]) is not None
        }
        expected = {blayout.state_map[(0, q)] for q in expected_states}
        assert set(image) == expected

    def test_strong_connectivity_preserved_with_total_last_letter(self):
        rng = random.Random(508)
        for _ in range(10):
            instance = random_saturation_instance(rng)
            gadget, layout = build_saturation_gadget(instance)
            connected, _ = strongly_connect_gadget(
                gadget, layout.special_states["accept_sink"]
            )
            binary, _ = binarize(connected, layout.meta["reset_letter"])
            assert is_strongly_connected(binary)

    def test_unknown_last_letter_rejected(self):
        with pytest.raises(ValueError):
            binarize(p2(), "nope")

    def test_selfloop_variant_state_arithmetic(self):
        binary, layout = binarize_with_selfloop(m2())
        assert binary.state_count == 4  # 2 states x (1 letter + the self-loop)
        assert layout.meta["selfloop_letter"] == "stay"

    def test_layouts_are_frozen(self):
        _, layout = binarize_with_selfloop(m2())
        with pytest.raises(AttributeError, match="'meta': GadgetLayout is a frozen record"):
            layout.meta = {}

    def test_selfloop_variant_preserves_synchronization(self):
        rng = random.Random(509)
        for _ in range(12):
            instance = random_instance(rng, max_machines=2, max_states=2)
            gadget, _ = build_sync_gadget(instance)
            binary, _ = binarize_with_selfloop(gadget)
            assert is_synchronizing(binary)[0] == is_synchronizing(gadget)[0]

    def test_selfloop_variant_preserves_permutation_rank(self):
        rng = random.Random(510)
        for _ in range(10):
            n = rng.randint(1, 4)
            perm = list(range(n))
            rng.shuffle(perm)
            dfa = PartialDfa(n, ("a",), tuple((perm[s],) for s in range(n)))
            binary, _ = binarize_with_selfloop(dfa)
            assert exact_rank(binary).rank == exact_rank(dfa).rank == n


class TestCompleteGadget:
    def test_structure_and_rank(self):
        gadget, layout, distinguished = build_complete_gadget(yes_instance())
        base_states = 2 + 2 + 1  # machines plus the accept sink
        assert gadget.state_count == 2 * base_states + 2
        jumps = len(layout.meta["targets"])
        assert len(gadget.alphabet) == 2 + 2 + jumps  # base, reset+check, jumps
        assert gadget.is_complete()
        assert is_strongly_connected(gadget)
        result = exact_rank(gadget)
        assert result.rank == 2
        assert result.word_length == 1
        assert len(distinguished) == base_states + 1

    def test_twin_pairs_never_merge(self):
        gadget, layout, _ = build_complete_gadget(yes_instance())
        pa = pair_automaton(gadget)
        dist = pa.merge_policy()[0]
        for state, twin in layout.meta["twin_of"].items():
            assert dist[pa.node_of[state][twin]] is None

    def test_yes_instance_staged_witness(self):
        instance = yes_instance()
        gadget, layout, distinguished = build_complete_gadget(instance)
        word = has_common_word(instance)
        reset = layout.letter_map[layout.meta["reset_letter"]]
        check = layout.letter_map[layout.meta["check_letter"]]
        jump = layout.letter_map["jump1"]
        full = StateSet.full(gadget.state_count)
        with_check = (reset,) + word + (check, jump)
        assert is_saturated_by(gadget, distinguished, with_check)
        assert gadget.image_mask(full.mask, with_check).bit_count() == 2
        # Skipping the check letter leaves the two copies' images overlapping.
        without_check = (reset,) + word + (jump,)
        assert not is_saturated_by(gadget, distinguished, without_check)

    def test_reduction_soundness_on_random_instances(self):
        rng = random.Random(511)
        verdicts = set()
        instances = [disjoint_instance()] + [
            random_complete_gadget_instance(rng) for _ in range(15)
        ]
        for instance in instances:
            gadget, _, distinguished = build_complete_gadget(instance)
            expected = has_common_word(instance) is not None
            found = find_saturating_min_rank_word(gadget, distinguished)
            assert (found is not None) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_universal_machine_rejected(self):
        with pytest.raises(ValueError):
            build_complete_gadget(IntersectionInstance((one_state_universal(),)))

    def test_unreachable_state_rejected(self):
        lopsided = Acceptor(
            PartialDfa.from_map(
                2, ["a", "b"], {(0, "a"): 0, (0, "b"): 0, (1, "a"): 0, (1, "b"): 0}
            ),
            0,
            StateSet.from_iterable(2, [0]),
        )
        with pytest.raises(ValueError):
            build_complete_gadget(IntersectionInstance((lopsided,)))


def _unable_to_accept() -> IntersectionInstance:
    """A complete machine whose state 1 never reaches its accepting state 0."""
    dfa = PartialDfa(2, ("a",), ((1,), (1,)))
    return IntersectionInstance((Acceptor(dfa, 0, StateSet.from_iterable(2, [0])),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: strongly_connect_gadget(m2(), 2), "hub state 2 out of range"),
        (lambda: strongly_connect_gadget(m2(), True), "hub state True out of range"),
        (lambda: strongly_connect_gadget(m2(), 1.0), "hub state 1.0 out of range"),
        (
            lambda: build_complete_gadget(_unable_to_accept()),
            "machine 0: some state cannot reach an accepting state",
        ),
    ],
)
def test_gadgets_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
