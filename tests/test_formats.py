import random
import re
import tracemalloc

import pytest

import padfa.formats
from padfa import Acceptor, IntersectionInstance, PartialDfa, StateSet
from padfa.formats import (
    ParseError,
    parse_automaton,
    parse_instance,
    serialize_automaton,
    to_dot,
)

from support import c4, m2, p2, random_instance, random_partial_dfa, serialize_instance

M2_TEXT = """\
# two states funneling into 1
states: 2
alphabet: a
initial: 0
accepting: 1
trans: 0 a 1
trans: 1 a 1
"""


class TestParseAutomaton:
    def test_basic_file(self):
        loaded = parse_automaton(M2_TEXT)
        assert loaded.dfa == m2()
        assert loaded.initial == 0
        assert loaded.accepting == StateSet.from_iterable(2, [1])

    def test_optional_headers_absent(self):
        loaded = parse_automaton("states: 2\nalphabet: a\ntrans: 0 a 1\n")
        assert loaded.initial is None
        assert loaded.accepting is None
        with pytest.raises(ParseError):
            loaded.require_acceptor()

    def test_empty_accepting_line_is_empty_set(self):
        loaded = parse_automaton("states: 1\nalphabet: a\ninitial: 0\naccepting:\n")
        assert loaded.accepting == StateSet(1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("states: 1\nalphabet: a\ncolor: blue\n")

    def test_duplicate_transition_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton(
                "states: 2\nalphabet: a\ntrans: 0 a 1\ntrans: 0 a 0\n"
            )

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("states: 1\nalphabet: a\ntrans: 0 a 5\n")

    def test_unknown_letter_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("states: 1\nalphabet: a\ntrans: 0 b 0\n")

    def test_missing_states_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("alphabet: a\n")

    def test_non_integer_index_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("states: x\nalphabet: a\n")


    def test_declared_states_without_transitions_stay_small(self):
        # States with no transition share one all-undefined row.
        tracemalloc.start()
        try:
            loaded = parse_automaton("states: 100000\nalphabet: a\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.dfa.state_count == 100000
        assert loaded.dfa.transitions[99999] == (None,)
        assert peak < 4 * 2**20

    def test_declared_state_count_is_capped(self):
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_automaton("states: 10000000\nalphabet: a\n")
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_instance(
                "alphabet: a\nmachine:\nstates: 10000000\ninitial: 0\n"
            )

    def test_state_count_at_the_cap_parses(self, monkeypatch):
        monkeypatch.setattr(padfa.formats, "MAX_STATES", 5)
        # Isolated states below the cap still count as states.
        assert parse_automaton("states: 5\nalphabet: a\n").dfa.state_count == 5
        with pytest.raises(ParseError):
            parse_automaton("states: 6\nalphabet: a\n")


# A complete one-letter machine, every index of which is read by _parse_int.
MACHINE = "states: 10\ninitial: 0\naccepting: 3\n" + "".join(
    f"trans: {s} a 3\n" for s in range(10)
)


@pytest.mark.parametrize(
    "valid, spelled",
    [
        ("states: 10", "states: 1_0"),
        ("initial: 0", "initial: +0"),
        ("accepting: 3", "accepting: \u0663"),
        ("trans: 0 a 3", "trans: 0 a \uff13"),
    ],
)
def test_indices_are_ascii_digits_only(valid, spelled):
    # int() reads each spelling as the valid index, which a file would then
    # be written back with.
    machine = MACHINE.replace(valid + "\n", spelled + "\n")
    assert machine != MACHINE
    assert parse_automaton("alphabet: a\n" + MACHINE).dfa.state_count == 10
    assert len(parse_instance("alphabet: a\nmachine:\n" + MACHINE).machines) == 1
    with pytest.raises(ParseError, match="must be a decimal number"):
        parse_automaton("alphabet: a\n" + machine)
    with pytest.raises(ParseError, match="must be a decimal number"):
        parse_instance("alphabet: a\nmachine:\n" + machine)


class TestRoundTrip:
    def test_corpus_of_twenty_files(self):
        rng = random.Random(601)
        corpus = [
            (m2(), 0, StateSet.from_iterable(2, [1])),
            (p2(), 0, StateSet.from_iterable(2, [0])),
            (p2(), None, None),
            (c4(), None, None),
        ]
        while len(corpus) < 20:
            n = rng.randint(1, 7)
            dfa = random_partial_dfa(rng, n, rng.randint(1, 3), rng.uniform(0.2, 1.0))
            if rng.random() < 0.5:
                corpus.append((dfa, None, None))
            else:
                members = [s for s in range(n) if rng.random() < 0.5]
                corpus.append(
                    (dfa, rng.randrange(n), StateSet.from_iterable(n, members))
                )
        for dfa, initial, accepting in corpus:
            text = serialize_automaton(dfa, initial, accepting)
            loaded = parse_automaton(text)
            assert loaded.dfa == dfa
            assert loaded.initial == initial
            assert loaded.accepting == accepting
            assert serialize_automaton(loaded.dfa, loaded.initial, loaded.accepting) == text

    def test_instances_round_trip(self):
        rng = random.Random(602)
        for _ in range(10):
            instance = random_instance(rng)
            text = serialize_instance(instance)
            assert parse_instance(text).machines == instance.machines

    def test_acceptor_serializer(self):
        acc = Acceptor(m2(), 0, StateSet.from_iterable(2, [1]))
        text = serialize_automaton(acc.dfa, acc.initial, acc.accepting)
        assert parse_automaton(text).require_acceptor() == acc

    @pytest.mark.parametrize("name", ["a b", "a\nb", "a\tb", "\u2028"])
    def test_letter_names_with_whitespace_are_not_written(self, name):
        # The file format separates names by whitespace, so such a file
        # would not parse back.
        dfa = PartialDfa(1, (name,), ((0,),))
        with pytest.raises(ValueError, match="whitespace"):
            serialize_automaton(dfa)
        instance = IntersectionInstance((Acceptor(dfa, 0, StateSet(1)),))
        with pytest.raises(ValueError, match="whitespace"):
            serialize_instance(instance)


class TestParseInstance:
    def test_must_start_with_alphabet(self):
        with pytest.raises(ParseError):
            parse_instance("machine:\nstates: 1\ninitial: 0\n")

    def test_machine_needs_initial(self):
        with pytest.raises(ParseError):
            parse_instance("alphabet: a\nmachine:\nstates: 1\ntrans: 0 a 0\n")

    def test_incomplete_machine_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("alphabet: a\nmachine:\nstates: 1\ninitial: 0\n")

    def test_machine_cannot_redeclare_alphabet(self):
        with pytest.raises(ParseError):
            parse_instance(
                "alphabet: a\nmachine:\nstates: 1\ninitial: 0\n"
                "alphabet: b\ntrans: 0 a 0\n"
            )


class TestDot:
    def test_shapes_and_edges(self):
        loaded = parse_automaton(M2_TEXT)
        dot = to_dot(loaded)
        assert dot.startswith("digraph")
        assert "1 [shape=doublecircle];" in dot
        assert "0 [shape=circle];" in dot
        assert "__start -> 0;" in dot
        assert '0 -> 1 [label="a"];' in dot

    def test_undefined_transitions_omitted(self):
        loaded = parse_automaton("states: 2\nalphabet: a\ntrans: 0 a 1\n")
        dot = to_dot(loaded)
        assert "1 ->" not in dot
        assert "__start" not in dot

    def test_parallel_edges_share_a_label(self):
        text = "states: 1\nalphabet: a b\ntrans: 0 a 0\ntrans: 0 b 0\n"
        dot = to_dot(parse_automaton(text))
        assert '0 -> 0 [label="a, b"];' in dot


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_automaton,
            "states: 1\nalphabet: a\ntrans: 0 a\n",
            "line 3: expected 'trans: <src> <letter> <dst>'",
        ),
        (parse_automaton, "states: 1\n", "missing 'alphabet:' line"),
        (
            parse_automaton,
            "states: 1\nalphabet: a\ntrans: 1 a 0\n",
            "line 3: source state 1 out of range",
        ),
        (
            parse_automaton,
            "states: 1\nalphabet: a\naccepting: 0 1\n",
            "line 3: accepting state 1 out of range",
        ),
        (
            parse_automaton,
            "states: 1\nalphabet: a\n# the initial state\ninitial: 5\n",
            "line 4: initial state 5 out of range",
        ),
        (
            parse_automaton,
            "states: 3\nalphabet: a\naccepting: 2 0 2\n",
            "line 3: duplicate accepting state 2",
        ),
        (
            parse_instance,
            "alphabet: a\nmachine:\nstates: 2\ninitial: 0\naccepting: 1 1\n"
            "trans: 0 a 1\ntrans: 1 a 1\n",
            "line 5: duplicate accepting state 1",
        ),
        (parse_automaton, "states: 1\nalphabet: a a\n", "line 2: duplicate letter names"),
        (
            parse_instance,
            "alphabet: a a\nmachine:\nstates: 1\n",
            "line 1: duplicate letter names",
        ),
        (
            parse_instance,
            "alphabet: a\nmachine: x\n",
            "line 2: 'machine:' takes no value",
        ),
        (
            parse_instance,
            "alphabet: a\n",
            "instance files need at least one 'machine:' block",
        ),
    ],
    ids=[
        "trans-fields",
        "no-alphabet",
        "source",
        "accepting",
        "initial",
        "accepting-twice",
        "machine-accepting-twice",
        "letter-twice",
        "instance-letter-twice",
        "machine-value",
        "no-machine",
    ],
)
def test_parsers_reject_bad_input(parse, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)
