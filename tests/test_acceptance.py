"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every family is generated from a fixed seed, so the suite is
deterministic.
"""

import contextlib
import io
import json
import random
import time

from padfa import (
    StateSet,
    binarize,
    build_complete_gadget,
    build_saturation_gadget,
    build_sc_gadget,
    build_sync_gadget,
    exact_rank,
    find_saturating_min_rank_word,
    has_common_word,
    is_birecurrent,
    is_birecurrent_characterization,
    is_birecurrent_direct,
    is_strongly_connected,
    is_synchronizing,
    min_rank_word_sc,
    minimize,
    pair_automaton,
    rank_word_length_bound,
)
from padfa.cli import main
from padfa.formats import parse_automaton, serialize_automaton

from bruteforce import brute_language, brute_rank, brute_saturating_word
from support import (
    c4,
    disjoint_instance,
    m2,
    p2,
    parity_instance,
    random_acceptor,
    random_complete_gadget_instance,
    random_instance,
    random_partial_dfa,
    random_permutation_acceptor,
    random_saturation_instance,
    random_sc_dfa,
    serialize_instance,
)


def _report(number: int, description: str) -> None:
    print(f"\ncriterion {number}: PASS - {description}")


def _cli(*argv: str) -> int:
    """Run the CLI with its stdout swallowed; only the exit code matters here."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def _sc_family(seed: int, count: int):
    rng = random.Random(seed)
    return [random_sc_dfa(rng, max_states=8, max_letters=3) for _ in range(count)]


def test_criterion_1_rank_agreement():
    start = time.monotonic()
    family = _sc_family(1001, 200)
    for dfa in family:
        assert min_rank_word_sc(dfa).rank == exact_rank(dfa).rank
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(1, f"polynomial and subset-search ranks agree on 200 automata "
               f"({elapsed:.2f}s)")


def test_criterion_2_length_bound():
    family = _sc_family(1002, 200)
    for dfa in family:
        result = exact_rank(dfa)
        bound = rank_word_length_bound(dfa.state_count, result.rank)
        assert result.word_length <= bound
    cerny = exact_rank(c4())
    assert cerny.rank == 1
    assert cerny.word_length == 9
    assert rank_word_length_bound(4, 1) == 24
    _report(2, "shortest minimum-rank witnesses stay within the length bound; "
               "4-state cycle point: 9 <= 24")


def test_criterion_3_sync_reduction():
    start = time.monotonic()
    rng = random.Random(1003)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        instance = random_instance(rng, max_machines=3, max_states=3)
        expected = has_common_word(instance) is not None
        gadget, _ = build_sync_gadget(instance)
        assert is_synchronizing(gadget)[0] == expected
        verdicts[expected] += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert verdicts[True] and verdicts[False]
    _report(3, f"synchronization gadget matches the intersection oracle on "
               f"100 instances ({verdicts[True]} yes / {verdicts[False]} no, "
               f"{elapsed:.2f}s)")


def test_criterion_4_saturation_reduction():
    rng = random.Random(1004)
    verdicts = {True: 0, False: 0}
    instances = [disjoint_instance(), parity_instance()]
    instances += [
        random_saturation_instance(rng, max_machines=2, max_states=3)
        for _ in range(98)
    ]
    for instance in instances:
        expected = has_common_word(instance) is not None
        gadget, _ = build_saturation_gadget(instance)
        found = find_saturating_min_rank_word(
            gadget, StateSet.full(gadget.state_count)
        )
        assert (found is not None) == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]
    _report(4, f"whole-set saturation in the gadget matches the oracle on "
               f"100 instances ({verdicts[True]} yes / {verdicts[False]} no)")


def test_criterion_5_strongly_connected_and_binary_pipeline():
    rng = random.Random(1005)
    verdicts = {True: 0, False: 0}
    instances = [disjoint_instance(), parity_instance()]
    instances += [
        random_saturation_instance(rng, max_machines=2, max_states=2)
        for _ in range(48)
    ]
    for instance in instances:
        expected = has_common_word(instance) is not None
        connected, layout = build_sc_gadget(instance)
        assert is_strongly_connected(connected)
        sc_found = find_saturating_min_rank_word(
            connected, StateSet.full(connected.state_count)
        )
        assert (sc_found is not None) == expected

        binary, _ = binarize(connected, layout.meta["reset_letter"])
        assert binary.alphabet == ("0", "1")
        assert is_strongly_connected(binary)
        bin_found = find_saturating_min_rank_word(
            binary, StateSet.full(binary.state_count)
        )
        assert (bin_found is not None) == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]
    _report(5, f"strongly connected and binary gadgets preserve the verdict on "
               f"50 instances ({verdicts[True]} yes / {verdicts[False]} no)")


def test_criterion_6_complete_gadget():
    rng = random.Random(1006)
    verdicts = {True: 0, False: 0}
    instances = [disjoint_instance(), parity_instance()]
    instances += [
        random_complete_gadget_instance(rng, total_states=5) for _ in range(28)
    ]
    for instance in instances:
        expected = has_common_word(instance) is not None
        gadget, layout, distinguished = build_complete_gadget(instance)
        assert gadget.is_complete()
        # Copy 0 extends the sc gadget, and every letter commutes with the
        # twin pairing.
        sc, _ = build_sc_gadget(instance)
        assert gadget.alphabet == sc.alphabet
        for state, row in enumerate(sc.transitions):
            for target, completed in zip(row, gadget.transitions[state]):
                assert target is None or completed == target
        twin = dict(layout.meta["twin_of"])
        twin.update({b: a for a, b in layout.meta["twin_of"].items()})
        assert sorted(twin) == list(range(gadget.state_count))
        for state, row in enumerate(gadget.transitions):
            assert gadget.transitions[twin[state]] == tuple(twin[t] for t in row)
        assert is_strongly_connected(gadget)
        assert exact_rank(gadget).rank == 2
        pairs = pair_automaton(gadget)
        dist = pairs.merge_policy()[0]
        for state, twin in layout.meta["twin_of"].items():
            assert dist[pairs.node_of[state][twin]] is None
        found = find_saturating_min_rank_word(gadget, distinguished)
        assert (found is not None) == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]
    _report(6, f"complete gadget: complete, strongly connected, rank 2, "
               f"twin pairs unmergeable, verdicts match on 30 instances "
               f"({verdicts[True]} yes / {verdicts[False]} no)")


def test_criterion_7_birecurrence_equivalence():
    rng = random.Random(1007)
    for _ in range(200):
        acceptor = random_acceptor(rng, max_states=7, max_letters=3)
        assert is_birecurrent_direct(acceptor) == is_birecurrent_characterization(
            acceptor
        )
    perm_rng = random.Random(1008)
    for _ in range(50):
        acceptor = random_permutation_acceptor(perm_rng)
        assert is_birecurrent(acceptor)
    _report(7, "direct and characterization deciders agree on 200 acceptors; "
               "50 strongly connected permutation acceptors all birecurrent")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(1009)
    cases = [m2(), p2(), c4()]
    for _ in range(120):
        cases.append(
            random_partial_dfa(rng, rng.randint(1, 4), 2, rng.uniform(0.3, 1.0))
        )
    for dfa in cases:
        engine = exact_rank(dfa)
        brute_result = brute_rank(dfa, engine.word_length)
        assert brute_result == (engine.rank, engine.witness)

        states = StateSet.from_iterable(
            dfa.state_count, [s for s in range(dfa.state_count) if rng.random() < 0.5]
        )
        found = find_saturating_min_rank_word(dfa, states)
        # The oracle measures minimum rank within its own horizon, so the
        # horizon must reach at least one true minimum-rank word.
        horizon = max(8, engine.word_length, 0 if found is None else len(found))
        assert brute_saturating_word(dfa, states, horizon) == found

    lang_rng = random.Random(1010)
    for _ in range(60):
        acceptor = random_acceptor(lang_rng, max_states=4, max_letters=2)
        assert brute_language(minimize(acceptor), 8) == brute_language(acceptor, 8)
    _report(8, "subset search, saturation search, and minimization agree with "
               "brute-force enumeration on small automata")


def test_criterion_9_cli_round_trip_and_reanalysis(tmp_path):
    rng = random.Random(1011)

    # 20-file corpus: serialize -> parse -> serialize is the identity.
    corpus = [
        (m2(), 0, StateSet.from_iterable(2, [1])),
        (p2(), 0, StateSet.from_iterable(2, [0])),
        (c4(), None, None),
    ]
    while len(corpus) < 20:
        n = rng.randint(1, 7)
        dfa = random_partial_dfa(rng, n, rng.randint(1, 3), rng.uniform(0.2, 1.0))
        initial = rng.randrange(n) if rng.random() < 0.6 else None
        accepting = (
            StateSet.from_iterable(n, [s for s in range(n) if rng.random() < 0.4])
            if initial is not None
            else None
        )
        corpus.append((dfa, initial, accepting))
    for i, (dfa, initial, accepting) in enumerate(corpus):
        path = tmp_path / f"corpus{i}.aut"
        text = serialize_automaton(dfa, initial, accepting)
        path.write_text(text, encoding="utf-8")
        loaded = parse_automaton(path.read_text(encoding="utf-8"))
        assert loaded.dfa == dfa
        assert loaded.initial == initial
        assert loaded.accepting == accepting
        assert serialize_automaton(loaded.dfa, loaded.initial, loaded.accepting) == text
        assert _cli("validate", str(path)) == 0

    # Exit-code contract.
    m2_path = tmp_path / "m2.aut"
    m2_path.write_text(
        serialize_automaton(m2(), 0, StateSet.from_iterable(2, [1])), encoding="utf-8"
    )
    p2_path = tmp_path / "p2.aut"
    p2_path.write_text(
        serialize_automaton(p2(), 0, StateSet.from_iterable(2, [0])), encoding="utf-8"
    )
    bad_path = tmp_path / "bad.aut"
    bad_path.write_text("states: 1\nalphabet: a\ntrans: 0 a 7\n", encoding="utf-8")
    assert _cli("sync", str(m2_path)) == 0
    assert _cli("sync", str(p2_path)) == 1
    assert _cli("sync", str(bad_path)) == 2
    assert _cli("birecurrent", str(p2_path)) == 0
    assert _cli("birecurrent", str(m2_path)) == 1

    # Gadgets written by `reduce` reproduce the reduction verdicts from disk.
    inst_rng = random.Random(1012)
    checked = {0: 0, 1: 0}
    instances = [disjoint_instance()] + [
        random_complete_gadget_instance(inst_rng, total_states=5) for _ in range(7)
    ]
    for i, instance in enumerate(instances):
        inst_path = tmp_path / f"inst{i}.inst"
        inst_path.write_text(serialize_instance(instance), encoding="utf-8")
        expected = 0 if has_common_word(instance) is not None else 1
        checked[expected] += 1

        sync_path = tmp_path / f"sync{i}.aut"
        assert _cli("reduce", "sync", str(inst_path), "-o", str(sync_path)) == 0
        assert _cli("sync", str(sync_path)) == expected

        sat_path = tmp_path / f"sat{i}.aut"
        assert _cli("reduce", "saturation", str(inst_path), "-o", str(sat_path)) == 0
        assert _cli("saturate", str(sat_path), "--set", "all") == expected

        sc_path = tmp_path / f"sc{i}.aut"
        assert _cli("reduce", "sc", str(inst_path), "-o", str(sc_path)) == 0
        assert _cli("saturate", str(sc_path), "--set", "all") == expected
        bin_path = tmp_path / f"bin{i}.aut"
        assert (
            _cli("binarize", str(sc_path), "--last-letter", "reset", "-o", str(bin_path))
            == 0
        )
        assert _cli("saturate", str(bin_path), "--set", "all") == expected

        complete_path = tmp_path / f"complete{i}.aut"
        assert _cli("reduce", "complete", str(inst_path), "-o", str(complete_path)) == 0
        sidecar = json.loads(
            (tmp_path / f"complete{i}.aut.layout.json").read_text(encoding="utf-8")
        )
        target = ",".join(map(str, sidecar["target_set"]))
        assert _cli("saturate", str(complete_path), "--set", target) == expected
    assert checked[0] and checked[1]
    _report(9, "20-file round trip, exit-code contract, and on-disk gadget "
               "re-analysis all hold")
