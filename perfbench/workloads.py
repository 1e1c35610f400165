"""The four workloads: seeded question lists, their answer checks, and the
traced form of each question.

A question is answered by ``ask()`` (what the closed loop times), checked by
``check(answer)`` outside the timed region (``None`` when the answer is right,
else a description of what is wrong), and answered again under tracing by
``trace(tracer)``, which repeats nested layer calls as child spans.
Every search gets its own explicit ``SearchBudget`` so the number of visited
nodes can be read as ``limit - remaining``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import padfa
from padfa import (
    Acceptor,
    MethodDisagreement,
    PartialDfa,
    SearchBudget,
    StateSet,
    binarize_with_selfloop,
    build_complete_gadget,
    build_saturation_gadget,
    build_sync_gadget,
    determinize_reversal,
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
    strongly_connect_gadget,
)
from padfa.cli import main as cli_main
from padfa.formats import parse_automaton, parse_instance, serialize_automaton

import families as fam
from tracing import Tracer

# No question of any workload at the seed commit comes near this: the largest
# searches (C_16 saturation, heavy random automata) visit under 2^18 nodes.
BUDGET = 1 << 20
# Random automata of subset-search are drawn until a random word of at most
# this many letters synchronizes them.  That word bounds the depth of the rank
# search and of the saturation search from its survivors.
SUBSET_WORD_MAX = 14
SUBSET_RANDOM = 512


@dataclass
class Question:
    label: str
    ask: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    trace: Callable[[Tracer], Any]


@dataclass
class Workload:
    name: str
    tail_pct: float  # the latency percentile reported as latency_ms_tail
    child_rss: bool  # peak RSS is the largest child process, not this one
    build: Callable[..., tuple[list[Question], list[PartialDfa]]]


def _spent(budget: SearchBudget) -> int:
    return budget.limit - budget.remaining


def _dfa(rows: fam.Rows, alphabet: str = "abc") -> PartialDfa:
    return PartialDfa(len(rows), tuple(alphabet[: len(rows[0])]), rows)


# ---------------------------------------------------------------------------
# Traced layer calls.  Each returns what the plain call returns and records
# the call (and any repeated nested calls) as spans.


def _traced_exact(tr: Tracer, dfa: PartialDfa, parent: Optional[int] = None):
    budget = SearchBudget(BUDGET)
    with tr.span("rank.exact", parent) as span:
        result = exact_rank(dfa, budget)
    span.counts.update(visited=_spent(budget), witness_len=len(result.witness))
    return result


def _traced_sync(tr: Tracer, dfa: PartialDfa, parent: Optional[int] = None):
    budget = SearchBudget(BUDGET)
    with tr.span("rank.exact", parent) as span:
        result = is_synchronizing(dfa, budget)
    witness = result[1] or ()
    span.counts.update(visited=_spent(budget), witness_len=len(witness))
    return result


def _traced_saturate(
    tr: Tracer, dfa: PartialDfa, states: StateSet, parent: Optional[int] = None
):
    budget = SearchBudget(BUDGET)
    with tr.span("saturate.search", parent) as span:
        word = find_saturating_min_rank_word(dfa, states, budget)
    span.counts.update(visited=_spent(budget), word_len=len(word or ()))
    _traced_exact(tr, dfa, span.index)
    rank_visited = tr.spans[-1].counts["visited"]
    span.counts["config_visited"] = span.counts["visited"] - rank_visited
    return word


def _traced_sc_check(tr: Tracer, dfa: PartialDfa, parent: int) -> bool:
    with tr.span("graphs.sc_check", parent):
        return is_strongly_connected(dfa)


def _traced_poly(tr: Tracer, dfa: PartialDfa):
    with tr.span("rank.poly") as span:
        result = min_rank_word_sc(dfa)
    span.counts["witness_len"] = len(result.witness)
    _traced_sc_check(tr, dfa, span.index)
    with tr.span("graphs.pair_automaton", span.index) as built:
        pairs = pair_automaton(dfa)
    built.counts["nodes"] = len(pairs.step)
    with tr.span("graphs.merge_policy", span.index):
        pairs.merge_policy()
    return result


def _traced_minimize(tr: Tracer, acceptor: Acceptor, parent: int) -> Acceptor:
    with tr.span("birecurrent.minimize", parent) as span:
        minimal = minimize(acceptor)
    span.counts["states"] = minimal.dfa.state_count
    return minimal


def _traced_birecurrent(tr: Tracer, acceptor: Acceptor) -> bool:
    """Both deciders as top-level spans; the calls they make (minimize,
    strong connectivity, reversal, saturation) repeated as their children."""
    with tr.span("birecurrent.direct") as direct_span:
        direct = is_birecurrent_direct(acceptor)
    minimal = _traced_minimize(tr, acceptor, direct_span.index)
    if not minimal.is_empty and _traced_sc_check(tr, minimal.dfa, direct_span.index):
        with tr.span("birecurrent.reversal", direct_span.index) as span:
            subsets = determinize_reversal(minimal)
        span.counts["subsets"] = len(subsets.nodes)
        if not subsets.is_empty:
            _traced_sc_check(tr, subsets.as_dfa(), direct_span.index)

    budget = SearchBudget(BUDGET)
    with tr.span("birecurrent.char") as char_span:
        characterized = is_birecurrent_characterization(acceptor, budget)
    char_span.counts["visited"] = _spent(budget)
    minimal = _traced_minimize(tr, acceptor, char_span.index)
    if not minimal.is_empty and _traced_sc_check(tr, minimal.dfa, char_span.index):
        _traced_saturate(tr, minimal.dfa, minimal.accepting, char_span.index)
    if direct != characterized:
        raise MethodDisagreement(f"direct={direct} but characterization={characterized}")
    return direct


# ---------------------------------------------------------------------------
# subset-search


def _rank_check(rows: fam.Rows, rank: int, length: Optional[int]):
    def check(result) -> Optional[str]:
        image, _ = fam.walk(rows, (1 << len(rows)) - 1, result.witness)
        if result.rank != rank:
            return f"rank {result.rank}, expected {rank}"
        if image.bit_count() != rank:
            return f"witness reaches rank {image.bit_count()}, reported {rank}"
        if length is not None and len(result.witness) != length:
            return f"witness length {len(result.witness)}, expected {length}"
        return None

    return check


def _sync_check(rows: fam.Rows, length: Optional[int]):
    def check(result) -> Optional[str]:
        synchronizing, witness = result
        if not synchronizing:
            return "not synchronizing, but a rank-1 word is known"
        if fam.walk(rows, (1 << len(rows)) - 1, witness)[0].bit_count() != 1:
            return "reset witness does not reach a single state"
        if length is not None and len(witness) != length:
            return f"reset witness length {len(witness)}, expected {length}"
        return None

    return check


def _saturation_check(rows: fam.Rows, mask: int, rank: int, expect: str, bound):
    """``expect`` is "none" (no saturating word exists), "exact" (a word of
    length exactly ``bound()``) or "within" (a word of length at most
    ``bound()``)."""

    def check(word) -> Optional[str]:
        if expect == "none":
            return None if word is None else "found a word where none exists"
        if word is None:
            return "no saturating word, but one is known"
        if not fam.saturates(rows, mask, word, rank):
            return "word does not saturate the set at the automaton's rank"
        limit = bound()
        if len(word) > limit or (expect == "exact" and len(word) != limit):
            return f"word length {len(word)}, expected {expect} {limit}"
        return None

    return check


def _exact_and_poly_agree(dfa: PartialDfa, check):
    """Wrap an exact-rank check with agreement against the polynomial rank
    (every automaton of this workload is strongly connected)."""
    poly: list = []

    def wrapped(result) -> Optional[str]:
        if not poly:
            poly.append(min_rank_word_sc(dfa))
        if poly[0].rank != result.rank:
            return f"exact rank {result.rank} but polynomial rank {poly[0].rank}"
        return check(result)

    return wrapped


def _subset_questions(label: str, rows: fam.Rows, subset: Optional[tuple]) -> list[Question]:
    """exact_rank, is_synchronizing and saturation of the full set (and of a
    seeded subset) on one automaton known to have rank 1.

    ``subset`` is (rank-1 word, survivors mask) from ``singleton_word``, or
    None for the Černý automata, whose exact answers are known in closed form.
    """
    dfa = _dfa(rows)
    n = len(rows)
    full = StateSet.full(n)
    if subset is None:
        length: Optional[int] = (n - 1) ** 2
        sat_full = _saturation_check(rows, full.mask, 1, "exact", lambda: length)
    else:
        length = None
        # With a partial second letter only powers of the cycle keep every
        # state alive, and they have rank n.  With a total one the automaton
        # is complete and the search must match the rank search's witness.
        second_total = all(row[1] is not None for row in rows)
        sat_full = _saturation_check(
            rows,
            full.mask,
            1,
            "exact" if second_total else "none",
            lambda: len(exact_rank(dfa, BUDGET).witness),
        )
    questions = [
        Question(
            f"{label}/exact_rank",
            lambda: exact_rank(dfa, SearchBudget(BUDGET)),
            _exact_and_poly_agree(dfa, _rank_check(rows, 1, length)),
            lambda tr: _traced_exact(tr, dfa),
        ),
        Question(
            f"{label}/is_synchronizing",
            lambda: is_synchronizing(dfa, SearchBudget(BUDGET)),
            _sync_check(rows, length),
            lambda tr: _traced_sync(tr, dfa),
        ),
        Question(
            f"{label}/saturate_all",
            lambda: find_saturating_min_rank_word(dfa, full, SearchBudget(BUDGET)),
            sat_full,
            lambda tr: _traced_saturate(tr, dfa, full),
        ),
    ]
    if subset is not None:
        word, survivors = subset
        states = StateSet(n, survivors)
        questions.append(
            Question(
                f"{label}/saturate_subset",
                lambda: find_saturating_min_rank_word(dfa, states, SearchBudget(BUDGET)),
                _saturation_check(rows, survivors, 1, "within", lambda: len(word)),
                lambda tr: _traced_saturate(tr, dfa, states),
            )
        )
    return questions


def build_subset_search(seed: int, light: bool, workdir: Path):
    rng = random.Random(seed)
    questions: list[Question] = []
    automata: list[PartialDfa] = []
    for n in (12,) if light else range(12, 17):
        rows = fam.cerny(n)
        automata.append(_dfa(rows))
        questions += _subset_questions(f"C{n}", rows, None)
    for i in range(1 if light else SUBSET_RANDOM):
        n = 20 + i % 9
        subset = None
        while subset is None:
            rows = fam.random_sc(rng, n, 2, 0.94)
            subset = fam.singleton_word(rng, rows, SUBSET_WORD_MAX, 20)
        automata.append(_dfa(rows))
        questions += _subset_questions(f"random{i}-n{n}", rows, subset)
    return questions, automata


# ---------------------------------------------------------------------------
# pair-merge


def _poly_question(label: str, rows: fam.Rows) -> Question:
    """``min_rank_word_sc`` on an automaton known to have rank 1."""
    dfa = _dfa(rows)
    return Question(
        f"{label}/min_rank_word_sc",
        lambda: min_rank_word_sc(dfa),
        _rank_check(rows, 1, None),
        lambda tr: _traced_poly(tr, dfa),
    )


def build_pair_merge(seed: int, light: bool, workdir: Path):
    rng = random.Random(seed)
    sizes = (200,) if light else (200,) * 10 + (400,) * 2 + (800,)
    questions: list[Question] = []
    automata: list[PartialDfa] = []
    # The Černý automata come first, so that they do not run right after the
    # n = 800 question has released a few hundred MB of memory.  Their cost
    # depends on n alone, and they are placed so that both reported
    # percentiles fall in the middle of a group: the 10 answers to C_64 (the
    # fastest) balance the 10 slower than n = 200, so the median answer is
    # the median n = 200 answer, and the tail percentile is the middle C_128
    # answer of each pass.
    for n in (64,) if light else (64,) * 10 + (128,) * 7:
        rows = fam.cerny(n)
        automata.append(_dfa(rows))
        questions.append(_poly_question(f"C{n}", rows))
    for i, n in enumerate(sizes):
        # A seeded rank-1 word, found by the benchmark's own walk, fixes the
        # rank the polynomial algorithm must report.
        rows = fam.random_sc(rng, n, 3, 0.94)
        while fam.singleton_word(rng, rows, 4 * n, 100) is None:
            rows = fam.random_sc(rng, n, 3, 0.94)
        automata.append(_dfa(rows))
        questions.append(_poly_question(f"random{i}-n{n}", rows))
    return questions, automata


# ---------------------------------------------------------------------------
# birecurrence


def _birecurrence_question(
    label: str, acceptor: Acceptor, expect: Optional[bool], subsets: Optional[int]
) -> Question:
    def check(verdict) -> Optional[str]:
        if expect is not None and verdict != expect:
            return f"birecurrent={verdict}, expected {expect}"
        return None

    def traced(tr: Tracer) -> bool:
        verdict = _traced_birecurrent(tr, acceptor)
        if subsets is not None:
            counted = [s.counts["subsets"] for s in tr.spans if s.name == "birecurrent.reversal" and s.question == tr.question]
            if counted != [subsets]:
                raise AssertionError(f"reversal subsets {counted}, expected {subsets}")
        return verdict

    return Question(
        f"{label}/is_birecurrent",
        lambda: is_birecurrent(acceptor, SearchBudget(BUDGET)),
        check,
        traced,
    )


def _acceptor(rows: fam.Rows, initial: int, accepting) -> Acceptor:
    dfa = _dfa(rows)
    return Acceptor(dfa, initial, StateSet.from_iterable(dfa.state_count, accepting))


def build_birecurrence(seed: int, light: bool, workdir: Path):
    rng = random.Random(seed)
    questions: list[Question] = []
    automata: list[PartialDfa] = []
    for n in (10,) if light else range(10, 16):
        rows, initial, accepting = fam.reversal_blowup(n)
        acceptor = _acceptor(rows, initial, accepting)
        automata.append(acceptor.dfa)
        questions.append(_birecurrence_question(f"R{n}", acceptor, True, 1 << n))
    # Sizes cycle through 10..16 instead of being drawn, so that every seed
    # asks questions of the same sizes.
    for i in range(1 if light else 384):
        n = 10 + i % 7
        rows = fam.random_sc(rng, n, 3, 0.3)
        accepting = [s for s in range(n) if rng.random() < 0.4] or [0]
        acceptor = _acceptor(rows, rng.randrange(n), accepting)
        automata.append(acceptor.dfa)
        # No closed form: the two deciders inside is_birecurrent check each
        # other and a disagreement raises.
        questions.append(_birecurrence_question(f"random{i}-n{n}", acceptor, None, None))
    for i in range(1 if light else 32):
        # Two random permutations almost always generate the alternating or
        # the symmetric group, so the reversal's subsets are the C(n, k)
        # k-subsets: fixing n and k per question fixes its cost.  k <= 4
        # keeps that below C(16, 4) = 1820, where k drawn up to n - 1 gave
        # up to C(16, 8) = 12870 and a per-seed cost that varied 10-fold.
        n = 10 + i % 7
        rows = fam.random_permutation_rows(rng, n)
        accepting = rng.sample(range(n), 2 + (i // 7) % 3)
        acceptor = _acceptor(rows, rng.randrange(n), accepting)
        automata.append(acceptor.dfa)
        # A strongly connected permutation automaton with a nonempty accepting
        # set is birecurrent: its reversal is again a group action, whose
        # orbits are strongly connected.
        questions.append(_birecurrence_question(f"perm{i}-n{n}", acceptor, True, None))
    return questions, automata


# ---------------------------------------------------------------------------
# cli-gadgets


def _instance_text(machines: list[tuple[fam.Rows, int, list[int]]]) -> str:
    lines = ["alphabet: a b"]
    for rows, initial, accepting in machines:
        lines += [
            "machine:",
            f"states: {len(rows)}",
            f"initial: {initial}",
            "accepting: " + " ".join(map(str, accepting)),
        ]
        for state, row in enumerate(rows):
            lines += [f"trans: {state} {'ab'[a]} {t}" for a, t in enumerate(row)]
    return "\n".join(lines) + "\n"


def _accepted_by_all(machines, word: list[str]) -> bool:
    for rows, initial, accepting in machines:
        state = initial
        for name in word:
            state = rows[state]["ab".index(name)]
        if state not in accepting:
            return False
    return True


def _fai_instances(rng: random.Random, count: int):
    """``count`` yes-instances and ``count`` no-instances, alternating.

    A yes-instance is a random pair of machines sharing a word; a
    no-instance pairs a machine with its complement (plus a third machine),
    so no word is accepted by all.
    """
    out = []
    while len(out) < 2 * count:
        first = fam.random_complete_machine(rng, rng.randint(3, 4), 2)
        second = fam.random_complete_machine(rng, rng.randint(3, 4), 2)
        if len(out) % 2:
            rows, initial, accepting = first
            complement = [s for s in range(len(rows)) if s not in accepting]
            out.append([first, (rows, initial, complement), second])
        elif fam.common_word_exists([first, second]):
            out.append([first, second])
    return out


class _CliRunner:
    """Runs ``python -m padfa`` on files in a work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        src = Path(padfa.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, argv: list[str]) -> tuple[int, Optional[dict]]:
        proc = subprocess.run(
            [sys.executable, "-m", "padfa", *argv, "--json"],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        try:
            payload = json.loads(proc.stdout) if proc.stdout.strip() else None
        except ValueError:
            payload = None
        return proc.returncode, payload

    def run_in_process(self, argv: list[str]) -> int:
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli_main([*argv, "--json"])
        finally:
            os.chdir(cwd)


def _gadget_states(kind: str, machine_states: int) -> int:
    return {
        "sync": machine_states + 3,
        "saturation": machine_states + 1,
        "sc": machine_states + 1,
        "complete": 2 * (machine_states + 1) + 2,
    }[kind]


def _cli_questions(
    label: str, runner: _CliRunner, machines, expect_yes: bool
) -> list[Question]:
    """The 11 CLI steps for one instance, in dependency order."""
    inst = f"{label}.inst"
    (runner.workdir / inst).write_text(_instance_text(machines), encoding="utf-8")
    total = sum(len(rows) for rows, _, _ in machines)
    verdict_code = 0 if expect_yes else 1
    budget = ["--budget", str(BUDGET)]

    def gadget(kind: str) -> str:
        return f"{label}.{kind}.pdfa"

    def read(name: str) -> str:
        return (runner.workdir / name).read_text(encoding="utf-8")

    def target_set() -> str:
        layout = json.loads(read(gadget("complete") + ".layout.json"))
        return ",".join(map(str, layout["target_set"]))

    def target_mask(n: int) -> int:
        return sum(1 << int(s) for s in target_set().split(","))

    def full(n: int) -> int:
        return (1 << n) - 1

    def expect(code: int, extra: Callable[[dict], Optional[str]] = lambda p: None):
        def check(answer) -> Optional[str]:
            returncode, payload = answer
            if returncode != code:
                return f"exit code {returncode}, expected {code}"
            if payload is None:
                return "no JSON payload"
            return extra(payload)

        return check

    def oracle_payload(payload) -> Optional[str]:
        if payload["found"] != expect_yes:
            return f"found={payload['found']}, the product search says {expect_yes}"
        if expect_yes and not _accepted_by_all(machines, payload["word"]):
            return "common word is not accepted by every machine"
        return None

    def states_payload(count: Callable[[], int]):
        def extra(payload) -> Optional[str]:
            expected = count()
            return None if payload["states"] == expected else f"{payload['states']} states, expected {expected}"

        return extra

    def binarized_states() -> int:
        # Binarizing after a fresh self-loop letter: one state per (state, letter).
        alphabet, rows = fam.parse_rows(read(gadget("sc")))
        return len(rows) * (len(alphabet) + 1)

    def witness_payload(name: str, key: str, mask_of, rank: Optional[int]):
        """Check a reset word (``rank`` None) or a saturating word from the CLI
        with the benchmark's own walk over the written gadget file."""

        def extra(payload) -> Optional[str]:
            if not expect_yes:
                return None
            alphabet, rows = fam.parse_rows(read(name))
            word = [alphabet.index(letter) for letter in payload[key]]
            mask = mask_of(len(rows))
            if rank is None:
                ok = fam.walk(rows, mask, word)[0].bit_count() == 1
            else:
                ok = fam.saturates(rows, mask, word, rank)
            return None if ok else f"{key} fails the benchmark's own walk"

        return extra

    def replay_parse(tr: Tracer, parent: int, name: str, parse):
        text = read(name)
        with tr.span("formats.parse", parent) as span:
            parsed = parse(text)
        span.counts["bytes"] = len(text.encode())
        return parsed

    def replay_build(tr: Tracer, parent: int, kind: str, build) -> None:
        with tr.span(f"gadgets.build_{kind}", parent) as span:
            built = build()
        span.counts["states"] = built.state_count
        with tr.span("formats.serialize", parent):
            serialize_automaton(built)

    def replay_oracle(tr: Tracer, parent: int) -> None:
        instance = replay_parse(tr, parent, inst, parse_instance)
        spent = SearchBudget(BUDGET)
        with tr.span("gadgets.oracle", parent) as span:
            has_common_word(instance, spent)
        span.counts["visited"] = _spent(spent)

    def replay_reduce(kind: str):
        def sc_gadget(instance):
            sat, layout = build_saturation_gadget(instance)
            return strongly_connect_gadget(sat, layout.special_states["accept_sink"])[0]

        builders = {
            "sync": lambda instance: build_sync_gadget(instance)[0],
            "saturation": lambda instance: build_saturation_gadget(instance)[0],
            "sc": sc_gadget,
            "complete": lambda instance: build_complete_gadget(instance)[0],
        }

        def replay(tr: Tracer, parent: int) -> None:
            instance = replay_parse(tr, parent, inst, parse_instance)
            replay_build(tr, parent, kind, lambda: builders[kind](instance))

        return replay

    def replay_search(name: str, states_of):
        def replay(tr: Tracer, parent: int) -> None:
            dfa = replay_parse(tr, parent, name, parse_automaton).dfa
            if states_of is None:
                _traced_sync(tr, dfa, parent)
            else:
                _traced_saturate(tr, dfa, StateSet(dfa.state_count, states_of(dfa.state_count)), parent)

        return replay

    def replay_binarize(tr: Tracer, parent: int) -> None:
        dfa = replay_parse(tr, parent, gadget("sc"), parse_automaton).dfa
        replay_build(tr, parent, "binarize", lambda: binarize_with_selfloop(dfa)[0])

    def replay_validate(tr: Tracer, parent: int) -> None:
        replay_parse(tr, parent, gadget("bin"), parse_automaton)

    def make(name: str, argv: Callable[[], list[str]], check, replay) -> Question:
        def traced(tr: Tracer):
            args = argv()
            with tr.span("cli.process") as process:
                answer = runner.run(args)
            with tr.span("cli.main", process.index) as main_span:
                runner.run_in_process(args)
            replay(tr, main_span.index)
            return answer

        return Question(f"{label}/{name}", lambda: runner.run(argv()), check, traced)

    questions = [
        make(
            "oracle",
            lambda: ["oracle", "common-word", inst, *budget],
            expect(verdict_code, oracle_payload),
            replay_oracle,
        )
    ]
    for kind in ("sync", "saturation", "sc", "complete"):
        questions.append(
            make(
                f"reduce-{kind}",
                lambda kind=kind: ["reduce", kind, inst, "-o", gadget(kind)],
                expect(0, states_payload(lambda kind=kind: _gadget_states(kind, total))),
                replay_reduce(kind),
            )
        )
    questions.append(
        make(
            "sync",
            lambda: ["sync", gadget("sync"), "--witness", *budget],
            expect(verdict_code, witness_payload(gadget("sync"), "witness", full, None)),
            replay_search(gadget("sync"), None),
        )
    )
    for kind in ("saturation", "sc"):
        questions.append(
            make(
                f"saturate-{kind}",
                lambda kind=kind: ["saturate", gadget(kind), "--set", "all", *budget],
                expect(verdict_code, witness_payload(gadget(kind), "word", full, 1)),
                replay_search(gadget(kind), full),
            )
        )
    questions += [
        make(
            "saturate-complete",
            lambda: ["saturate", gadget("complete"), "--set", target_set(), *budget],
            expect(verdict_code, witness_payload(gadget("complete"), "word", target_mask, 2)),
            replay_search(gadget("complete"), target_mask),
        ),
        make(
            "binarize",
            lambda: ["binarize", gadget("sc"), "--add-selfloop", "-o", gadget("bin")],
            expect(0, states_payload(binarized_states)),
            replay_binarize,
        ),
        make(
            "validate",
            lambda: ["validate", gadget("bin")],
            expect(0, states_payload(binarized_states)),
            replay_validate,
        ),
    ]
    return questions


def build_cli_gadgets(seed: int, light: bool, workdir: Path):
    rng = random.Random(seed)
    runner = _CliRunner(workdir)
    questions: list[Question] = []
    automata: list[PartialDfa] = []
    for i, machines in enumerate(_fai_instances(rng, 1 if light else 2)):
        instance = parse_instance(_instance_text(machines))
        questions += _cli_questions(f"fai{i}", runner, machines, i % 2 == 0)
        automata += [build_sync_gadget(instance)[0], build_saturation_gadget(instance)[0]]
    return questions, automata


WORKLOADS = {
    w.name: w
    for w in (
        # Tail percentiles are fixed per workload, so that a faster commit,
        # which answers more questions, is compared at the same one.  Each
        # has at least 10 answers of a 20-second run at the seed commit beyond
        # it and falls among answers to questions whose cost depends on their
        # size, not on the seed: C_15..C_16, C_128, R_14, the gadget searches.
        Workload("subset-search", 99.7, False, build_subset_search),
        Workload("pair-merge", 78, False, build_pair_merge),
        Workload("birecurrence", 99.65, False, build_birecurrence),
        Workload("cli-gadgets", 90, True, build_cli_gadgets),
    )
}
