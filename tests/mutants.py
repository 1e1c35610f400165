"""Mutation check: seeded defects that named tests must catch.

Each defect is a tuple (file, old text, new text, tests that must fail).
For each, the script copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory, replaces the old text, which must occur exactly once
in the file, by the new text, and runs pytest on the named tests there.
The defect is killed when none of them passes.  Before any defect, the
named tests must all pass on an unmutated copy, so a misspelt test id
cannot count as a kill.

Stdlib only and opt-in: pytest does not collect this file.  From the
repository root::

    python tests/mutants.py                 # every defect
    python tests/mutants.py NAME [NAME...]  # the named defects

It exits 0 when every defect is killed, and 1 when one survives or its old
text is not in its file exactly once.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each pytest run gets this much address space and time.
MEMORY_LIMIT = 2 << 30
TIMEOUT_S = 600

DEFECTS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    # A push level walks the level node by node, so a pair takes the first
    # letter that reaches it rather than the smallest.
    "push-first-letter": (
        "src/padfa/rank.py",
        "                for letter, (head, link) in enumerate(links):\n"
        "                    for node in level:\n",
        "                for node in level:\n"
        "                    for letter, (head, link) in enumerate(links):\n",
        ("tests/test_rank.py::test_merge_policy_pulls_again_once_the_pushed_levels_grow",),
    ),
    # A pull after pushes reads the pairs the pushes assigned as unassigned
    # and gives them a second, larger distance.
    "no-refresh-after-push": (
        "src/padfa/rank.py",
        "                    unassigned = [node for node in unassigned if dist[node] is None]\n",
        "",
        (
            "tests/test_rank.py::test_merge_policy_pulls_again_once_the_pushed_levels_grow",
            "tests/test_rank.py::test_merge_policy_pulls_shallow_searches_and_pushes_deep_ones",
            "tests/test_rank.py::test_order_scan_matches_listing_every_pair",
        ),
    ),
    # Until a table is built, a level is also pulled whenever fewer than
    # 1/SWITCH_RATIO of the nodes are unassigned, so a thin tail of one-pair
    # levels reads its unassigned pairs again at every level.
    "tail-pulls-every-level": (
        "src/padfa/rank.py",
        "            if distance == 1 or SWITCH_RATIO * len(level) >= left:\n",
        "            if distance == 1 or SWITCH_RATIO * len(level) >= left or (\n"
        "                links is None and SWITCH_RATIO * left < node_count\n"
        "            ):\n",
        ("tests/test_rank.py::test_merge_policy_pushes_a_thin_tail",),
    ),
    # The scan takes the last pair of survivors in its chunk.
    "scan-last-hit": (
        "src/padfa/rank.py",
        "node = next(compress(order[start:end], both), None)",
        "node = ([None] + list(compress(order[start:end], both)))[-1]",
        (
            "tests/test_rank.py::test_pair_merging_matches_the_reference",
            "tests/test_rank.py::test_order_scan_matches_listing_every_pair",
        ),
    ),
    # The rank search writes its local budget count back only on a normal
    # return, not when it runs out or a lookup raises.
    "rank-budget-not-written-back": (
        "src/padfa/rank.py",
        "    finally:\n        budget.remaining = remaining\n",
        "    finally:\n        pass\n    budget.remaining = remaining\n",
        (
            "tests/test_core.py::test_breadth_first_writes_the_budget_back_when_step_raises",
            "tests/test_core.py::test_breadth_first_runs_out_at_the_node_past_the_budget",
        ),
    ),
    # The same defect in the config search.
    "config-budget-not-written-back": (
        "src/padfa/saturate.py",
        "    finally:\n        shared.remaining = remaining\n",
        "    finally:\n        pass\n    shared.remaining = remaining\n",
        (
            "tests/test_core.py::test_breadth_first_writes_the_budget_back_when_step_raises",
            "tests/test_core.py::test_breadth_first_runs_out_at_the_node_past_the_budget",
        ),
    ),
    # A witness letter is recovered as the last letter under which the
    # parent steps to the child, not the first.
    "bfs-last-letter": (
        "src/padfa/core.py",
        "        for letter in alphabet:\n",
        "        for letter in reversed(alphabet):\n",
        (
            "tests/test_core.py::test_breadth_first",
            "tests/test_exhaustive.py::test_exact_rank_and_its_witness_match_brute_force",
        ),
    ),
    # The rank search shifts its mask by 7 bits a chunk, not 8, so from the
    # second chunk on it reads the wrong states.
    "rank-read-shift-7": (
        "src/padfa/rank.py",
        "                images |= chunk[rest & 255]\n                rest >>= 8\n",
        "                images |= chunk[rest & 255]\n                rest >>= 7\n",
        (
            "tests/test_rank.py::TestExactRank::test_cerny_visits_and_witness_length",
            "tests/test_rank.py::TestPackedRankSearch::test_random_automata",
        ),
    ),
    # The rank search keeps the bits of the later letters above each
    # letter's n bits, so a subset holds states past n - 1.
    "rank-no-full-mask": (
        "src/padfa/rank.py",
        "image = images >> shift & full\n",
        "image = images >> shift\n",
        (
            "tests/test_rank.py::TestPackedRankSearch::test_every_binary_automaton_up_to_three_states",
            "tests/test_rank.py::TestPackedRankSearch::test_random_automata",
        ),
    ),
    # The config search reads 7 bits of each byte of the inside image, so
    # it drops states 7, 15, ... from it.
    "config-inside-read-7-bits": (
        "src/padfa/saturate.py",
        "images |= chunk[rest & 255]",
        "images |= chunk[rest & 127]",
        (
            "tests/test_saturate.py"
            "::test_overlap_prune_matches_the_unpruned_search_on_random_inputs",
            "tests/test_saturate.py::TestPackedConfigSearch::test_random_automata",
        ),
    ),
    # The config search's walk stops reading the outside image one chunk
    # short, before its last nonzero byte, once the inside image is read.
    "config-outside-read-one-chunk-short": (
        "src/padfa/saturate.py",
        "                if not rest | more:\n",
        "                if not rest | more >> 8:\n",
        (
            "tests/test_saturate.py"
            "::test_overlap_prune_matches_the_unpruned_search_on_random_inputs",
            "tests/test_saturate.py::TestPackedConfigSearch::test_random_automata",
        ),
    ),
    # The config search cuts the letters' images n - 1 bits apart, so each
    # letter past the first reads part of the letter before it.
    "config-stride-n-minus-1": (
        "src/padfa/saturate.py",
        "    letters = tuple(zip(range(0, dfa.letter_count * n, n), blocked))\n",
        "    letters = tuple(zip(range(0, dfa.letter_count * (n - 1), max(n - 1, 1)), blocked))\n",
        (
            "tests/test_saturate.py::TestPackedConfigSearch"
            "::test_every_subset_of_every_binary_automaton_up_to_three_states",
            "tests/test_saturate.py::TestPackedConfigSearch::test_random_automata",
        ),
    ),
    # The witness walk takes the last letter for a child that its parent
    # does not reach, so a node that only the compiled tables reach gives a
    # word.
    "witness-walk-unchecked": (
        "src/padfa/core.py",
        "        else:\n"
        '            raise RuntimeError(f"no letter steps node {parent} to its child {node}")\n',
        "",
        (
            "tests/test_core.py::test_witness_walk_raises_on_a_child_its_parent_does_not_reach",
        ),
    ),
    # The witness walk of the config search tries letters that the inside
    # image does not have everywhere, so a word can take a letter that
    # kills a state of S.
    "config-walk-no-alive-test": (
        "src/padfa/saturate.py",
        "        if inside & blocked[letter]:\n            return None\n",
        "",
        (
            "tests/test_exhaustive.py::test_saturating_word_matches_brute_force",
        ),
    ),
    # The saturation search returns the rank witness whenever every state of
    # S survives it, even when the images of S and of its complement meet.
    "saturation-shortcut-meeting-images": (
        "src/padfa/saturate.py",
        "    if is_saturated_by(dfa, states, ranked.witness):\n",
        "    if all(dfa.run(state, ranked.witness) is not None for state in states):\n",
        (
            "tests/test_saturate.py::TestFindSaturatingMinRankWord::test_m2_singleton_never_saturates",
            "tests/test_exhaustive.py::test_saturating_word_matches_brute_force",
        ),
    ),
    # The saturation step also drops every config of more than r states, so
    # the search cannot pass through the larger configs on the way to a
    # saturating word.
    "saturation-prune-past-rank": (
        "src/padfa/saturate.py",
        "                if image & other:\n",
        "                if image & other or (image | other).bit_count() > target_rank:\n",
        (
            "tests/test_saturate.py"
            "::test_overlap_prune_matches_the_unpruned_search_on_random_inputs",
            "tests/test_exhaustive.py::test_saturating_word_matches_brute_force",
        ),
    ),
    # The packed reversal keeps the bits of the later letters above each
    # letter's n bits, so a subset holds states past n - 1.
    "reversal-no-full-mask": (
        "src/padfa/birecurrent.py",
        "new = images >> shift & full\n",
        "new = images >> shift\n",
        (
            "tests/test_birecurrent.py::TestPackedReversal::test_every_binary_acceptor_up_to_three_states",
            "tests/test_birecurrent.py::TestPackedReversal::test_reversal_blowup_family",
        ),
    ),
    # The packed reversal lays the letters' preimages n - 1 bits apart, so
    # each letter's n bits overlap the next letter's lowest one.
    "reversal-stride-n-minus-1": (
        "src/padfa/birecurrent.py",
        "    shifts = range(0, dfa.letter_count * n, n)\n",
        "    shifts = range(0, dfa.letter_count * (n - 1), max(n - 1, 1))\n",
        (
            "tests/test_birecurrent.py::TestPackedReversal::test_budget_runs_out_at_the_same_subset",
            "tests/test_birecurrent.py::TestPackedReversal::test_reversal_blowup_family",
        ),
    ),
    # The reversal shifts its subset by 7 bits a chunk, not 8, so from the
    # second chunk on it reads the wrong states.
    "reversal-read-shift-7": (
        "src/padfa/birecurrent.py",
        "                rest >>= 8\n",
        "                rest >>= 7\n",
        (
            "tests/test_birecurrent.py::TestPackedReversal::test_random_acceptors",
            "tests/test_birecurrent.py::TestPackedReversal::test_reversal_blowup_family",
        ),
    ),
    # minimize keeps the reachable states that reach no accepting one.
    "minimize-no-coreachability": (
        "src/padfa/birecurrent.py",
        "    useful &= coreachable_to(dfa, acceptor.accepting)\n",
        "",
        (
            "tests/test_birecurrent.py::TestMinimize::test_equivalent_accepting_sinks_merge",
            "tests/test_exhaustive.py"
            "::test_minimize_keeps_the_language_and_leaves_a_minimal_trim_acceptor",
        ),
    ),
    # The reversal is called strongly connected when one node reaches
    # node 0, not every node.
    "reversal-sc-any": (
        "src/padfa/birecurrent.py",
        "return all(backward_closure(self.rows",
        "return any(backward_closure(self.rows",
        (
            "tests/test_birecurrent.py::TestCombinedRoute"
            "::test_row_table_check_is_strong_connectivity_of_the_reversal",
        ),
    ),
    # Records of different classes with equal fields compare equal.
    "record-eq-any-class": (
        "src/padfa/core.py",
        "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
        "",
        ("tests/test_records.py::test_equality_and_hash_follow_the_fields",),
    ),
}


def copy_tree(target: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, target / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def mutate(root: Path, name: str) -> None:
    path, old, new, _ = DEFECTS[name]
    file = root / path
    text = file.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(
            f"{name}: the old text occurs {text.count(old)} times in {path}, not once:\n{old}"
        )
    file.write_text(text.replace(old, new), encoding="utf-8")


def limit_memory() -> None:
    # A defect can make a test loop while its word grows; this turns that
    # into a MemoryError, a failure, before it takes the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def passing(root: Path, tests: tuple[str, ...]) -> set[str]:
    """The ids among ``tests`` that pass in the tree at ``root``: every case
    of a parametrised test passes, and at least one runs.  A run that
    outlasts ``TIMEOUT_S`` passes none."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            preexec_fn=limit_memory,
        )
    except subprocess.TimeoutExpired:
        return set()
    outcomes: dict[str, set[str]] = {test: set() for test in tests}
    for line in run.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        case = rest.split(" - ")[0]
        test = case.split("[")[0]
        if outcome in ("PASSED", "FAILED", "ERROR") and test in outcomes:
            outcomes[test].add(outcome)
    return {test for test, seen in outcomes.items() if seen == {"PASSED"}}


def main(argv: list[str]) -> int:
    names = argv or list(DEFECTS)
    unknown = [name for name in names if name not in DEFECTS]
    if unknown:
        raise SystemExit(f"unknown defects: {', '.join(unknown)}; known: {', '.join(DEFECTS)}")
    named = tuple(sorted({test for name in names for test in DEFECTS[name][3]}))
    survived = []
    with tempfile.TemporaryDirectory(prefix="padfa-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        failing = set(named) - passing(clean, named)
        if failing:
            raise SystemExit(
                "these tests do not pass on the unmutated tree: " + ", ".join(sorted(failing))
            )
        for name in names:
            root = Path(tmp) / name
            copy_tree(root)
            mutate(root, name)
            alive = passing(root, DEFECTS[name][3])
            print(f"{name}: {'SURVIVED, passing ' + ', '.join(sorted(alive)) if alive else 'killed'}")
            if alive:
                survived.append(name)
            shutil.rmtree(root)
    print(f"{len(names) - len(survived)} of {len(names)} defects killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
