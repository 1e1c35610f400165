"""Exhaustive check: every binary partial DFA with four states.

There are 5^8 = 390,625 of them, each entry a target or undefined.  A
relabelling of the states carries every answer along with it, so, as in
``test_exhaustive.py``, each question is asked once per class of inputs
that a relabelling maps onto each other, and the script pins how many
classes there are and how many inputs they stand for.  On each class it
checks that

- the image of the full set under ``exact_rank``'s witness has exactly
  ``exact_rank``'s rank of states;
- ``min_rank_word_sc`` gives the same rank, when the automaton is strongly
  connected;
- ``find_saturating_min_rank_word`` gives the same word or "none" as
  ``support.unpruned_saturating_word`` for every subset, the empty one
  included, and spends no more budget.

Stdlib only and opt-in: pytest does not collect this file, since it takes
about 20 s on a 2-CPU VM (CPython 3.11), longer than the whole tier-1 suite.
From the repository root::

    PYTHONPATH=src python tests/exhaustive4.py

It prints the counts and exits 0 when every check holds and every count is
the pinned one, and 1 otherwise, naming each input that fails (at most ten).
"""

from __future__ import annotations

import sys
import time
from itertools import permutations, product

from padfa import (
    PartialDfa,
    SearchBudget,
    StateSet,
    exact_rank,
    find_saturating_min_rank_word,
    is_strongly_connected,
    min_rank_word_sc,
)

from support import unpruned_saturating_word

N = 4
PERMS = list(permutations(range(N)))  # identity first
# Class counts and the inputs they stand for: automata, strongly connected
# automata, automata paired with a subset of their states, and those pairs
# whose subset is saturated by a word of minimum rank.
EXPECTED = {
    "automata": (16_900, 390_625),
    "strongly connected": (2_557, 60_654),
    "with a subset": (264_925, 6_250_000),
    "saturated": (70_812, 1_656_088),
}


def relabelled(rows: tuple, perm: tuple) -> tuple:
    """``rows`` with state s renamed ``perm[s]``; N, for undefined, stays."""
    new = [()] * N
    for state, row in enumerate(rows):
        new[perm[state]] = tuple(t if t == N else perm[t] for t in row)
    return tuple(new)


def classes():
    """Each class of automata as ``(rows, size, automorphisms)``, where
    ``rows`` is the least table of the class, N standing for undefined."""
    for flat in product(range(N + 1), repeat=2 * N):
        rows = tuple(zip(flat[::2], flat[1::2]))
        automorphisms = [PERMS[0]]
        for perm in PERMS[1:]:
            other = relabelled(rows, perm)
            if other < rows:
                break
            if other == rows:
                automorphisms.append(perm)
        else:
            yield rows, len(PERMS) // len(automorphisms), automorphisms


def subsets(automorphisms: list):
    """Each class of subsets under the automorphisms, as ``(mask,
    stabilizer)``: the least mask of the class, and the number of
    automorphisms that fix it, so that the class of the automaton paired
    with the subset holds ``len(PERMS) // stabilizer`` inputs."""
    for mask in range(1 << N):
        images = [sum(1 << perm[s] for s in range(N) if mask >> s & 1) for perm in automorphisms]
        if mask == min(images):
            yield mask, images.count(mask)


def main() -> int:
    began = time.perf_counter()
    counts = {name: [0, 0] for name in EXPECTED}
    failures: list[str] = []
    for rows, size, automorphisms in classes():
        dfa = PartialDfa(N, ("a", "b"), tuple(tuple(None if t == N else t for t in r) for r in rows))
        counts["automata"][0] += 1
        counts["automata"][1] += size
        exact = exact_rank(dfa)
        image = dfa.image_mask((1 << N) - 1, exact.witness)
        if image.bit_count() != exact.rank:
            failures.append(f"{rows}: witness image {image:b} for rank {exact.rank}")
        if is_strongly_connected(dfa):
            counts["strongly connected"][0] += 1
            counts["strongly connected"][1] += size
            poly = min_rank_word_sc(dfa).rank
            if poly != exact.rank:
                failures.append(f"{rows}: min_rank_word_sc rank {poly}, exact {exact.rank}")
        for mask, stabilizer in subsets(automorphisms):
            pairs = len(PERMS) // stabilizer
            counts["with a subset"][0] += 1
            counts["with a subset"][1] += pairs
            states = StateSet(N, mask)
            pruned, unpruned = SearchBudget(), SearchBudget()
            try:
                word = find_saturating_min_rank_word(dfa, states, pruned)
            except RuntimeError as error:  # a failed postcondition
                failures.append(f"{rows}, set {mask:04b}: {error}")
                continue
            reference = unpruned_saturating_word(dfa, states, unpruned)
            if word != reference or pruned.remaining < unpruned.remaining:
                failures.append(f"{rows}, set {mask:04b}: {word} against {reference}")
            if word is not None:
                counts["saturated"][0] += 1
                counts["saturated"][1] += pairs
    for name, (classes_seen, inputs) in counts.items():
        expected = EXPECTED[name]
        print(f"{name}: {classes_seen:,} classes standing for {inputs:,} inputs")
        if (classes_seen, inputs) != expected:
            failures.append(f"{name}: expected {expected}, got {(classes_seen, inputs)}")
    for failure in failures[:10]:
        print("FAILED", failure)
    print(f"{len(failures)} failures in {time.perf_counter() - began:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
