"""Shared fixtures-by-hand: tiny named automata, seeded random generators,
the classes of small binary automata under relabelling, the P × Z_r family
of known rank with its rank certificate, the unpruned saturation search
that the pruned one is checked against and the per-letter reversal loop
that the packed one is checked against."""

from __future__ import annotations

import random
from collections import deque
from functools import cache
from itertools import combinations, permutations, product
from typing import Optional

from padfa import (
    Acceptor,
    IntersectionInstance,
    PartialDfa,
    SearchBudget,
    StateSet,
    coreachable_to,
    exact_rank,
    is_strongly_connected,
    reachable_from,
)
from padfa.core import union_image
from padfa.formats import serialize_automaton


def m2() -> PartialDfa:
    """Two states, one letter funneling everything into state 1."""
    return PartialDfa.from_map(2, ["a"], {(0, "a"): 1, (1, "a"): 1})


def d2() -> PartialDfa:
    """Two states, the letter defined only on state 0."""
    return PartialDfa.from_map(2, ["a"], {(0, "a"): 1})


def p2() -> PartialDfa:
    """Two states, the letter swaps them (a permutation automaton)."""
    return PartialDfa.from_map(2, ["a"], {(0, "a"): 1, (1, "a"): 0})


def cerny(n: int) -> PartialDfa:
    """Černý automaton C_n: letter a cycles the states, letter b moves 0 to 1
    and fixes the rest.  Rank 1; the shortest rank-1 word has length
    (n-1)^2."""
    rows = tuple(((s + 1) % n, 1 if s == 0 else s) for s in range(n))
    return PartialDfa(n, ("a", "b"), rows)


def c4() -> PartialDfa:
    """The classic 4-state example whose shortest rank-1 word has length 9."""
    return cerny(4)


def reversal_blowup(n: int) -> Acceptor:
    """R_n over (a, b, c): the language "the n-th letter is a", plus letter c
    from the accepting state back to 0.  Strongly connected and minimal; the
    determinized reversal has exactly 2^n subsets."""
    rows = [(i + 1, i + 1, None) for i in range(n - 1)]
    rows.append((n, None, None))
    rows.append((n, n, 0))
    dfa = PartialDfa(n + 1, ("a", "b", "c"), tuple(rows))
    return Acceptor(dfa, 0, StateSet.from_iterable(n + 1, [n]))


def binary_automata(max_states: int):
    """Every binary partial DFA with 1 to ``max_states`` states."""
    for n in range(1, max_states + 1):
        for flat in product([None, *range(n)], repeat=2 * n):
            yield PartialDfa(n, ("a", "b"), tuple(zip(flat[::2], flat[1::2])))


def _relabelled(dfa, perm):
    """The table with state s renamed ``perm[s]`` and undefined written as
    n, so that tables compare."""
    n = dfa.state_count
    rows = [()] * n
    for state, row in enumerate(dfa.transitions):
        rows[perm[state]] = tuple(n if t is None else perm[t] for t in row)
    return tuple(rows)


def _keep(kept, dfa, mask, keys):
    """Keep the input whose own key, ``keys[0]``, is the least of its class,
    with the number of inputs in the class."""
    if keys[0] == min(keys):
        kept.append((dfa, mask, len(set(keys))))


@cache
def binary_classes():
    """One ``(dfa, mask, size)`` per class of binary DFAs with at most three
    states, per class of such DFAs paired with a nonempty accepting mask,
    and per class of those pairs under relabelling of the states other than
    0 alone."""
    dfas, pairs, acceptors = [], [], []
    for dfa in binary_automata(3):
        perms = list(permutations(range(dfa.state_count)))  # identity first
        tables = [_relabelled(dfa, perm) for perm in perms]
        _keep(dfas, dfa, 0, tables)
        for mask in range(1, 1 << dfa.state_count):
            keys = [
                (table, sum(1 << perm[s] for s in StateSet(len(perm), mask)))
                for perm, table in zip(perms, tables)
            ]
            _keep(pairs, dfa, mask, keys)
            _keep(acceptors, dfa, mask, [k for p, k in zip(perms, keys) if p[0] == 0])
    return dfas, pairs, acceptors


def letters(count: int) -> list[str]:
    return ["a", "b", "c", "d"][:count]


def random_partial_dfa(
    rng: random.Random, n: int, letter_count: int, density: float
) -> PartialDfa:
    rows = tuple(
        tuple(
            rng.randrange(n) if rng.random() < density else None
            for _ in range(letter_count)
        )
        for _ in range(n)
    )
    return PartialDfa(n, tuple(letters(letter_count)), rows)


def random_sc_dfa(
    rng: random.Random,
    max_states: int = 8,
    max_letters: int = 3,
    density_range: tuple[float, float] = (0.6, 1.0),
) -> PartialDfa:
    """Rejection-sample a strongly connected partial DFA."""
    while True:
        n = rng.randint(1, max_states)
        k = rng.randint(1, max_letters)
        density = rng.uniform(*density_range)
        dfa = random_partial_dfa(rng, n, k, density)
        if is_strongly_connected(dfa):
            return dfa


def cycle_sc_dfa(
    rng: random.Random, n: int, letter_count: int, density: float
) -> PartialDfa:
    """A strongly connected partial DFA at any n, with no rejection: letter 0
    is the cycle s -> s + 1 (mod n), and the other letters are random maps
    defined with probability ``density``."""
    others = range(letter_count - 1)
    rows = tuple(
        ((s + 1) % n, *(rng.randrange(n) if rng.random() < density else None for _ in others))
        for s in range(n)
    )
    return PartialDfa(n, tuple(letters(letter_count)), rows)


def cyclic_product(dfa: PartialDfa, r: int) -> PartialDfa:
    """P × Z_r for P = ``dfa`` with m states: state (i, p) is i·m + p, and
    every letter a sends it to (i + 1 mod r, p·a), undefined where p·a is.
    A word w maps the states onto (P·w) × Z_r, so the rank is r·rank(P)."""
    m = dfa.state_count
    rows = tuple(
        tuple(None if t is None else (i + 1) % r * m + t for t in row)
        for i in range(r)
        for row in dfa.transitions
    )
    return PartialDfa(r * m, dfa.alphabet, rows)


def certified_rank(dfa: PartialDfa, witness: tuple[int, ...]) -> Optional[int]:
    """|S| for S = Q·w and w = ``witness``, if S is not empty and no two
    states of S can ever merge or lose exactly one of them; else None.

    On a strongly connected automaton this proves that the rank is |S|.  w
    attains |S|.  For a word v of minimum rank, some word y sends a state of
    S into the domain of v, so S·yv is not empty; no pair of S merges or
    loses one state, so |S·yv| = |S|; and S·yv lies in Q·v.  (On a complete
    automaton y is empty.)  The pairs are searched breadth-first in O(n²k),
    with no code shared with ``padfa.rank``."""
    n = dfa.state_count
    image = sorted({dfa.run(s, witness) for s in range(n)} - {None})
    seen = bytearray(n * n)
    queue = [p * n + q for p, q in combinations(image, 2)]
    for pair in queue:
        seen[pair] = 1
    for pair in queue:
        p, q = divmod(pair, n)
        for s, t in zip(dfa.transitions[p], dfa.transitions[q]):
            if s is None and t is None:
                continue  # both die: the pair merges nothing
            if s is None or t is None or s == t:
                return None
            target = min(s, t) * n + max(s, t)
            if not seen[target]:
                seen[target] = 1
                queue.append(target)
    return len(image) or None


def random_acceptor(
    rng: random.Random,
    max_states: int = 7,
    max_letters: int = 3,
    accept_probability: float = 0.45,
) -> Acceptor:
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_letters)
    dfa = random_partial_dfa(rng, n, k, rng.uniform(0.5, 1.0))
    accepting = StateSet.from_iterable(
        n, [s for s in range(n) if rng.random() < accept_probability]
    )
    return Acceptor(dfa, rng.randrange(n), accepting)


def random_permutation_acceptor(
    rng: random.Random, max_states: int = 6, max_letters: int = 3
) -> Acceptor:
    """Strongly connected automaton whose letters are permutations, with a
    nonempty accepting set."""
    while True:
        n = rng.randint(1, max_states)
        k = rng.randint(1, max_letters)
        rows: list[list[int]] = [[] for _ in range(n)]
        for _ in range(k):
            perm = list(range(n))
            rng.shuffle(perm)
            for state in range(n):
                rows[state].append(perm[state])
        dfa = PartialDfa(
            n, tuple(letters(k)), tuple(tuple(row) for row in rows)
        )
        if not is_strongly_connected(dfa):
            continue
        accepting = [s for s in range(n) if rng.random() < 0.5]
        if not accepting:
            accepting = [rng.randrange(n)]
        return Acceptor(dfa, rng.randrange(n), StateSet.from_iterable(n, accepting))


def random_complete_acceptor(
    rng: random.Random,
    n: int,
    alphabet: tuple[str, ...],
    accept_probability: float = 0.5,
) -> Acceptor:
    rows = tuple(
        tuple(rng.randrange(n) for _ in alphabet) for _ in range(n)
    )
    accepting = StateSet.from_iterable(
        n, [s for s in range(n) if rng.random() < accept_probability]
    )
    return Acceptor(PartialDfa(n, alphabet, rows), rng.randrange(n), accepting)


def random_instance(
    rng: random.Random,
    max_machines: int = 3,
    max_states: int = 3,
    alphabet: tuple[str, ...] = ("a", "b"),
) -> IntersectionInstance:
    count = rng.randint(1, max_machines)
    return IntersectionInstance(
        tuple(
            random_complete_acceptor(rng, rng.randint(1, max_states), alphabet)
            for _ in range(count)
        )
    )


def serialize_instance(instance: IntersectionInstance) -> str:
    """The instance file of ``instance``: the shared ``alphabet:`` line, then
    one ``machine:`` block per acceptor, which is its automaton file without
    the ``alphabet:`` line.  ``serialize_automaton`` rejects a letter name
    containing whitespace, which would not parse back."""
    lines = [("alphabet: " + " ".join(instance.alphabet)).rstrip()]
    for machine in instance.machines:
        text = serialize_automaton(machine.dfa, machine.initial, machine.accepting)
        states, _alphabet, *body = text.split("\n")[:-1]
        lines += ["machine:", states, *body]
    return "\n".join(lines) + "\n"


def _accepting_reachable(machine: Acceptor) -> bool:
    reachable = reachable_from(machine.dfa, [machine.initial])
    return any(s in machine.accepting for s in reachable)


def random_saturation_instance(
    rng: random.Random,
    max_machines: int = 2,
    max_states: int = 3,
    alphabet: tuple[str, ...] = ("a", "b"),
) -> IntersectionInstance:
    """Instance where every machine has an accepting state reachable from
    its initial state (the saturation gadget's precondition).  Accepting
    sets are kept sparse so that empty intersections stay represented."""
    while True:
        count = rng.randint(1, max_machines)
        machines = tuple(
            random_complete_acceptor(
                rng, rng.randint(1, max_states), alphabet, accept_probability=0.35
            )
            for _ in range(count)
        )
        if all(_accepting_reachable(m) for m in machines):
            return IntersectionInstance(machines)


def _complete_gadget_assumptions(machine: Acceptor) -> bool:
    n = machine.dfa.state_count
    if len(reachable_from(machine.dfa, [machine.initial])) != n:
        return False
    accepting = list(machine.accepting)
    if not accepting or len(coreachable_to(machine.dfa, accepting)) != n:
        return False
    return len(accepting) < n


def random_complete_gadget_instance(
    rng: random.Random,
    total_states: int = 5,
    alphabet: tuple[str, ...] = ("a", "b"),
) -> IntersectionInstance:
    """Instance meeting the complete-gadget assumptions: per machine, all
    states reachable, accepting reachable from everywhere, at least one word
    accepted and at least one rejected; machine sizes sum to at most
    ``total_states``."""
    while True:
        count = rng.randint(1, 2)
        sizes = []
        remaining = total_states
        ok = True
        for i in range(count):
            low = 2  # needs both an accepting and a non-accepting state
            high = remaining - low * (count - i - 1)
            if high < low:
                ok = False
                break
            sizes.append(rng.randint(low, high))
            remaining -= sizes[-1]
        if not ok:
            continue
        machines = tuple(
            random_complete_acceptor(rng, size, alphabet, accept_probability=0.4)
            for size in sizes
        )
        if all(_complete_gadget_assumptions(m) for m in machines):
            return IntersectionInstance(machines)


def random_word(rng: random.Random, letter_count: int, max_len: int) -> tuple[int, ...]:
    return tuple(
        rng.randrange(letter_count) for _ in range(rng.randint(0, max_len))
    )


def ends_with_letter(letter: str, alphabet: tuple[str, ...] = ("a", "b")) -> Acceptor:
    """Two-state complete acceptor for words whose last letter is ``letter``."""
    delta = {}
    for name in alphabet:
        target = 1 if name == letter else 0
        delta[(0, name)] = target
        delta[(1, name)] = target
    return Acceptor(
        PartialDfa.from_map(2, alphabet, delta), 0, StateSet.from_iterable(2, [1])
    )


def disjoint_instance() -> IntersectionInstance:
    """A no-instance whose machines still meet every gadget assumption."""
    return IntersectionInstance((ends_with_letter("a"), ends_with_letter("b")))


def parity_instance() -> IntersectionInstance:
    """Even-length against odd-length words: another assumption-satisfying
    no-instance with a different shape (the empty word splits them)."""
    flip = PartialDfa.from_map(
        2, ["a", "b"], {(0, "a"): 1, (0, "b"): 1, (1, "a"): 0, (1, "b"): 0}
    )
    even = Acceptor(flip, 0, StateSet.from_iterable(2, [0]))
    odd = Acceptor(flip, 0, StateSet.from_iterable(2, [1]))
    return IntersectionInstance((even, odd))


def unpruned_saturating_word(
    dfa: PartialDfa, states: StateSet, budget: SearchBudget
) -> tuple[int, ...] | None:
    """The saturation search without its overlap prune, as a reference.

    It breadth-first searches every config (I, O) whose inside image I
    survives, overlapping or not, and accepts the first one whose images
    are disjoint and whose union has the automaton's rank.  It spends
    ``budget`` as ``find_saturating_min_rank_word`` does: the rank search,
    then one unit per config.  It runs its own loop, which links each
    config to its parent and letter, so that it shares no witness code with
    ``core.witness_word`` or the search it checks."""
    n = dfa.state_count
    full = (1 << n) - 1
    target_rank = exact_rank(dfa, budget).rank

    def accepts(config: int) -> bool:
        inside, outside = config & full, config >> n
        return inside & outside == 0 and (inside | outside).bit_count() == target_rank

    start = states.mask | (full & ~states.mask) << n
    links: dict[int, tuple[int, int] | None] = {start: None}
    budget.spend()
    found = start if accepts(start) else None
    queue = deque([start])
    while queue and found is None:
        config = queue.popleft()
        inside = config & full
        for letter, images in enumerate(dfa.letter_images):
            if inside & ~dfa.letter_domains[letter]:
                continue
            new = union_image(images, inside) | union_image(images, config >> n) << n
            if new in links:
                continue
            budget.spend()
            links[new] = (config, letter)
            if accepts(new):
                found = new
                break
            queue.append(new)
    if found is None:
        return None
    word: list[int] = []
    config = found
    while (link := links[config]) is not None:
        config, letter = link
        word.append(letter)
    return tuple(reversed(word))


def per_letter_reversal(
    acceptor: Acceptor, budget: SearchBudget
) -> tuple[list[int], list[int | None]]:
    """The nodes and rows of ``determinize_reversal``, built with one
    preimage table and one ``union_image`` per letter, as a reference.

    It numbers the subsets in the same order and spends ``budget`` in the
    same way, one unit per subset, but it keeps one preimage table per
    letter and shares neither the packing nor the compiled read of the
    construction it checks."""
    if not acceptor.accepting:
        return [], []
    dfa = acceptor.dfa
    preimage = [[0] * dfa.state_count for _ in range(dfa.letter_count)]
    for source, row in enumerate(dfa.transitions):
        for letter, target in enumerate(row):
            if target is not None:
                preimage[letter][target] |= 1 << source
    start = acceptor.accepting.mask
    budget.spend()
    index = {start: 0}
    order = [start]
    rows: list[int | None] = []
    for mask in order:
        for table in preimage:
            new = union_image(table, mask)
            if not new:
                rows.append(None)
                continue
            node = index.get(new)
            if node is None:
                budget.spend()
                node = index[new] = len(order)
                order.append(new)
            rows.append(node)
    return order, rows
