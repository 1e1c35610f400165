"""Constructions turning automata-intersection instances into analysis gadgets.

The source problem is finite-automata intersection (FAI): given complete
acceptors over one alphabet, does some word get accepted by all of them?
``has_common_word`` answers it directly by product search and serves as the
oracle against which the four gadget constructions are verified:

* ``build_sync_gadget``        -- common word exists  <=>  gadget synchronizing
* ``build_saturation_gadget``  -- common word exists  <=>  whole state set
                                  saturated by a minimum-rank word
* ``strongly_connect_gadget``  -- same verdict, strongly connected gadget
  (``build_sc_gadget`` composes it with the saturation gadget)
* ``binarize`` / ``binarize_with_selfloop`` -- same verdict, binary alphabet
* ``build_complete_gadget``    -- same verdict, complete strongly connected
                                  gadget (two mirrored sc gadgets) and a
                                  distinguished target set

Every construction is deterministic: fresh letter names, target choices and
state numbering depend only on the instance.  The instance type,
``IntersectionInstance``, comes from ``core``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import (
    DEFAULT_BUDGET,
    Acceptor,
    IntersectionInstance,
    PartialDfa,
    SearchBudget,
    StateSet,
    Word,
    record,
)
from .graphs import coreachable_to, reachable_from


@record
class GadgetLayout:
    """Bookkeeping for a constructed gadget.

    ``state_map`` sends (machine index, original state) to the gadget state
    index (for binarization the single input automaton is machine 0 and the
    value is its embedding into the first letter column).  ``special_states``
    and ``letter_map`` locate the construction's added states and letters by
    their role names; ``meta`` carries construction-specific extras such as
    twin pairings or binarization letter order.  A construction passes
    ``{}`` for a part it does not fill.
    """

    state_map: dict[tuple[int, int], int]
    special_states: dict[str, int]
    letter_map: dict[str, int]
    meta: dict[str, Any]


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    counter = 2
    while name in taken:
        name = f"{base}{counter}"
        counter += 1
    taken.add(name)
    return name


def has_common_word(
    instance: IntersectionInstance, budget: int | SearchBudget = DEFAULT_BUDGET
) -> Word | None:
    """Shortest word accepted by every machine, or ``None``.

    Breadth-first search over the product automaton, letters in declaration
    order, so the result is the length-then-lexicographically first common
    word.
    """
    shared = SearchBudget.ensure(budget)
    machines = instance.machines
    letter_count = len(instance.alphabet)

    start = tuple(m.initial for m in machines)
    parents: dict[tuple, tuple[tuple, int]] = {}
    visited = {start}
    shared.spend()

    def accepts(product: tuple) -> bool:
        return all(state in m.accepting for state, m in zip(product, machines))

    if accepts(start):
        return ()
    queue = deque([start])
    while queue:
        product = queue.popleft()
        for letter in range(letter_count):
            new = tuple(
                m.dfa.transitions[state][letter]
                for state, m in zip(product, machines)
            )
            if new in visited:
                continue
            visited.add(new)
            shared.spend()
            parents[new] = (product, letter)
            if accepts(new):
                letters = []
                node = new
                while node != start:
                    node, used = parents[node]
                    letters.append(used)
                return tuple(reversed(letters))
            queue.append(new)
    return None


def _universal_machine(alphabet: tuple[str, ...]) -> Acceptor:
    row = tuple(0 for _ in alphabet)
    return Acceptor(PartialDfa(1, alphabet, (row,)), 0, StateSet.full(1))


def _machine_stack(
    machines: tuple[Acceptor, ...], alphabet: tuple[str, ...]
) -> tuple[list[list[Optional[int]]], list[bool], GadgetLayout]:
    """Lay ``machines`` side by side, each row extended by a reset column
    sending the machine to its initial state.

    Returns the rows, whether each row's state is accepting, and the layout
    shared by the sync and saturation gadgets: the state map and the fresh
    reset and check letters, in that column order after ``alphabet``.  The
    caller appends the check column and any sinks.
    """
    taken = set(alphabet)
    reset = _fresh_name("reset", taken)
    check = _fresh_name("check", taken)
    rows: list[list[Optional[int]]] = []
    accepting: list[bool] = []
    state_map: dict[tuple[int, int], int] = {}
    for i, machine in enumerate(machines):
        offset = len(rows)
        for state, row in enumerate(machine.dfa.transitions):
            state_map[(i, state)] = offset + state
            rows.append([offset + t for t in row] + [offset + machine.initial])
            accepting.append(state in machine.accepting)
    layout = GadgetLayout(
        state_map=state_map,
        special_states={},
        letter_map={reset: len(alphabet), check: len(alphabet) + 1},
        meta={"reset_letter": reset, "check_letter": check},
    )
    return rows, accepting, layout


def build_sync_gadget(
    instance: IntersectionInstance,
) -> tuple[PartialDfa, GadgetLayout]:
    """Partial DFA that is synchronizing iff the instance has a common word.

    A one-state all-accepting machine is always appended first (it never
    changes the answer and pins the accept sink into every post-check
    image).  On top of the machines' own letters the gadget adds a reset
    letter sending each machine to its initial state and a check letter
    sending accepting states to an accept sink and the rest to a reject
    sink; both sinks self-loop on everything except the check letter, which
    is undefined there.
    """
    machines = instance.machines + (_universal_machine(instance.alphabet),)
    rows, accepting, layout = _machine_stack(machines, instance.alphabet)
    accept_sink = len(rows)
    reject_sink = accept_sink + 1
    for row, accepted in zip(rows, accepting):
        row.append(accept_sink if accepted else reject_sink)
    for sink in (accept_sink, reject_sink):
        rows.append([sink] * (len(instance.alphabet) + 1) + [None])

    sinks = {"accept_sink": accept_sink, "reject_sink": reject_sink}
    meta = {**layout.meta, "universal_machine_index": len(instance.machines)}
    layout = GadgetLayout(layout.state_map, sinks, layout.letter_map, meta)
    alphabet = instance.alphabet + tuple(layout.letter_map)
    return PartialDfa(len(rows), alphabet, tuple(map(tuple, rows))), layout


def build_saturation_gadget(
    instance: IntersectionInstance,
) -> tuple[PartialDfa, GadgetLayout]:
    """Rank-1 partial DFA whose whole state set is saturated by a
    minimum-rank word iff the instance has a common word.

    Requires every machine to have an accepting state reachable from its
    initial state (this is what makes the gadget rank 1).  There is a single
    accept sink: the check letter sends accepting states there and is
    undefined on the rest, and the sink absorbs every letter.  Keeping the
    sink total is essential: a word saturating the whole state set must keep
    the sink itself alive.
    """
    for i, machine in enumerate(instance.machines):
        reachable = reachable_from(machine.dfa, [machine.initial])
        if not any(state in machine.accepting for state in reachable):
            raise ValueError(
                f"machine {i} has no accepting state reachable from its initial state"
            )

    rows, accepting, layout = _machine_stack(instance.machines, instance.alphabet)
    sink = len(rows)
    for row, accepted in zip(rows, accepting):
        row.append(sink if accepted else None)
    rows.append([sink] * (len(instance.alphabet) + 2))

    sinks = {"accept_sink": sink}
    layout = GadgetLayout(layout.state_map, sinks, layout.letter_map, layout.meta)
    alphabet = instance.alphabet + tuple(layout.letter_map)
    return PartialDfa(len(rows), alphabet, tuple(map(tuple, rows))), layout


def _greedy_hub_targets(dfa: PartialDfa, hub: int) -> list[int]:
    """Targets for new hub-to-target letters making the automaton strongly
    connected: repeatedly the lowest-indexed state not yet reachable from
    the hub (counting previously added hub edges)."""
    if type(hub) is not int or not 0 <= hub < dfa.state_count:
        raise ValueError(f"hub state {hub!r} out of range")
    if len(coreachable_to(dfa, [hub])) != dfa.state_count:
        raise ValueError("every state must reach the hub")
    reach = reachable_from(dfa, [hub])
    targets = []
    while len(reach) < dfa.state_count:
        target = min(s for s in range(dfa.state_count) if s not in reach)
        targets.append(target)
        reach |= reachable_from(dfa, [target])
    return targets


def strongly_connect_gadget(
    dfa: PartialDfa, hub: int
) -> tuple[PartialDfa, GadgetLayout]:
    """Add jump letters from ``hub`` until the automaton is strongly connected.

    Each added letter maps the hub to one previously unreachable state and
    is undefined everywhere else, so no new behavior is available before
    reaching the hub.  An already strongly connected input is returned
    unchanged (zero letters added).
    """
    targets = _greedy_hub_targets(dfa, hub)
    taken = set(dfa.alphabet)
    names = [_fresh_name(f"jump{i + 1}", taken) for i in range(len(targets))]
    rows = []
    for state, row in enumerate(dfa.transitions):
        extension = tuple(
            target if state == hub else None for target in targets
        )
        rows.append(row + extension)
    layout = GadgetLayout(
        state_map={},
        special_states={"hub": hub},
        letter_map={
            name: dfa.letter_count + i for i, name in enumerate(names)
        },
        meta={"targets": list(targets)},
    )
    return (
        PartialDfa(dfa.state_count, dfa.alphabet + tuple(names), tuple(rows)),
        layout,
    )


def build_sc_gadget(
    instance: IntersectionInstance,
) -> tuple[PartialDfa, GadgetLayout]:
    """The saturation gadget made strongly connected by jump letters from
    its accept sink; same verdict.  The layout merges both constructions'."""
    base, base_layout = build_saturation_gadget(instance)
    gadget, sc_layout = strongly_connect_gadget(
        base, base_layout.special_states["accept_sink"]
    )
    layout = GadgetLayout(
        state_map=dict(base_layout.state_map),
        special_states={**base_layout.special_states, **sc_layout.special_states},
        letter_map={**base_layout.letter_map, **sc_layout.letter_map},
        meta={**base_layout.meta, **sc_layout.meta},
    )
    return gadget, layout


def binarize(dfa: PartialDfa, last_letter: str) -> tuple[PartialDfa, GadgetLayout]:
    """Encode an arbitrary alphabet into {0, 1}.

    States become (state, letter-column) pairs, laid out row-major.  Letter
    "0" advances the column (the designated last letter's column absorbs),
    and letter "1" applies the column's letter and returns to column 0.
    The designated letter is moved to the end of the enumeration, keeping
    the relative order of the others; when it is total, reading 0^(L-1) 1
    from anywhere lands in column 0 on that letter's image.
    """
    last = dfa.letter_index(last_letter)
    order = [a for a in range(dfa.letter_count) if a != last] + [last]
    columns = len(order)
    n = dfa.state_count

    def encode(state: int, position: int) -> int:
        return state * columns + position

    rows: list[tuple[Optional[int], ...]] = []
    for state in range(n):
        for position in range(columns):
            advance = encode(
                state, position + 1 if position < columns - 1 else position
            )
            target = dfa.transitions[state][order[position]]
            apply = None if target is None else encode(target, 0)
            rows.append((advance, apply))

    layout = GadgetLayout(
        state_map={(0, state): encode(state, 0) for state in range(n)},
        special_states={},
        letter_map={"0": 0, "1": 1},
        meta={
            "letter_order": [dfa.alphabet[a] for a in order],
            "input_state_count": n,
        },
    )
    return PartialDfa(n * columns, ("0", "1"), tuple(rows)), layout


def binarize_with_selfloop(dfa: PartialDfa) -> tuple[PartialDfa, GadgetLayout]:
    """Binarize after appending a fresh total self-loop letter as the last
    letter (for automata with no suitable total letter of their own)."""
    taken = set(dfa.alphabet)
    stay = _fresh_name("stay", taken)
    rows = tuple(
        row + (state,) for state, row in enumerate(dfa.transitions)
    )
    extended = PartialDfa(dfa.state_count, dfa.alphabet + (stay,), rows)
    binary, layout = binarize(extended, stay)
    meta = {**layout.meta, "selfloop_letter": stay}
    return binary, GadgetLayout(layout.state_map, {}, layout.letter_map, meta)


def build_complete_gadget(
    instance: IntersectionInstance,
) -> tuple[PartialDfa, GadgetLayout, StateSet]:
    """Complete, strongly connected rank-2 automaton whose distinguished set
    is saturated by a rank-2 word iff the instance has a common word.

    Built from ``build_sc_gadget`` as two mirrored copies plus a trap pair,
    completed by one rule: the check letter sends non-accepting states to
    the trap (its twin on the mirrored copy), traps absorb the base letters,
    and jump ``j`` sends every state but the hub to the twin of its target
    on the other copy.  So the jump letters, named and chosen by the sc
    gadget, both connect the two copies and make everything strongly
    connected.  Every letter commutes with the twin pairing, so no state can
    ever merge with its twin and the rank is exactly 2.  The layout is the
    sc gadget's, with the accept sink, the traps and their twins as special
    states and ``twin_of`` added to ``meta``.  The distinguished set is the
    whole unbarred copy plus the mirrored trap.

    Assumes, per machine: all states reachable from the initial state, an
    accepting state reachable from every state, at least one word accepted,
    and at least one word rejected.
    """
    for i, machine in enumerate(instance.machines):
        n = machine.dfa.state_count
        reachable = reachable_from(machine.dfa, [machine.initial])
        if len(reachable) != n:
            raise ValueError(f"machine {i}: not all states reachable from initial")
        accepting = list(machine.accepting)
        if not accepting or len(coreachable_to(machine.dfa, accepting)) != n:
            raise ValueError(
                f"machine {i}: some state cannot reach an accepting state"
            )
        if all(state in machine.accepting for state in reachable):
            raise ValueError(f"machine {i}: accepts every word")

    sc, sc_layout = build_sc_gadget(instance)
    hub = sc_layout.special_states["hub"]
    targets = sc_layout.meta["targets"]
    na = sc.state_count
    trap = 2 * na
    trap_twin = 2 * na + 1
    base_cols = sc.letter_count - len(targets)

    twin = [*range(na, 2 * na), *range(na), trap_twin, trap]

    # Copy 0 is the sc gadget plus the trap.  The trap loops on the base
    # letters; on jump j it goes, like every non-hub state of copy 0, to the
    # twin of target j.  The check letter's undefined entries go to the trap.
    # Copy 1 is the mirror image, so every letter commutes with ``twin``.
    trap_row = [trap] * base_cols + [twin[target] for target in targets]
    fill = [None] * base_cols + trap_row[base_cols:]
    fill[sc_layout.letter_map[sc_layout.meta["check_letter"]]] = trap
    copy0 = [
        [fill[a] if t is None else t for a, t in enumerate(row)]
        for row in sc.transitions
    ]

    def mirrored(row: list[Optional[int]]) -> list[Optional[int]]:
        return [None if t is None else twin[t] for t in row]

    rows = copy0 + [mirrored(row) for row in copy0] + [trap_row, mirrored(trap_row)]
    gadget = PartialDfa(len(rows), sc.alphabet, tuple(map(tuple, rows)))
    if not gadget.is_complete():
        raise RuntimeError("complete gadget has an undefined transition")

    twin_of = {state: twin[state] for state in (*range(na), trap)}
    special = {
        "accept_sink": hub,
        "accept_sink_twin": twin[hub],
        "trap": trap,
        "trap_twin": trap_twin,
    }
    meta = {**sc_layout.meta, "twin_of": twin_of}
    layout = GadgetLayout(sc_layout.state_map, special, sc_layout.letter_map, meta)
    distinguished = StateSet.from_iterable(len(rows), [*range(na), trap_twin])
    return gadget, layout, distinguished
