import ast
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padfa
from padfa import (
    Acceptor,
    BudgetExceededError,
    IntersectionInstance,
    PartialDfa,
    SearchBudget,
    StateSet,
)
from padfa.birecurrent import determinize_reversal
from padfa.core import byte_tables, union_image
from padfa.formats import ParseError, parse_automaton, parse_instance
from padfa.rank import RankResult, exact_rank
from padfa.saturate import find_saturating_min_rank_word

from support import c4, cerny, d2, first_config_of_minimum_rank, letters, m2, p2


@st.composite
def partial_dfas(draw, max_states=5, max_letters=3):
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    rows = draw(
        st.lists(
            st.lists(
                st.one_of(st.none(), st.integers(0, n - 1)),
                min_size=k,
                max_size=k,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return PartialDfa(n, tuple(letters(k)), tuple(tuple(row) for row in rows))


@st.composite
def dfa_and_words(draw, max_word=6):
    dfa = draw(partial_dfas())
    u = tuple(draw(st.lists(st.integers(0, dfa.letter_count - 1), max_size=max_word)))
    v = tuple(draw(st.lists(st.integers(0, dfa.letter_count - 1), max_size=max_word)))
    members = draw(st.lists(st.integers(0, dfa.state_count - 1), max_size=dfa.state_count))
    return dfa, StateSet.from_iterable(dfa.state_count, members), u, v


class TestStep:
    def test_m2_lookup(self):
        assert m2().run(0, (0,)) == 1

    def test_d2_undefined(self):
        assert d2().run(1, (0,)) is None

    def test_p2_swap(self):
        assert p2().run(1, (0,)) == 0

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            m2().run(2, (0,))

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            m2().run(0, (1,))


class TestImage:
    def test_m2_merges(self):
        dfa = m2()
        assert dfa.image_mask(0b11, (0,)) == 0b10

    def test_empty_word_is_identity(self):
        dfa = p2()
        assert dfa.image_mask(0b01, ()) == 0b01

    def test_undefined_drops_state(self):
        dfa = d2()
        assert dfa.image_mask(0b10, (0,)) == 0

    def test_a_word_may_be_an_iterator(self):
        # The letters are checked before the word is applied, so an iterator
        # must not be used up by the check.
        dfa, word = c4(), (1, 0, 0, 1)
        assert dfa.run(0, iter(word)) == dfa.run(0, word) == 3
        assert dfa.image_mask(0b1111, iter(word)) == dfa.image_mask(0b1111, word)
        assert dfa.word_names(iter(word)) == dfa.word_names(word)

    def test_step_mask_rejects_out_of_range_letter(self):
        dfa = m2()
        for letter in (-1, dfa.letter_count):
            with pytest.raises(ValueError):
                dfa.step_mask(0b11, letter)


class TestRankOfWord:
    def test_permutation_preserves_cardinality(self):
        assert p2().image_mask(0b11, (0, 0, 0)).bit_count() == 2

    def test_m2_word_rank_one(self):
        assert m2().image_mask(0b11, (0,)).bit_count() == 1

    def test_d2_word_rank_zero(self):
        assert d2().image_mask(0b11, (0, 0)).bit_count() == 0

    def test_empty_word_full_set(self):
        assert m2().image_mask(0b11, ()).bit_count() == 2


class TestClassification:
    def test_m2(self):
        assert m2().is_complete()
        assert not m2().is_permutation()

    def test_d2(self):
        assert not d2().is_complete()

    def test_p2(self):
        assert p2().is_permutation()
        assert p2().is_complete()


class TestValidation:
    def test_duplicate_letter_names(self):
        with pytest.raises(ValueError):
            PartialDfa(1, ("a", "a"), ((0, 0),))

    def test_empty_letter_name(self):
        with pytest.raises(ValueError):
            PartialDfa(1, ("",), ((0,),))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            PartialDfa(1, ("a",), ((3,),))

    def test_stateset_out_of_universe(self):
        with pytest.raises(ValueError):
            StateSet.from_iterable(2, [2])

    # serialize_automaton would write these as "True" or "1.0", which
    # parse_automaton rejects, so they are refused where they come in.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartialDfa(2, ("a",), ((0,), (True,))),
            lambda: PartialDfa(2, ("a",), ((0,), (1.0,))),
            lambda: PartialDfa(True, ("a",), ((0,),)),
            lambda: PartialDfa(1.0, ("a",), ((0,),)),
            lambda: Acceptor(m2(), True, StateSet(2)),
            lambda: Acceptor(m2(), 1.0, StateSet(2)),
        ],
        ids=["bool-target", "float-target", "bool-count", "float-count",
             "bool-initial", "float-initial"],
    )
    def test_state_indices_are_ints(self, build):
        with pytest.raises(ValueError):
            build()


class TestStateSet:
    def test_operations(self):
        a = StateSet.from_iterable(4, [0, 1])
        b = StateSet.from_iterable(4, [1, 3])
        assert StateSet(4, a.mask & b.mask) == StateSet.from_iterable(4, [1])
        assert StateSet(4, 0b1111 & ~a.mask) == StateSet.from_iterable(4, [2, 3])
        assert len(a) == 2 and 1 in a and 2 not in a
        assert list(b) == [1, 3]
        assert not StateSet(4)

    def test_mismatched_universes(self):
        with pytest.raises(ValueError):
            Acceptor(m2(), 0, StateSet.full(3))


@settings(max_examples=80, deadline=None)
@given(dfa_and_words())
def test_image_composition_law(data):
    dfa, states, u, v = data
    via_u = dfa.image_mask(dfa.image_mask(states.mask, u), v)
    assert dfa.image_mask(states.mask, u + v) == via_u


@settings(max_examples=80, deadline=None)
@given(dfa_and_words())
def test_rank_monotone_nonincreasing(data):
    dfa, _, u, v = data
    full = StateSet.full(dfa.state_count).mask
    assert dfa.image_mask(full, u + v).bit_count() <= dfa.image_mask(full, u).bit_count()


@settings(max_examples=80, deadline=None)
@given(dfa_and_words())
def test_image_monotone_in_the_set(data):
    dfa, states, u, _ = data
    full = StateSet.full(dfa.state_count).mask
    assert dfa.image_mask(states.mask, u) & ~dfa.image_mask(full, u) == 0


@settings(max_examples=60, deadline=None)
@given(partial_dfas(), st.lists(st.integers(0, 2), max_size=8))
def test_permutation_letters_preserve_full_rank(dfa, raw_word):
    if not dfa.is_permutation():
        return
    word = tuple(a % dfa.letter_count for a in raw_word)
    full = StateSet.full(dfa.state_count).mask
    assert dfa.image_mask(full, word).bit_count() == dfa.state_count


@st.composite
def tables(draw):
    """A per-state mask table of 0..40 entries (across the 8/16/24/32
    boundaries, with a short last run), about half of them 0, so that some
    runs of 8 states are undefined throughout."""
    size = draw(st.integers(0, 40))
    entry = st.one_of(st.just(0), st.integers(0, (1 << size) - 1))
    return draw(st.lists(entry, min_size=size, max_size=size))


def _check_chunks(table, chunks):
    """``chunks[c][b]`` is the union of the images of run c of ``table``
    over the set bits of ``b``.  A run with some image has 2 ** len(run)
    entries, so a short last run has fewer than 256; the runs without one
    share one chunk of 256 zeros.  Returns the number of those runs."""
    assert len(chunks) == (len(table) + 7) // 8
    zero = None
    zero_runs = 0
    for c, chunk in enumerate(chunks):
        run = table[8 * c : 8 * c + 8]
        if any(run):
            assert len(chunk) == 2 ** len(run)
        else:
            zero = zero or chunk
            assert chunk is zero and chunk == [0] * 256
            zero_runs += 1
        for b in range(2 ** len(run)):
            assert chunk[b] == union_image(run, b)
    return zero_runs


@settings(max_examples=60, deadline=None)
@given(tables())
def test_byte_tables_hold_the_union_image_of_each_byte(table):
    _check_chunks(table, byte_tables(table))


def test_byte_tables_share_one_chunk_for_undefined_runs():
    # A letter undefined on all 2^16 states: a chunk of 256 zeros per run of
    # 8 states would take 16 MiB.
    undefined = (0,) * (1 << 16)
    tracemalloc.start()
    try:
        chunks = byte_tables(undefined)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _check_chunks(undefined, chunks) == 1 << 13
    # Two defined states among the undefined runs.
    partial = list(undefined)
    partial[5], partial[-1] = 1 << 7, 1 << 3
    assert _check_chunks(partial, byte_tables(partial)) == (1 << 13) - 2
    # A short last run of 3 states, defined on one of them and on none.
    for last, zero_runs in (1 << 9, 1), (0, 2):
        short = [0] * 10 + [last]
        assert _check_chunks(short, byte_tables(short)) == zero_runs


# Small searches that each pin one rule of the breadth-first searches and
# of their shared witness walk: (the automaton's rows, the set, the answer,
# the budget units it spends).  The rank search answers when the set is
# None, else the saturation search of the set, whose units include its
# rank search's.
SEARCHES = {
    # Q = {0, 1, 2} goes to {0, 1} under both a and b; the word has a.
    "first-letter-to-a-child": (
        ((0, 0), (1, None), (None, 1)), None, RankResult(1, (0, 1)), 3,
    ),
    # {0, 2} is reached from {0, 1} and then from {0, 1, 2}, both under b;
    # its parent is {0, 1}.
    "first-parent-of-a-child": (
        ((0, 0), (1, 2), (0, 2), (1, 1)), None, RankResult(1, (0, 1, 0)), 5,
    ),
    # No singleton is reachable; {1, 2} and {0, 2} have the fewest states,
    # {1, 2} first.
    "first-fewest-without-target": (
        ((1, 0), (1, 0), (2, 2)), None, RankResult(2, (0,)), 3,
    ),
    "start-has-target": (((0,),), None, RankResult(1, ()), 1),
    # a kills every state: the empty set, smaller than any target, is never
    # a node, and b reaches {0}.
    "target-after-a-smaller-node": (((None, 0), (None, 0)), None, RankResult(1, (1,)), 2),
    # The config ({1}, {0}) goes to ({0}, {1}) under both a and b, and c
    # then reaches ({1}, {}); the word has a.
    "config-first-letter-to-a-child": (((1, 1, 1), (0, 0, None)), 0b10, (0, 2), 5),
    # ({1}, {0, 3}) and then ({0}, {1, 3}) step to ({1}, {0}), under a and
    # under b; its parent is ({1}, {0, 3}).
    "config-first-parent-of-a-child": (
        ((1, 1), (0, None), (None, 3), (None, 0)), 0b0001, (0, 0, 1), 9,
    ),
    # Every config of rank 1 overlaps, so no config holds the target.
    "config-without-target": (((1,), (1,)), 0b01, None, 3),
}


def _search(dfa, states, budget):
    """The rank search when ``states`` is None, else the saturation search."""
    if states is None:
        return exact_rank(dfa, budget)
    return find_saturating_min_rank_word(dfa, states, budget)


@pytest.mark.parametrize(
    "rows, states, answer, units", SEARCHES.values(), ids=SEARCHES.keys()
)
def test_breadth_first(rows, states, answer, units):
    dfa = PartialDfa(len(rows), ("a", "b", "c")[: len(rows[0])], rows)
    if states is not None:
        states = StateSet(dfa.state_count, states)
    budget = SearchBudget(units)
    assert _search(dfa, states, budget) == answer
    assert budget.remaining == 0
    short = SearchBudget(units)
    short.spend()
    with pytest.raises(BudgetExceededError):
        _search(dfa, states, short)


# A search whose compiled table has one entry on the witness path patched
# to gain a state under one letter: (the automaton's rows, the set as in
# SEARCHES, the answer of the unpatched search, the letter, the patched
# entry, the state it gains under the letter, and the parent and the child
# between which the witness walk then finds no letter).
CORRUPTED_SEARCHES = {
    # a takes Q to {0, 3}.  The patched entry adds state 2 to a's image,
    # which a kills, so a still takes the child {0, 2, 3} to {3}, the
    # answer.
    "rank": (
        ((3, None), (0, 1), (None, 1), (3, 2)), None, RankResult(1, (0, 0)), 0, 0b1111, 2, 15, 13,
    ),
    # a takes the config ({0, 2}, {1}) to ({0, 2}, {}).  The patched entry
    # adds state 1 to a's inside image, and b still takes the child
    # ({0, 1, 2}, {}) to ({2}, {}), the answer.
    "config": (((2, 2), (None, 2), (0, 2)), 0b101, (0, 1), 0, 0b101, 1, 21, 7),
    # a takes Q to {1, 2}, and b takes {1, 2} to {2}, the answer.  The
    # patched entry adds state 0 to b's image of {1, 2}, so the search reaches
    # {0, 2} there instead, and a takes that to {2}.
    "rank-second-letter": (
        ((None, 1), (1, None), (2, 2)), None, RankResult(1, (0, 1)), 1, 0b110, 0, 6, 5,
    ),
}


@pytest.mark.parametrize(
    "rows, states, answer, letter, entry, state, parent, child",
    CORRUPTED_SEARCHES.values(),
    ids=CORRUPTED_SEARCHES.keys(),
)
def test_witness_walk_raises_on_a_child_its_parent_does_not_reach(
    monkeypatch, rows, states, answer, letter, entry, state, parent, child
):
    # The walk steps by the automaton's own images, so a node that only
    # the compiled table reaches stops it rather than give a word.
    dfa = PartialDfa(len(rows), ("a", "b"), rows)
    if states is not None:
        states = StateSet(dfa.state_count, states)
    assert _search(dfa, states, SearchBudget(1 << 20)) == answer
    compiled = []

    def compile_tables(table):
        (chunk,) = byte_tables(table)
        chunk = list(chunk)
        chunk[entry] |= 1 << letter * dfa.state_count + state
        compiled.append(table)
        return (chunk,)

    monkeypatch.setattr(padfa.rank, "byte_tables", compile_tables)
    monkeypatch.setattr(padfa.saturate, "byte_tables", compile_tables)
    message = f"^no letter steps node {parent} to its child {child}$"
    with pytest.raises(RuntimeError, match=message):
        _search(dfa, states, SearchBudget(1 << 20))
    # The search compiles one table, which a saturation search shares with
    # its rank search.
    assert len(compiled) == 1


class Stop(Exception):
    pass


class _Lookups:
    """Compiled tables whose chunks log every entry read in ``log``, with the
    module of the search that read it, and raise ``Stop`` at the read past
    the first ``stop`` ones."""

    def __init__(self):
        self.log = []
        self.stop = None

    def byte_tables(self, table):
        lookups = self

        class Chunk(list):
            def __getitem__(self, index):
                if len(lookups.log) == lookups.stop:
                    raise Stop
                value = list.__getitem__(self, index)
                lookups.log.append((sys._getframe(1).f_globals["__name__"], value))
                return value

        return tuple(Chunk(chunk) for chunk in byte_tables(table))


def _cerny_with_reset(n):
    """C_n with a third letter c defined on state 0 alone.  Its rank witness
    is c, which kills every other state, so the full set takes the config
    search, whose configs are the images of the full set under the words
    over a and b: C_n's rank search, with outside images that stay empty."""
    rows = tuple(row + ((0 if s == 0 else None),) for s, row in enumerate(cerny(n).transitions))
    return PartialDfa(n, ("a", "b", "c"), rows)


# The searches of the budget tests, with the units each spends in all.  On
# 7 states or fewer a subset is one chunk, so the rank search reads one
# lookup per node, and the config search an inside and an outside one.  On
# C_6 with half its states, the rank search reads on each time the
# smallest config shrinks, so the two searches' reads interleave.
BUDGET_SEARCHES = {
    "rank": (cerny(7), None, 121),
    "config": (_cerny_with_reset(6), StateSet.full(6), 61),
    "config-and-rank": (cerny(6), StateSet(6, 0b111), 454),
}


@pytest.fixture
def lookups(monkeypatch):
    logged = _Lookups()
    monkeypatch.setattr(padfa.rank, "byte_tables", logged.byte_tables)
    monkeypatch.setattr(padfa.saturate, "byte_tables", logged.byte_tables)
    return logged


def _searches(dfa, states):
    """For each search of the answer, by the module whose loop reads its
    lookups: its start node, the lookups it reads per node, and the nodes
    that a node gives from its lookups, one per letter in order and
    ``None`` where it gives none.

    The rank search reads one entry per node, its images under every
    letter, ``n`` bits a letter.  The config search of a saturation answer
    reads an inside and then an outside entry per node; a letter gives no
    config when it kills a state of the inside image or when the two
    images meet.  The witness walks read no table."""
    n = dfa.state_count
    full = (1 << n) - 1
    shifts = range(0, dfa.letter_count * n, n)

    def subsets(mask, images):
        return [images >> shift & full or None for shift in shifts]

    searches = {"padfa.rank": (full, 1, subsets)}
    if states is None:
        return searches

    def configs(config, insides, outsides):
        given = []
        for shift, domain in zip(shifts, dfa.letter_domains):
            inside = insides >> shift & full
            outside = outsides >> shift & full
            alive = config & full & ~domain == 0
            given.append(inside | outside << n if alive and not inside & outside else None)
        return given

    start = states.mask | (full & ~states.mask) << n
    searches["padfa.saturate"] = (start, 2, configs)
    return searches


def _seen(read, start, per_node, given):
    """The nodes that one search can see from its lookups ``read``: its
    start, and the new nodes of each node whose lookups are all read, in
    breadth-first order."""
    seen = {start}
    queue = [start]
    for node, at in zip(queue, range(0, len(read) - per_node + 1, per_node)):
        for new in given(node, *read[at : at + per_node]):
            if new is not None and new not in seen:
                seen.add(new)
                queue.append(new)
    return queue


def _spent(log, searches):
    """The nodes spent after the lookups in ``log``, read off the entries.
    Each search spends a node once it has read the lookups that give it.
    The rank search alone spends up to its first singleton; a saturation
    answer spends the nodes that ``first_config_of_minimum_rank`` reads,
    the rank search's full set first."""
    spent = []

    def spend(nodes):
        for node in nodes:
            spent.append(node)
            yield node

    nodes = {
        module: spend(_seen([value for by, value in log if by == module], *search))
        for module, search in searches.items()
    }
    subsets = nodes["padfa.rank"]
    next(subsets)
    if "padfa.saturate" in nodes:
        start = searches["padfa.saturate"][0]
        first_config_of_minimum_rank(subsets, nodes["padfa.saturate"], start)
    else:
        next((subset for subset in subsets if subset.bit_count() == 1), None)
    return len(spent)


def test_breadth_first_runs_out_at_the_node_past_the_budget(lookups):
    # Each search counts the budget in a local.  Spent a unit per node, the
    # budget runs out at the first node past it: the search raises as soon
    # as a lookup gives that node, and leaves remaining at -1.
    for dfa, states, total in BUDGET_SEARCHES.values():
        searches = _searches(dfa, states)
        lookups.log.clear()
        budget = SearchBudget(1 << 20)
        _search(dfa, states, budget)
        assert budget.limit - budget.remaining == total
        # lookups_to[i] is the number of lookups after which i + 1 nodes
        # are spent.  A lookup gives a node under each letter, and both
        # searches spend their start before they read an entry, so one
        # lookup, or none, can spend several nodes.
        log = list(lookups.log)
        lookups_to = []
        for count in range(len(log) + 1):
            while _spent(log[:count], searches) > len(lookups_to):
                lookups_to.append(count)
        assert len(lookups_to) == total
        for limit in range(1, total):
            lookups.log.clear()
            budget = SearchBudget(limit)
            message = f"search budget of {limit} visited nodes exhausted"
            with pytest.raises(BudgetExceededError, match=f"^{message}$"):
                _search(dfa, states, budget)
            assert len(lookups.log) == lookups_to[limit]
            assert budget.remaining == -1


@pytest.mark.parametrize("calls", [1, 2, 3, 10, 57, 100])
def test_breadth_first_writes_the_budget_back_when_step_raises(lookups, calls):
    # A lookup of either search's loop raises after ``calls`` of them; the
    # budget spent must still be every node that the searches had seen.
    for dfa, states, _ in BUDGET_SEARCHES.values():
        searches = _searches(dfa, states)
        lookups.log.clear()
        lookups.stop = calls
        budget = SearchBudget(1000)
        with pytest.raises(Stop):
            _search(dfa, states, budget)
        lookups.stop = None
        assert budget.limit - budget.remaining == _spent(lookups.log, searches)


# (automaton, set, units of the rank search alone, units of the rank and
# the config search on one budget, the answer).  C_8 is complete, so every
# word saturates its full set, the rank witness answers, and no config
# search runs there.
SHARED_SEARCHES = {
    "cerny-8-full-set": (cerny(8), 0xFF, 248, 248, exact_rank(cerny(8)).witness),
    "cerny-6-none": (cerny(6), 0b111, 58, 454, None),
    "config-search-word": (
        PartialDfa(5, ("a", "b"), ((2, 2), (1, 2), (0, 3), (1, 4), (3, None))),
        0b1, 11, 30, (0, 0, 0, 1, 0, 0, 1, 1, 1),
    ),
}


@pytest.mark.parametrize(
    "dfa, mask, rank_units, units, answer",
    SHARED_SEARCHES.values(),
    ids=SHARED_SEARCHES.keys(),
)
def test_rank_and_config_search_add_up_on_one_budget(dfa, mask, rank_units, units, answer):
    states = StateSet(dfa.state_count, mask)
    alone = SearchBudget(1 << 20)
    exact_rank(dfa, alone)
    assert alone.limit - alone.remaining == rank_units
    budget = SearchBudget(units)
    assert find_saturating_min_rank_word(dfa, states, budget) == answer
    assert budget.remaining == 0
    for limit in {rank_units - 1, rank_units, units - 1} - {units}:
        short = SearchBudget(limit)
        with pytest.raises(BudgetExceededError, match=f"^search budget of {limit} "):
            find_saturating_min_rank_word(dfa, states, short)
        assert short.remaining == -1


def test_searches_cache_nothing_on_the_automaton():
    # The compiled byte tables belong to one search; cached on the automaton
    # they would stay alive as long as the automaton does.
    dfa = cerny(12)
    exact_rank(dfa)
    find_saturating_min_rank_word(dfa, StateSet.full(12))
    determinize_reversal(Acceptor(dfa, 0, StateSet.from_iterable(12, [0])))
    cached = set(vars(dfa)) - set(PartialDfa.__annotations__)
    assert cached <= {"letter_images", "letter_domains"}


def test_all_is_the_package_namespace():
    # ``__all__`` is the table of public names and their home modules, and
    # each name is the object its home module defines, so a name removed
    # from a module cannot linger in the package.
    assert padfa.__all__ == list(padfa._HOMES)
    for name, home in padfa._HOMES.items():
        assert getattr(padfa, name) is getattr(importlib.import_module(f"padfa.{home}"), name)
    namespace = {}
    exec("from padfa import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(padfa, name) for name in padfa.__all__}
    assert set(padfa.__all__) <= set(dir(padfa))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        padfa.no_such_name


def test_importing_the_package_loads_no_module():
    # A name's module is loaded when the name is first read, not before.
    script = (
        "import sys, padfa\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'padfa'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(padfa.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["padfa"]


def test_no_module_loads_dataclasses_or_inspect():
    # Importing ``dataclasses`` (which imports ``inspect``) would add about
    # 5 ms to every padfa process; the records are built by ``core.record``.
    # A module that a bare interpreter already loads costs nothing.
    env = dict(os.environ, PYTHONPATH=str(Path(padfa.__file__).resolve().parents[1]))
    package = Path(padfa.__file__).parent
    modules = [f"padfa.{source.stem}" for source in sorted(package.glob("[!_]*.py"))]
    assert len(modules) == 8  # cli and the seven home modules

    def heavy_modules_after(imports: str) -> set[str]:
        script = f"import sys\n{imports}\nprint(*['dataclasses', 'inspect'] & sys.modules.keys())"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    assert heavy_modules_after(f"import {', '.join(modules)}") <= heavy_modules_after("pass")


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so no check may live only in one.
    for source in sorted(Path(padfa.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{source.name} has assert statements at lines {lines}"


def test_no_private_names_imported_across_modules():
    # An underscore name is private to its module; share it by making it
    # public instead.
    for source in sorted(Path(padfa.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        private = [
            (node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "padfa")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == [], f"{source.name} imports private names {private}"


# The padfa modules each module may import; ``None`` means any.  ``formats``
# stands on ``core`` alone, so loading a file loads no construction code.
_MAY_IMPORT = {
    "core": set(),
    "graphs": {"core"},
    "rank": {"core", "graphs"},
    "saturate": {"core", "rank"},
    "birecurrent": {"core", "graphs", "saturate"},
    "gadgets": {"core", "graphs"},
    "formats": {"core"},
    "cli": None,
    "__init__": None,
    "__main__": None,
}


def test_modules_import_only_their_layers():
    for source in sorted(Path(padfa.__file__).parent.glob("*.py")):
        assert source.stem in _MAY_IMPORT, f"{source.name} has no layer"
        allowed = _MAY_IMPORT[source.stem]
        if allowed is None:
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                # ``from .core import X`` or ``from . import core``
                names = [node.module] if node.module else [a.name for a in node.names]
                imported.update(name.split(".")[0] for name in names)
                continue
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                package, _, module = name.partition(".")
                if package == "padfa":
                    imported.add(module.split(".")[0] or "__init__")
        assert imported <= allowed, f"{source.name} imports {sorted(imported - allowed)}"


_FILE_KEYS = ["states", "alphabet", "initial", "accepting", "trans", "machine", "x"]
_FILE_TOKENS = ["0", "1", "2", "-1", "1.5", "a", "b", "c", "#", ":", ""]


@st.composite
def file_texts(draw):
    """Arbitrary text, or lines built from the file format's keys and small
    tokens so that the parser gets past its first checks."""
    lines = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_FILE_KEYS),
                st.lists(st.sampled_from(_FILE_TOKENS), max_size=4),
            ),
            max_size=8,
        )
    )
    structured = "\n".join(f"{key}: {' '.join(tokens)}" for key, tokens in lines)
    return draw(st.one_of(st.text(), st.just(structured)))


@settings(max_examples=150, deadline=None)
@given(file_texts())
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_automaton, parse_instance):
        try:
            parse(text)
        except ParseError:
            pass


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SearchBudget(0), "budget must be positive"),
        (lambda: SearchBudget(True), "budget must be an int, not True"),
        (lambda: exact_rank(c4(), 7.5), "budget must be an int, not 7.5"),
        (lambda: StateSet(2, True), "universe and mask must be ints, not 2 and True"),
        (lambda: StateSet(True, 1), "universe and mask must be ints, not True and 1"),
        (lambda: StateSet(1.0), "universe and mask must be ints, not 1.0 and 0"),
        (lambda: StateSet.from_iterable(3, [True]), "state True out of range"),
        (lambda: StateSet.from_iterable(3, [1.0]), "state 1.0 out of range"),
        (lambda: StateSet(-1), "universe must be non-negative"),
        (lambda: StateSet(2, 0b100), "members out of range for universe 2"),
        (lambda: StateSet(2, -1), "members out of range for universe 2"),
        (
            lambda: PartialDfa(2, ("a",), ((0,),)),
            "transition table must have one row per state",
        ),
        (
            lambda: PartialDfa(1, ("a",), ((0, 0),)),
            "transition row width must match alphabet size",
        ),
        (lambda: PartialDfa.from_map(2, "a", {(2, "a"): 0}), "state 2 out of range"),
        (lambda: PartialDfa.from_map(2, "a", {(0, "b"): 0}), "unknown letter 'b'"),
        # These four share their messages with StateSet.from_iterable's, so
        # they carry their own ids.
        pytest.param(
            lambda: PartialDfa.from_map(2, "a", {(True, "a"): 0}),
            "state True out of range",
            id="from_map-bool-state",
        ),
        pytest.param(
            lambda: PartialDfa.from_map(2, "a", {(1.0, "a"): 0}),
            "state 1.0 out of range",
            id="from_map-float-state",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).run(True, (0,)),
            "state True out of range",
            id="run-bool-state",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).run(1.0, (0,)),
            "state 1.0 out of range",
            id="run-float-state",
        ),
        # With two letters, True and 1.0 would read as letter 1.
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).run(0, (True,)),
            "letter index True out of range",
            id="run-bool-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).run(0, (1.0,)),
            "letter index 1.0 out of range",
            id="run-float-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).step_mask(0b11, True),
            "letter index True out of range",
            id="step_mask-bool-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).step_mask(0b11, 1.0),
            "letter index 1.0 out of range",
            id="step_mask-float-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).image_mask(0b11, (True,)),
            "letter index True out of range",
            id="image_mask-bool-letter",
        ),
        # A mask is checked as a state is: True would read as {0} and 1.5
        # as no set at all.
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).image_mask(True, (0,)),
            "state mask True out of range",
            id="image_mask-bool-mask",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).image_mask(1.5, (0,)),
            "state mask 1.5 out of range",
            id="image_mask-float-mask",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).image_mask(-1, (0,)),
            "state mask -1 out of range",
            id="image_mask-negative-mask",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).image_mask(1 << 5, (0,)),
            "state mask 32 out of range",
            id="image_mask-mask-past-the-states",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).image_mask(0b100, ()),
            "state mask 4 out of range",
            id="image_mask-mask-past-the-states-empty-word",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).step_mask(True, 0),
            "state mask True out of range",
            id="step_mask-bool-mask",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).step_mask(-1, 0),
            "state mask -1 out of range",
            id="step_mask-negative-mask",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a",), ((None,), (0,))).step_mask(0b100, 0),
            "state mask 4 out of range",
            id="step_mask-mask-past-the-states",
        ),
        # word_names renders every word the command line prints.
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).word_names((True,)),
            "letter index True out of range",
            id="word_names-bool-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).word_names((-1, True, 0)),
            "letter index -1 out of range",
            id="word_names-negative-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).word_names((1.0,)),
            "letter index 1.0 out of range",
            id="word_names-float-letter",
        ),
        pytest.param(
            lambda: PartialDfa(2, ("a", "b"), ((None, 1), (0, None))).word_names((2,)),
            "letter index 2 out of range",
            id="word_names-out-of-range-letter",
        ),
        (
            lambda: Acceptor(PartialDfa(0, ("a",), ()), 0, StateSet(0)),
            "empty acceptor cannot have an initial state",
        ),
        (lambda: IntersectionInstance(()), "an instance needs at least one machine"),
        (
            lambda: IntersectionInstance((Acceptor.empty(("a",)),)),
            "machine 0 has no states",
        ),
    ],
)
def test_core_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
