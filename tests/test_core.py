import ast
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padfa
from padfa import Acceptor, PartialDfa, StateSet
from padfa.birecurrent import determinize_reversal
from padfa.core import byte_image, byte_tables, union_image
from padfa.formats import ParseError, parse_automaton, parse_instance
from padfa.rank import exact_rank
from padfa.saturate import find_saturating_min_rank_word

from support import cerny, d2, letters, m2, p2


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
def tables_and_masks(draw):
    """A per-state mask table of 0..40 entries (across the 8/16/24/32
    boundaries, with a short last run) and a mask over its states."""
    size = draw(st.integers(0, 40))
    table = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size))
    return table, draw(st.integers(0, (1 << size) - 1))


@settings(max_examples=60, deadline=None)
@given(tables_and_masks())
def test_byte_image_equals_union_image(data):
    table, mask = data
    assert byte_image(byte_tables(table), mask) == union_image(table, mask)


def test_searches_cache_nothing_on_the_automaton():
    # The compiled byte tables belong to one search; cached on the automaton
    # they would stay alive as long as the automaton does.
    dfa = cerny(12)
    exact_rank(dfa)
    find_saturating_min_rank_word(dfa, StateSet.full(12))
    determinize_reversal(Acceptor(dfa, 0, StateSet.from_iterable(12, [0])))
    cached = set(vars(dfa)) - {field.name for field in fields(PartialDfa)}
    assert cached <= {"letter_images", "letter_domains"}


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
    "bruteforce": {"core"},
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
