"""The contract of the package's frozen value types (records): construction,
defaults, validation, equality and hashing, immutability, ``repr``, and
copying and pickling, also with a cached property filled in."""

import copy
import pickle

import pytest

from padfa import (
    Acceptor,
    GadgetLayout,
    IntersectionInstance,
    PairAutomaton,
    PartialDfa,
    RankResult,
    StateSet,
    SubsetAutomaton,
    determinize_reversal,
    pair_automaton,
)
from padfa.formats import LoadedAutomaton

_DFA = PartialDfa(2, ("a", "b"), ((1, None), (0, 1)))
_COMPLETE = Acceptor(PartialDfa(2, ("a", "b"), ((1, 0), (0, 1))), 0, StateSet(2, 0b10))
_PAIRS = pair_automaton(_DFA)
_REVERSAL = determinize_reversal(Acceptor(_DFA, 0, StateSet(2, 0b10)))

# Each record class with its fields in declaration order, valid values for
# them, and one field with a different valid value.
CASES = {
    StateSet: ({"universe": 3, "mask": 0b101}, ("mask", 0b11)),
    PartialDfa: (
        {"state_count": 2, "alphabet": ("a", "b"), "transitions": ((1, None), (0, 1))},
        ("transitions", ((1, None), (0, None))),
    ),
    Acceptor: ({"dfa": _DFA, "initial": 0, "accepting": StateSet(2, 0b10)}, ("initial", 1)),
    IntersectionInstance: ({"machines": (_COMPLETE,)}, ("machines", (_COMPLETE, _COMPLETE))),
    LoadedAutomaton: ({"dfa": _DFA, "initial": None, "accepting": None}, ("initial", 0)),
    RankResult: ({"rank": 1, "witness": (0, 1)}, ("witness", (1, 0))),
    PairAutomaton: (
        {name: getattr(_PAIRS, name) for name in ("state_count", "columns", "node_of")},
        ("state_count", 3),
    ),
    SubsetAutomaton: (
        {name: getattr(_REVERSAL, name) for name in ("source", "nodes", "rows")},
        ("nodes", [0b10]),
    ),
    GadgetLayout: (
        {
            "state_map": {(0, 0): 0, (0, 1): 1},
            "special_states": {"accept_sink": 2},
            "letter_map": {"reset": 2},
            "meta": {"universal_machine_index": 1},
        },
        ("meta", {}),
    ),
}

records = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def _make(cls):
    return cls(**CASES[cls][0])


@records
def test_fields_are_the_annotations_in_order(cls):
    assert tuple(cls.__annotations__) == tuple(CASES[cls][0])


@records
def test_construction_by_position_and_by_keyword(cls):
    values = CASES[cls][0]
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for name, value in values.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@records
def test_bad_argument_lists_raise_type_error(cls):
    values = CASES[cls][0]
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(values[first], **values)
    with pytest.raises(TypeError):
        cls()


def test_defaults():
    assert StateSet(3).mask == 0
    assert StateSet(3) == StateSet(3, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StateSet(2, True), "universe and mask must be ints"),
        (lambda: StateSet(-1), "universe must be non-negative"),
        (lambda: StateSet(2, 0b100), "members out of range for universe 2"),
        (lambda: PartialDfa(True, (), ((),)), "state_count must be a non-negative int"),
        (lambda: PartialDfa(-1, (), ()), "state_count must be a non-negative int"),
        (lambda: PartialDfa(1, ("a", "a"), ((0, 0),)), "alphabet names must be unique"),
        (lambda: PartialDfa(1, ("",), ((0,),)), "alphabet names must be nonempty"),
        # A name that is not a str would build and then fail to serialize.
        (lambda: PartialDfa(1, (5,), ((0,),)), "alphabet names must be nonempty strings, not 5$"),
        (lambda: PartialDfa(1, (["a"],), ((0,),)), r"names must be nonempty strings, not \['a'\]$"),
        (lambda: PartialDfa(2, ("a",), ((0,),)), "one row per state"),
        (lambda: PartialDfa(1, ("a",), ((0, 0),)), "row width must match"),
        (lambda: PartialDfa(1, ("a",), ((1,),)), "transition target 1 out of range"),
        (lambda: Acceptor(_DFA, 0, StateSet(3)), "accepting set universe does not match"),
        (lambda: Acceptor(_DFA, 0, {0}), r"accepting must be a StateSet, not \{0\}$"),
        (lambda: Acceptor(_DFA, 0, [0]), r"accepting must be a StateSet, not \[0\]$"),
        (lambda: Acceptor(_DFA, 0, None), "accepting must be a StateSet, not None$"),
        (lambda: Acceptor(PartialDfa(0, (), ()), 0, StateSet(0)), "empty acceptor cannot"),
        (lambda: Acceptor(_DFA, 2, StateSet(2)), "initial state 2 out of range"),
        (lambda: IntersectionInstance(()), "an instance needs at least one machine"),
        (
            lambda: IntersectionInstance((Acceptor.empty(("a", "b")),)),
            "machine 0 has no states",
        ),
        (
            lambda: IntersectionInstance((_COMPLETE, Acceptor.empty(("a",)))),
            "machine 1 has no states",
        ),
        (
            lambda: IntersectionInstance(
                (_COMPLETE, Acceptor(PartialDfa(1, ("b", "a"), ((0, 0),)), 0, StateSet(1)))
            ),
            "machine 1 uses a different alphabet",
        ),
        (
            lambda: IntersectionInstance((Acceptor(_DFA, 0, StateSet(2)),)),
            "machine 0 is not complete",
        ),
    ],
)
def test_every_validation_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@records
def test_equality_and_hash_follow_the_fields(cls):
    values, (name, other_value) = CASES[cls]
    record = _make(cls)
    twin = cls(**copy.deepcopy(values))
    changed = cls(**{**values, name: other_value})
    assert record == twin and not record != twin
    assert record != changed
    try:
        hash(tuple(values.values()))
    except TypeError:  # a list or dict field makes the record unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert hash(record) != hash(changed)
    for other_cls in CASES:
        if other_cls is not cls:
            assert record != _make(other_cls)
    assert record != tuple(values.values())
    assert record.__eq__(tuple(values.values())) is NotImplemented


@records
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = _make(cls)
    for name, value in CASES[cls][0].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@records
def test_repr_lists_the_fields(cls):
    values = CASES[cls][0]
    listed = ", ".join(f"{name}={value!r}" for name, value in values.items())
    expected = f"{cls.__name__}({listed})" if cls is not StateSet else "StateSet(3, {0, 2})"
    assert repr(_make(cls)) == expected


def test_repr_literals():
    assert repr(RankResult(1, (0, 1))) == "RankResult(rank=1, witness=(0, 1))"
    assert repr(GadgetLayout({(0, 1): 2}, {}, {"a": 0}, {"x": 1})) == (
        "GadgetLayout(state_map={(0, 1): 2}, special_states={}, letter_map={'a': 0}, "
        "meta={'x': 1})"
    )


@records
@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_copies_and_pickles_are_equal(cls, cached):
    record = _make(cls)
    if cached:
        # Fill each cached property, which lives in the instance's __dict__.
        for name in ("letter_images", "letter_domains", "acceptor", "step", "endpoints"):
            if hasattr(cls, name):
                getattr(record, name)
        for field in CASES[cls][0].values():
            if isinstance(field, PartialDfa):
                field.letter_images
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(clone) is cls
        assert clone == record
        for name in ("letter_images", "acceptor", "step", "endpoints"):
            if hasattr(cls, name):
                assert getattr(clone, name) == getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(clone, next(iter(CASES[cls][0])), None)


def test_cached_properties_fill_the_instance_dict():
    dfa = PartialDfa(**CASES[PartialDfa][0])
    assert "letter_images" not in vars(dfa)
    images = dfa.letter_images
    assert vars(dfa)["letter_images"] is images is dfa.letter_images
    reversal = SubsetAutomaton(**CASES[SubsetAutomaton][0])
    assert reversal.acceptor is reversal.acceptor is vars(reversal)["acceptor"]
    pairs = PairAutomaton(**CASES[PairAutomaton][0])
    assert pairs.step is pairs.step is vars(pairs)["step"]
    assert pairs.endpoints is pairs.endpoints is vars(pairs)["endpoints"]
