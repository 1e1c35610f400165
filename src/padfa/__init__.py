"""Analysis toolkit for partial deterministic finite automata.

Core notions: the rank of a word is the size of the image of the state set
under that word (undefined transitions drop states); the rank of an
automaton is the minimum nonzero rank over all words; a rank-1 word
synchronizes the automaton.  On top of that the package decides saturation
of state sets, recognizes birecurrent languages, and builds the gadget
automata that tie all of these questions to finite-automata intersection.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.  Importing the package
# loads none of them: ``__getattr__`` imports a name's module the first time
# the name is read, so a process loads only the modules it uses.
_HOMES = {
    "Acceptor": "core",
    "BudgetExceededError": "core",
    "DEFAULT_BUDGET": "core",
    "GadgetLayout": "gadgets",
    "IntersectionInstance": "core",
    "MethodDisagreement": "birecurrent",
    "PairAutomaton": "rank",
    "PartialDfa": "core",
    "RankResult": "rank",
    "SearchBudget": "core",
    "StateSet": "core",
    "SubsetAutomaton": "birecurrent",
    "Word": "core",
    "binarize": "gadgets",
    "binarize_with_selfloop": "gadgets",
    "build_complete_gadget": "gadgets",
    "build_saturation_gadget": "gadgets",
    "build_sc_gadget": "gadgets",
    "build_sync_gadget": "gadgets",
    "coreachable_to": "graphs",
    "determinize_reversal": "birecurrent",
    "exact_rank": "rank",
    "find_saturating_min_rank_word": "saturate",
    "has_common_word": "gadgets",
    "is_birecurrent": "birecurrent",
    "is_birecurrent_characterization": "birecurrent",
    "is_birecurrent_direct": "birecurrent",
    "is_saturated_by": "saturate",
    "is_strongly_connected": "graphs",
    "is_synchronizing": "rank",
    "min_rank_word_sc": "rank",
    "minimize": "birecurrent",
    "pair_automaton": "rank",
    "rank_word_length_bound": "rank",
    "reachable_from": "graphs",
    "strongly_connect_gadget": "gadgets",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
