"""Analysis toolkit for partial deterministic finite automata.

Core notions: the rank of a word is the size of the image of the state set
under that word (undefined transitions drop states); the rank of an
automaton is the minimum nonzero rank over all words; a rank-1 word
synchronizes the automaton.  On top of that the package decides saturation
of state sets, recognizes birecurrent languages, and builds the gadget
automata that tie all of these questions to finite-automata intersection.
"""

from .birecurrent import (
    MethodDisagreement,
    SubsetAutomaton,
    determinize_reversal,
    is_birecurrent,
    is_birecurrent_characterization,
    is_birecurrent_direct,
    minimize,
)
from .core import (
    DEFAULT_BUDGET,
    Acceptor,
    BudgetExceededError,
    IntersectionInstance,
    PartialDfa,
    SearchBudget,
    StateSet,
    Word,
)
from .gadgets import (
    GadgetLayout,
    binarize,
    binarize_with_selfloop,
    build_complete_gadget,
    build_saturation_gadget,
    build_sc_gadget,
    build_sync_gadget,
    has_common_word,
    strongly_connect_gadget,
)
from .graphs import (
    PairAutomaton,
    coreachable_to,
    is_strongly_connected,
    pair_automaton,
    reachable_from,
)
from .rank import (
    RankResult,
    exact_rank,
    is_synchronizing,
    min_rank_word_sc,
    rank_word_length_bound,
)
from .saturate import (
    find_saturating_min_rank_word,
    is_saturated_by,
)

__version__ = "0.1.0"

__all__ = [
    "Acceptor",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "GadgetLayout",
    "IntersectionInstance",
    "MethodDisagreement",
    "PairAutomaton",
    "PartialDfa",
    "RankResult",
    "SearchBudget",
    "StateSet",
    "SubsetAutomaton",
    "Word",
    "binarize",
    "binarize_with_selfloop",
    "build_complete_gadget",
    "build_saturation_gadget",
    "build_sc_gadget",
    "build_sync_gadget",
    "coreachable_to",
    "determinize_reversal",
    "exact_rank",
    "find_saturating_min_rank_word",
    "has_common_word",
    "is_birecurrent",
    "is_birecurrent_characterization",
    "is_birecurrent_direct",
    "is_saturated_by",
    "is_strongly_connected",
    "is_synchronizing",
    "min_rank_word_sc",
    "minimize",
    "pair_automaton",
    "rank_word_length_bound",
    "reachable_from",
    "strongly_connect_gadget",
]
