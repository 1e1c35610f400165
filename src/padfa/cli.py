"""Command-line front end.

Each ``cmd_*`` handler only computes its exit status, plain lines and
``--json`` object; ``_outcome`` names the command in that object, as in an
error's, and ``main`` is the one writer and the one guard against a closed
stdout.

Exit codes follow one contract everywhere: 0 for yes/ok, 1 for a negative
verdict (not synchronizing, no saturating word, not birecurrent, no common
word), 2 for errors of any kind (usage errors, parse failures, violated
preconditions, exhausted search budgets, internal errors such as
``MemoryError``, a failed write to stdout, reported on stderr, and a closed
stdout, after which nothing more is written, be it an answer, an error or
the help text).  ``--json`` anywhere in the arguments switches to a single
machine-readable object on stdout with the same verdicts; an error then is
the object ``{"command", "error", "message"}``, where ``error`` names the
exception class (``ArgumentError`` for a usage error, whose ``command`` is
``null`` when no command was recognized).  Only the commands that search
take ``--budget``, and a budget that ``SearchBudget`` refuses is a usage
error, as is any budget given to ``rank --method poly``, which runs no
search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Only what every command needs to load its file is imported here; each
# ``cmd_*`` handler imports the modules it runs, so a process loads no
# module its command does not use.
from .core import DEFAULT_BUDGET, BudgetExceededError, PartialDfa, SearchBudget, StateSet, Word
from .formats import (
    LoadedAutomaton,
    parse_automaton,
    parse_index,
    parse_instance,
    serialize_automaton,
    to_dot,
)


def _load_automaton(path: str) -> LoadedAutomaton:
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


def _load_instance(path: str):
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _word(dfa: PartialDfa, word: Word) -> tuple[str, list[str]]:
    """``word`` as plain text (``ε`` when empty) and as its ``--json`` list."""
    names = list(dfa.word_names(word))
    return (" ".join(names) if word else "ε"), names


def _parse_set(spec: str, universe: int) -> StateSet:
    if spec == "all":
        return StateSet.full(universe)
    if not spec.strip():
        return StateSet(universe)
    indices = [parse_index(token.strip()) for token in spec.split(",")]
    if None in indices:
        raise ValueError(f"--set expects comma-separated indices, got {spec!r}")
    seen = set()
    for index in indices:
        # A file's ``accepting:`` line rejects a repeat too.
        if index in seen:
            raise ValueError(f"--set names state {index} more than once")
        seen.add(index)
    return StateSet.from_iterable(universe, indices)


def _budget(text: str) -> int:
    """``--budget N``: a usage error unless ``SearchBudget`` takes N."""
    try:
        return SearchBudget(int(text)).limit
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}: {exc}") from None


# What a handler returns: (exit status, plain lines, ``--json`` object).
# ``_outcome`` adds the command's name to the object.
Answer = tuple[int, list[str], dict]


def _found(dfa: PartialDfa, label: str, word: Word | None) -> Answer:
    """The answer of a search for one word: status 1 and ``none`` when there
    is none."""
    if word is None:
        return 1, ["none"], {"found": False, "word": None}
    text, names = _word(dfa, word)
    return 0, [f"{label}: {text}"], {"found": True, "word": names}


def cmd_validate(args) -> Answer:
    loaded = _load_automaton(args.file)
    return 0, ["ok"], {"ok": True, "states": loaded.dfa.state_count}


def cmd_info(args) -> Answer:
    from .graphs import is_strongly_connected

    loaded = _load_automaton(args.file)
    dfa = loaded.dfa
    payload = {
        "states": dfa.state_count,
        "letters": len(dfa.alphabet),
        "complete": dfa.is_complete(),
        "permutation": dfa.is_permutation(),
        "strongly_connected": dfa.state_count > 0 and is_strongly_connected(dfa),
    }
    human = [
        f"{key}: {('no', 'yes')[value] if isinstance(value, bool) else value}"
        for key, value in payload.items()
    ]
    return 0, human, payload


def cmd_rank(args) -> Answer:
    from .rank import exact_rank, min_rank_word_sc

    loaded = _load_automaton(args.file)
    if args.method == "poly":
        result = min_rank_word_sc(loaded.dfa)
    else:
        result = exact_rank(loaded.dfa, args.budget)
    human = [f"rank: {result.rank}"]
    payload = {
        "method": args.method,
        "rank": result.rank,
        "witness_length": result.word_length,
    }
    if args.witness:
        text, payload["witness"] = _word(loaded.dfa, result.witness)
        human.append(f"witness: {text}")
    return 0, human, payload


def cmd_sync(args) -> Answer:
    from .rank import is_synchronizing

    loaded = _load_automaton(args.file)
    synchronizing, witness = is_synchronizing(loaded.dfa, args.budget)
    payload = {"synchronizing": synchronizing}
    human = ["synchronizing" if synchronizing else "not synchronizing"]
    if args.witness and witness is not None:
        text, payload["witness"] = _word(loaded.dfa, witness)
        human.append(f"witness: {text}")
    return (0 if synchronizing else 1), human, payload


def cmd_saturate(args) -> Answer:
    from .saturate import find_saturating_min_rank_word

    loaded = _load_automaton(args.file)
    states = _parse_set(args.set, loaded.dfa.state_count)
    word = find_saturating_min_rank_word(loaded.dfa, states, args.budget)
    return _found(loaded.dfa, "saturating word", word)


# ``--method`` of ``birecurrent``: its choices and the names of their
# deciders in ``birecurrent``, which the handler imports.
_DECIDERS = {
    "direct": "is_birecurrent_direct",
    "char": "is_birecurrent_characterization",
    "both": "is_birecurrent",
}


def cmd_birecurrent(args) -> Answer:
    from . import birecurrent

    acceptor = _load_automaton(args.file).require_acceptor()
    verdict = getattr(birecurrent, _DECIDERS[args.method])(acceptor, args.budget)
    return (
        0 if verdict else 1,
        [f"birecurrent: {'yes' if verdict else 'no'}"],
        {"method": args.method, "birecurrent": verdict},
    )


def _layout_payload(kind: str, layout) -> dict:
    meta = {}
    for key, value in layout.meta.items():
        if isinstance(value, dict):
            meta[key] = {str(k): v for k, v in value.items()}
        else:
            meta[key] = value
    return {
        "kind": kind,
        "state_map": {f"{m},{q}": v for (m, q), v in layout.state_map.items()},
        "special_states": dict(layout.special_states),
        "letter_map": dict(layout.letter_map),
        "meta": meta,
    }


# ``KIND`` of ``reduce``: its choices and the names of their gadget builders
# in ``gadgets``, which the handler imports.
_GADGETS = {
    "sync": "build_sync_gadget",
    "saturation": "build_saturation_gadget",
    "sc": "build_sc_gadget",
    "complete": "build_complete_gadget",
}


def cmd_reduce(args) -> Answer:
    from . import gadgets

    instance = _load_instance(args.instance)
    # Only ``build_complete_gadget`` returns a third value, its distinguished set.
    gadget, layout, *distinguished = getattr(gadgets, _GADGETS[args.kind])(instance)
    layout_payload = _layout_payload(args.kind, layout)
    if distinguished:
        layout_payload["target_set"] = sorted(distinguished[0])

    out = Path(args.output)
    out.write_text(serialize_automaton(gadget), encoding="utf-8")
    sidecar = Path(str(out) + ".layout.json")
    sidecar.write_text(
        json.dumps(layout_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return (
        0,
        [f"wrote {out}", f"wrote {sidecar}"],
        {
            "kind": args.kind,
            "output": str(out),
            "layout": str(sidecar),
            "states": gadget.state_count,
            "letters": len(gadget.alphabet),
        },
    )


def cmd_binarize(args) -> Answer:
    from .gadgets import binarize, binarize_with_selfloop

    loaded = _load_automaton(args.file)
    if args.add_selfloop:
        gadget, _ = binarize_with_selfloop(loaded.dfa)
    else:
        gadget, _ = binarize(loaded.dfa, args.last_letter)
    out = Path(args.output)
    out.write_text(serialize_automaton(gadget), encoding="utf-8")
    return (
        0,
        [f"wrote {out}"],
        {"output": str(out), "states": gadget.state_count},
    )


def cmd_oracle(args) -> Answer:
    from .gadgets import has_common_word

    instance = _load_instance(args.instance)
    word = has_common_word(instance, args.budget)
    return _found(instance.machines[0].dfa, "common word", word)


def cmd_dot(args) -> Answer:
    text = to_dot(_load_automaton(args.file))
    return 0, [text.rstrip("\n")], {"dot": text}


class _UsageError(Exception):
    """A command-line usage error, raised by the parser instead of printing
    and exiting so that ``_outcome`` can report it in the requested format."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # No prefix abbreviations: ``_outcome`` looks for the literal ``--json``.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise _UsageError(self, message)

    # argparse drops a failed write of the help text and exits 0; this lets
    # a closed stdout reach ``main``.
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())

    # argparse hands everything after a command to that command's parser
    # through this method and lets the root report what is left over; each
    # parser reports its own leftovers instead, so ``rank FILE --bogus``
    # prints the usage of ``padfa rank``.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        # ``--budget`` is None until this check has seen whether it was
        # given: ``rank --method poly`` runs no search and refuses one, and
        # the searches get the default.  The innermost parser runs it first.
        if getattr(namespace, "method", None) == "poly":
            if namespace.budget is not None:
                self.error("--budget does not apply to --method poly, which runs no search")
        elif getattr(namespace, "budget", DEFAULT_BUDGET) is None:
            namespace.budget = DEFAULT_BUDGET
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    # Only the commands that run a search spend a budget.
    searching = argparse.ArgumentParser(add_help=False, parents=[common])
    searching.add_argument(
        "--budget",
        type=_budget,
        metavar="N",
        help=f"subset-search budget in visited configurations (default {DEFAULT_BUDGET}); "
        "a usage error with rank --method poly, which runs no search",
    )

    parser = _Parser(
        prog="padfa",
        description="Analyze partial deterministic finite automata: rank, "
        "synchronization, saturation, birecurrence, and intersection gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a file parses")
    p.add_argument("file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("info", parents=[common], help="basic structural facts")
    p.add_argument("file")
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("rank", parents=[searching], help="minimum nonzero rank")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=["bfs", "poly"],
        default="bfs",
        help="subset search (any automaton) or the polynomial pair-merging "
        "algorithm (strongly connected automata only)",
    )
    p.add_argument("--witness", action="store_true", help="also print the word")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("sync", parents=[searching], help="is some word of rank 1?")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true", help="also print the word")
    p.set_defaults(handler=cmd_sync)

    p = sub.add_parser(
        "saturate", parents=[searching], help="saturating minimum-rank word for a set"
    )
    p.add_argument("file")
    p.add_argument(
        "--set",
        required=True,
        metavar="I,J,...",
        help="comma-separated state indices, or 'all'",
    )
    p.set_defaults(handler=cmd_saturate)

    p = sub.add_parser(
        "birecurrent", parents=[searching], help="does the acceptor recognize a birecurrent set?"
    )
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=_DECIDERS,
        default="both",
        help="direct strong-connectivity test, saturation characterization, "
        "or both with an agreement check (default)",
    )
    p.set_defaults(handler=cmd_birecurrent)

    p = sub.add_parser(
        "reduce", parents=[common], help="build a gadget from an instance file"
    )
    p.add_argument("kind", choices=_GADGETS)
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser(
        "binarize", parents=[common], help="encode the alphabet into {0, 1}"
    )
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--last-letter", metavar="NAME", help="existing letter to enumerate last"
    )
    group.add_argument(
        "--add-selfloop",
        action="store_true",
        help="append a fresh total self-loop letter and enumerate it last",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_binarize)

    # The options belong to the leaf only: declared on both, the leaf's
    # defaults would overwrite any given before ``common-word``.
    p = sub.add_parser("oracle", help="reference analyses")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser(
        "common-word", parents=[searching], help="shortest word accepted by all machines"
    )
    q.add_argument("instance")
    q.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("dot", parents=[common], help="GraphViz DOT on stdout")
    p.add_argument("file")
    p.set_defaults(handler=cmd_dot)

    return parser


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """Parse ``argv`` and run its command: the exit status and the text for
    stdout and for stderr, be it the answer or the error."""
    # The subcommand is recorded here before its own arguments are parsed,
    # so a usage error can still name it.
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, args)
        status, lines, payload = args.handler(args)
        as_json, err = args.json, ""
    except SystemExit as exc:
        # -h/--help: argparse has printed the help text.
        return (0 if exc.code in (0, None) else 2), "", ""
    except BrokenPipeError:
        raise  # a closed pipe is not reported; see ``main``
    except Exception as exc:
        # A ``MemoryError`` has no message: fall back to the class name.
        message = str(exc) or type(exc).__name__
        if isinstance(exc, _UsageError):
            # The arguments did not parse, so ``args.json`` may be unset.
            as_json, error = "--json" in argv, "ArgumentError"
            label = exc.parser.format_usage() + f"{exc.parser.prog}: error"
        else:
            # ``args.json`` is unset if the help text could not be written.
            as_json = getattr(args, "json", "--json" in argv)
            error = type(exc).__name__
            expected = isinstance(exc, (ValueError, OSError, BudgetExceededError))
            label = "error" if expected else "internal error"
        status, lines, err = 2, [], f"{label}: {message}\n"
        payload = {"error": error, "message": message}
    payload["command"] = args.command
    if as_json:
        return status, json.dumps(payload, sort_keys=True) + "\n", ""
    return status, "".join(line + "\n" for line in lines), err


def main(argv=None) -> int:
    """Run one command and write its answer or its error: the one writer of
    stdout and stderr, and the one guard against a closed stdout."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        status, out, err = _outcome(argv)
        sys.stderr.write(err)
        if out:  # an unbuffered write of nothing still fails on a full disk
            sys.stdout.write(out)
        # A short output is still buffered; a closed stdout shows up here.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        pass  # the reader closed stdout, or a pipe a handler wrote to
    except (ValueError, OSError) as exc:
        # stdout cannot take the answer: a character its encoding lacks, a full disk
        sys.stderr.write(f"error: {exc}\n")
    # Point stdout at os.devnull: the interpreter's final flush cannot fail.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 2
