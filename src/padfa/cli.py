"""Command-line front end.

Exit codes follow one contract everywhere: 0 for yes/ok, 1 for a negative
verdict (not synchronizing, no saturating word, not birecurrent, no common
word), 2 for errors of any kind (parse failures, violated preconditions,
exhausted search budgets, internal errors such as ``MemoryError``, and a
closed stdout, after which nothing more is written).  ``--json`` switches
every command to a single machine-readable object on stdout with the same
verdicts; an error then is the object ``{"command", "error", "message"}``,
where ``error`` names the exception class (``ArgumentError`` for a usage
error, whose ``command`` is ``null`` when no command was recognized).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .birecurrent import (
    is_birecurrent,
    is_birecurrent_characterization,
    is_birecurrent_direct,
)
from .core import DEFAULT_BUDGET, BudgetExceededError, PartialDfa, StateSet, Word
from .formats import (
    LoadedAutomaton,
    parse_automaton,
    parse_instance,
    serialize_automaton,
    to_dot,
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
)
from .graphs import is_strongly_connected
from .rank import exact_rank, is_synchronizing, min_rank_word_sc
from .saturate import find_saturating_min_rank_word


def _load_automaton(path: str) -> LoadedAutomaton:
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


def _load_instance(path: str):
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _render_word(dfa: PartialDfa, word: Word) -> str:
    return " ".join(dfa.word_names(word)) if word else "ε"


def _emit(args, human: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human:
            print(line)


def _parse_set(spec: str, universe: int) -> StateSet:
    if spec == "all":
        return StateSet.full(universe)
    if not spec.strip():
        return StateSet(universe)
    try:
        members = [int(token) for token in spec.split(",")]
    except ValueError:
        raise ValueError(f"--set expects comma-separated indices, got {spec!r}")
    return StateSet.from_iterable(universe, members)


def cmd_validate(args) -> int:
    loaded = _load_automaton(args.file)
    _emit(
        args,
        ["ok"],
        {"command": "validate", "ok": True, "states": loaded.dfa.state_count},
    )
    return 0


def cmd_info(args) -> int:
    loaded = _load_automaton(args.file)
    dfa = loaded.dfa
    connected = dfa.state_count > 0 and is_strongly_connected(dfa)
    payload = {
        "command": "info",
        "states": dfa.state_count,
        "letters": len(dfa.alphabet),
        "complete": dfa.is_complete(),
        "permutation": dfa.is_permutation(),
        "strongly_connected": connected,
    }
    human = [
        f"states: {dfa.state_count}",
        f"letters: {len(dfa.alphabet)}",
        f"complete: {'yes' if payload['complete'] else 'no'}",
        f"permutation: {'yes' if payload['permutation'] else 'no'}",
        f"strongly_connected: {'yes' if connected else 'no'}",
    ]
    _emit(args, human, payload)
    return 0


def cmd_rank(args) -> int:
    loaded = _load_automaton(args.file)
    if args.method == "poly":
        result = min_rank_word_sc(loaded.dfa)
    else:
        result = exact_rank(loaded.dfa, args.budget)
    human = [f"rank: {result.rank}"]
    payload = {
        "command": "rank",
        "method": args.method,
        "rank": result.rank,
        "witness_length": result.word_length,
    }
    if args.witness:
        human.append(f"witness: {_render_word(loaded.dfa, result.witness)}")
        payload["witness"] = list(loaded.dfa.word_names(result.witness))
    _emit(args, human, payload)
    return 0


def cmd_sync(args) -> int:
    loaded = _load_automaton(args.file)
    synchronizing, witness = is_synchronizing(loaded.dfa, args.budget)
    payload = {"command": "sync", "synchronizing": synchronizing}
    human = ["synchronizing" if synchronizing else "not synchronizing"]
    if args.witness and witness is not None:
        human.append(f"witness: {_render_word(loaded.dfa, witness)}")
        payload["witness"] = list(loaded.dfa.word_names(witness))
    _emit(args, human, payload)
    return 0 if synchronizing else 1


def cmd_saturate(args) -> int:
    loaded = _load_automaton(args.file)
    states = _parse_set(args.set, loaded.dfa.state_count)
    word = find_saturating_min_rank_word(loaded.dfa, states, args.budget)
    if word is None:
        _emit(args, ["none"], {"command": "saturate", "found": False, "word": None})
        return 1
    _emit(
        args,
        [f"saturating word: {_render_word(loaded.dfa, word)}"],
        {
            "command": "saturate",
            "found": True,
            "word": list(loaded.dfa.word_names(word)),
        },
    )
    return 0


def cmd_birecurrent(args) -> int:
    acceptor = _load_automaton(args.file).require_acceptor()
    if args.method == "direct":
        verdict = is_birecurrent_direct(acceptor, args.budget)
    elif args.method == "char":
        verdict = is_birecurrent_characterization(acceptor, args.budget)
    else:
        verdict = is_birecurrent(acceptor, args.budget)
    _emit(
        args,
        [f"birecurrent: {'yes' if verdict else 'no'}"],
        {"command": "birecurrent", "method": args.method, "birecurrent": verdict},
    )
    return 0 if verdict else 1


def _layout_payload(kind: str, layout: GadgetLayout, extra: dict | None = None) -> dict:
    meta = {}
    for key, value in layout.meta.items():
        if isinstance(value, dict):
            meta[key] = {str(k): v for k, v in value.items()}
        else:
            meta[key] = value
    payload = {
        "kind": kind,
        "state_map": {f"{m},{q}": v for (m, q), v in layout.state_map.items()},
        "special_states": dict(layout.special_states),
        "letter_map": dict(layout.letter_map),
        "meta": meta,
    }
    if extra:
        payload.update(extra)
    return payload


def cmd_reduce(args) -> int:
    instance = _load_instance(args.instance)
    extra: dict | None = None
    if args.kind == "sync":
        gadget, layout = build_sync_gadget(instance)
    elif args.kind == "saturation":
        gadget, layout = build_saturation_gadget(instance)
    elif args.kind == "sc":
        gadget, layout = build_sc_gadget(instance)
    else:
        gadget, layout, distinguished = build_complete_gadget(instance)
        extra = {"target_set": sorted(distinguished)}

    out = Path(args.output)
    out.write_text(serialize_automaton(gadget), encoding="utf-8")
    sidecar = Path(str(out) + ".layout.json")
    sidecar.write_text(
        json.dumps(_layout_payload(args.kind, layout, extra), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    _emit(
        args,
        [f"wrote {out}", f"wrote {sidecar}"],
        {
            "command": "reduce",
            "kind": args.kind,
            "output": str(out),
            "layout": str(sidecar),
            "states": gadget.state_count,
            "letters": len(gadget.alphabet),
        },
    )
    return 0


def cmd_binarize(args) -> int:
    loaded = _load_automaton(args.file)
    if args.add_selfloop:
        gadget, _ = binarize_with_selfloop(loaded.dfa)
    else:
        gadget, _ = binarize(loaded.dfa, args.last_letter)
    out = Path(args.output)
    out.write_text(serialize_automaton(gadget), encoding="utf-8")
    _emit(
        args,
        [f"wrote {out}"],
        {"command": "binarize", "output": str(out), "states": gadget.state_count},
    )
    return 0


def cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    word = has_common_word(instance, args.budget)
    if word is None:
        _emit(args, ["none"], {"command": "oracle", "found": False, "word": None})
        return 1
    dfa = instance.machines[0].dfa
    _emit(
        args,
        [f"common word: {_render_word(dfa, word)}"],
        {"command": "oracle", "found": True, "word": list(dfa.word_names(word))},
    )
    return 0


def cmd_dot(args) -> int:
    text = to_dot(_load_automaton(args.file))
    _emit(args, [text.rstrip("\n")], {"command": "dot", "dot": text})
    return 0


class _UsageError(Exception):
    """A command-line usage error, raised by the parser instead of printing
    and exiting so that ``main`` can report it in the requested format."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # No prefix abbreviations: ``main`` looks for the literal ``--json``.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise _UsageError(self, message)

    # argparse hands everything after a command to that command's parser
    # through this method and lets the root report what is left over; each
    # parser reports its own leftovers instead, so ``rank FILE --bogus``
    # prints the usage of ``padfa rank``.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help=f"subset-search budget in visited configurations (default {DEFAULT_BUDGET})",
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

    p = sub.add_parser("rank", parents=[common], help="minimum nonzero rank")
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

    p = sub.add_parser("sync", parents=[common], help="is some word of rank 1?")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true", help="also print the word")
    p.set_defaults(handler=cmd_sync)

    p = sub.add_parser(
        "saturate", parents=[common], help="saturating minimum-rank word for a set"
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
        "birecurrent", parents=[common], help="does the acceptor recognize a birecurrent set?"
    )
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=["direct", "char", "both"],
        default="both",
        help="direct strong-connectivity test, saturation characterization, "
        "or both with an agreement check (default)",
    )
    p.set_defaults(handler=cmd_birecurrent)

    p = sub.add_parser(
        "reduce", parents=[common], help="build a gadget from an instance file"
    )
    p.add_argument("kind", choices=["sync", "saturation", "sc", "complete"])
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
        "common-word", parents=[common], help="shortest word accepted by all machines"
    )
    q.add_argument("instance")
    q.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("dot", parents=[common], help="GraphViz DOT on stdout")
    p.add_argument("file")
    p.set_defaults(handler=cmd_dot)

    return parser


def _print_error(command: str | None, error: str, message: str) -> None:
    """The ``--json`` error object, on stdout."""
    payload = {"command": command, "error": error, "message": message}
    print(json.dumps(payload, sort_keys=True))


def _fail(args, exc: Exception, label: str) -> int:
    """Report ``exc`` as a JSON error object on stdout under ``--json``, else
    as ``label: message`` on stderr, the message falling back to the class
    name (a ``MemoryError`` has none); either way the exit code is 2."""
    message = str(exc) or type(exc).__name__
    if args.json:
        _print_error(args.command, type(exc).__name__, message)
    else:
        print(f"{label}: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # The subcommand is recorded here before its own arguments are parsed,
    # so a usage error can still name it.
    parsed = argparse.Namespace(command=None)
    try:
        args = parser.parse_args(argv, parsed)
    except SystemExit as exc:
        # -h/--help
        return 0 if exc.code in (0, None) else 2
    except _UsageError as exc:
        if "--json" in argv:
            _print_error(parsed.command, "ArgumentError", str(exc))
        else:
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        status = args.handler(args)
        # A short output is still buffered; a closed stdout shows up here.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout: write nothing more to it, and point it
        # at os.devnull so that the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, OSError, BudgetExceededError) as exc:
        return _fail(args, exc, "error")
    except Exception as exc:
        return _fail(args, exc, "internal error")


if __name__ == "__main__":
    sys.exit(main())
