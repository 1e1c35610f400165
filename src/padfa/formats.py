"""Text file formats for automata and intersection instances, plus DOT export.

Automaton files are newline-delimited UTF-8 with ``key: value`` header lines
and one ``trans: <src> <letter-name> <dst>`` line per defined transition::

    # an optional comment
    states: 2
    alphabet: a b
    initial: 0
    accepting: 1
    trans: 0 a 1
    trans: 1 b 0

States are referenced by index; letters by name.  ``initial`` and
``accepting`` are optional (a file without them describes a bare partial
DFA).  Instance files start with one shared ``alphabet:`` line followed by
one ``machine:`` block per acceptor using the same keys.  Serialization is
canonical (sorted transition lines), so parse -> serialize -> parse is the
identity on semantic content.  A file may declare at most ``MAX_STATES``
states (2**20); a larger ``states:`` count is a :class:`ParseError`.  The
module imports only ``core``, so loading a file loads no gadget code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Acceptor, IntersectionInstance, PartialDfa, StateSet


class ParseError(ValueError):
    """A malformed automaton or instance file."""


@dataclass(frozen=True)
class LoadedAutomaton:
    """Parsed automaton file: a partial DFA plus optional acceptor data."""

    dfa: PartialDfa
    initial: Optional[int]
    accepting: Optional[StateSet]

    def require_acceptor(self) -> Acceptor:
        if self.initial is None:
            raise ParseError("this command needs a file with an 'initial:' line")
        accepting = (
            self.accepting
            if self.accepting is not None
            else StateSet(self.dfa.state_count)
        )
        return Acceptor(self.dfa, self.initial, accepting)


def _content_lines(text: str) -> list[tuple[int, str, str]]:
    """Non-comment lines as (line number, key, remainder) triples."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, colon, rest = line.partition(":")
        if not colon or " " in key or "\t" in key:
            raise ParseError(f"line {number}: expected 'key: ...', got {line!r}")
        lines.append((number, key, rest.strip()))
    return lines


def _parse_int(token: str, number: int, what: str) -> int:
    # ASCII digits only: ``int`` also takes signs, underscores and other
    # scripts' digits, which would not survive a round trip as written.
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than ``int`` converts
            pass
    raise ParseError(f"line {number}: {what} must be a decimal number, got {token!r}")


_AUTOMATON_KEYS = {"states", "alphabet", "initial", "accepting", "trans"}

# The largest ``states:`` count a file may declare.  The declared count is
# read before any transition, and the automaton keeps one row per state, so
# without a cap a 28-byte file could ask for tens of millions of rows.  The
# exponential searches are meant for a few dozen states; 2**20 leaves room
# for any polynomial use.
MAX_STATES = 1 << 20


def _build_automaton(
    lines: list[tuple[int, str, str]], alphabet: Optional[tuple[str, ...]] = None
) -> LoadedAutomaton:
    state_count: Optional[int] = None
    initial: Optional[int] = None
    accepting_tokens: Optional[list[str]] = None
    accepting_line = 0
    trans: list[tuple[int, str, str, str]] = []

    seen: set[str] = set()
    for number, key, rest in lines:
        if key not in _AUTOMATON_KEYS:
            raise ParseError(f"line {number}: unknown key {key!r}")
        if key != "trans" and key in seen:
            raise ParseError(f"line {number}: duplicate {key!r} line")
        seen.add(key)
        if key == "states":
            state_count = _parse_int(rest, number, "state count")
            if state_count > MAX_STATES:
                raise ParseError(
                    f"line {number}: state count {state_count} exceeds the "
                    f"limit of {MAX_STATES}"
                )
        elif key == "alphabet":
            names = tuple(rest.split())
            if alphabet is not None:
                raise ParseError(
                    f"line {number}: machines may not redeclare the alphabet"
                )
            if len(set(names)) != len(names):
                raise ParseError(f"line {number}: duplicate letter names")
            alphabet = names
        elif key == "initial":
            initial = _parse_int(rest, number, "initial state")
        elif key == "accepting":
            accepting_tokens = rest.split()
            accepting_line = number
        else:
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(
                    f"line {number}: expected 'trans: <src> <letter> <dst>'"
                )
            trans.append((number, parts[0], parts[1], parts[2]))

    if state_count is None:
        raise ParseError("missing 'states:' line")
    if alphabet is None:
        raise ParseError("missing 'alphabet:' line")

    delta: dict[tuple[int, str], int] = {}
    letter_set = set(alphabet)
    for number, src_token, letter, dst_token in trans:
        src = _parse_int(src_token, number, "source state")
        dst = _parse_int(dst_token, number, "target state")
        if letter not in letter_set:
            raise ParseError(f"line {number}: letter {letter!r} not in alphabet")
        if src >= state_count:
            raise ParseError(f"line {number}: source state {src} out of range")
        if dst >= state_count:
            raise ParseError(f"line {number}: target state {dst} out of range")
        if (src, letter) in delta:
            raise ParseError(
                f"line {number}: duplicate transition for state {src} on {letter!r}"
            )
        delta[(src, letter)] = dst

    dfa = PartialDfa.from_map(state_count, alphabet, delta)
    if initial is not None and initial >= state_count:
        raise ParseError(f"initial state {initial} out of range")
    accepting: Optional[StateSet] = None
    if accepting_tokens is not None:
        states = [
            _parse_int(token, accepting_line, "accepting state")
            for token in accepting_tokens
        ]
        for state in states:
            if state >= state_count:
                raise ParseError(
                    f"line {accepting_line}: accepting state {state} out of range"
                )
        accepting = StateSet.from_iterable(state_count, states)
    return LoadedAutomaton(dfa, initial, accepting)


def parse_automaton(text: str) -> LoadedAutomaton:
    return _build_automaton(_content_lines(text))


def _check_letter_names(alphabet: tuple[str, ...]) -> None:
    """The file format separates letter names by whitespace, so a name
    containing any would not parse back."""
    for name in alphabet:
        if any(char.isspace() for char in name):
            raise ValueError(f"letter name {name!r} contains whitespace")


def _body_lines(
    dfa: PartialDfa, initial: Optional[int], accepting: Optional[StateSet]
) -> list[str]:
    """The ``initial:``, ``accepting:`` and ``trans:`` lines of one automaton
    (the first two only when given), shared by both file kinds."""
    lines = []
    if initial is not None:
        lines.append(f"initial: {initial}")
    if accepting is not None:
        lines.append(("accepting: " + " ".join(map(str, sorted(accepting)))).rstrip())
    for state, row in enumerate(dfa.transitions):
        for letter, target in enumerate(row):
            if target is not None:
                lines.append(f"trans: {state} {dfa.alphabet[letter]} {target}")
    return lines


def serialize_automaton(
    dfa: PartialDfa,
    initial: Optional[int] = None,
    accepting: Optional[StateSet] = None,
) -> str:
    _check_letter_names(dfa.alphabet)
    lines = [f"states: {dfa.state_count}"]
    lines.append(("alphabet: " + " ".join(dfa.alphabet)).rstrip())
    lines += _body_lines(dfa, initial, accepting)
    return "\n".join(lines) + "\n"


def serialize_acceptor(acceptor: Acceptor) -> str:
    return serialize_automaton(acceptor.dfa, acceptor.initial, acceptor.accepting)


def parse_instance(text: str) -> IntersectionInstance:
    lines = _content_lines(text)
    if not lines or lines[0][1] != "alphabet":
        raise ParseError("instance files must start with an 'alphabet:' line")
    number, _, rest = lines[0]
    alphabet = tuple(rest.split())
    if len(set(alphabet)) != len(alphabet):
        raise ParseError(f"line {number}: duplicate letter names")

    blocks: list[list[tuple[int, str, str]]] = []
    for number, key, rest in lines[1:]:
        if key == "machine":
            if rest:
                raise ParseError(f"line {number}: 'machine:' takes no value")
            blocks.append([])
            continue
        if not blocks:
            raise ParseError(f"line {number}: expected 'machine:' before {key!r}")
        blocks[-1].append((number, key, rest))
    if not blocks:
        raise ParseError("instance files need at least one 'machine:' block")

    machines = []
    for i, block in enumerate(blocks):
        loaded = _build_automaton(block, alphabet=alphabet)
        if loaded.initial is None:
            raise ParseError(f"machine {i}: missing 'initial:' line")
        machines.append(loaded.require_acceptor())
    try:
        return IntersectionInstance(tuple(machines))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_instance(instance: IntersectionInstance) -> str:
    _check_letter_names(instance.alphabet)
    lines = [("alphabet: " + " ".join(instance.alphabet)).rstrip()]
    for machine in instance.machines:
        lines += ["machine:", f"states: {machine.dfa.state_count}"]
        lines += _body_lines(machine.dfa, machine.initial, machine.accepting)
    return "\n".join(lines) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(loaded: LoadedAutomaton) -> str:
    """GraphViz digraph of the automaton; undefined transitions are simply
    absent, accepting states are double circles, the initial state gets an
    entry arrow."""
    dfa = loaded.dfa
    lines = ["digraph automaton {", "  rankdir=LR;"]
    if loaded.initial is not None:
        lines.append('  __start [shape=point, label=""];')
    for state in range(dfa.state_count):
        shape = (
            "doublecircle"
            if loaded.accepting is not None and state in loaded.accepting
            else "circle"
        )
        lines.append(f"  {state} [shape={shape}];")
    if loaded.initial is not None:
        lines.append(f"  __start -> {loaded.initial};")
    for state in range(dfa.state_count):
        by_target: dict[int, list[str]] = {}
        for letter, target in enumerate(dfa.transitions[state]):
            if target is not None:
                by_target.setdefault(target, []).append(dfa.alphabet[letter])
        for target in sorted(by_target):
            label = _quote(", ".join(by_target[target]))
            lines.append(f"  {state} -> {target} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
