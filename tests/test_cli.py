import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padfa.birecurrent
import padfa.cli
import padfa.saturate
from padfa import PartialDfa
from padfa.cli import main
from padfa.formats import parse_automaton, serialize_automaton

from support import c4, reversal_blowup

M2_ACCEPTOR = """\
states: 2
alphabet: a
initial: 0
accepting: 1
trans: 0 a 1
trans: 1 a 1
"""

P2_ACCEPTOR = """\
states: 2
alphabet: a
initial: 0
accepting: 0
trans: 0 a 1
trans: 1 a 0
"""

YES_INSTANCE = """\
alphabet: a b
machine:
states: 2
initial: 0
accepting: 1
trans: 0 a 1
trans: 0 b 0
trans: 1 a 1
trans: 1 b 0
machine:
states: 2
initial: 0
accepting: 1
trans: 0 a 0
trans: 0 b 1
trans: 1 a 1
trans: 1 b 1
"""

NO_INSTANCE = """\
alphabet: a b
machine:
states: 2
initial: 0
accepting: 1
trans: 0 a 1
trans: 0 b 0
trans: 1 a 1
trans: 1 b 0
machine:
states: 2
initial: 0
accepting: 1
trans: 0 a 0
trans: 0 b 1
trans: 1 a 0
trans: 1 b 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    r16 = reversal_blowup(16)
    for name, text in {
        "m2.aut": M2_ACCEPTOR,
        "p2.aut": P2_ACCEPTOR,
        "yes.inst": YES_INSTANCE,
        "no.inst": NO_INSTANCE,
        "c4.aut": serialize_automaton(c4()),
        "r16.aut": serialize_automaton(r16.dfa, r16.initial, r16.accepting),
    }.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


class TestValidate:
    def test_good_file(self, files, capsys):
        assert main(["validate", files["m2.aut"]]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.aut"
        bad.write_text("states: 1\nalphabet: a\ntrans: 0 a 9\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.aut")]) == 2


class TestInfo:
    def test_c4(self, files, capsys):
        assert main(["info", files["c4.aut"]]) == 0
        out = capsys.readouterr().out
        assert "states: 4" in out
        assert "complete: yes" in out
        assert "strongly_connected: yes" in out

    def test_json_matches_human(self, files, capsys):
        main(["info", files["p2.aut"]])
        human = capsys.readouterr().out
        main(["info", files["p2.aut"], "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["permutation"] is ("permutation: yes" in human)
        assert payload["states"] == 2


class TestRank:
    def test_m2(self, files, capsys):
        assert main(["rank", files["m2.aut"]]) == 0
        assert "rank: 1" in capsys.readouterr().out

    def test_witness(self, files, capsys):
        assert main(["rank", files["c4.aut"], "--witness"]) == 0
        out = capsys.readouterr().out
        assert "rank: 1" in out
        assert "witness:" in out

    def test_poly_method_on_strongly_connected(self, files, capsys):
        assert main(["rank", files["c4.aut"], "--method", "poly"]) == 0
        assert "rank: 1" in capsys.readouterr().out

    def test_poly_method_rejects_disconnected(self, files, capsys):
        assert main(["rank", files["m2.aut"], "--method", "poly"]) == 2
        assert "error" in capsys.readouterr().err

    def test_budget_exhaustion_is_an_error(self, files, capsys):
        assert main(["rank", files["c4.aut"], "--budget", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestSync:
    def test_yes(self, files, capsys):
        assert main(["sync", files["m2.aut"], "--witness"]) == 0
        out = capsys.readouterr().out
        assert "synchronizing" in out and "witness: a" in out

    def test_no(self, files, capsys):
        assert main(["sync", files["p2.aut"]]) == 1
        assert "not synchronizing" in capsys.readouterr().out

    def test_json_verdict(self, files, capsys):
        assert main(["sync", files["p2.aut"], "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"command": "sync", "synchronizing": False}


class TestSaturate:
    def test_found(self, files, capsys):
        assert main(["saturate", files["p2.aut"], "--set", "0"]) == 0
        assert "saturating word: ε" in capsys.readouterr().out

    def test_none(self, files, capsys):
        assert main(["saturate", files["m2.aut"], "--set", "0"]) == 1
        assert "none" in capsys.readouterr().out

    def test_set_all(self, files, capsys):
        assert main(["saturate", files["m2.aut"], "--set", "all"]) == 0

    def test_bad_set_spec(self, files, capsys):
        assert main(["saturate", files["m2.aut"], "--set", "0,x"]) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "0_1", "+0", "\u0661", "\uff11", "0,-1",
            # ASCII digits, but more of them than int() converts.
            pytest.param("0" * 5000, id="5000-digits"),
        ],
    )
    def test_set_indices_are_ascii_digits_only(self, files, capsys, spec):
        # int() reads each of the first five as a state of m2.aut.
        assert main(["saturate", files["m2.aut"], "--set", spec]) == 2
        assert "--set expects comma-separated indices" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1,1", "0,1, 1", "1,0,1"])
    def test_repeated_set_index(self, files, capsys, spec):
        # As a file's ``accepting: 1 1`` is, and not read as ``--set 1``.
        assert main(["saturate", files["m2.aut"], "--set", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --set names state 1 more than once\n"

    def test_set_indices_may_be_spaced(self, files, capsys):
        assert main(["saturate", files["m2.aut"], "--set", "0, 1"]) == 0


class TestBirecurrent:
    def test_yes(self, files, capsys):
        assert main(["birecurrent", files["p2.aut"]]) == 0
        assert "birecurrent: yes" in capsys.readouterr().out

    def test_no(self, files, capsys):
        assert main(["birecurrent", files["m2.aut"]]) == 1
        assert "birecurrent: no" in capsys.readouterr().out

    def test_single_methods_agree(self, files, capsys):
        assert main(["birecurrent", files["p2.aut"], "--method", "direct"]) == 0
        assert main(["birecurrent", files["p2.aut"], "--method", "char"]) == 0

    def test_needs_initial(self, files, capsys):
        assert main(["birecurrent", files["c4.aut"]]) == 2

    @pytest.mark.parametrize("method", ["direct", "both"])
    def test_budget_holds_on_the_direct_route(self, files, capsys, method):
        # R_16's reversal has 65,536 subsets; the direct route must stop early.
        # (The characterization route settles R_16 in under 100 nodes.)
        argv = ["birecurrent", files["r16.aut"], "--method", method, "--budget", "100"]
        assert main(argv) == 2
        assert "budget" in capsys.readouterr().err


class TestOracle:
    def test_yes(self, files, capsys):
        assert main(["oracle", "common-word", files["yes.inst"]]) == 0
        assert "common word: b a" in capsys.readouterr().out

    def test_no(self, files, capsys):
        assert main(["oracle", "common-word", files["no.inst"]]) == 1
        assert "none" in capsys.readouterr().out

    def test_options_before_common_word_are_usage_errors(self, files, capsys):
        # They used to be parsed and then overwritten by the leaf's defaults.
        assert main(["oracle", "--budget", "1", "common-word", files["yes.inst"]]) == 2
        assert "usage:" in capsys.readouterr().err
        assert main(["oracle", "common-word", files["yes.inst"], "--budget", "1"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_json_before_common_word_is_a_json_usage_error(self, files, capsys):
        assert main(["oracle", "--json", "common-word", files["yes.inst"]]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["command"] == "oracle"
        assert payload["error"] == "ArgumentError"


class TestReduceAndReanalyze:
    @pytest.mark.parametrize("kind", ["sync", "saturation", "sc", "complete"])
    def test_outputs_revalidate(self, files, kind, capsys):
        out = files["dir"] / f"{kind}.aut"
        assert main(["reduce", kind, files["yes.inst"], "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0
        sidecar = json.loads((files["dir"] / f"{kind}.aut.layout.json").read_text())
        assert sidecar["kind"] == kind
        assert "letter_map" in sidecar and "special_states" in sidecar

    def test_sync_gadget_verdicts_from_disk(self, files, capsys):
        for name, expected in [("yes.inst", 0), ("no.inst", 1)]:
            out = files["dir"] / f"sync_{name}.aut"
            assert main(["reduce", "sync", files[name], "-o", str(out)]) == 0
            capsys.readouterr()
            assert main(["sync", str(out)]) == expected

    def test_saturation_gadget_verdicts_from_disk(self, files, capsys):
        for name, expected in [("yes.inst", 0), ("no.inst", 1)]:
            out = files["dir"] / f"sat_{name}.aut"
            assert main(["reduce", "saturation", files[name], "-o", str(out)]) == 0
            capsys.readouterr()
            assert main(["saturate", str(out), "--set", "all"]) == expected

    def test_complete_gadget_target_set_from_disk(self, files, capsys):
        for name, expected in [("yes.inst", 0), ("no.inst", 1)]:
            out = files["dir"] / f"complete_{name}.aut"
            assert main(["reduce", "complete", files[name], "-o", str(out)]) == 0
            capsys.readouterr()
            sidecar = json.loads(
                (files["dir"] / f"complete_{name}.aut.layout.json").read_text()
            )
            target = ",".join(map(str, sidecar["target_set"]))
            assert main(["saturate", str(out), "--set", target]) == expected


class TestBinarize:
    def test_last_letter(self, files, capsys):
        out = files["dir"] / "bin.aut"
        sc_out = files["dir"] / "sc.aut"
        assert main(["reduce", "sc", files["yes.inst"], "-o", str(sc_out)]) == 0
        capsys.readouterr()
        assert main(["binarize", str(sc_out), "--last-letter", "reset", "-o", str(out)]) == 0
        capsys.readouterr()
        loaded = parse_automaton(out.read_text())
        assert loaded.dfa.alphabet == ("0", "1")
        assert main(["info", str(out)]) == 0
        assert "strongly_connected: yes" in capsys.readouterr().out

    def test_add_selfloop(self, files, capsys):
        out = files["dir"] / "bin2.aut"
        assert main(["binarize", files["m2.aut"], "--add-selfloop", "-o", str(out)]) == 0
        capsys.readouterr()
        loaded = parse_automaton(out.read_text())
        assert loaded.dfa.state_count == 4

    def test_unknown_letter(self, files, capsys):
        out = files["dir"] / "bin3.aut"
        assert main(["binarize", files["m2.aut"], "--last-letter", "zz", "-o", str(out)]) == 2


class TestDotCommand:
    def test_output(self, files, capsys):
        assert main(["dot", files["m2.aut"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "doublecircle" in out
        assert main(["dot", files["m2.aut"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"command": "dot", "dot": out}

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            (["dot", "{cycle}"], False),
            (["dot", "{cycle}", "--json"], False),
            (["info", "{cycle}"], False),
            (["info", "{cycle}", "--json"], False),
            (["validate", "{bad}", "--json"], False),
            (["rank", "{cycle}", "--bogus", "--json"], False),
            (["-h"], False),
            (["-h"], True),
        ],
        ids=[
            "dot-plain",
            "dot-json",
            "info-plain",
            "info-json",
            "json-parse-error",
            "json-usage-error",
            "help",
            "help-unbuffered",
        ],
    )
    def test_closed_stdout_exits_two(self, tmp_path, argv, unbuffered):
        # ``padfa dot big.aut | head -c 10`` once the reader has gone: ``dot``
        # fails inside its 230 KB write, ``info`` only when its few buffered
        # lines are flushed (so stdout keeps its default buffering here).
        # The error object, a usage error and the help text meet the same
        # closed stdout, and argparse must not swallow the failed help write
        # when stdout is unbuffered.  ``{cycle}`` stands for a 3000-state
        # cycle and ``{bad}`` for a file that does not parse.
        # Nothing more is written, to stdout or stderr, and the exit code is 2.
        n = 3000
        cycle = PartialDfa(n, ("a",), tuple(((s + 1) % n,) for s in range(n)))
        paths = {"{cycle}": tmp_path / "cycle.aut", "{bad}": tmp_path / "bad.aut"}
        paths["{cycle}"].write_text(serialize_automaton(cycle), encoding="utf-8")
        bad_text = "states: 1\nalphabet: a\ntrans: 0 a 9\n"
        paths["{bad}"].write_text(bad_text, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(Path(padfa.cli.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "padfa", *[str(paths.get(a, a)) for a in argv]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b""
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "sink, argv",
        [
            (os.devnull, ["saturate", "p2.aut", "--set", "0"]),
            ("/dev/full", ["dot", "m2.aut"]),
            ("/dev/full", ["dot", "m2.aut", "--json"]),
        ],
        ids=["ascii", "full", "full-json"],
    )
    def test_failed_write_exits_two(self, files, sink, argv):
        # stdout cannot take the answer: the empty word ``ε`` on an ASCII
        # stdout, or any answer on a full disk.  The failure is one
        # ``error: …`` line on stderr, also under ``--json``.
        if not os.path.exists(sink):
            pytest.skip(f"no {sink}")
        env = dict(os.environ, PYTHONIOENCODING="ascii")
        env["PYTHONPATH"] = str(Path(padfa.cli.__file__).resolve().parents[1])
        with open(sink, "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "padfa", *[files.get(a, a) for a in argv]],
                stdout=stdout,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        assert proc.stderr.startswith(b"error: ")
        assert proc.stderr.count(b"\n") == 1
        assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "m2.aut"],
        ["info", "m2.aut"],
        ["dot", "m2.aut"],
        ["reduce", "sync", "yes.inst", "-o", "{dir}/out.aut"],
        ["binarize", "m2.aut", "--add-selfloop", "-o", "{dir}/out.aut"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_only_where_a_search_spends_it(files, capsys, argv):
    argv = [files.get(a, a.replace("{dir}", str(files["dir"]))) for a in argv]
    assert main(argv + ["--budget", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 5" in captured.err
    assert main(argv + ["--budget", "5", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == argv[0]
    assert payload["error"] == "ArgumentError"
    assert not (files["dir"] / "out.aut").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "c4.aut", "--method", "poly", "--budget", "1"],
        ["rank", "c4.aut", "--budget", "1048576", "--method", "poly"],
    ],
    ids=["budget-after", "default-budget-before"],
)
def test_polynomial_rank_refuses_a_budget(files, capsys, argv):
    # min_rank_word_sc spends no budget, so a given one, even the default
    # value, is a usage error rather than silently ignored.
    argv = [files.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: padfa rank ")
    assert "--budget does not apply to --method poly" in captured.err
    assert main(argv + ["--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "rank"
    assert payload["error"] == "ArgumentError"
    # Without --budget the polynomial route answers as before.
    assert main(["rank", files["c4.aut"], "--method", "poly", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"command": "rank", "method": "poly", "rank": 1, "witness_length": 10}


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "p2.aut", "--method", "poly"],
        ["rank", "p2.aut"],
        ["sync", "p2.aut"],
        ["saturate", "p2.aut", "--set", "all"],
        ["birecurrent", "p2.aut"],
        ["oracle", "common-word", "yes.inst"],
    ],
    ids=" ".join,
)
def test_a_budget_below_one_is_a_usage_error(files, capsys, argv, budget):
    argv = [files.get(a, a) for a in argv] + ["--budget", budget]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: padfa ")
    assert f"invalid budget '{budget}': budget must be positive" in captured.err
    assert main(argv + ["--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == argv[0]
    assert payload["error"] == "ArgumentError"


def test_json_after_double_dash_is_a_file_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


def test_usage_error_exits_two(capsys):
    assert main(["rank"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: padfa rank [-h] [--json]")
    assert captured.err.endswith(
        "padfa rank: error: the following arguments are required: file\n"
    )
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv, choices",
    [
        (["reduce", "bogus", "INSTANCE", "-o", "OUT"], "{sync,saturation,sc,complete}"),
        (["birecurrent", "FILE", "--method", "bogus"], "[--method {direct,char,both}]"),
    ],
    ids=["reduce", "birecurrent"],
)
def test_an_unknown_choice_prints_the_choices_in_order(capsys, argv, choices):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # The usage text, which argparse wraps to the terminal's width.
    usage, _, _ = captured.err.partition(f"padfa {argv[0]}: error:")
    assert usage.startswith(f"usage: padfa {argv[0]} [-h] [--json]")
    assert choices in usage
    assert main(argv + ["--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == argv[0]
    assert payload["error"] == "ArgumentError"


def test_leftover_arguments_print_the_command_usage(files, capsys):
    assert main(["rank", files["c4.aut"], "--bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: padfa rank [-h] [--json]")
    assert captured.err.endswith("padfa rank: error: unrecognized arguments: --bogus\n")
    assert main(["oracle", "common-word", files["yes.inst"], "extra"]) == 2
    assert capsys.readouterr().err.startswith("usage: padfa oracle common-word")
    # Before any command the leftovers are the root parser's.
    assert main(["--bogus", "rank", files["c4.aut"]]) == 2
    assert capsys.readouterr().err.startswith("usage: padfa [-h]")


def test_json_outputs_are_parseable_everywhere(files, capsys):
    commands = [
        ["validate", files["m2.aut"]],
        ["info", files["m2.aut"]],
        ["rank", files["m2.aut"], "--witness"],
        ["sync", files["m2.aut"]],
        ["saturate", files["p2.aut"], "--set", "0"],
        ["birecurrent", files["p2.aut"]],
        ["oracle", "common-word", files["yes.inst"]],
        ["dot", files["m2.aut"]],
    ]
    for command in commands:
        code = main(command + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict) and "command" in payload
        assert code in (0, 1)


class TestJsonErrors:
    """Under --json every error is one object on stdout, exit code 2."""

    def _error(self, capsys, argv: list[str]) -> dict:
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert set(payload) == {"command", "error", "message"}
        assert payload["message"]
        return payload

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.aut"
        bad.write_text("states: 1\nalphabet: a\ntrans: 0 a 9\n", encoding="utf-8")
        payload = self._error(capsys, ["validate", str(bad)])
        assert payload["command"] == "validate"
        assert payload["error"] == "ParseError"

    def test_declared_state_count_over_the_cap(self, tmp_path, capsys):
        huge = tmp_path / "huge.aut"
        huge.write_text("states: 10000000\nalphabet: a\n", encoding="utf-8")
        payload = self._error(capsys, ["validate", str(huge)])
        assert payload["error"] == "ParseError"
        assert main(["validate", str(huge)]) == 2

    def test_value_error(self, files, capsys):
        payload = self._error(capsys, ["saturate", files["m2.aut"], "--set", "0,x"])
        assert payload["command"] == "saturate"
        assert payload["error"] == "ValueError"

    def test_repeated_set_index(self, files, capsys):
        payload = self._error(capsys, ["saturate", files["m2.aut"], "--set", "1,1"])
        assert payload == {
            "command": "saturate",
            "error": "ValueError",
            "message": "--set names state 1 more than once",
        }

    def test_os_error(self, tmp_path, capsys):
        payload = self._error(capsys, ["info", str(tmp_path / "nope.aut")])
        assert payload["command"] == "info"
        assert payload["error"] == "FileNotFoundError"

    def test_budget_exceeded(self, files, capsys):
        payload = self._error(capsys, ["rank", files["c4.aut"], "--budget", "2"])
        assert payload["command"] == "rank"
        assert payload["error"] == "BudgetExceededError"

    def test_method_disagreement(self, files, capsys, monkeypatch):
        monkeypatch.setattr(
            padfa.birecurrent.SubsetAutomaton, "is_strongly_connected", lambda self: False
        )
        payload = self._error(capsys, ["birecurrent", files["p2.aut"]])
        assert payload["command"] == "birecurrent"
        assert payload["error"] == "MethodDisagreement"

    @pytest.mark.parametrize(
        "error",
        [
            RuntimeError("postcondition failed"),
            MemoryError(),
            TypeError("unsupported operand"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_runtime_error_is_internal(self, files, capsys, monkeypatch, error):
        # A failed postcondition or any other unexpected exception exits 2,
        # never 1 (a negative verdict).  An error without a message, such as
        # the interpreter's MemoryError, is reported by its class name.
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(padfa.saturate, "find_saturating_min_rank_word", broken)
        argv = ["saturate", files["m2.aut"], "--set", "all"]
        payload = self._error(capsys, argv)
        assert payload["command"] == "saturate"
        assert payload["error"] == type(error).__name__
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {payload['message']}\n"
        assert payload["message"] == (str(error) or type(error).__name__)

    def test_abbreviated_json_is_a_usage_error(self, files, capsys):
        # Without prefix matching, ``--json`` has exactly one spelling.
        assert main(["rank", files["c4.aut"], "--js"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --js" in captured.err

    def test_usage_error(self, capsys):
        payload = self._error(capsys, ["rank"])
        assert payload["command"] == "rank"
        assert payload["error"] == "ArgumentError"
        assert "required: file" in payload["message"]

    def test_leftover_arguments(self, files, capsys):
        payload = self._error(capsys, ["rank", files["c4.aut"], "--bogus"])
        assert payload == {
            "command": "rank",
            "error": "ArgumentError",
            "message": "unrecognized arguments: --bogus",
        }

    def test_usage_error_without_a_command(self, capsys):
        payload = self._error(capsys, [])
        assert payload["command"] is None
        assert payload["error"] == "ArgumentError"

    def test_plain_output_unchanged(self, files, capsys, monkeypatch):
        assert main(["rank", files["c4.aut"], "--budget", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search budget of 2 visited nodes exhausted\n"
        monkeypatch.setattr(
            padfa.birecurrent.SubsetAutomaton, "is_strongly_connected", lambda self: False
        )
        assert main(["birecurrent", files["p2.aut"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: direct=False but characterization=True\n"


# The exact answer of every command, plain and under --json, from the
# ``files`` fixture.  ``{dir}`` stands for the fixture's directory.  Each
# case is (argv, exit code, plain stdout, JSON stdout, files written); a
# written file is pinned by its text, or by its SHA-256 when it is long.
_LAYOUTS = {
    "sync": {
        "kind": "sync",
        "letter_map": {"check": 3, "reset": 2},
        "meta": {
            "check_letter": "check",
            "reset_letter": "reset",
            "universal_machine_index": 2,
        },
        "special_states": {"accept_sink": 5, "reject_sink": 6},
        "state_map": {"0,0": 0, "0,1": 1, "1,0": 2, "1,1": 3, "2,0": 4},
    },
    "saturation": {
        "kind": "saturation",
        "letter_map": {"check": 3, "reset": 2},
        "meta": {"check_letter": "check", "reset_letter": "reset"},
        "special_states": {"accept_sink": 4},
        "state_map": {"0,0": 0, "0,1": 1, "1,0": 2, "1,1": 3},
    },
    "sc": {
        "kind": "sc",
        "letter_map": {"check": 3, "jump1": 4, "jump2": 5, "reset": 2},
        "meta": {"check_letter": "check", "reset_letter": "reset", "targets": [0, 2]},
        "special_states": {"accept_sink": 4, "hub": 4},
        "state_map": {"0,0": 0, "0,1": 1, "1,0": 2, "1,1": 3},
    },
    "complete": {
        "kind": "complete",
        "letter_map": {"check": 3, "jump1": 4, "jump2": 5, "reset": 2},
        "meta": {
            "check_letter": "check",
            "reset_letter": "reset",
            "targets": [0, 2],
            "twin_of": {"0": 5, "1": 6, "10": 11, "2": 7, "3": 8, "4": 9},
        },
        "special_states": {
            "accept_sink": 4,
            "accept_sink_twin": 9,
            "trap": 10,
            "trap_twin": 11,
        },
        "state_map": {"0,0": 0, "0,1": 1, "1,0": 2, "1,1": 3},
        "target_set": [0, 1, 2, 3, 4, 11],
    },
}

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_GADGET_SHA256 = {
    "sync": "2a86a39c207dc788b8cb3f51a0b16f62d660b6812273257d863aa48bb7943e8a",
    "saturation": "36b061722dcf42f810c817c8be5b113fa37a94f4638bf70012cd4d1e2ea4c9e0",
    "sc": "176ce5c736ecdc1de91f1442d34c9d98c66d292eb30c860d0910469b62d0ecc6",
    "complete": "a8898a234ee40e114123be233855c9392524fc2fe533b65fe85cf71189ca836c",
}

_GADGET_SIZES = {"sync": (4, 7), "saturation": (4, 5), "sc": (6, 5), "complete": (6, 12)}

_C4_WITNESS = '["b", "a", "a", "a", "b", "a", "a", "a", "b"]'

_M2_DOT = (
    "digraph automaton {\n"
    "  rankdir=LR;\n"
    '  __start [shape=point, label=""];\n'
    "  0 [shape=circle];\n"
    "  1 [shape=doublecircle];\n"
    "  __start -> 0;\n"
    '  0 -> 1 [label="a"];\n'
    '  1 -> 1 [label="a"];\n'
    "}\n"
)

GOLDEN = {
    "validate": (
        ["validate", "m2.aut"],
        0,
        "ok\n",
        '{"command": "validate", "ok": true, "states": 2}\n',
        {},
    ),
    "info": (
        ["info", "c4.aut"],
        0,
        "states: 4\nletters: 2\ncomplete: yes\npermutation: no\nstrongly_connected: yes\n",
        '{"command": "info", "complete": true, "letters": 2, "permutation": false, '
        '"states": 4, "strongly_connected": true}\n',
        {},
    ),
    "rank": (
        ["rank", "c4.aut", "--witness"],
        0,
        "rank: 1\nwitness: b a a a b a a a b\n",
        '{"command": "rank", "method": "bfs", "rank": 1, '
        f'"witness": {_C4_WITNESS}, "witness_length": 9}}\n',
        {},
    ),
    "sync": (
        ["sync", "c4.aut", "--witness"],
        0,
        "synchronizing\nwitness: b a a a b a a a b\n",
        f'{{"command": "sync", "synchronizing": true, "witness": {_C4_WITNESS}}}\n',
        {},
    ),
    "saturate": (
        ["saturate", "p2.aut", "--set", "0"],
        0,
        "saturating word: ε\n",
        '{"command": "saturate", "found": true, "word": []}\n',
        {},
    ),
    # Every word saturates the empty set, so the answer is the rank witness.
    "saturate-empty-set": (
        ["saturate", "c4.aut", "--set", ""],
        0,
        "saturating word: b a a a b a a a b\n",
        f'{{"command": "saturate", "found": true, "word": {_C4_WITNESS}}}\n',
        {},
    ),
    "birecurrent": (
        ["birecurrent", "p2.aut"],
        0,
        "birecurrent: yes\n",
        '{"birecurrent": true, "command": "birecurrent", "method": "both"}\n',
        {},
    ),
    **{
        f"reduce-{kind}": (
            ["reduce", kind, "yes.inst", "-o", f"{{dir}}/{kind}.aut"],
            0,
            f"wrote {{dir}}/{kind}.aut\nwrote {{dir}}/{kind}.aut.layout.json\n",
            f'{{"command": "reduce", "kind": "{kind}", '
            f'"layout": "{{dir}}/{kind}.aut.layout.json", "letters": {letters}, '
            f'"output": "{{dir}}/{kind}.aut", "states": {states}}}\n',
            {
                f"{kind}.aut": _GADGET_SHA256[kind],
                f"{kind}.aut.layout.json": _sha256(
                    json.dumps(_LAYOUTS[kind], indent=2, sort_keys=True) + "\n"
                ),
            },
        )
        for kind, (letters, states) in _GADGET_SIZES.items()
    },
    "binarize": (
        ["binarize", "m2.aut", "--add-selfloop", "-o", "{dir}/bin.aut"],
        0,
        "wrote {dir}/bin.aut\n",
        '{"command": "binarize", "output": "{dir}/bin.aut", "states": 4}\n',
        {
            "bin.aut": _sha256(
                "states: 4\nalphabet: 0 1\n"
                "trans: 0 0 1\ntrans: 0 1 2\ntrans: 1 0 1\ntrans: 1 1 0\n"
                "trans: 2 0 3\ntrans: 2 1 2\ntrans: 3 0 3\ntrans: 3 1 2\n"
            )
        },
    ),
    "oracle": (
        ["oracle", "common-word", "yes.inst"],
        0,
        "common word: b a\n",
        '{"command": "oracle", "found": true, "word": ["b", "a"]}\n',
        {},
    ),
    "dot": (
        ["dot", "m2.aut"],
        0,
        _M2_DOT,
        json.dumps({"command": "dot", "dot": _M2_DOT}) + "\n",
        {},
    ),
}


@pytest.mark.parametrize("mode", ["plain", "json"])
@pytest.mark.parametrize("case", list(GOLDEN))
def test_exact_output(files, capsys, case, mode):
    argv, code, plain, as_json, written = GOLDEN[case]
    directory = str(files["dir"])
    argv = [files.get(arg, arg.replace("{dir}", directory)) for arg in argv]
    assert main(argv + (["--json"] if mode == "json" else [])) == code
    captured = capsys.readouterr()
    expected = plain if mode == "plain" else as_json
    assert captured.out == expected.replace("{dir}", directory)
    assert captured.err == ""
    # Each written file is pinned by the SHA-256 of its bytes.
    for name, pinned in written.items():
        assert hashlib.sha256((files["dir"] / name).read_bytes()).hexdigest() == pinned


# Runs ``main`` on the arguments it is given, in a fresh interpreter, and
# prints the padfa modules loaded by then as the last line of stdout.
_LOADED_SCRIPT = """\
import sys
from padfa.cli import main
status = main(sys.argv[1:])
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "padfa"))
sys.exit(status)
"""

_LOADS_FILE = ["padfa", "padfa.cli", "padfa.core", "padfa.formats"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        pytest.param(["validate", "m2.aut"], [], id="validate"),
        pytest.param(["dot", "m2.aut"], [], id="dot"),
        pytest.param(["info", "m2.aut"], ["graphs"], id="info"),
        pytest.param(["rank", "c4.aut"], ["graphs", "rank"], id="rank"),
        pytest.param(["sync", "c4.aut"], ["graphs", "rank"], id="sync"),
        pytest.param(
            ["saturate", "m2.aut", "--set", "all"], ["graphs", "rank", "saturate"], id="saturate"
        ),
        pytest.param(
            ["birecurrent", "p2.aut"],
            ["birecurrent", "graphs", "rank", "saturate"],
            id="birecurrent",
        ),
        pytest.param(
            ["reduce", "sync", "yes.inst", "-o", "{dir}/out.aut"],
            ["gadgets", "graphs"],
            id="reduce-sync",
        ),
        pytest.param(
            ["binarize", "m2.aut", "--add-selfloop", "-o", "{dir}/out.aut"],
            ["gadgets", "graphs"],
            id="binarize",
        ),
        pytest.param(
            ["oracle", "common-word", "yes.inst"], ["gadgets", "graphs"], id="oracle-common-word"
        ),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(files, argv, extra):
    env = dict(os.environ, PYTHONPATH=str(Path(padfa.cli.__file__).resolve().parents[1]))
    argv = [files.get(a, a.replace("{dir}", str(files["dir"]))) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == sorted(_LOADS_FILE + [f"padfa.{name}" for name in extra])


# Runs in a fresh interpreter with its own PYTHONHASHSEED.  It writes one
# seeded FAI instance, runs the commands below in process and prints every
# command's exit code and stdout and every file written, as one JSON object.
_HASH_ORDER_SCRIPT = """\
import contextlib, io, json, random
from pathlib import Path
from padfa.cli import main
from support import random_complete_gadget_instance, serialize_instance

instance = random_complete_gadget_instance(random.Random(3))
Path("fai.inst").write_text(serialize_instance(instance), encoding="utf-8")
kinds = ["sync", "saturation", "sc", "complete"]
runs = [["reduce", kind, "fai.inst", "-o", kind + ".aut"] for kind in kinds]
runs += [
    ["binarize", "sc.aut", "--add-selfloop", "-o", "binary.aut"],
    ["dot", "sc.aut"],
    ["rank", "sc.aut", "--witness", "--json"],
    ["saturate", "saturation.aut", "--set", "all", "--json"],
]
results = []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([argv, code, out.getvalue()])
written = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path().iterdir())}
print(json.dumps({"runs": results, "files": written}))
"""


def test_outputs_do_not_depend_on_hash_order(tmp_path):
    # Every answer and every written file is a function of the input alone:
    # nothing may follow the iteration order of a set or dict of str, which
    # changes with PYTHONHASHSEED.
    tests = Path(__file__).resolve().parent
    src = Path(padfa.cli.__file__).resolve().parents[1]
    outputs = []
    for seed in ("1", "2"):
        work = tmp_path / seed
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=f"{src}{os.pathsep}{tests}")
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_ORDER_SCRIPT],
            cwd=work,
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert [code for _, code, _ in report["runs"]] == [0] * 8
    assert all(out for _, _, out in report["runs"])
    assert len(report["files"]) == 10
