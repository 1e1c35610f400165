import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padfa.birecurrent
import padfa.cli
from padfa import PartialDfa
from padfa.cli import main
from padfa.formats import parse_automaton, serialize_acceptor, serialize_automaton

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
    for name, text in {
        "m2.aut": M2_ACCEPTOR,
        "p2.aut": P2_ACCEPTOR,
        "yes.inst": YES_INSTANCE,
        "no.inst": NO_INSTANCE,
        "c4.aut": serialize_automaton(c4()),
        "r16.aut": serialize_acceptor(reversal_blowup(16)),
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

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("command", ["dot", "info"])
    def test_closed_stdout_exits_two(self, tmp_path, command, flags):
        # ``padfa dot big.aut | head -c 10`` once the reader has gone: ``dot``
        # fails inside its 230 KB write, ``info`` only when its few buffered
        # lines are flushed (so stdout keeps its default buffering here).
        # Nothing more is written, to stdout or stderr, and the exit code is 2.
        n = 3000
        cycle = PartialDfa(n, ("a",), tuple(((s + 1) % n,) for s in range(n)))
        path = tmp_path / "cycle.aut"
        path.write_text(serialize_automaton(cycle), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(padfa.cli.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "padfa", command, str(path), *flags],
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


def test_usage_error_exits_two(capsys):
    assert main(["rank"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: padfa rank [-h] [--json]")
    assert captured.err.endswith(
        "padfa rank: error: the following arguments are required: file\n"
    )
    assert main(["no-such-command"]) == 2


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

    def test_os_error(self, tmp_path, capsys):
        payload = self._error(capsys, ["info", str(tmp_path / "nope.aut")])
        assert payload["command"] == "info"
        assert payload["error"] == "FileNotFoundError"

    def test_budget_exceeded(self, files, capsys):
        payload = self._error(capsys, ["rank", files["c4.aut"], "--budget", "2"])
        assert payload["command"] == "rank"
        assert payload["error"] == "BudgetExceededError"

    def test_method_disagreement(self, files, capsys, monkeypatch):
        monkeypatch.setattr(padfa.birecurrent, "_direct_verdict", lambda *a: False)
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

        monkeypatch.setattr(padfa.cli, "find_saturating_min_rank_word", broken)
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
        monkeypatch.setattr(padfa.birecurrent, "_direct_verdict", lambda *a: False)
        assert main(["birecurrent", files["p2.aut"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: direct=False but characterization=True\n"
