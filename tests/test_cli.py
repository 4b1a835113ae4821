"""End-to-end command line tests via subprocess, plus in-process golden stdout."""

import argparse
import ast
import contextlib
import copy
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoprob
from orthoprob import cli
from orthoprob.cli import main
from orthoprob.scenario import (MAX_ALGEBRA_SIZE, MAX_AXIOM_BUDGET, MAX_TRIALS, QUERY_TABLE,
                                parse_scenario, run_query, scenario_to_jsonable,
                                serialize_scenario)

import helpers

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
PERFBENCH = ROOT / "perfbench"


def perfbench_constant(module: str, name: str):
    """A literal constant of a benchmark module, read without importing
    perfbench."""
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/{module}.py defines no {name}")


def cli_invocations():
    """The benchmark's ``CLI_INVOCATIONS``."""
    return perfbench_constant("workloads", "CLI_INVOCATIONS")


COIN_SAMPLE = {
    "algebra": {"kind": "boolean", "size": 2},
    "events": {"heads": {"members": [0]}},
    "states": {"fair": {"weights": [0.5, 0.5]}},
    "query": {"kind": "sample", "initial": "fair", "tests": ["heads"], "final": "heads"},
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "orthoprob", *args],
                          capture_output=True, text=True, timeout=120)


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestDemos:
    def test_demo_sec7(self):
        out = run_json("demo-sec7")
        assert out["predictable"] is True
        assert out["s"] == 0.5
        assert out["residual"] <= 1e-12
        assert out["p_f_given_e_mixed"] == pytest.approx(0.5, abs=1e-12)

    def test_demo_order(self):
        out = run_json("demo-order")
        assert out["p_e_after_f1_then_f2"] == pytest.approx(0.5, abs=1e-12)
        assert out["p_e_after_f2_then_f1"] == pytest.approx(0.0, abs=1e-12)
        assert out["order_dependent"] is True

    def test_demo_qubit(self):
        out = run_json("demo-qubit")
        assert out["distinct"] is True
        assert out["differ_on"] == ["G", "G'"]
        assert out["contract_violations"] == {"compression": [], "alternative": []}
        assert out["compression"]["G"] != out["alternative"]["G"]
        assert "not unique" in out["note"]

    def test_demo_qubit_angle(self):
        out = run_json("demo-qubit", "--angle", "0.5235987755982988")
        assert out["special_case"] is False
        assert out["compression"]["G"] == pytest.approx(0.75, abs=1e-12)
        assert out["alternative"]["G"] == pytest.approx(0.25, abs=1e-12)

    def test_pretty_rounds_floats(self):
        proc = run_cli("demo-sec7", "--pretty")
        assert proc.returncode == 0
        assert '"s": 0.5' in proc.stdout
        assert "\n  " in proc.stdout


class TestScenarioCommands:
    def test_predict_sec7(self):
        out = run_json("predict", "--scenario", str(SCENARIO_DIR / "sec7.json"))
        assert out["predictable"] is True
        assert out["s"] == 0.5
        assert out["residual"] <= 1e-12

    def test_condition_die(self):
        out = run_json("condition", "--scenario", str(SCENARIO_DIR / "die.json"))
        assert out["value"] == pytest.approx(0.5, abs=1e-12)

    def test_condition_order(self):
        out = run_json("condition", "--scenario", str(SCENARIO_DIR / "order.json"))
        assert out["then"]["E"] == pytest.approx(0.5, abs=1e-12)

    def test_condition_qubit_warns_on_stderr(self):
        proc = run_cli("condition", "--scenario", str(SCENARIO_DIR / "qubit.json"))
        assert proc.returncode == 0
        assert "NonUniqueConditioningWarning" in proc.stderr
        out = json.loads(proc.stdout)
        assert out["then"]["G"] == pytest.approx(0.5, abs=1e-12)

    def test_twoslit(self):
        out = run_json("twoslit", "--scenario", str(SCENARIO_DIR / "twoslit.json"))
        assert out["value"] == pytest.approx(1.0, abs=1e-12)

    def test_sample(self, tmp_path):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(COIN_SAMPLE))
        out = run_json("sample", "--scenario", str(path), "--trials", "2000",
                       "--seed", "9")
        assert out["empirical_p"] == 1.0
        assert out["predicted_p"] == 1.0
        assert sum(out["outcome_counts"].values()) == 2000

    def test_axioms_subcommand(self):
        out = run_json("axioms", "--scenario", str(SCENARIO_DIR / "die.json"),
                       "--budget", "40")
        assert out["passed"] is True
        assert out["budget"] == 40

    def test_axioms_budget_defaults_to_1000(self, monkeypatch):
        # die.json's query is a condition query, so no budget comes from it.
        seen = []

        def run_query(scenario, **kwargs):
            seen.append(scenario.query.fields["budget"])
            return {}

        monkeypatch.setattr(cli, "run_query", run_query)
        assert main(["axioms", "--scenario", str(SCENARIO_DIR / "die.json")]) == 0
        assert seen == [1000]

    def test_compat_and_interfere(self, tmp_path):
        doc = {
            "algebra": {"kind": "quantum", "dim": 3},
            "events": {
                "atom": {"span": [[[0.7071067811865476, 0],
                                   [0.7071067811865476, 0], [0, 0]]]},
                "p1": {"span": [[[1, 0], [0, 0], [0, 0]]]},
                "p2": {"span": [[[0, 0], [1, 0], [0, 0]]]},
            },
            "query": {"kind": "compatible", "first": "p1", "second": "p2"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = run_json("compat", "--scenario", str(path))
        assert out["compatible"] is True

        doc["query"] = {"kind": "interference", "atom": "atom",
                        "path1": "p1", "path2": "p2", "target": "atom"}
        path.write_text(json.dumps(doc))
        out = run_json("interfere", "--scenario", str(path))
        assert out["p_total"] == pytest.approx(1.0, abs=1e-12)
        assert out["cross"] == pytest.approx(0.5, abs=1e-12)


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        proc = run_cli("predict", "--scenario", str(tmp_path / "nope.json"))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert run_cli("predict", "--scenario", str(path)).returncode == 1

    def test_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "algebra": {"kind": "boolean", "size": 2},
            "states": {"s": {"weights": [0.4, 0.5]}},
        }))
        proc = run_cli("condition", "--scenario", str(path))
        assert proc.returncode == 1
        assert "states.s" in proc.stderr

    def test_wrong_query_kind(self):
        proc = run_cli("predict", "--scenario", str(SCENARIO_DIR / "die.json"))
        assert proc.returncode == 1
        assert "predictability" in proc.stderr

    def test_computation_error(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "algebra": {"kind": "boolean", "size": 2},
            "events": {"never": {"members": [1]}},
            "states": {"point": {"weights": [1.0, 0.0]}},
            "query": {"kind": "condition", "state": "point", "event": "never"},
        }))
        proc = run_cli("condition", "--scenario", str(path))
        assert proc.returncode == 2
        assert "probability" in proc.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", [
        ["predict", "--scenario", str(SCENARIO_DIR / "sec7.json")], ["demo-sec7"]])
    def test_tol_must_be_finite_and_nonnegative(self, command, tol, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--tol", tol])
        assert info.value.code == 1
        assert "argument --tol" in capsys.readouterr().err

    def test_tol_must_be_a_number(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["demo-sec7", "--tol", "tiny"])
        assert info.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --tol: expected a finite number >= 0, got 'tiny'\n")

    def test_unreadable_scenario_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["condition", "--scenario", "nope.json"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot read scenario file 'nope.json': [Errno 2] ")

    def test_query_kind_the_command_cannot_run(self, capsys):
        assert main(["compat", "--scenario", str(SCENARIO_DIR / "die.json")]) == 1
        assert capsys.readouterr().err == \
            "error: 'compat' cannot run a 'prob' query (expected one of: compatible)\n"

    def test_unknown_algebra_kind(self, tmp_path, capsys):
        path = tmp_path / "classical.json"
        path.write_text(json.dumps({"algebra": {"kind": "classical", "size": 2}}))
        assert main(["axioms", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: algebra.kind: expected 'boolean' or 'quantum', got 'classical'\n"

    def test_scenario_without_a_query(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"algebra": {"kind": "boolean", "size": 2}}))
        assert main(["predict", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: scenario has no query; 'predict' needs one of: predictability\n"

    def test_oversized_integer_entry(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "algebra": {"kind": "quantum", "dim": 1},
            "events": {"e": {"matrix": [[[10 ** 400, 0]]]}},
            "query": {"kind": "compatible", "first": "e", "second": "e"},
        }))
        assert main(["compat", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: events.e.matrix[0][0]: [re, im] entries must fit in a float\n"

    @pytest.mark.parametrize("algebra", [{"kind": "quantum", "dim": 10 ** 30},
                                         {"kind": "boolean", "size": 10 ** 400}])
    def test_algebra_above_the_ceiling(self, tmp_path, capsys, algebra):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"algebra": algebra}))
        assert main(["axioms", "--scenario", str(path)]) == 1
        key = "dim" if "dim" in algebra else "size"
        assert capsys.readouterr().err == \
            f"error: algebra.{key}: expected at most {MAX_ALGEBRA_SIZE}\n"

    def test_integer_literal_beyond_the_conversion_limit(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"algebra": {"kind": "boolean", "size": ' + "9" * 5000 + "}}")
        assert main(["axioms", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON: Exceeds the limit")

    def test_budget_above_the_ceiling(self, capsys):
        argv = ["axioms", "--scenario", str(SCENARIO_DIR / "die.json"),
                "--budget", str(MAX_AXIOM_BUDGET + 1)]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: --budget: expected at most {MAX_AXIOM_BUDGET}\n"

    def test_negative_axiom_seed(self, capsys):
        # Before, it ended in numpy's "expected non-negative integer" traceback.
        argv = ["axioms", "--scenario", str(SCENARIO_DIR / "qubit.json"), "--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0\n")

    @pytest.mark.parametrize("command", ["sample", "axioms"])
    @pytest.mark.parametrize("seed, message", [
        ("-1", "seed must be >= 0"),
        ("18446744073709551616", "seed must be < 18446744073709551616")])
    def test_one_seed_range(self, tmp_path, capsys, command, seed, message):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(COIN_SAMPLE))
        extra = ["--budget", "1"] if command == "axioms" else []
        argv = [command, "--scenario", str(path), "--trials", "10", *extra]
        assert main(argv + ["--seed", seed]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert main(argv + ["--seed", "18446744073709551615"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("command, extra, message", [
        ("condition", ["--trials", "0"], "trials must be >= 1"),
        ("condition", ["--seed", "-1"], "seed must be >= 0"),
        ("condition", ["--seed", "18446744073709551616"],
         "seed must be < 18446744073709551616"),
        ("sample", ["--seed", "-1", "--trials", "0"], "trials must be >= 1"),
        ("axioms", ["--trials", "0"], "trials must be >= 1"),
    ])
    def test_seed_and_trials_checked_for_every_command(self, tmp_path, capsys, command, extra,
                                                       message):
        # Before, subcommands that neither sample nor check axioms ignored both.
        path = tmp_path / "coin.json"
        doc = dict(COIN_SAMPLE)
        if command == "condition":
            doc["query"] = {"kind": "prob", "state": "fair", "event": "heads"}
        path.write_text(json.dumps(doc))
        assert main([command, "--scenario", str(path), *extra]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_closed_pipe_exits_quietly(self):
        # Before, the print ended in a BrokenPipeError traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orthoprob", "axioms", "--scenario",
                 str(SCENARIO_DIR / "qubit.json"), "--budget", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_trials_above_the_ceiling(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(COIN_SAMPLE))
        argv = ["sample", "--scenario", str(path), "--trials", "100000000000"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: --trials: expected at most {MAX_TRIALS}\n")

    def test_axioms_trials_above_the_ceiling(self, capsys):
        # Before, axioms ran with any trial count, and the other scenario
        # subcommands refused one above the ceiling.
        argv = ["axioms", "--scenario", str(SCENARIO_DIR / "qubit.json"), "--budget", "1",
                "--trials", "100000000000"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: --trials: expected at most {MAX_TRIALS}\n")

    def test_budget_is_checked_before_trials(self, capsys):
        argv = ["axioms", "--scenario", str(SCENARIO_DIR / "qubit.json"),
                "--trials", "100000000000", "--budget", str(MAX_AXIOM_BUDGET + 1)]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: --budget: expected at most {MAX_AXIOM_BUDGET}\n"

    @pytest.mark.parametrize("command", ["demo-sec7", "demo-order", "demo-qubit"])
    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_demos_refuse_flags_they_do_not_read(self, capsys, command, flag):
        # Before, the demos took --seed -5 --trials 0, ignored both and exited 0.
        with pytest.raises(SystemExit) as info:
            main([command, flag, "3"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    def test_demo_qubit_refuses_a_tolerance(self, capsys):
        # Before, demo-qubit took --tol 5, ignored it and exited 0.
        with pytest.raises(SystemExit) as info:
            main(["demo-qubit", "--tol", "5"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and "--tol" in err

    def test_trials_ceiling_is_admitted(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(COIN_SAMPLE))
        seen = []

        def run_query(scenario, **kwargs):
            seen.append(kwargs["trials"])
            return {}

        monkeypatch.setattr(cli, "run_query", run_query)
        assert main(["sample", "--scenario", str(path), "--trials", str(MAX_TRIALS)]) == 0
        assert seen == [10_000_000]

    def test_nesting_beyond_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"events": {"a": {"members": ' + "[" * 100_000 + "]" * 100_000
                        + "}}}")
        assert main(["axioms", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_asymmetric_orthogonality_is_reported(self, tmp_path, capsys, monkeypatch):
        # One pool pair of these rounds is orthogonal in one order only; the
        # sum is then an OS2 failure, not an abort.
        helpers.one_sided_orthogonality(monkeypatch)
        path = tmp_path / "q6.json"
        path.write_text(json.dumps({"algebra": {"kind": "quantum", "dim": 6}}))
        assert main(["axioms", "--scenario", str(path), "--budget", "5", "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["failures"]["OS1"] == out["failures"]["OS2"] == 1
        assert "OS2: round 0: sum not defined in both orders" in out["messages"]

    def test_usage_error(self):
        assert run_cli("no-such-command").returncode == 1
        assert run_cli("predict").returncode == 1


# Each subcommand's options in --help order, after -h: option strings,
# default and whether it is required.  Help text is not compared: argparse
# words it differently across Python versions.
# The demos read neither a seed nor a trial count, so they take neither, and
# demo-qubit reads no tolerance either.
PRETTY_OPTION = [(("--pretty",), False, False)]
COMMON_OPTIONS = [(("--tol",), 1e-9, False)] + PRETTY_OPTION
SCENARIO_OPTIONS = COMMON_OPTIONS + [(("--seed",), 42, False), (("--trials",), 100_000, False),
                                     (("--scenario",), None, True)]
SUBCOMMAND_OPTIONS = {
    "predict": SCENARIO_OPTIONS,
    "condition": SCENARIO_OPTIONS,
    "compat": SCENARIO_OPTIONS,
    "interfere": SCENARIO_OPTIONS,
    "twoslit": SCENARIO_OPTIONS,
    "sample": SCENARIO_OPTIONS,
    "axioms": SCENARIO_OPTIONS + [(("--budget",), None, False)],
    "demo-sec7": COMMON_OPTIONS,
    "demo-order": COMMON_OPTIONS,
    "demo-qubit": PRETTY_OPTION + [(("--angle",), math.pi / 4, False)],
}


def subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCommandLineShape:
    def test_each_subcommand_has_its_pinned_options(self):
        commands = subcommands(cli._build_parser())
        assert list(commands) == list(SUBCOMMAND_OPTIONS)
        for name, parser in commands.items():
            options = [(tuple(a.option_strings), a.default, a.required) for a in parser._actions]
            assert options[0][0] == ("-h", "--help")
            assert options[1:] == SUBCOMMAND_OPTIONS[name], name

    def test_query_kinds_and_subcommands_match(self):
        commands = subcommands(cli._build_parser())
        assert {kind.command for kind in QUERY_TABLE.values()} <= set(commands)
        for name, parser in commands.items():
            if parser.get_default("handler") is cli._run_scenario_command:
                assert any(kind.command == name for kind in QUERY_TABLE.values()), name

    @pytest.mark.parametrize("argv", [[]] + [[name] for name in SUBCOMMAND_OPTIONS])
    def test_help_exits_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--help"])
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: ") and err == ""


# One small scenario of each algebra kind, with the same names, and a query
# of every kind on them.  ``t`` is an atom and ``a``, ``b`` are orthogonal.
SMALL_ALGEBRAS = {
    "boolean": {
        "algebra": {"kind": "boolean", "size": 3},
        "events": {"a": {"members": [0]}, "b": {"members": [1]}, "t": {"members": [2]},
                   "ab": {"members": [0, 1]}},
        "states": {"s": {"weights": [0.5, 0.3, 0.2]}},
    },
    "quantum": {
        "algebra": {"kind": "quantum", "dim": 3},
        "events": {"a": {"span": [[[1, 0], [0, 0], [0, 0]]]},
                   "b": {"span": [[[0, 0], [1, 0], [0, 0]]]},
                   "t": {"span": [[[0.6, 0], [0.8, 0], [0, 0]]]},
                   "ab": {"span": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}},
        "states": {"s": {"vector": [[0.6, 0], [0, 0.8], [0, 0]]}},
    },
}
EVERY_QUERY = {
    "prob": {"state": "s", "event": "a"},
    "condition": {"state": "s", "event": "ab"},
    "condition_seq": {"state": "s", "events": ["ab", "t"]},
    "predictability": {"target": "t", "given": ["ab"]},
    "compatible": {"first": "t", "second": "a"},
    "interference": {"atom": "t", "path1": "a", "path2": "b", "target": "t"},
    "two_slit": {"source": "s", "path1": "s", "path2": "s", "detector": "s"},
    "sample": {"initial": "s", "tests": ["ab"], "final": "a"},
    "axioms": {"budget": 5},
}


@pytest.mark.parametrize("algebra", sorted(SMALL_ALGEBRAS))
@pytest.mark.parametrize("kind", sorted(QUERY_TABLE))
def test_every_query_kind_exits_cleanly(algebra, kind, tmp_path, capsys):
    """Every query kind on either algebra kind gives a result, an input
    error or a failed operation; never a traceback."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SMALL_ALGEBRAS[algebra],
                                "query": {"kind": kind, **EVERY_QUERY[kind]}}))
    code = main([QUERY_TABLE[kind].command, "--scenario", str(path), "--trials", "100"])
    out, err = capsys.readouterr()
    if code == 0:
        json.loads(out)
    else:
        assert code in (1, 2)
        assert err.startswith("error: ") and out == ""
    if (algebra, kind) == ("boolean", "interference"):
        assert (code, err) == (2, "error: interference decomposition needs quantum events\n")


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("name, argv", cli_invocations())
def test_stdout_matches_golden(name, argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(list(argv)) == 0
    golden = (PERFBENCH / "golden" / "cli" / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def run_fresh(*args):
    """``python ARGS`` in a new process from the checkout root, compiling
    the sources it imports as a fresh checkout does."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))


# One invocation per way a subcommand loads modules: scenario and its
# imports alone (condition-die), the runners that import interference,
# sampler or the axiom harness when called, and the demos with and without
# presets.
FRESH_INVOCATIONS = ("condition-die", "twoslit", "interfere", "sample", "axioms-qubit",
                     "demo-order", "demo-qubit")


@pytest.mark.parametrize("name, argv",
                         [(n, a) for n, a in cli_invocations() if n in FRESH_INVOCATIONS])
def test_fresh_process_matches_golden(name, argv):
    """The golden test above runs in the test process, where other tests
    have loaded the modules; a new process loads only what the subcommand
    imports, so a missing lazy import fails here."""
    proc = run_fresh("-m", "orthoprob", *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PERFBENCH / "golden" / "cli" / f"{name}.out").read_bytes()


def modules_loaded_by(code: str) -> list[str]:
    """numpy and the orthoprob modules that a new process running ``code``
    has loaded."""
    proc = run_fresh("-c", code + "\nimport sys\nprint(*sorted(m for m in sys.modules"
                     " if m == 'numpy' or m.split('.')[0] == 'orthoprob'))")
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().splitlines()[-1].split()


def test_package_import_loads_nothing():
    assert modules_loaded_by("import orthoprob") == ["orthoprob"]


@pytest.mark.parametrize("argv", [["condition", "--scenario", "scenarios/die.json"],
                                  ["predict", "--scenario", "scenarios/sec7.json"],
                                  ["compat", "--scenario", "perfbench/cli_inputs/compat.json"]],
                         ids=lambda argv: argv[0])
def test_scenario_commands_load_only_what_they_run(argv):
    # Neither sampler, interference, presets nor the axiom harness.
    code = ("import contextlib, io\nfrom orthoprob.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    assert modules_loaded_by(code) == [
        "numpy", "orthoprob", "orthoprob.cli", "orthoprob.errors", "orthoprob.events",
        "orthoprob.linalg", "orthoprob.scenario", "orthoprob.states"]


def test_every_export_is_its_home_modules_object():
    """Each ``__all__`` name resolves, on each access, to the object its
    home module holds, and the package namespace never keeps it."""
    for name in orthoprob.__all__:
        home = importlib.import_module(orthoprob._HOMES[name])
        obj = vars(home)[name]
        assert getattr(orthoprob, name) is obj, name
        assert name not in vars(orthoprob), name
        if getattr(obj, "__module__", "").startswith("orthoprob."):
            assert obj.__module__ == home.__name__, name
    assert set(orthoprob.__all__) <= set(dir(orthoprob))


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_encoders_write_the_default_encoders_bytes(path, capsys):
    """The scenario and result encoders skip the cycle check; on every
    shipped scenario and its query result they write what the default
    encoder writes."""
    sc = parse_scenario(path.read_text(encoding="utf-8"))
    assert serialize_scenario(sc) == json.dumps(scenario_to_jsonable(sc))
    result = run_query(sc)
    cli._emit(result, pretty=False)
    assert capsys.readouterr().out == json.dumps(result, allow_nan=False) + "\n"
    cli._emit(result, pretty=True)
    assert capsys.readouterr().out == \
        json.dumps(cli._round_floats(result), indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("layer, names", perfbench_constant("spans", "LAYERS").items())
def test_traced_entry_points_exist(layer, names):
    """``--trace 1`` wraps each listed function in its module and each
    listed class's own ``__init__``; every one must be there to wrap."""
    module = importlib.import_module(f"orthoprob.{layer}")
    for name in names:
        entry = getattr(module, name)
        if isinstance(entry, type):
            assert "__init__" in vars(entry), f"{layer}.{name} has no __init__ of its own"
        else:
            assert callable(entry), f"{layer}.{name} is not callable"


# Each shipped scenario with the subcommand that runs its query.
SHIPPED = {"die": "condition", "order": "condition", "qubit": "condition",
           "sec7": "predict", "twoslit": "twoslit"}
NESTED = object()  # mutation marker: wrap the field in one more list
# Mutation marker for an integer literal of 5000 digits, beyond Python's int
# conversion limit; json.dumps cannot write it, so it is spliced into the text.
LONG_INT = "\u0000long integer literal"
MUTATIONS = [10 ** 400, -10 ** 400, 2 ** 63, 2 ** 64, MAX_ALGEBRA_SIZE + 1, True,
             False, "1.5", "", None, [], {}, -1, 0.5, float("nan"), NESTED, LONG_INT]


def json_paths(node, prefix=()):
    """Every field of a JSON document, as a path of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one field replaced, and its subcommand."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
    path = draw(st.sampled_from(list(json_paths(doc))))
    value = draw(st.sampled_from(MUTATIONS))
    if not path:
        return SHIPPED[name], [doc] if value is NESTED else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = [parent[path[-1]]] if value is NESTED else value
    return SHIPPED[name], doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@given(mutated_scenarios())
@settings(max_examples=300, deadline=None)
def test_single_field_mutations_exit_cleanly(fuzz_file, case):
    command, doc = case
    fuzz_file.write_text(json.dumps(doc).replace(json.dumps(LONG_INT), "9" * 5000),
                         encoding="utf-8")
    # The axiom check builds the whole algebra, so it also meets any size.
    for argv in ([command], ["axioms", "--budget", "1"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--scenario", str(fuzz_file)])
        if code == 0:
            json.loads(out.getvalue())
        else:
            assert code in (1, 2)
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""
