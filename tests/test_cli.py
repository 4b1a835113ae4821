"""End-to-end command line tests via subprocess, plus in-process golden stdout."""

import ast
import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoprob.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
PERFBENCH = ROOT / "perfbench"


def cli_invocations():
    """The benchmark's ``CLI_INVOCATIONS``, read without importing perfbench."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["CLI_INVOCATIONS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/workloads.py defines no CLI_INVOCATIONS")


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
        doc = {
            "algebra": {"kind": "boolean", "size": 2},
            "events": {"heads": {"members": [0]}},
            "states": {"fair": {"weights": [0.5, 0.5]}},
            "query": {"kind": "sample", "initial": "fair",
                      "tests": ["heads"], "final": "heads"},
        }
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(doc))
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

    def test_oversized_integer_entry(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "algebra": {"kind": "quantum", "dim": 1},
            "events": {"e": {"matrix": [[[10 ** 400, 0]]]}},
            "query": {"kind": "compatible", "first": "e", "second": "e"},
        }))
        assert main(["compat", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: events.e: events.e.matrix[0][0]: [re, im] entries must fit in a float\n"

    def test_usage_error(self):
        assert run_cli("no-such-command").returncode == 1
        assert run_cli("predict").returncode == 1


@pytest.mark.filterwarnings("ignore::orthoprob.NonUniqueConditioningWarning")
@pytest.mark.parametrize("name, argv", cli_invocations())
def test_stdout_matches_golden(name, argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(list(argv)) == 0
    golden = (PERFBENCH / "golden" / "cli" / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# Each shipped scenario with the subcommand that runs its query.
SHIPPED = {"die": "condition", "order": "condition", "qubit": "condition",
           "sec7": "predict", "twoslit": "twoslit"}
NESTED = object()  # mutation marker: wrap the field in one more list
MUTATIONS = [10 ** 400, -10 ** 400, 2 ** 63, 2 ** 64, True, False, "1.5", "",
             None, [], {}, -1, 0.5, float("nan"), NESTED]


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
    fuzz_file.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(fuzz_file)])
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert code in (1, 2)
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
