"""Command-line behavior: outputs, determinism, exit codes."""

import ast
import errno
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import ROUTES, Instance, p_a_wins_recursive
from skirmish import cli, residues, streams
from skirmish.cli import build_parser, main

from conftest import (
    SOLVE_FORKING_SIZE,
    WRONG_ANSWERS,
    break_route,
    record_sweeps,
    seeded_duel,
    wrong_answer,
)
from oracles import needs_fork, run_fresh


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "skirmish", *argv],
        capture_output=True,
        text=True,
    )


def strict_json(text):
    """Parse JSON, refusing the non-standard Infinity and NaN constants."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


# Three distinct speeds a side, each over 1000 digits: the exact result runs
# past CPython's default 4300-digit int<->str conversion limit.
HUGE_A = ",".join(str(10**1000 + k) for k in (1, 3, 5))
HUGE_B = ",".join(str(10**1000 + k) for k in (2, 4, 6))


def huge_reference():
    return p_a_wins_recursive(Instance(HUGE_A.split(","), HUGE_B.split(",")))


def parse_huge(text):
    """Fraction(text) of any size; the CLI itself runs under the default limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return Fraction(text)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(old)


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def toml_reader():
    """`tomllib` from the standard library (3.11+), else the `tomli` backport."""
    try:
        import tomllib
    except ModuleNotFoundError:
        return pytest.importorskip("tomli")
    return tomllib


class TestSolve:
    def test_auto_distinct_json_exact_bytes(self):
        result = run_cli("solve", "--a", "30,20", "--b", "15,36")
        assert result.returncode == 0
        assert result.stdout == (
            '{"value":"270/539","decimal":"0.500927643785",'
            '"method":"distinct","residues":["-10/11","20/49"]}\n'
        )

    def test_auto_switches_to_series_on_repeats(self, capsys):
        assert main(["solve", "--a", "1,1", "--b", "1,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "series"
        assert payload["value"] == "1/2"

    def test_explicit_series(self, capsys):
        assert main(["solve", "--a", "1,1", "--b", "1,1", "--method", "series"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1/2"

    def test_recursive_has_no_residues(self, capsys):
        assert main(["solve", "--a", "1", "--b", "1,1", "--method", "recursive"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"value": "1/4", "decimal": "0.25", "method": "recursive"}

    def test_closed_form(self, capsys):
        assert main(["solve", "--a", "1,1", "--b", "1", "--method", "closed-form"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "3/4"
        assert payload["method"] == "all-equal"

    def test_epsilon_with_explicit_value(self, capsys):
        code = main(
            ["solve", "--a", "1,1", "--b", "2", "--method", "epsilon", "--epsilon", "1/100"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "epsilon"
        assert abs(Fraction(payload["value"]) - Fraction(5, 9)) < Fraction(1, 50)

    def test_epsilon_uses_safe_default(self, capsys):
        assert main(["solve", "--a", "1,1", "--b", "2", "--method", "epsilon"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "epsilon"
        assert abs(Fraction(payload["value"]) - Fraction(5, 9)) < Fraction(1, 1000)

    def test_plain_format(self, capsys):
        assert main(["solve", "--a", "30,20", "--b", "15,36", "--format", "plain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("P(A wins) = 270/539 = 0.500927643785 [distinct]")
        assert "residues: -10/11, 20/49" in out

    def test_empty_b_side_solves_to_one(self, capsys):
        assert main(["solve", "--a", "5", "--b", ""]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1"

    def test_input_file(self, tmp_path, capsys):
        doc = tmp_path / "duel.json"
        doc.write_text('{"a":["30","20"],"b":["15","36"]}')
        assert main(["solve", "--input", str(doc)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "270/539"

    def test_input_conflicts_with_inline(self, tmp_path, capsys):
        doc = tmp_path / "duel.json"
        doc.write_text('{"a":["1"],"b":["1"]}')
        assert main(["solve", "--input", str(doc), "--a", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_instance(self, capsys):
        assert main(["solve"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "--input", "/nonexistent/duel.json"]) == 2

    def test_a_missing_file_outranks_a_misplaced_epsilon(self, tmp_path, capsys):
        """`main` reads the duel before the handler checks its own flags."""
        missing = tmp_path / "duel.json"
        assert main(["solve", "--input", str(missing), "--epsilon", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert main(["solve", "--a", "1", "--b", "2", "--epsilon", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: --epsilon applies only to --method epsilon, not auto\n"
        )

    def test_input_nested_too_deep_is_usage_error(self, tmp_path):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 100_000)
        result = run_cli("solve", "--input", str(doc))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: invalid JSON: ")

    def test_input_past_the_digit_limit_is_solved(self, tmp_path, capsys):
        """`main` lifts CPython's int<->str cap before it reads --input."""
        speed = "1" * 5000
        doc = tmp_path / "huge.json"
        doc.write_text('{"a":[%s],"b":[1]}' % speed)
        assert main(["solve", "--input", str(doc)]) == 0
        value = parse_huge(json.loads(capsys.readouterr().out)["value"])
        a = parse_huge(speed)
        assert value == a / (a + 1)

    def test_distinct_on_repeated_a_is_usage_error(self, capsys):
        assert main(["solve", "--a", "1,1", "--b", "2", "--method", "distinct"]) == 2

    def test_bad_speed(self):
        result = run_cli("solve", "--a", "30,0", "--b", "15")
        assert result.returncode == 2
        assert "error:" in result.stderr

    @pytest.mark.parametrize("speed", ["\u0661", "\uff11", "1_000", "1e1_0"])
    def test_speed_string_is_ascii_without_underscores(self, speed, capsys):
        assert main(["solve", "--a", speed, "--b", "2"]) == 2
        assert "malformed speed" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self):
        result = run_cli("solve", "--a", "1", "--b", "1", "--method", "newton")
        assert result.returncode == 2

    def test_method_choices_are_the_route_table(self):
        commands = next(
            action for action in build_parser()._actions if action.dest == "command"
        )
        method = next(
            action for action in commands.choices["solve"]._actions if action.dest == "method"
        )
        assert tuple(method.choices) == ("auto", *ROUTES)

    @pytest.mark.parametrize("method", ["auto", "recursive", "series"])
    def test_result_beyond_the_digit_limit(self, capsys, method):
        assert main(["solve", "--a", HUGE_A, "--b", HUGE_B, "--method", method]) == 0
        value = parse_huge(json.loads(capsys.readouterr().out)["value"])
        assert value == huge_reference()
        assert value.denominator > 10**4300

    def test_inconsistency_exits_one(self, capsys, monkeypatch):
        break_route(monkeypatch)
        assert main(["solve", "--a", "1", "--b", "1"]) == 1
        assert "inconsistency:" in capsys.readouterr().err

    def test_unexpected_error_exits_three(self, capsys, monkeypatch):
        import skirmish.residues as residues_mod

        def crashing(inst):
            raise RuntimeError("route crashed")

        monkeypatch.setattr(residues_mod, "p_a_wins_distinct", crashing)
        assert main(["solve", "--a", "1", "--b", "1"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: route crashed" in err

    def test_epsilon_division_by_zero_is_usage_error(self):
        result = run_cli("solve", "--a", "1,1", "--b", "2", "--method", "epsilon",
                         "--epsilon", "1/0")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "error: perturbation" in result.stderr

    @pytest.mark.parametrize(
        "method, eps",
        [("auto", "1/0"), *((m, "1/100") for m in ROUTES if m != "epsilon")],
    )
    def test_epsilon_with_another_route_is_usage_error(self, capsys, method, eps):
        argv = ["solve", "--a", "1", "--b", "2", "--method", method, "--epsilon", eps]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --epsilon applies only to --method epsilon" in captured.err

    def test_empty_epsilon_is_usage_error(self, capsys):
        argv = ["solve", "--a", "1,1", "--b", "2", "--method", "epsilon", "--epsilon", ""]
        assert main(argv) == 2
        assert "error: perturbation must be an exact positive rational, got ''" in (
            capsys.readouterr().err
        )


class TestSimulate:
    def test_json_shape_and_determinism(self, capsys):
        argv = ["simulate", "--a", "1", "--b", "1", "--trials", "2000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["trials"] == 2000
        assert payload["seed"] == 7
        assert payload["policy"] == "frontmost"
        assert 0 <= payload["aWins"] <= 2000

    def test_policy_flag(self, capsys):
        argv = [
            "simulate", "--a", "2,1", "--b", "1",
            "--trials", "500", "--policy", "random-adjacent",
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["policy"] == "random-adjacent"

    def test_empty_side_is_usage_error(self, capsys):
        assert main(["simulate", "--a", "1", "--b", ""]) == 2

    def test_bad_trials(self, capsys):
        assert main(["simulate", "--a", "1", "--b", "1", "--trials", "0"]) == 2


class TestVolume:
    def test_json_shape(self, capsys):
        assert main(["volume", "--a", "1", "--b", "1,1", "--samples", "5000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"hits", "samples", "estimate", "stdError", "seed"}
        assert payload["samples"] == 5000

    def test_empty_side_is_usage_error(self, capsys):
        assert main(["volume", "--a", "1", "--b", ""]) == 2

    def test_speed_beyond_float_range(self, capsys):
        assert main(["volume", "--a", "1e400", "--b", "1", "--samples", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["hits"] == 1000


class TestRelate:
    def test_matched_json(self, capsys):
        assert main(["relate", "--a", "60", "--b", "20,30"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"p": "1/2", "decimal": "0.5", "verdict": "matched"}

    def test_plain(self, capsys):
        assert main(["relate", "--a", "12,40", "--b", "20,30", "--format", "plain"]) == 0
        assert "loses" in capsys.readouterr().out

    def test_empty_group_is_usage_error(self, capsys):
        assert main(["relate", "--a", "", "--b", "1"]) == 2

    def test_result_beyond_the_digit_limit(self, capsys):
        assert main(["relate", "--a", HUGE_A, "--b", HUGE_B]) == 0
        assert parse_huge(json.loads(capsys.readouterr().out)["p"]) == huge_reference()

    @pytest.mark.parametrize(
        "route, a, b, reference",
        [("distinct", "60", "20,30", "1/2"), ("series", "1,1", "2", "5/9")],
    )
    def test_mismatch_exits_one(self, capsys, monkeypatch, route, a, b, reference):
        break_route(monkeypatch, route)
        assert main(["relate", "--a", a, "--b", b]) == 1
        assert capsys.readouterr() == (
            "",
            f"inconsistency: {route} gave 1/3, recursive reference gives {reference}\n",
        )


class TestCurve:
    def test_csv_output(self, capsys):
        assert main(["curve", "--points", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["x,y", "0.25,0.6", "0.5,0.333333333333", "0.75,0.142857142857"]

    def test_default_hundred_points(self, capsys):
        assert main(["curve"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 101 and lines[0] == "x,y"

    def test_json_points_are_exact(self, capsys):
        assert main(["curve", "--points", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "points": [{"x": "1/3", "y": "1/2"}, {"x": "2/3", "y": "1/5"}]
        }

    def test_bad_points(self, capsys):
        assert main(["curve", "--points", "0"]) == 2


# Every integer option, on each command that takes it.
INTEGER_OPTIONS = [
    (["simulate", "--a", "1", "--b", "1"], "--trials"),
    (["simulate", "--a", "1", "--b", "1"], "--seed"),
    (["volume", "--a", "1", "--b", "1"], "--samples"),
    (["volume", "--a", "1", "--b", "1"], "--seed"),
    (["crosscheck", "--a", "1", "--b", "1"], "--trials"),
    (["crosscheck", "--a", "1", "--b", "1"], "--samples"),
    (["crosscheck", "--a", "1", "--b", "1"], "--seed"),
    (["curve"], "--points"),
]


class TestIntegerOptions:
    @pytest.mark.parametrize("text", ["\u0661\u0660\u0660", "\uff11\uff10", "1_000"])
    @pytest.mark.parametrize("command, option", INTEGER_OPTIONS)
    def test_integer_text_is_ascii_without_underscores(self, command, option, text, capsys):
        """Integer options obey the speeds' rule: a one-line usage error, exit 2."""
        with pytest.raises(SystemExit) as stop:
            main([*command, option, text])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == err.splitlines()[-1:]
        assert f"argument {option}: malformed integer {text!r}" in errors[0]
        assert "Traceback" not in err

    def test_ascii_trials_still_run(self, capsys):
        assert main(["simulate", "--a", "1", "--b", "1", "--trials", "100", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["trials"], payload["seed"]) == (100, 3)


class TestCycle:
    def test_witness_triple(self, capsys):
        code = main(["cycle", "0.9,0.0526317", "1", "0.414213,0.414212"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isCycle"] is True
        assert payload["pPQ"] == "100000023/200000023"

    def test_transitive_triple_plain(self, capsys):
        code = main(["cycle", "20,30", "15,36", "12,40", "--format", "plain"])
        assert code == 0
        assert "beats-cycle: no" in capsys.readouterr().out

    def test_needs_three_groups(self):
        result = run_cli("cycle", "1", "2")
        assert result.returncode == 2

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        break_route(monkeypatch)
        assert main(["cycle", "0.9,0.0526317", "1", "0.414213,0.414212"]) == 1
        assert capsys.readouterr() == (
            "",
            "inconsistency: distinct gave 1/3, recursive reference gives 100000023/200000023\n",
        )


def readme_examples():
    """(argv, stdout) for each `$ skirmish ...` line of README's sh blocks.

    The stdout is the lines that follow the command, up to a blank line.
    """
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        for chunk in block.strip().split("\n\n"):
            command, *output = chunk.splitlines()
            if command.startswith("$ skirmish "):
                examples.append((shlex.split(command)[2:], "".join(f"{line}\n" for line in output)))
    return examples


README_EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        commands = next(
            action for action in build_parser()._actions if action.dest == "command"
        )
        assert {argv[0] for argv, _ in README_EXAMPLES} == set(commands.choices)

    @pytest.mark.parametrize(
        "argv, stdout", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
    )
    def test_example_output(self, capsys, argv, stdout):
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout


# Exact crosscheck stdout, JSON and plain, byte for byte.
AGREEING_BYTES = {
    "json": (
        '{"value":"270/539","decimal":"0.500927643785","methods":['
        '{"method":"recursive","value":"270/539","agree":true},'
        '{"method":"distinct","value":"270/539","agree":true},'
        '{"method":"epsilon","value":"113910051609250251563/227398247437694255001",'
        '"epsilon":"1/5000","absError":"7.34E-8"},'
        '{"method":"montecarlo","estimate":0.50805,"stdError":0.0035350756533630225,'
        '"sigmas":2.014510018188765,"agree":true},'
        '{"method":"hypervolume","estimate":0.49495,"stdError":0.0035353535714267676,'
        '"sigmas":1.6907358921328208,"agree":true}],"agree":true}\n'
    ),
    "plain": (
        "exact value: 270/539 = 0.500927643785\n"
        "  recursive    270/539  (reference)\n"
        "  distinct     270/539  (exact match)\n"
        "  epsilon      abs error 7.34E-8 at eps = 1/5000\n"
        "  montecarlo   0.508050 +/- 0.003535  [2.01 sigma]\n"
        "  hypervolume  0.494950 +/- 0.003535  [1.69 sigma]\n"
        "agreement: yes\n"
    ),
}
SINGLE_TRIAL_BYTES = {
    "json": (
        '{"value":"1/2","decimal":"0.5","methods":['
        '{"method":"recursive","value":"1/2","agree":true},'
        '{"method":"distinct","value":"1/2","agree":true},'
        '{"method":"epsilon","value":"1/2","epsilon":"1/3000","absError":"0"},'
        '{"method":"montecarlo","estimate":1.0,"stdError":0.0,"sigmas":1.0,"agree":true},'
        '{"method":"hypervolume","estimate":1.0,"stdError":0.0,"sigmas":1.0,"agree":true}],'
        '"agree":true}\n'
    ),
    "plain": (
        "exact value: 1/2 = 0.5\n"
        "  recursive    1/2  (reference)\n"
        "  distinct     1/2  (exact match)\n"
        "  epsilon      abs error 0 at eps = 1/3000\n"
        "  montecarlo   1.000000 +/- 0.000000  [1.00 sigma]\n"
        "  hypervolume  1.000000 +/- 0.000000  [1.00 sigma]\n"
        "agreement: yes\n"
    ),
}
# `distinct` replaced by a wrong route, which the epsilon row also runs.
EXACT_MISMATCH_BYTES = {
    "json": (
        '{"value":"1/2","decimal":"0.5","methods":['
        '{"method":"recursive","value":"1/2","agree":true},'
        '{"method":"distinct","value":"1/3","agree":false},'
        '{"method":"epsilon","value":"1/3","epsilon":"1/3000","absError":"0.167"},'
        '{"method":"montecarlo","estimate":0.517,"stdError":0.01580224667571039,'
        '"sigmas":1.0751744044572489,"agree":true},'
        '{"method":"hypervolume","estimate":0.495,"stdError":0.01581059771166163,'
        '"sigmas":0.31622776601683794,"agree":true}],"agree":false}\n'
    ),
    "plain": (
        "exact value: 1/2 = 0.5\n"
        "  recursive    1/2  (reference)\n"
        "  distinct     1/3  (MISMATCH)\n"
        "  epsilon      abs error 0.167 at eps = 1/3000\n"
        "  montecarlo   0.517000 +/- 0.015802  [1.08 sigma]\n"
        "  hypervolume  0.495000 +/- 0.015811  [0.32 sigma]\n"
        "agreement: NO\n"
    ),
}
# Every B speed one too fast in both exact routes: they agree with each
# other, and only the two estimators, which play the true speeds, object.
SHIFTED_B_BYTES = {
    "json": (
        '{"value":"384350/790533","decimal":"0.486190962300","methods":['
        '{"method":"recursive","value":"384350/790533","agree":true},'
        '{"method":"distinct","value":"384350/790533","agree":true},'
        '{"method":"epsilon","value":"1822580438766758540021/3638432939632002270081",'
        '"epsilon":"1/5000","absError":"0.0147"},'
        '{"method":"montecarlo","estimate":0.50142,"stdError":0.0011180294799333333,'
        '"sigmas":13.626463250431758,"agree":false},'
        '{"method":"hypervolume","estimate":0.500508,"stdError":0.0004999997419359334,'
        '"sigmas":28.64500208728693,"agree":false}],"agree":false}\n'
    ),
    "plain": (
        "exact value: 384350/790533 = 0.486190962300\n"
        "  recursive    384350/790533  (reference)\n"
        "  distinct     384350/790533  (exact match)\n"
        "  epsilon      abs error 0.0147 at eps = 1/5000\n"
        "  montecarlo   0.501420 +/- 0.001118  [13.63 sigma]\n"
        "  hypervolume  0.500508 +/- 0.000500  [28.65 sigma]\n"
        "agreement: NO\n"
    ),
}


def assert_crosscheck_bytes(capsys, argv, code, pinned, err=""):
    """`argv` exits `code`, prints `pinned[format]` in each format and `err` on stderr."""
    for fmt in ("json", "plain"):
        assert main([*argv, "--format", fmt]) == code
        assert capsys.readouterr() == (pinned[fmt], err)


class TestCrosscheck:
    def test_distinct_instance_agrees(self, capsys):
        argv = [
            "crosscheck", "--a", "30,20", "--b", "15,36",
            "--seed", "7", "--trials", "20000", "--samples", "20000",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["value"] == "270/539"
        methods = [row["method"] for row in payload["methods"]]
        assert methods == ["recursive", "distinct", "epsilon", "montecarlo", "hypervolume"]
        assert_crosscheck_bytes(capsys, argv, 0, AGREEING_BYTES)

    def test_repeated_speeds_use_series(self, capsys):
        argv = [
            "crosscheck", "--a", "1,1,1", "--b", "1,1",
            "--seed", "7", "--trials", "20000", "--samples", "20000",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["methods"][1]["method"] == "series"

    def test_empty_side_is_usage_error(self):
        result = run_cli("crosscheck", "--a", "5", "--b", "")
        assert result.returncode == 2

    def test_epsilon_override(self, capsys):
        argv = [
            "crosscheck", "--a", "1,1", "--b", "1",
            "--trials", "1000", "--samples", "1000", "--epsilon", "1/5000",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        eps_row = payload["methods"][2]
        assert eps_row["epsilon"] == "1/5000"

    def test_epsilon_division_by_zero_is_usage_error(self):
        result = run_cli("crosscheck", "--a", "1,1", "--b", "2", "--epsilon", "1/0")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "error: perturbation" in result.stderr

    def test_empty_epsilon_is_usage_error(self, capsys, monkeypatch):
        sweeps = record_sweeps(monkeypatch)
        assert main(["crosscheck", "--a", "1,1", "--b", "2", "--epsilon", ""]) == 2
        assert "error: perturbation must be an exact positive rational, got ''" in (
            capsys.readouterr().err
        )
        assert sweeps == []

    def test_exact_mismatch_exits_one(self, capsys, monkeypatch):
        break_route(monkeypatch)
        argv = [
            "crosscheck", "--a", "1", "--b", "1",
            "--trials", "1000", "--samples", "1000",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "inconsistency: distinct gave 1/3, recursive reference gives 1/2\n"
        payload = json.loads(captured.out)
        assert payload["agree"] is False
        assert_crosscheck_bytes(capsys, argv, 1, EXACT_MISMATCH_BYTES, captured.err)

    @pytest.mark.parametrize("kind", WRONG_ANSWERS)
    def test_wrong_auto_route_leaves_the_exact_value(self, capsys, monkeypatch, kind):
        # The reference starts at the wrong answer's denominator, and still
        # gives the value that every other row is compared with.
        inst = seeded_duel(20)
        value = p_a_wins_recursive(inst)
        wrong = wrong_answer(kind, value)
        break_route(monkeypatch, value=wrong)
        argv = [
            "crosscheck", "--a", ",".join(map(str, inst.a)), "--b", ",".join(map(str, inst.b)),
            "--trials", "1000", "--samples", "1000",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"inconsistency: distinct gave {wrong}, recursive reference gives {value}\n"
        )
        payload = json.loads(captured.out)
        assert payload["value"] == payload["methods"][0]["value"] == str(value)
        assert payload["methods"][1] == {"method": "distinct", "value": str(wrong), "agree": False}

    @pytest.mark.parametrize("broken", [False, True])
    def test_one_reference_sweep_from_the_auto_denominator(self, capsys, monkeypatch, broken):
        # The CLI reaches the reference only through `verify`, which sweeps
        # it once, from the denominator of the answer it checks.
        assert "p_a_wins_recursive" not in vars(cli)
        inst = seeded_duel(20)
        answer = p_a_wins_recursive(inst)
        if broken:
            answer = wrong_answer("extra-prime", answer)
            break_route(monkeypatch, value=answer)
        guesses = record_sweeps(monkeypatch)
        argv = [
            "crosscheck", "--a", ",".join(map(str, inst.a)), "--b", ",".join(map(str, inst.b)),
            "--trials", "1000", "--samples", "1000",
        ]
        assert main(argv) == (1 if broken else 0)
        capsys.readouterr()
        assert guesses == [answer.denominator]

    def test_single_trial_is_no_false_alarm(self, capsys):
        argv = ["crosscheck", "--a", "1", "--b", "1", "--trials", "1", "--samples", "1"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True
        assert [row["sigmas"] for row in payload["methods"][3:]] == [1.0, 1.0]
        assert_crosscheck_bytes(capsys, argv, 0, SINGLE_TRIAL_BYTES)

    def test_gate_uses_the_exact_probability(self):
        # 2000 trials of a fair duel: 1000 +/- 4*sqrt(500) hits pass, one more fails.
        assert streams.gate(1089, 2000, Fraction(1, 2))[0] is True
        agree, sigmas = streams.gate(1090, 2000, Fraction(1, 2))
        assert agree is False
        assert sigmas == pytest.approx(90 / 500**0.5)
        # No hits where p is within 1e-400 of one: a z-score past the float range.
        agree, sigmas = streams.gate(0, 1000, 1 - Fraction(1, 10**400))
        assert agree is False
        assert math.isfinite(sigmas) and sigmas > 1e150

    def test_speed_beyond_float_range(self, capsys):
        argv = ["crosscheck", "--a", "1e400", "--b", "1", "--trials", "1000", "--samples", "1000"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True

    def test_result_beyond_the_digit_limit(self, capsys):
        argv = ["crosscheck", "--a", HUGE_A, "--b", HUGE_B, "--trials", "100", "--samples", "100"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True
        assert parse_huge(payload["value"]) == huge_reference()

    def test_plain_table(self, capsys):
        argv = [
            "crosscheck", "--a", "2,1", "--b", "1",
            "--trials", "2000", "--samples", "2000", "--format", "plain",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "agreement: yes" in out
        assert "recursive" in out and "montecarlo" in out

    def test_wrong_exact_speeds_are_caught_by_both_estimators(self, capsys, monkeypatch):
        integer_speeds = Instance.integer_speeds

        def b_one_faster(inst):
            a, b = integer_speeds(inst)
            return a, tuple(speed + 1 for speed in b)

        monkeypatch.setattr(Instance, "integer_speeds", b_one_faster)
        assert_crosscheck_bytes(
            capsys,
            ["crosscheck", "--a", "30,20", "--b", "15,36"],
            1,
            SHIFTED_B_BYTES,
            "inconsistency: montecarlo estimate 0.50142 is 13.6 sigma from exact 384350/790533\n",
        )


# Usage, help and error output of `python -m skirmish` at COLUMNS=80, as
# the parser that always built all seven subparsers printed it.  argparse's
# wording moves between Python versions, so the bytes hold on the version
# they were recorded on; the one-parser equivalence below holds on every one.
USAGE_PINS = json.loads((Path(__file__).with_name("usage_pins.json")).read_text())

_SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
_FLAGS = sorted(
    {flag for sub in _SUBPARSERS.values() for action in sub._actions for flag in action.option_strings}
)
_VALUES = st.sampled_from(["1", "2,3", "x", "1/2", "-1", "", "plain", "frontmost", "series", "nope"])


@st.composite
def _flag(draw):
    """A flag of any subparser: valid, `=`-joined, misspelled, abbreviated or missing its value."""
    flag = draw(st.sampled_from(_FLAGS))
    form = draw(st.sampled_from(["valid", "joined", "misspelled", "abbreviated", "missing"]))
    if form == "joined":
        return [f"{flag}={draw(_VALUES)}"]
    if form == "misspelled":
        at = draw(st.integers(1, len(flag) - 1))
        return [flag[:at] + draw(st.sampled_from("xz-")) + flag[at + 1 :], draw(_VALUES)]
    if form == "abbreviated":
        return [flag[: draw(st.integers(min(3, len(flag)), len(flag)))], draw(_VALUES)]
    if form == "missing":
        return [flag]
    return [flag, draw(_VALUES)]


_ARGVS = st.builds(
    lambda command, parts: [command, *(token for part in parts for token in part)],
    st.one_of(st.sampled_from(sorted(_SUBPARSERS)), st.sampled_from(["-h", "--", "bogus", "solv"])),
    st.lists(st.one_of(_flag(), _VALUES.map(lambda value: [value])), max_size=6),
)


def _parsed(parser, argv):
    """The Namespace `parser` makes of argv, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestOneParser:
    @settings(max_examples=300, deadline=None)
    @given(_ARGVS)
    def test_the_command_s_subparser_parses_as_all_seven(self, argv):
        """`build_parser(argv[0])` parses, exits and prints as the full parser does."""
        assert _parsed(build_parser(argv[0]), argv) == _parsed(build_parser(), argv)

    def test_only_the_named_command_is_built(self):
        (commands,) = (a for a in build_parser("curve")._actions if a.dest == "command")
        assert list(commands.choices) == ["curve"]
        for command in (None, "-h", "bogus"):
            (commands,) = (a for a in build_parser(command)._actions if a.dest == "command")
            assert list(commands.choices) == list(_SUBPARSERS)

    @pytest.mark.skipif(
        ".".join(map(str, sys.version_info[:2])) != USAGE_PINS["python"],
        reason="argparse's wording is pinned on the Python version it was recorded on",
    )
    @pytest.mark.parametrize("pin", USAGE_PINS["pins"], ids=lambda pin: " ".join(pin["argv"]))
    def test_usage_bytes_are_pinned(self, pin):
        result = subprocess.run(
            [sys.executable, "-m", "skirmish", *pin["argv"]],
            capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": str(USAGE_PINS["columns"])},
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            pin["code"], pin["stdout"], pin["stderr"]
        )


# A seeded duel whose verified reference, started at the answer's
# denominator, is swept in forked row bands wherever two cores are usable
# (`test_solve_forking_forks`).
SOLVE_FORKING = [
    "solve",
    "--a", ",".join(map(str, seeded_duel(SOLVE_FORKING_SIZE).a)),
    "--b", ",".join(map(str, seeded_duel(SOLVE_FORKING_SIZE).b)),
]


# A report small enough to wait in stdout's buffer, and one too large to.
REPORTS = [["solve", "--a", "1", "--b", "2"], ["curve", "--points", "20000"]]
REPORT_SIZES = ["small", "large"]

# Script lines that make `solve --method auto` at 1v1 disagree with the
# reference ("wrong", exit 1) or crash ("raise", exit 3) in a fresh interpreter.
_PATCH_PRELUDE = "import sys\nfrom fractions import Fraction\nfrom skirmish import residues\n"
ROUTE_PATCHES = {
    None: _PATCH_PRELUDE,
    "wrong": _PATCH_PRELUDE
    + "residues.p_a_wins_distinct = lambda inst: residues.MethodReport("
    "Fraction(1, 3), 'distinct', (Fraction(-1, 3),))\n",
    "raise": _PATCH_PRELUDE
    + "def crash(inst):\n    raise RuntimeError('route crashed')\n"
    "residues.p_a_wins_distinct = crash\n",
}
# What a script adds to end as `python -m skirmish` and the console script end.
RUN_TAIL = "from skirmish.cli import run\nrun()\n"
# Both reports, and a disagreement, whose refused report must outrank it.
WRITES = [(None, argv) for argv in REPORTS] + [("wrong", ["solve", "--a", "1", "--b", "1"])]
WRITE_IDS = [*REPORT_SIZES, "disagree"]


def into_closed_pipe(command, stream, env=None):
    """Run `command` with `stream` ("stdout" or "stderr") a pipe whose reader
    has gone; the other stream is captured."""
    read, write = os.pipe()
    os.close(read)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write}
    try:
        return subprocess.run(command, env=env, **streams)
    finally:
        os.close(write)


class TestEntryPoints:
    def test_source_parses_as_the_oldest_supported_python(self):
        """Every module is Python 3.10 syntax, as `requires-python` promises."""
        for path in sorted((PYPROJECT.parent / "src" / "skirmish").glob("*.py")):
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

    def test_the_syntax_guard_rejects_newer_grammar(self):
        """On a newer interpreter the guard above still refuses 3.11's `except*`."""
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))

    def test_module_invocation(self):
        result = run_cli("solve", "--a", "1", "--b", "1")
        assert result.returncode == 0
        assert json.loads(result.stdout)["value"] == "1/2"

    def test_console_script(self):
        """The `skirmish` script declared in pyproject.toml works.

        Its `module:function` target is run the way the installer's
        generated wrapper runs it, so no install is needed; an installed
        `skirmish` on PATH is run as well.
        """
        for command in script_commands():
            result = subprocess.run(
                [*command, "solve", "--a", "1", "--b", "1"],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["value"] == "1/2", result.stderr

    def test_no_command_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 2

    @pytest.mark.parametrize("speeds, code", [(("1", "2"), 0), (("0", "2"), 2)])
    def test_run_ends_the_process_and_main_returns(self, capsys, speeds, code):
        """`run` ends the process with `main`'s code; `main` returns in process."""
        argv = ["solve", "--a", speeds[0], "--b", speeds[1]]
        script = (
            "import sys\n"
            "from skirmish.cli import main, run\n"
            "print('main returned', main(sys.argv[1:]))\n"
            "run()\n"
            "print('run returned')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True
        )
        assert result.returncode == code, result.stderr
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert result.stdout == f"{out}main returned {code}\n{out}"
        assert result.stderr == err + err

    @pytest.mark.parametrize(
        "argv, stream, code",
        [
            *((argv, "stdout", 141) for argv in REPORTS),
            (["solve", "--a", "0", "--b", "1"], "stderr", 2),
        ],
        ids=[*REPORT_SIZES, "zero-speed"],
    )
    def test_run_never_returns(self, argv, stream, code):
        """`run` ends the process itself, also when a stream refused its bytes.

        Had it returned, the script would write `run returned` to a captured
        stderr, or fail to write it to the closed one and exit 1.
        """
        script = "import os\nfrom skirmish.cli import run\nrun()\nos.write(2, b'run returned\\n')\n"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        result = into_closed_pipe([sys.executable, "-c", script, *argv], stream, env)
        other = "stderr" if stream == "stdout" else "stdout"
        assert (result.returncode, getattr(result, other)) == (code, b"")

    @pytest.mark.parametrize(
        "argv", [SOLVE_FORKING, ["curve", "--points", "20000"]], ids=["solve-forking", "curve"]
    )
    def test_piped_stdout_is_mains(self, capsys, argv):
        """All that `main` prints reaches a pipe before `run` ends the process.

        Block-buffered, as for most callers, so that the report is written
        only by a flush, as `main` does.
        """
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for command in [[sys.executable, "-m", "skirmish"], *script_commands()]:
            result = subprocess.run([*command, *argv], stdout=subprocess.PIPE, env=env)
            assert result.returncode == 0, command
            assert result.stdout == expected, command

    @pytest.mark.parametrize("patch, argv", WRITES, ids=WRITE_IDS)
    def test_a_closed_pipe_ends_as_sigpipe_would(self, patch, argv):
        """With no reader left, the process ends as a writer killed by SIGPIPE
        looks to a shell: status 141, and nothing on stderr, even where the
        routes disagree.

        A small report fails at its flush, a large one at its write, both
        inside `main`, which returns 141 in process too.
        """
        # `main`'s code, with no exit flush: that would fail on what the pipe refused.
        returned = ROUTE_PATCHES[patch] + (
            "import os, sys\n"
            "from skirmish.cli import main\n"
            "print(main(sys.argv[1:]), file=sys.stderr)\n"
            "os._exit(0)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        ends = []
        entries = [[sys.executable, "-m", "skirmish"], *script_commands()]
        if patch:
            entries = [[sys.executable, "-c", ROUTE_PATCHES[patch] + RUN_TAIL]]
        for command in [[sys.executable, "-c", returned], *entries]:
            result = into_closed_pipe([*command, *argv], "stdout", env)
            ends.append((result.returncode, result.stderr))
        assert ends == [(0, b"141\n")] + [(141, b"")] * (len(ends) - 1)

    @pytest.mark.parametrize(
        "patch, argv, code",
        [
            (None, ["solve", "--a", "0", "--b", "1"], 2),
            (None, ["solve", "--a", "x"], 2),
            ("wrong", ["solve", "--a", "1", "--b", "1"], 1),
            ("raise", ["solve", "--a", "1", "--b", "2"], 3),
        ],
        ids=["zero-speed", "not-a-number", "disagree", "crash"],
    )
    def test_a_closed_stderr_keeps_the_exit_code(self, patch, argv, code):
        """A diagnostic that standard error refuses is lost, and its code stands.

        `main` returns the code in process, and `run` ends the process with
        it.  The disagreement and the crash are patched into the interpreter
        that runs them; the validation errors also run as the real commands.
        """
        returns = (
            "import os\nfrom skirmish.cli import main\n"
            # No exit flush: that would fail on what the pipe refused.
            "print(main(sys.argv[1:]), flush=True)\nos._exit(0)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        in_process, ended = (
            into_closed_pipe(
                [sys.executable, "-c", ROUTE_PATCHES[patch] + tail, *argv], "stderr", env
            )
            for tail in (returns, RUN_TAIL)
        )
        assert (in_process.returncode, ended.returncode) == (0, code)
        # Only the disagreement has a report to print, before it is found.
        assert in_process.stdout == ended.stdout + f"{code}\n".encode()
        assert (ended.stdout == b"") == (code != 1)
        if patch is None:
            for command in [[sys.executable, "-m", "skirmish"], *script_commands()]:
                result = into_closed_pipe([*command, *argv], "stderr", env)
                assert (result.returncode, result.stdout) == (code, b""), command

    @pytest.mark.parametrize(
        "argv, stream, code",
        [(["-h"], "stdout", 0), (["solve", "-h"], "stdout", 0), (["nope"], "stderr", 2)],
        ids=["help", "solve-help", "unknown-command"],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_argparse_exits_into_a_closed_pipe(self, argv, stream, code, unbuffered):
        """argparse prints help or a usage error and exits by itself, outside
        `main`'s handlers, and skirmish's parser drops a write that fails: its
        own status, and nothing on the other stream, even when the refused
        bytes stay buffered."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        other = "stderr" if stream == "stdout" else "stdout"
        for command in [[sys.executable, "-m", "skirmish"], *script_commands()]:
            result = into_closed_pipe([*command, *argv], stream, env)
            assert (result.returncode, getattr(result, other)) == (code, b""), command

    @pytest.mark.parametrize(
        "argv, stream, code",
        [(["-h"], "stdout", 0), (["solve", "-h"], "stdout", 0), (["nope"], "stderr", 2)],
        ids=["help", "solve-help", "unknown-command"],
    )
    def test_the_parser_drops_a_refused_write(self, monkeypatch, argv, stream, code):
        """The parser and its subparsers drop the help or usage text that a
        stream refuses on every supported Python, where argparse drops it
        only from 3.11.7 on: `parse_args` leaves by its SystemExit alone."""

        class Refusing(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, stream, Refusing())
        with pytest.raises(SystemExit) as exited:
            build_parser(argv[0]).parse_args(argv)
        assert exited.value.code == code

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("patch, argv", WRITES, ids=WRITE_IDS)
    def test_a_full_disk_exits_four(self, patch, argv):
        """A write that fails otherwise than on a closed pipe says so once, and
        exits 4, even where the routes disagree."""
        command = [sys.executable, "-m", "skirmish"]
        if patch:
            command = [sys.executable, "-c", ROUTE_PATCHES[patch] + RUN_TAIL]
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [*command, *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert (result.returncode, result.stderr) == (
            4, f"error: standard output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize(
        "patch, speeds, code",
        [
            (None, ("1", "2"), 0),
            (None, ("0", "2"), 2),
            ("wrong", ("1", "1"), 1),
            ("raise", ("1", "2"), 3),
        ],
    )
    def test_run_exit_codes_match_main(self, monkeypatch, capsys, patch, speeds, code):
        """Through `run()`, each exit code and stdout are `main`'s."""
        argv = ["solve", "--a", speeds[0], "--b", speeds[1]]
        script = ROUTE_PATCHES[patch] + RUN_TAIL
        result = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True
        )
        assert result.returncode == code, result.stderr
        assert ("Traceback" in result.stderr) == (code == 3)

        if patch == "wrong":
            break_route(monkeypatch)
        elif patch == "raise":
            monkeypatch.setattr(residues, "p_a_wins_distinct", _crash)
        assert main(argv) == code
        assert result.stdout == capsys.readouterr().out

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
    def test_stdout_through_a_pipe_matches_one_core(self):
        """Forked row bands print nothing: the piped stdout equals the one-band run's."""
        command = [sys.executable, "-m", "skirmish", *SOLVE_FORKING]
        # Block-buffered, as for most callers: what a child must not flush again.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(PYPROJECT.parent / "src")
        bands, one_core = (
            subprocess.run(prefix + command, stdout=subprocess.PIPE, env=env)
            for prefix in ([], ["taskset", "-c", str(min(os.sched_getaffinity(0)))])
        )
        assert bands.returncode == one_core.returncode == 0
        assert bands.stdout.count(b"\n") == 1
        assert bands.stdout == one_core.stdout

    @needs_fork
    def test_solve_forking_forks(self):
        """The premise of the tests that run SOLVE_FORKING: its solve forks once."""
        _, seen = run_fresh(
            f"argv = {SOLVE_FORKING!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(argv)\n"
            "print(json.dumps([code, len(forks), children_left()]))\n"
        )
        assert seen == [0, 1, False]


def _crash(inst):
    raise RuntimeError("route crashed")


def script_commands():
    """The `skirmish` console script, run as the installer's wrapper runs its
    pyproject.toml target, and an installed `skirmish` on PATH if there is one."""
    with PYPROJECT.open("rb") as f:
        target = toml_reader().load(f)["project"]["scripts"]["skirmish"]
    module, function = target.split(":")
    wrapper = (
        f"import sys\nfrom {module} import {function}\n"
        f"sys.argv[0] = 'skirmish'\nsys.exit({function}())"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("skirmish")
    if installed:
        commands.append([installed])
    return commands


def modules_loaded_by(commands):
    """Modules that running `commands` through `main` in a fresh interpreter loads.

    Only those beyond what a bare `python -c pass` already holds: `site`
    may preload modules of its own (`.pth` files), and those are no cost
    of skirmish.
    """
    listing = "print(' '.join(sys.modules))\n"
    script = (
        "import sys\n"
        "from skirmish.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'nonzero exit from {argv}')\n"
    )
    bare, loaded = (
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")},
        )
        for code in ("import sys\n" + listing, script + listing)
    )
    assert bare.returncode == 0, bare.stderr
    assert loaded.returncode == 0, loaded.stderr
    return set(loaded.stdout.splitlines()[-1].split()) - set(bare.stdout.split())


# Exact commands whose reference sweeps are one band each.  One speed a
# side (B repeated) is in every route's domain.
EXACT_COMMANDS = [
    ["solve", "--a", "2", "--b", "3,3", "--method", method] for method in ("auto", *ROUTES)
] + [
    ["relate", "--a", "1,2", "--b", "3"],
    ["curve", "--points", "3"],
    ["cycle", "1", "2", "3"],
]

# Slow imports no exact command needs: `dataclasses` pulls in `inspect`,
# `traceback` is needed only to print a crash, and numpy only to draw.
# Forked workers, the reference's row bands among them, need only `os`: no
# thread or process pool, pickling, subprocess or selector, and whether a
# second thread is alive is read without importing `threading`.
UNBUDGETED_MODULES = {
    "dataclasses", "inspect", "traceback", "numpy", "threading", "concurrent.futures",
    "multiprocessing", "subprocess", "pickle", "selectors",
}


# Only the commands that draw load the stochastic estimators.
STOCHASTIC_MODULES = {"skirmish.montecarlo", "skirmish.volume"}
# ... and their handlers and the process runner, which a reference sweep
# loads too, but only where it forks.
DRAWING_MODULES = {"skirmish.cli_draws", "skirmish.streams", *STOCHASTIC_MODULES}


class TestImportBudget:
    def test_import_loads_no_unbudgeted_module(self):
        loaded = modules_loaded_by([])
        assert "skirmish.cli" in loaded
        assert not loaded & (UNBUDGETED_MODULES | DRAWING_MODULES)

    def test_exact_commands_load_no_unbudgeted_module(self):
        assert not modules_loaded_by(EXACT_COMMANDS) & (UNBUDGETED_MODULES | DRAWING_MODULES)

    def test_a_forking_sweep_loads_the_runner_alone(self):
        """Asking for two bands or more loads `streams`, whether or not the host
        grants a second process, and nothing else a drawing command needs."""
        loaded = modules_loaded_by([SOLVE_FORKING])
        assert "skirmish.streams" in loaded
        assert not loaded & (UNBUDGETED_MODULES | DRAWING_MODULES - {"skirmish.streams"})

    def test_the_recursive_route_loads_no_runner(self):
        """The recursive route's reference starts at 1, one band's work, so it
        forks nothing on the duel whose verified solve forks, nor at 120v120."""
        recursive = [
            SOLVE_FORKING + ["--method", "recursive"],
            ["solve", "--a", ",".join(map(str, seeded_duel(120).a)),
             "--b", ",".join(map(str, seeded_duel(120).b)), "--method", "recursive"],
        ]
        assert not modules_loaded_by(recursive) & (UNBUDGETED_MODULES | DRAWING_MODULES)

    @pytest.mark.parametrize(
        "command, modules",
        [
            (["simulate", "--trials", "10"], {"skirmish.montecarlo"}),
            (["volume", "--samples", "10"], {"skirmish.volume"}),
            (["crosscheck", "--trials", "10", "--samples", "10"], STOCHASTIC_MODULES),
        ],
    )
    def test_drawing_commands_load_numpy_and_their_estimators(self, command, modules):
        """... and no other estimator."""
        loaded = modules_loaded_by([[*command, "--a", "1", "--b", "2"]])
        assert {"numpy", "skirmish.cli_draws", "skirmish.streams", *modules} <= loaded
        assert not loaded & (STOCHASTIC_MODULES - modules)

    def test_the_drawing_handlers_load_no_cli(self):
        """`cli_draws` takes its duel from `main`, so it imports nothing from `cli`."""
        script = "import sys, skirmish.cli_draws\nprint('skirmish.cli' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")},
        )
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr

    def test_every_public_name_resolves(self):
        """`__all__` resolves by attribute and by `from skirmish import`, the
        stochastic names on first use; a name outside it is an AttributeError."""
        script = (
            "import sys\n"
            "import skirmish\n"
            f"assert not {STOCHASTIC_MODULES!r} & set(sys.modules)\n"
            "values = [getattr(skirmish, name) for name in skirmish.__all__]\n"
            "namespace = {}\n"
            "exec(f'from skirmish import {\", \".join(skirmish.__all__)}', namespace)\n"
            "assert [namespace[name] for name in skirmish.__all__] == values\n"
            "exec('from skirmish import *', namespace)\n"
            "try:\n"
            "    skirmish.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "module 'skirmish' has no attribute 'no_such_name'\n"


# 300-digit integers, and small ones that include zero and negatives.
_BIG = st.integers(10**299, 10**300 - 1)
_SMALL = st.integers(-3, 60)
_SPEED_TEXTS = st.one_of(
    st.builds("1e{}".format, st.integers(-400, 400)),
    st.builds("{}/{}".format, st.one_of(_BIG, _SMALL), st.one_of(_BIG, _SMALL)),
    _BIG.map(str),
    _SMALL.map(str),
)
_BAD_TEXTS = st.sampled_from(["", " ", "1/0", "-1/2", "0.0", "nan", "inf", "1e", "x"])
# Lists of only well-formed texts keep the exit-0 paths common.
_SIDES = st.one_of(
    st.lists(_SPEED_TEXTS, max_size=6),
    st.lists(st.one_of(_SPEED_TEXTS, _BAD_TEXTS), max_size=6),
).map(",".join)
_COMMANDS = st.sampled_from(
    [
        ["solve", "--method", method]
        for method in ("auto", "recursive", "series", "distinct", "closed-form")
    ]
    + [["relate"]]
)


class TestRobustness:
    @settings(max_examples=80, deadline=None)
    @given(_COMMANDS, _SIDES, _SIDES)
    def test_adversarial_speeds_never_crash(self, command, a, b):
        """Valid input gives 0, anything else a usage error; never a traceback."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*command, f"--a={a}", f"--b={b}"])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=400, deadline=None)
    @given(_ARGVS)
    def test_any_argv_keeps_the_exit_code_contract(self, argv):
        """Through `main`, argparse's own exits included: 0, 1 or 2, never a
        traceback, and JSON on standard output wherever it succeeds in JSON."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code, fmt = exc.code, None
            else:
                fmt = build_parser().parse_args(argv).format
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0 and fmt == "json":
            strict_json(out.getvalue())
