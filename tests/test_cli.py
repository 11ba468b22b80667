"""Command-line behavior: outputs, determinism, exit codes."""

import ast
import collections
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
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import POLICIES, ROUTES, Instance, p_a_wins_recursive
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
# The full parser's subparsers, one per command.
_SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices


def toml_reader():
    """`tomllib` from the standard library (3.11+), else the `tomli` backport."""
    try:
        import tomllib
    except ModuleNotFoundError:
        return pytest.importorskip("tomli")
    return tomllib


class TestSolve:
    def test_auto_distinct_json_exact_bytes(self):
        result = spawn(["solve", "--a", "30,20", "--b", "15,36"])
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
        result = spawn(["solve", "--input", str(doc)])
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
        result = spawn(["solve", "--a", "30,0", "--b", "15"])
        assert result.returncode == 2
        assert "error:" in result.stderr

    @pytest.mark.parametrize("speed", ["\u0661", "\uff11", "1_000", "1e1_0"])
    def test_speed_string_is_ascii_without_underscores(self, speed, capsys):
        assert main(["solve", "--a", speed, "--b", "2"]) == 2
        assert "malformed speed" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self):
        result = spawn(["solve", "--a", "1", "--b", "1", "--method", "newton"])
        assert result.returncode == 2

    def test_method_choices_are_the_route_table(self):
        method = next(a for a in _SUBPARSERS["solve"]._actions if a.dest == "method")
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
        monkeypatch.setattr(residues, "p_a_wins_distinct", _crash)
        assert main(["solve", "--a", "1", "--b", "1"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: route crashed" in err

    def test_epsilon_division_by_zero_is_usage_error(self):
        result = spawn(
            ["solve", "--a", "1,1", "--b", "2", "--method", "epsilon", "--epsilon", "1/0"]
        )
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
    @pytest.mark.draws
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

    @pytest.mark.draws
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
    @pytest.mark.draws
    def test_json_shape(self, capsys):
        assert main(["volume", "--a", "1", "--b", "1,1", "--samples", "5000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"hits", "samples", "estimate", "stdError", "seed"}
        assert payload["samples"] == 5000

    def test_empty_side_is_usage_error(self, capsys):
        assert main(["volume", "--a", "1", "--b", ""]) == 2

    @pytest.mark.draws
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

    @pytest.mark.draws
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
        result = spawn(["cycle", "1", "2"])
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
# The commands that draw, and so need numpy.
DRAWING_COMMANDS = ("simulate", "volume", "crosscheck")


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        assert {argv[0] for argv, _ in README_EXAMPLES} == set(_SUBPARSERS)

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            pytest.param(
                argv,
                stdout,
                id=" ".join(argv),
                marks=pytest.mark.draws if argv[0] in DRAWING_COMMANDS else (),
            )
            for argv, stdout in README_EXAMPLES
        ],
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
    @pytest.mark.draws
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

    @pytest.mark.draws
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
        result = spawn(["crosscheck", "--a", "5", "--b", ""])
        assert result.returncode == 2

    @pytest.mark.draws
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
        result = spawn(["crosscheck", "--a", "1,1", "--b", "2", "--epsilon", "1/0"])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "error: perturbation" in result.stderr

    def test_empty_epsilon_is_usage_error(self, capsys, monkeypatch):
        # A perturbation that does not parse, and one that makes two speeds
        # coincide: neither costs a sweep of the reference.
        sweeps = record_sweeps(monkeypatch)
        for a, eps, message in (
            ("1,1", "", "perturbation must be an exact positive rational, got ''"),
            ("1,1,2", "1", "eps=1 makes two perturbed a-speeds coincide"),
        ):
            assert main(["crosscheck", "--a", a, "--b", "2", "--epsilon", eps]) == 2
            assert f"error: {message}" in capsys.readouterr().err
        assert sweeps == []

    @pytest.mark.draws
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
    @pytest.mark.draws
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
    @pytest.mark.draws
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

    @pytest.mark.draws
    def test_single_trial_is_no_false_alarm(self, capsys):
        argv = ["crosscheck", "--a", "1", "--b", "1", "--trials", "1", "--samples", "1"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True
        assert [row["sigmas"] for row in payload["methods"][3:]] == [1.0, 1.0]
        assert_crosscheck_bytes(capsys, argv, 0, SINGLE_TRIAL_BYTES)

    def test_gate_uses_the_exact_probability(self):
        # 2000 trials of a fair duel: 1101 hits pass (2000 * KL = 10.218) and
        # 1102 fail (10.422), either side of ln(2 / ALPHA) = 10.360.
        assert streams.gate(1101, 2000, Fraction(1, 2))[0] is True
        agree, sigmas = streams.gate(1102, 2000, Fraction(1, 2))
        assert agree is False
        assert sigmas == pytest.approx(102 / 500**0.5)
        # No hits where p is within 1e-400 of one: a z-score past the float range.
        agree, sigmas = streams.gate(0, 1000, 1 - Fraction(1, 10**400))
        assert agree is False
        assert math.isfinite(sigmas) and sigmas > 1e150

    @pytest.mark.parametrize(
        "p", [Fraction(1, 2), Fraction(60, 61), Fraction(1, 1000), 1 - Fraction(1, 10**6)], ids=str
    )
    def test_gate_false_alarm_rate_holds_at_every_count(self, p):
        """At each count, the exact chance that `gate` refuses hits drawn at p,
        the binomial pmf summed over every refused hit count, is at most ALPHA."""
        log_p = math.log(p.numerator) - math.log(p.denominator)
        log_q = math.log(p.denominator - p.numerator) - math.log(p.denominator)

        def pmf(hits, draws):
            return math.exp(
                math.lgamma(draws + 1) - math.lgamma(hits + 1) - math.lgamma(draws - hits + 1)
                + hits * log_p + (draws - hits) * log_q
            )

        rates = {
            draws: math.fsum(
                pmf(hits, draws) for hits in range(draws + 1)
                if not streams.gate(hits, draws, p)[0]
            )
            for draws in [*range(1, 201), 500, 1000, 2000, 5000]
        }
        worst = max(rates, key=rates.get)
        assert rates[worst] <= streams.ALPHA, (worst, rates[worst])

    @pytest.mark.parametrize("seed", [93, 98])
    @pytest.mark.draws
    def test_a_near_certain_win_is_no_false_alarm(self, capsys, seed):
        """At default counts, 1e6 v 1 loses 0.2 trials in expectation: two
        losses read as 4.0 sigma on these seeds, and still pass."""
        assert main(["crosscheck", "--a", "1000000", "--b", "1", "--seed", str(seed)]) == 0
        assert strict_json(capsys.readouterr().out)["agree"] is True

    @pytest.mark.draws
    def test_two_trials_are_no_false_alarm(self, capsys):
        """60 v 1 at two trials and two samples agrees on every seed of 0-199."""
        argv = ["crosscheck", "--a", "60", "--b", "1", "--trials", "2", "--samples", "2"]
        codes = collections.Counter(main([*argv, "--seed", str(seed)]) for seed in range(200))
        capsys.readouterr()
        assert codes == {0: 200}

    @pytest.mark.draws
    def test_speed_beyond_float_range(self, capsys):
        argv = ["crosscheck", "--a", "1e400", "--b", "1", "--trials", "1000", "--samples", "1000"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True

    @pytest.mark.draws
    def test_result_beyond_the_digit_limit(self, capsys):
        argv = ["crosscheck", "--a", HUGE_A, "--b", HUGE_B, "--trials", "100", "--samples", "100"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True
        assert parse_huge(payload["value"]) == huge_reference()

    @pytest.mark.draws
    def test_plain_table(self, capsys):
        argv = [
            "crosscheck", "--a", "2,1", "--b", "1",
            "--trials", "2000", "--samples", "2000", "--format", "plain",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "agreement: yes" in out
        assert "recursive" in out and "montecarlo" in out

    @pytest.mark.draws
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


# The CLI fuzz's grammar, one entry per row of `cli.COMMANDS`: each option of
# the row with its flag, valid texts, texts that the handler refuses, texts
# that argparse itself refuses, and whether the option is always given (the
# drawing commands' counts, whose defaults are too large for a test).
_NOT_INTEGERS = ["1_0", "\u0663", "\uff11", "x", ""]
_TRIALS = ("--trials", ["1", "2", "17", "200"], ["0", "-3"], _NOT_INTEGERS, True)
_SAMPLES = ("--samples", ["1", "2", "17", "500"], ["0", "-3"], _NOT_INTEGERS, True)
_SEED = ("--seed", ["0", "7", str(2**64 - 1)], ["-1", str(2**64)], _NOT_INTEGERS, False)
_EPSILON = ("--epsilon", ["1/1000", "1e-9", "0.5", "3"], ["0", "-1/2", "1/0", "", "x"], [], False)
_FORMAT = ("--format", ["json", "plain"], [], ["xml"], False)
_OPTIONS = {
    "solve": [("--method", ["auto", *ROUTES], [], ["bogus"], False), _EPSILON],
    "simulate": [_TRIALS, _SEED, ("--policy", list(POLICIES), [], ["bogus"], False)],
    "volume": [_SAMPLES, _SEED],
    "relate": [],
    "curve": [("--points", ["1", "3", "40"], ["0", "-1"], _NOT_INTEGERS, False)],
    "cycle": [],
    "crosscheck": [_TRIALS, _SAMPLES, _SEED, _EPSILON],
}
assert set(_OPTIONS) == set(cli.COMMANDS)


def _row_flags(command):
    """The flags that the grammar writes for `command`."""
    _, takes_duel, _, _ = cli.COMMANDS[command]
    flags = [option[0] for option in [*_OPTIONS[command], _FORMAT]]
    return flags + ["--a", "--b", "--input"] if takes_duel else flags


def _option(flag, valid, wrong, refused, always):
    """[(flag, text)], six times in eight with a valid text, else with a wrong
    or a refused one; [] half the time unless `always`."""
    pools = [valid] * 6 + [wrong or valid, refused or valid]
    given = st.sampled_from(pools).flatmap(st.sampled_from).map(lambda text: [(flag, text)])
    return given if always else st.one_of(st.just([]), given)


def _speed_lists(valid, wrong):
    """Lists of at most six speeds; half hold one to six valid ones, so that
    the reports are reached too."""
    return st.one_of(
        st.lists(valid, min_size=1, max_size=6),
        st.lists(st.one_of(valid, wrong), max_size=6),
    )


# Speed texts with signs, spaces and exponents within +-20, and wrong ones:
# non-positive, non-ASCII, with '_' separators or empty.
_VALID_SPEED = st.one_of(
    st.integers(1, 60).map(str),
    st.builds(
        "{}{}e{}".format, st.sampled_from(["", "+"]), st.integers(1, 99), st.integers(-20, 20)
    ),
    st.builds("{}/{}".format, st.integers(1, 60), st.integers(1, 60)),
    st.sampled_from([" 7", "3 ", "+2", "0.25"]),
)
_WRONG_SPEED = st.sampled_from(
    ["-1", "-2e3", "0", "0/5", "", "1_0", "\u0663", "\uff11", "1/0", "x"]
)
_SPEED_LIST = _speed_lists(_VALID_SPEED, _WRONG_SPEED).map(",".join)
# The exact rows' speeds add 300-digit numerators and denominators and
# exponents to +-400, which every exact route reads digit for digit, and
# denominators of zero or below, and texts that read as no exact number.
_DIGITS_300 = st.integers(10**299, 10**300 - 1)
_TERM = st.one_of(_DIGITS_300, st.integers(1, 60))
_EXACT_SPEED_LIST = _speed_lists(
    st.one_of(
        _VALID_SPEED,
        _DIGITS_300.map(str),
        st.builds("1e{}".format, st.integers(-400, 400)),
        st.builds("{}/{}".format, _TERM, _TERM),
    ),
    st.one_of(
        _WRONG_SPEED,
        st.builds("{}/0".format, st.integers(-3, 60)),
        st.builds("{}/{}".format, st.integers(-3, 60), st.integers(-3, -1)),
        *map(st.just, ["nan", "inf", "1e", "0.0", " "]),
    ),
).map(",".join)
# JSON values in place of a speed, of every type, and whole documents of the
# wrong shape, nested past the recursion limit, or holding a 5000-digit
# integer, as a number and as a string.  Half the lists are valid here too.
_VALID_JSON_SPEED = st.one_of(st.integers(1, 60), st.sampled_from([0.5, 1e300]), _VALID_SPEED)
_WRONG_JSON_SPEED = st.one_of(
    st.integers(-2, 0), _WRONG_SPEED, st.sampled_from([True, None, [], [1], {}])
)
_JSON_SPEEDS = _speed_lists(_VALID_JSON_SPEED, _WRONG_JSON_SPEED)
_DEEP = "[" * 100_000 + "]" * 100_000
_DOCUMENT = st.one_of(
    st.builds(lambda a, b: json.dumps({"a": a, "b": b}), _JSON_SPEEDS, _JSON_SPEEDS),
    st.sampled_from(
        [
            "",
            "{",
            "null",
            "[]",
            '"a"',
            '{"a": [1]}',
            '{"a": 1, "b": [2]}',
            '{"a": "1,2", "b": [3]}',
            _DEEP,
            f'{{"a": {_DEEP}, "b": [1]}}',
            '{"a": [1' + "0" * 4999 + '], "b": [3, 4]}',
            '{"a": ["' + "7" * 5000 + '"], "b": [3]}',
        ]
    ),
)
_INPUT = "<the --input file>"
# The forms aimed at argparse itself: a drawn flag written as two tokens
# (`--a -2e3`), misspelled, abbreviated or missing its value; a flag of
# another row, or a help flag; a stray positional; and a first token that
# is no command.
_FLAG_FORMS = ["split", "misspelled", "abbreviated", "missing"]
_NOT_COMMANDS = ["-h", "--", "bogus", "solv"]
_FORMS = [*_FLAG_FORMS, "foreign", "plain", "nope", *_NOT_COMMANDS]
_ALL_FLAGS = sorted({flag for command in cli.COMMANDS for flag in _row_flags(command)})


def _misparsed(draw, form, flag, text):
    """The tokens of `flag` with `text` in `form`, one of `_FLAG_FORMS`."""
    if form == "missing":
        return [flag]
    if form == "abbreviated":
        flag = flag[: draw(st.integers(min(3, len(flag)), len(flag)))]
    elif form == "misspelled":
        at = draw(st.integers(1, len(flag) - 1))
        flag = flag[:at] + draw(st.sampled_from("xz-")) + flag[at + 1 :]
    return [flag, text]


@st.composite
def _command_lines(draw, commands, forms=st.sampled_from([0] * 9 + [2, 3, 4])):
    """(argv, document) for one of `commands`, drawn from the row's own
    grammar, with as many distinct `_FORMS` as `forms` draws: by default, two
    to four in one example of four.

    The duel is inline speeds five times in eight, an --input document
    twice, and once none; `document` is None where there is no document.
    """
    command = draw(st.sampled_from(commands))
    _, takes_duel, _, _ = cli.COMMANDS[command]
    speeds = _SPEED_LIST if command in DRAWING_COMMANDS else _EXACT_SPEED_LIST
    pairs = [pair for option in [*_OPTIONS[command], _FORMAT] for pair in draw(_option(*option))]
    document = None
    duel = draw(st.sampled_from(["inline"] * 5 + ["document"] * 2 + [None])) if takes_duel else None
    if duel == "inline":
        pairs += [("--a", draw(speeds)), ("--b", draw(speeds))]
    elif duel == "document":
        pairs.append(("--input", _INPUT))
        document = draw(_DOCUMENT)
    parts = [[f"{flag}={text}"] for flag, text in pairs]
    head = command
    if command == "cycle":
        parts.append(["--", *draw(st.lists(speeds, min_size=3, max_size=3))])
    # Distinct forms: hypothesis draws its examples in clusters of near
    # copies, and one draw from `_FORMS` per form left some form out of
    # whole runs of 400 examples.
    usable = [form for form in draw(st.permutations(_FORMS)) if pairs or form not in _FLAG_FORMS]
    for form in usable[: draw(forms)]:
        if form in _NOT_COMMANDS:
            head = form
        elif form in _FLAG_FORMS:
            at = draw(st.integers(0, len(pairs) - 1))
            parts[at] = _misparsed(draw, form, *pairs[at])
        elif form == "foreign":
            foreign = [flag for flag in _ALL_FLAGS if flag not in _row_flags(command)]
            flag = draw(st.sampled_from(["-h", "--help", *foreign]))
            parts.insert(draw(st.integers(0, len(parts))), [flag, "1"])
        else:
            parts.insert(draw(st.integers(0, len(parts))), [form])
    return [head, *(token for part in parts for token in part)], document


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
    @given(_command_lines(list(cli.COMMANDS), forms=st.integers(1, 3)))
    def test_the_command_s_subparser_parses_as_all_seven(self, command_line):
        """`build_parser(argv[0])` parses, exits and prints as the full parser
        does, on command lines that each hold one to three forms aimed at it."""
        argv, _ = command_line
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
    def test_usage_bytes_are_pinned(self, monkeypatch, pin):
        monkeypatch.setenv("COLUMNS", str(USAGE_PINS["columns"]))
        result = spawn(pin["argv"])
        assert (result.returncode, result.stdout, result.stderr) == (
            pin["code"], pin["stdout"], pin["stderr"]
        )


# A seeded duel whose verified reference, started at the answer's
# denominator, is swept in forked row bands wherever two cores are usable
# (`test_forks.py::test_forked[bands-solve]`).
SOLVE_FORKING = [
    "solve",
    "--a", ",".join(map(str, seeded_duel(SOLVE_FORKING_SIZE).a)),
    "--b", ",".join(map(str, seeded_duel(SOLVE_FORKING_SIZE).b)),
]


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

ONE_V_ONE, ZERO_SPEED = ["solve", "--a", "1", "--b", "1"], ["solve", "--a", "0", "--b", "1"]
# A report small enough to wait in stdout's buffer, and one too large to.
SMALL, LARGE = ["solve", "--a", "1", "--b", "2"], ["curve", "--points", "20000"]

# The CLI's process contract, one row a way out of the process: the route
# patch, the argv, how stdout ends ("pipe", "closed": a pipe whose reader
# has gone, or "full": /dev/full), how stderr ends ("pipe" or "closed"),
# whether PYTHONUNBUFFERED is set, and the exit code.
# `test_the_process_contract` runs each row through every entry.
CONTRACT = {
    "1v1": (None, ONE_V_ONE, "pipe", "pipe", False, 0),
    "1v2": (None, SMALL, "pipe", "pipe", False, 0),
    "no-command": (None, [], "pipe", "pipe", False, 2),
    "zero-speed": (None, ZERO_SPEED, "pipe", "pipe", False, 2),
    "disagree": ("wrong", ONE_V_ONE, "pipe", "pipe", False, 1),
    "crash": ("raise", SMALL, "pipe", "pipe", False, 3),
    "solve-forking": (None, SOLVE_FORKING, "pipe", "pipe", False, 0),
    "curve": (None, LARGE, "pipe", "pipe", False, 0),
    # A closed stdout ends as a writer killed by SIGPIPE looks to a shell,
    # and a full disk says so once; a disagreement's code does not outrank either.
    "closed-stdout-small": (None, SMALL, "closed", "pipe", False, 141),
    "closed-stdout-large": (None, LARGE, "closed", "pipe", False, 141),
    "closed-stdout-disagree": ("wrong", ONE_V_ONE, "closed", "pipe", False, 141),
    "full-small": (None, SMALL, "full", "pipe", False, 4),
    "full-large": (None, LARGE, "full", "pipe", False, 4),
    "full-disagree": ("wrong", ONE_V_ONE, "full", "pipe", False, 4),
    # A diagnostic that stderr refuses is lost, and its code stands.
    "closed-stderr-zero-speed": (None, ZERO_SPEED, "pipe", "closed", False, 2),
    "closed-stderr-not-a-number": (None, ["solve", "--a", "x"], "pipe", "closed", False, 2),
    "closed-stderr-disagree": ("wrong", ONE_V_ONE, "pipe", "closed", False, 1),
    "closed-stderr-crash": ("raise", SMALL, "pipe", "closed", False, 3),
    # argparse prints and exits by itself, outside `main`'s handlers.
    "help-buffered": (None, ["-h"], "closed", "pipe", False, 0),
    "help-unbuffered": (None, ["-h"], "closed", "pipe", True, 0),
    "solve-help-buffered": (None, ["solve", "-h"], "closed", "pipe", False, 0),
    "solve-help-unbuffered": (None, ["solve", "-h"], "closed", "pipe", True, 0),
    "unknown-command-buffered": (None, ["nope"], "pipe", "closed", False, 2),
    "unknown-command-unbuffered": (None, ["nope"], "pipe", "closed", True, 2),
}
FULL_DISK = f"error: standard output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
SKIRMISH = [sys.executable, "-m", "skirmish"]


def spawn(argv, command=SKIRMISH, stdout="pipe", stderr="pipe", unbuffered=False):
    """Run `command` on `argv` with each stream ended as a CONTRACT row ends
    it, block-buffered unless `unbuffered`; a stream not piped reads None."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with ExitStack() as ends:
        out, err = (_stream_end(end, ends) for end in (stdout, stderr))
        return subprocess.run([*command, *argv], stdout=out, stderr=err, env=env, text=True)


def _stream_end(end, ends):
    if end == "full":
        return ends.enter_context(open("/dev/full", "wb"))
    if end == "pipe":
        return subprocess.PIPE
    read, write = os.pipe()
    os.close(read)
    ends.callback(os.close, write)
    return write


class TestEntryPoints:
    def test_source_parses_as_the_oldest_supported_python(self):
        """Every module is Python 3.10 syntax, as `requires-python` promises."""
        for path in sorted((PYPROJECT.parent / "src" / "skirmish").glob("*.py")):
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

    def test_the_syntax_guard_rejects_newer_grammar(self):
        """On a newer interpreter the guard above still refuses 3.11's `except*`."""
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))

    @pytest.mark.parametrize("row", CONTRACT.values(), ids=CONTRACT)
    def test_the_process_contract(self, monkeypatch, capsys, row):
        """Every entry ends the process with the row's code, and the stream
        left unbroken holds what that stream holds from `main` in process.

        In process, with the row's patch, `main` returns the code, or
        argparse leaves it by its SystemExit.  A refused stdout leaves stderr
        empty, and a full disk leaves only its error line.  Where a stream is
        broken, `main` also runs in an interpreter that then writes the code
        it returned and ends by `os._exit(0)`, so that no exit flush fails on
        what the stream refused.  `run`, called as the console script calls
        it, ends the process itself: a write of `run returned` follows it.
        Unpatched rows also run as `python -m skirmish` and as an installed
        `skirmish`.  Of a crash, only the `Traceback` that opens it is compared.
        """
        patch, argv, stdout, stderr, unbuffered, code = row
        if stdout == "full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to it
        if patch == "wrong":
            break_route(monkeypatch)
        elif patch == "raise":
            monkeypatch.setattr(residues, "p_a_wins_distinct", _crash)
        try:
            returned, exited = main(argv), False
        except SystemExit as exc:
            returned, exited = exc.code, True
        out, err = capsys.readouterr()
        if stdout == stderr == "pipe":
            assert returned == code
        if stdout != "pipe":
            out, err = None, "" if stdout == "closed" else FULL_DISK
        if stderr != "pipe":
            err = None
        if code == 3 and err is not None:  # its frames name the entry
            assert err.startswith("Traceback")
            err = "Traceback"
        # The stream that a child can still write to once the command has ended.
        fd = 1 if stdout == "pipe" else 2
        ended = [code, out, err]
        runs = [(run_entry(patch, fd), ended)]
        if not exited and None in (out, err):
            told = [0, out, err]
            told[fd] += f"{code}\n"
            runs.append((main_entry(patch, fd), told))
        if patch is None:
            runs.append((SKIRMISH, ended))
            installed = shutil.which("skirmish")
            if installed:
                runs.append(([installed], ended))
        for command, ends in runs:
            result = spawn(argv, command, stdout, stderr, unbuffered)
            seen = [result.returncode, result.stdout, result.stderr]
            if code == 3 and err is not None:
                seen[2] = seen[2][: len(err)]
            assert seen == ends, command

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

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
    def test_stdout_through_a_pipe_matches_one_core(self):
        """Forked row bands print nothing: the piped stdout equals the one-band run's."""
        # Block-buffered, as for most callers: what a child must not flush again.
        bands, one_core = (
            spawn(SOLVE_FORKING, prefix + SKIRMISH)
            for prefix in ([], ["taskset", "-c", str(min(os.sched_getaffinity(0)))])
        )
        assert bands.returncode == one_core.returncode == 0
        assert bands.stdout.count("\n") == 1
        assert bands.stdout == one_core.stdout


def _crash(inst):
    raise RuntimeError("route crashed")


def run_entry(patch, fd):
    """The `skirmish` console script's pyproject.toml target, called after the
    route patch as the installer's wrapper calls it, then a write of
    `run returned` to `fd`: a target that ends the process never makes it."""
    with PYPROJECT.open("rb") as f:
        target = toml_reader().load(f)["project"]["scripts"]["skirmish"]
    module, function = target.split(":")
    return [sys.executable, "-c", ROUTE_PATCHES[patch] + (
        f"import os\nfrom {module} import {function}\nsys.argv[0] = 'skirmish'\n"
        f"code = {function}()\nos.write({fd}, b'run returned\\n')\nsys.exit(code)\n"
    )]


def main_entry(patch, fd):
    """`main` after the route patch, then a write of the code it returned to
    `fd`; it ends by `os._exit(0)`, as an exit flush would fail on what a
    broken stream refused."""
    return [sys.executable, "-c", ROUTE_PATCHES[patch] + (
        f"import os\nfrom skirmish.cli import main\n"
        f"os.write({fd}, b'%d\\n' % main(sys.argv[1:]))\nos._exit(0)\n"
    )]


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
    @pytest.mark.draws
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


class TestRobustness:
    @pytest.mark.parametrize(
        "commands",
        [
            pytest.param(sorted(set(cli.COMMANDS) - set(DRAWING_COMMANDS)), id="exact"),
            pytest.param(list(DRAWING_COMMANDS), id="drawing", marks=pytest.mark.draws),
        ],
    )
    def test_each_command_s_grammar_reaches_its_handler(self, tmp_path, commands):
        """400 command lines drawn from the rows' own grammars keep the
        exit-code contract: 0, 1 or 2, argparse's own exits included, and
        never a traceback.  Only `crosscheck`, whose estimators may miss at
        few trials, exits 1, so an exact row, with speeds of 300 digits or
        exponents to +-400, exits 0 or 2.  A JSON report, on exit 0 or 1, is
        strict JSON.  An exit 2 from `main` prints no report, and its standard
        error starts with `error: `.  At least half get past argparse to a
        handler's report or error.  The drawing commands run at most 200
        trials and 500 samples."""
        ends = collections.Counter()
        path = tmp_path / "duel.json"

        @settings(max_examples=400, deadline=None)
        @given(_command_lines(commands))
        def end(command_line):
            argv, document = command_line
            if document is not None:
                path.write_text(document, encoding="utf-8")
            argv = [token.replace(_INPUT, str(path)) for token in argv]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code, by = main(argv), "main"
                except SystemExit as exc:
                    code, by = exc.code, "argparse"
            assert code in (0, 1, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert code != 1 or (by, argv[0]) == ("main", "crosscheck"), err.getvalue()
            if by == "main" and code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            elif by == "main" and build_parser().parse_args(argv).format == "json":
                strict_json(out.getvalue())
            ends[by, code] += 1

        end()
        reached = sum(count for (by, _), count in ends.items() if by == "main")
        assert 2 * reached >= sum(ends.values()), ends

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_the_grammar_writes_every_flag_of_its_row(self, command):
        """The row's grammar flags, with the help flags, are its subparser's
        options: a flag added to a row without a grammar entry fails here."""
        options = {flag for a in _SUBPARSERS[command]._actions for flag in a.option_strings}
        assert {*_row_flags(command), "-h", "--help"} == options
