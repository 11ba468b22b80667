"""Command-line behavior: outputs, determinism, exit codes."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import ROUTES, Instance, MethodReport, p_a_wins_recursive
from skirmish.cli import _stochastic_row, build_parser, main


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

    def test_distinct_on_repeated_a_is_usage_error(self, capsys):
        assert main(["solve", "--a", "1,1", "--b", "2", "--method", "distinct"]) == 2

    def test_bad_speed(self):
        result = run_cli("solve", "--a", "30,0", "--b", "15")
        assert result.returncode == 2
        assert "error:" in result.stderr

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
        import skirmish.residues as residues_mod

        def broken(inst):
            return MethodReport(Fraction(1, 3), "distinct", (Fraction(-1, 3),))

        monkeypatch.setattr(residues_mod, "p_a_wins_distinct", broken)
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

    def test_empty_epsilon_is_usage_error(self, capsys):
        assert main(["crosscheck", "--a", "1,1", "--b", "2", "--epsilon", ""]) == 2
        assert "error: perturbation must be an exact positive rational, got ''" in (
            capsys.readouterr().err
        )

    def test_exact_mismatch_exits_one(self, capsys, monkeypatch):
        import skirmish.residues as residues_mod

        def broken(inst):
            return MethodReport(Fraction(1, 3), "distinct", (Fraction(-1, 3),))

        monkeypatch.setattr(residues_mod, "p_a_wins_distinct", broken)
        argv = [
            "crosscheck", "--a", "1", "--b", "1",
            "--trials", "1000", "--samples", "1000",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "inconsistency: distinct gave 1/3, recursive reference gives 1/2\n"
        payload = json.loads(captured.out)
        assert payload["agree"] is False

    def test_single_trial_is_no_false_alarm(self, capsys):
        argv = ["crosscheck", "--a", "1", "--b", "1", "--trials", "1", "--samples", "1"]
        assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["agree"] is True
        assert [row["sigmas"] for row in payload["methods"][3:]] == [1.0, 1.0]

    def test_gate_uses_the_exact_probability(self):
        # 2000 trials of a fair duel: 1000 +/- 4*sqrt(500) hits pass, one more fails.
        failures = []
        row = _stochastic_row("montecarlo", 1089, 2000, Fraction(1, 2), failures)
        assert row["agree"] is True and not failures
        row = _stochastic_row("montecarlo", 1090, 2000, Fraction(1, 2), failures)
        assert row["agree"] is False and len(failures) == 1
        assert row["sigmas"] == pytest.approx(90 / 500**0.5)
        # No hits where p is within 1e-400 of one: a z-score past the float range.
        row = _stochastic_row("montecarlo", 0, 1000, 1 - Fraction(1, 10**400), [])
        assert row["agree"] is False
        assert math.isfinite(row["sigmas"]) and row["sigmas"] > 1e150

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


class TestEntryPoints:
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
        for command in commands:
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


# One speed a side (B repeated) is in every route's domain.
EXACT_COMMANDS = [
    ["solve", "--a", "2", "--b", "3,3", "--method", method] for method in ("auto", *ROUTES)
] + [
    ["relate", "--a", "1,2", "--b", "3"],
    ["curve", "--points", "3"],
    ["cycle", "1", "2", "3"],
]

# Slow imports no exact command needs: `dataclasses` pulls in `inspect`,
# `traceback` is needed only to print a crash, and numpy only to draw.
UNBUDGETED_MODULES = {"dataclasses", "inspect", "traceback", "numpy"}


class TestImportBudget:
    def test_import_loads_no_unbudgeted_module(self):
        loaded = modules_loaded_by([])
        assert "skirmish.cli" in loaded
        assert not loaded & UNBUDGETED_MODULES

    def test_exact_commands_load_no_unbudgeted_module(self):
        assert not modules_loaded_by(EXACT_COMMANDS) & UNBUDGETED_MODULES

    def test_simulate_loads_numpy(self):
        commands = [["simulate", "--a", "1", "--b", "2", "--trials", "10"]]
        assert "numpy" in modules_loaded_by(commands)


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
