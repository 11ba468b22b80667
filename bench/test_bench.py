"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench -q

Every workload runs at its --smoke sizes, timed and traced, and the output
must carry every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return result


def final_line(result) -> dict:
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert_metrics(final_line(result), SPEC["end_to_end"])
    printed = {line.split(" = ")[0]: line.split()[3] for line in result.stdout.splitlines()
               if " = " in line}
    assert printed["failed_frac"] == "ratio"
    if workload == "stochastic":
        assert printed["trials_per_s"] == printed["samples_per_s"] == "1/s"
    context = json.loads(result.stdout.splitlines()[0])["context"]
    assert {"nproc", "cpu_model", "python", "numpy", "seed", "passes"} <= set(context)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_counts_repeat_exactly(workload):
    first, second = final_line(bench(workload, 1)), final_line(bench(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bits")]
    assert [first["metrics"][n] for n in counts] == [second["metrics"][n] for n in counts]
    assert first["metrics"]["cli.import_skirmish_s"]["value"] > 0


def test_traced_layers_see_the_work():
    metrics = final_line(bench("stochastic", 1))["metrics"]
    assert metrics["montecarlo.trials"]["value"] == 2_000 + 500 + 2_000
    assert metrics["volume.samples"]["value"] == 4_000 + 4_000
    assert metrics["streams.draws"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    first = workloads.build("interactive", 5, tmp_path / "a", smoke=True)
    second = workloads.build("interactive", 5, tmp_path / "b", smoke=True)
    assert [c.spec for c in first.commands] == [c.spec for c in second.commands]
    other = workloads.build("interactive", 6, tmp_path / "c", smoke=True)
    assert [c.spec for c in first.commands] != [c.spec for c in other.commands]


def test_refuses_to_run_without_the_source():
    bare = BENCH / ".out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    result = bench("interactive", 0, cwd=bare)
    assert result.returncode != 0
    assert "correct" not in result.stdout


class TestChecks:
    SPEC = {"kind": "solve", "method": "auto", "a": [30, 20], "b": [15, 36]}

    def test_value_must_equal_the_reference(self):
        expected = checks.expect(self.SPEC, {})
        assert expected["value"] == Fraction(270, 539)
        good = '{"value":"270/539"}'
        assert checks.check(self.SPEC, expected, 0, good, "") == checks.OK
        assert checks.check(self.SPEC, expected, 0, '{"value":"1/2"}', "") != checks.OK

    def test_digit_limit_exit_is_a_known_failure_other_exits_are_wrong(self):
        expected = checks.expect(self.SPEC, {})
        stderr = f"error: {checks.DIGIT_LIMIT_MESSAGE}; use sys.set_int_max_str_digits()"
        assert checks.check(self.SPEC, expected, 2, "", stderr) == checks.DIGIT_LIMIT
        assert checks.check(self.SPEC, expected, 1, "", stderr) not in (
            checks.OK, checks.DIGIT_LIMIT
        )

    def test_stochastic_count_is_pinned_bit_for_bit(self):
        spec = {"kind": "simulate", "a": [2, 1], "b": [1], "trials": 4000, "seed": 7,
                "policy": "frontmost"}
        expected = checks.expect(spec, {})
        wins = expected["a_wins"]
        ok = json.dumps({"aWins": wins, "trials": 4000})
        off = json.dumps({"aWins": wins + 1, "trials": 4000})
        assert checks.check(spec, expected, 0, ok, "") == checks.OK
        assert checks.check(spec, expected, 0, off, "") != checks.OK


def test_tail_has_ten_commands_beyond_it():
    times = [float(t) for t in range(1, 31)]
    tail, percentile = run._tail(times)
    assert sum(t > tail for t in times) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_importtime_parse_sums_top_level_skirmish():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1699 |     146123 |       numpy",
        "import time:      3889 |     147764 |   skirmish",
        "import time:      7763 |     157920 | skirmish.cli",
    ])
    assert tracing.parse_importtime(stderr) == (0.15792, 0.146123)
