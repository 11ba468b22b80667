"""Benchmark of the skirmish CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout: the program under test is
`src/skirmish`, run as `python -m skirmish` with `src` on PYTHONPATH, so
nothing needs installing.  Workloads are defined in `workloads.py`.

--trace 0 measures the end-to-end metrics.  A single client runs the
workload's commands as child processes, one at a time, each only after the
previous one exited (a closed loop), for a fixed number of passes derived
from --seconds.  Every command's output is checked (`checks.py`).  Times
are scaled by a calibration run next to them (see `_timed_run`).

--trace 1 is the separate traced run.  It drives the same commands in
process through `skirmish.cli.main(argv)`: each command three times back
to back, as a warm-up, untraced, and traced (`tracing.py`).  It writes the
spans to `.out/` and prints the per-layer metrics.  The CLI's import times
come from `python -X importtime`.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  The lines before it give the run context and every metric with
its unit and sample count.  --smoke shrinks every workload, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
CHILD_TIMEOUT_S = 150
IMPORT_SKIRMISH = "import skirmish.cli"
# Wall seconds of calibrate.py that define one reference second; about its
# median on the reference machine.
CALIBRATION_S = 0.2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "skirmish" / "cli.py").is_file():
        print(f"error: no skirmish source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    run_dir = OUT / f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
    workload = workloads.build(args.workload, args.seed, run_dir / "inputs", args.smoke)
    table = checks.load_pins()
    expected = {c.name: checks.expect(c.spec, table) for c in workload.commands}
    passes = workload.passes(args.seconds)
    print(json.dumps({"context": _context(args, workload, passes)}))
    if args.trace:
        outcomes, metrics = _traced_run(workload, expected, run_dir, args.smoke)
    else:
        outcomes, metrics = _timed_run(workload, expected, passes, run_dir, args.smoke)

    failed = [(name, outcome) for name, outcome in outcomes if outcome != checks.OK]
    for name, outcome in sorted(set(failed)):
        print(f"failed: {name}: {outcome}", file=sys.stderr)
    known = sum(outcome == checks.DIGIT_LIMIT for _, outcome in failed)
    if known:
        print(
            f"note: {known} command runs exited 2 because their result exceeds CPython's "
            "4300-digit int->str limit (str(Fraction) in MethodReport.to_json); "
            "they count as failed"
        )
    listed = _listed_metrics(args.trace)
    reported = {}
    for name, (value, unit, detail) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))
        if name in listed:
            reported[name] = {"value": value, "unit": unit}
    result = {
        "correct": all(o in (checks.OK, checks.DIGIT_LIMIT) for _, o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser


def _listed_metrics(trace: int) -> set[str]:
    """The metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _context(args, workload, passes: int) -> dict:
    import numpy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name,
        "why": workloads.WHY[workload.name],
        "seed": args.seed,
        "mode": "traced in process" if args.trace else "timed, closed loop, one child at a time",
        "passes": 3 if args.trace else passes,
        "commands_per_pass": len(workload.commands),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _child_env() -> dict:
    # The children run the program as shipped: CPython's default int->str
    # digit limit, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], env: dict, run_dir: Path) -> tuple[float, int, int, str, str]:
    """Run one child to completion: (seconds, exit code, max RSS in KiB, stdout, stderr)."""
    out, err = run_dir / "child.out", run_dir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    return seconds, code, usage.ru_maxrss, out.read_text(), err.read_text()


def _timed_run(workload, expected, passes, run_dir, smoke):
    """End-to-end metrics, with every time in reference seconds.

    A measured time t becomes t * CALIBRATION_S / c, where c is the mean
    wall time of the `calibrate.py` runs just before and just after it (one
    calibration per second or so of work).  That cancels the host's drift in
    speed, which moves raw times by up to 1.65x between runs.  The raw
    figures are printed too.
    """
    import checks

    env = _child_env()
    clock = _Clock(env, run_dir)
    _spawn(["-c", IMPORT_SKIRMISH], env, run_dir)  # compiles bytecode; untimed
    for _ in range(3 if smoke else 7):
        clock.calibrate()
        clock.record("setup", _spawn(["-c", IMPORT_SKIRMISH], env, run_dir)[0])

    outcomes = []
    pass_rss = []
    stride = workload.calibration_stride()
    for _ in range(passes):
        peak = 0
        for index, command in enumerate(workload.commands):
            if index % stride == 0:
                clock.calibrate()
            seconds, code, rss, out, err = _spawn(
                ["-m", "skirmish", *command.argv], env, run_dir
            )
            clock.record(command.name, seconds)
            outcomes.append(
                (command.name, checks.check(command.spec, expected[command.name], code, out, err))
            )
            peak = max(peak, rss)
        pass_rss.append(peak / 1024)
    scaled, raw = clock.close()
    setup, setup_raw = scaled.pop("setup"), raw.pop("setup")
    by_command = {command.name: scaled[command.name] for command in workload.commands}

    def pass_time(samples: dict) -> float:
        # A typical pass: each command's median over the passes, summed, so
        # one disturbed pass moves it less than a median of pass totals.
        return sum(statistics.median(times) for times in samples.values())

    times = [seconds for samples in by_command.values() for seconds in samples]
    raw_times = [seconds for samples in raw.values() for seconds in samples]
    tail, percentile = _tail(times)
    per_pass = f"median of {passes} passes"
    metrics = {
        "wall_s": (
            pass_time(by_command), "s",
            f"per-command medians of {passes} passes, summed; raw {pass_time(raw):.4f} s",
        ),
        "cmd_p50_s": (
            statistics.median(times), "s",
            f"median of {len(times)} commands; raw {statistics.median(raw_times):.4f} s",
        ),
        "cmd_tail_s": (
            tail, "s",
            f"p{percentile:.1f} of {len(times)} commands; raw {_tail(raw_times)[0]:.4f} s",
        ),
        "peak_rss_mb": (statistics.median(pass_rss), "MB", f"largest child per pass, {per_pass}"),
        "failed_frac": (
            sum(o != checks.OK for _, o in outcomes) / len(outcomes), "ratio",
            f"of {len(outcomes)} commands",
        ),
        "setup_s": (
            statistics.median(setup), "s",
            f"median of {len(setup)} imports; raw {statistics.median(setup_raw):.4f} s",
        ),
    }
    for kind, work, metric in (("simulate", "trials", "trials_per_s"),
                               ("volume", "samples", "samples_per_s")):
        ran = [c for c in workload.commands if c.spec["kind"] == kind]
        if ran:
            done = sum(c.spec[work] for c in ran) * passes
            seconds = sum(sum(by_command[c.name]) for c in ran)
            raw_seconds = sum(sum(raw[c.name]) for c in ran)
            metrics[metric] = (
                done / seconds, "1/s", f"over all {kind} commands; raw {done / raw_seconds:.6g}/s"
            )
    return outcomes, metrics


class _Clock:
    """Child wall times, scaled by the calibration runs on either side of them."""

    def __init__(self, env: dict, run_dir: Path) -> None:
        self.env, self.run_dir = env, run_dir
        self.calibrations: list[float] = []
        self.samples: list[tuple[str, float, int]] = []

    def calibrate(self) -> None:
        self.calibrations.append(_spawn([str(BENCH / "calibrate.py")], self.env, self.run_dir)[0])

    def record(self, key: str, seconds: float) -> None:
        self.samples.append((key, seconds, len(self.calibrations) - 1))

    def close(self) -> tuple[dict, dict]:
        """({key: scaled seconds}, {key: raw seconds}), in recording order."""
        self.calibrate()
        scaled, raw = defaultdict(list), defaultdict(list)
        for key, seconds, before in self.samples:
            bracket = (self.calibrations[before] + self.calibrations[before + 1]) / 2
            scaled[key].append(seconds * CALIBRATION_S / bracket)
            raw[key].append(seconds)
        return scaled, raw


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten commands beyond it.

    With fewer than 11 commands no percentile qualifies; the maximum is
    reported then.
    """
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _traced_run(workload, expected, run_dir, smoke):
    import tracing

    env = _child_env()
    _spawn(["-c", IMPORT_SKIRMISH], env, run_dir)
    imports = [
        tracing.parse_importtime(
            _spawn(["-X", "importtime", "-c", IMPORT_SKIRMISH], env, run_dir)[4]
        )
        for _ in range(3 if smoke else 5)
    ]
    # Each command runs three times back to back: a warm-up, untraced, then
    # traced.  Both timed runs follow a run of the same command (which reuses
    # its memory and caches), and a drift in machine speed mostly cancels
    # out of the overhead.
    tracer = tracing.Tracer()
    warm, plain, traced = [], [], []
    for command in workload.commands:
        warm.append(_in_process(command, expected, None))
        plain.append(_in_process(command, expected, None))
        traced.append(_in_process(command, expected, tracer))
    tracer.write(run_dir / "spans.json")

    verified = {
        c.name for c in workload.commands
        if c.spec["kind"] == "solve" and c.spec["method"] != "recursive"
    }
    sampled = f"median of {len(imports)} runs of -X importtime"
    metrics = {
        "cli.import_skirmish_s": (statistics.median(i[0] for i in imports), "s", sampled),
        "cli.import_numpy_s": (statistics.median(i[1] for i in imports), "s", sampled),
        "cli.errors": (sum(code != 0 for _, code, _ in traced), "count", "traced pass"),
    }
    for name, (value, unit) in tracing.layer_metrics(tracer, verified).items():
        metrics[name] = (value, unit, "")
    traced_s, plain_s = sum(run[0] for run in traced), sum(run[0] for run in plain)
    metrics["trace.overhead_s"] = (
        traced_s - plain_s, "s",
        f"traced {traced_s:.4f} s minus untraced {plain_s:.4f} s in process",
    )
    outcomes = [
        (command.name, run[2])
        for runs in (warm, plain, traced)
        for command, run in zip(workload.commands, runs)
    ]
    return outcomes, metrics


def _in_process(command, expected, tracer):
    """Run one command through skirmish.cli.main: (seconds, exit code, outcome).

    The program gets CPython's default int->str digit limit, as it would in
    its own process.
    """
    import checks
    from skirmish import cli

    out, err = io.StringIO(), io.StringIO()
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    if tracer is not None:
        tracer.command = command.name
        tracer.install()
    try:
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(command.argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash: the process would print it and exit 1
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.set_int_max_str_digits(old_limit)
    outcome = checks.check(
        command.spec, expected[command.name], code, out.getvalue(), err.getvalue()
    )
    return seconds, code, outcome

if __name__ == "__main__":
    sys.exit(main())
