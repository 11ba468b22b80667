"""Seeded workload generator for the skirmish benchmark.

A workload is a fixed list of `skirmish` commands.  Everything random in it
(speeds, stochastic seeds, grid sizes) comes from the benchmark seed, so one
seed always yields the same commands and the same `--input` documents.  The
program under test only ever sees those documents and command lines.

Each workload records why it was chosen next to its definition, in `WHY`.
`smoke=True` keeps every command kind but shrinks the sizes, for the
benchmark's own tests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# The CLI's `crosscheck` defaults; the pins replay them in process.
CROSSCHECK_TRIALS = 200_000
CROSSCHECK_SAMPLES = 1_000_000

# The instance from the test suite whose three groups beat each other in a ring.
CYCLE_WITNESS = (("0.9", "0.0526317"), ("1",), ("0.414213", "0.414212"))


@dataclass
class Command:
    """One CLI invocation plus what the checker needs to pin its output.

    `spec` holds the kind (solve, simulate, ...), the speeds as written to
    the input document, and the kind's parameters.
    """

    name: str
    argv: list[str]
    spec: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Wall seconds of one pass, with its calibration runs, on the reference
    # machine (2 cores, Python 3.11); `passes` turns a time budget into a
    # fixed pass count with it.
    pass_seconds: float

    def passes(self, seconds: float) -> int:
        """Passes to run: about `seconds` of work, and at least 11 commands.

        The count depends only on the budget, never on how fast this build
        runs, so two builds are measured on the same work and the tail
        percentile is taken over the same sample count.
        """
        by_budget = round(seconds / self.pass_seconds)
        by_tail = -(-11 // len(self.commands))
        return max(1, by_budget, by_tail)

    def calibration_stride(self) -> int:
        """Commands per calibration run: about one calibration per second of work."""
        return max(1, round(len(self.commands) / self.pass_seconds))


WHY = {
    "exact-distinct": (
        "solve (auto: distinct, then the recursive verifier) on distinct integer speeds "
        "in 1..5000 at m = n in {40, 80, 120}. recurrence does about 90% of the work and "
        "residues.distinct about 10%; series and the stochastic layers none. This is where "
        "a faster verifier or a smaller table shows. The 120v120 result has about 5300 "
        "digits, so its command hits the int->str digit limit and exits 2; it stays in "
        "and is counted as failed."
    ),
    "exact-repeated": (
        "the series route on a few speeds with many copies per side (2x40, 3x30, 2x60; "
        "speeds stratified over 1..49), plus closed-form at 200v200 with one speed per "
        "side (coprime, from 25..49) and epsilon on 2x20. series does about two thirds of "
        "the work and distinct almost none: the mirror image of exact-distinct."
    ),
    "stochastic": (
        "frontmost simulate at 40v40 with 1e6 trials, random-adjacent simulate at 8v8 "
        "with 5e4 trials, volume at 40v40 with 1e6 samples, and crosscheck at 8v8 with "
        "its default trials and samples. streams, montecarlo and volume do over 90% of "
        "the work; the exact layers barely run."
    ),
    "interactive": (
        "about 30 small commands: solve at 2v2..6v6 (auto, recursive, closed-form), "
        "relate, cycle (with the test suite's three-cycle witness) and curve. Each takes "
        "about 0.2-0.25 s, mostly interpreter start and import; none needs numpy, and "
        "the recurrence runs as many tiny calls instead of one large table."
    ),
}


def build(name: str, seed: int, input_dir: Path, smoke: bool = False) -> Workload:
    """Generate workload `name` for `seed`, writing its input documents."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(_BUILDERS)}")
    builder, pass_seconds = _BUILDERS[name]
    input_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    gen = _Generator(rng, input_dir)
    builder(gen, smoke)
    return Workload(name, gen.commands, pass_seconds)


class _Generator:
    def __init__(self, rng: random.Random, input_dir: Path) -> None:
        self.rng = rng
        self.input_dir = input_dir
        self.commands: list[Command] = []

    def distinct(self, m: int, n: int, top: int) -> tuple[list, list]:
        """m + n pairwise distinct integer speeds in 1..top."""
        speeds = self.rng.sample(range(1, top + 1), m + n)
        return speeds[:m], speeds[m:]

    def repeated(self, kinds: int, copies: int, top: int) -> tuple[list, list]:
        """`kinds` distinct speeds per side from 1..top, each `copies` times.

        The speeds are one draw from each of 2*kinds equal strata of 1..top,
        dealt to the sides at random.  The cost of these instances grows
        with the size of the speeds, and stratifying keeps it from varying
        2x from seed to seed, as free draws did.
        """
        edges = [1 + (top * k) // (2 * kinds) for k in range(2 * kinds + 1)]
        speeds = [self.rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]
        self.rng.shuffle(speeds)
        a = [s for s in speeds[:kinds] for _ in range(copies)]
        b = [s for s in speeds[kinds:] for _ in range(copies)]
        self.rng.shuffle(a)
        self.rng.shuffle(b)
        return a, b

    def seed(self) -> int:
        return self.rng.randrange(2**32)

    def add(self, kind: str, label: str, a=None, b=None, args=(), **params) -> None:
        """Append a command; an instance, when given, goes in an --input file."""
        name = f"{len(self.commands):02d}-{kind}-{label}"
        argv = [kind]
        spec = {"kind": kind, **params}
        if a is not None:
            path = self.input_dir / f"{name}.json"
            path.write_text(json.dumps({"a": a, "b": b}))
            argv += ["--input", str(path)]
            spec.update(a=a, b=b)
        argv += [str(arg) for arg in args]
        self.commands.append(Command(name, argv, spec))


def _exact_distinct(gen: _Generator, smoke: bool) -> None:
    sizes = (3, 3, 3, 5, 7) if smoke else (40, 40, 40, 80, 120)
    for size in sizes:
        a, b = gen.distinct(size, size, 5000)
        gen.add("solve", f"auto-{size}v{size}", a, b, method="auto")


def _exact_repeated(gen: _Generator, smoke: bool) -> None:
    for kinds, copies in ((2, 2), (3, 2), (2, 3)) if smoke else ((2, 40), (3, 30), (2, 60)):
        a, b = gen.repeated(kinds, copies, 49)
        gen.add("solve", f"series-{kinds}x{copies}", a, b, ["--method", "series"], method="series")
    # The closed form's numbers grow with the bits of x + y, for the speed
    # ratio x/y in lowest terms; coprime speeds from 25..49 keep that about
    # the same for every seed.
    x, y = 1, 1
    while x == y or math.gcd(x, y) != 1:
        x, y = gen.rng.randint(25, 49), gen.rng.randint(25, 49)
    copies = 5 if smoke else 200
    gen.add(
        "solve", f"closed-form-{copies}v{copies}", [x] * copies, [y] * copies,
        ["--method", "closed-form"], method="closed-form",
    )
    copies = 2 if smoke else 20
    a, b = gen.repeated(2, copies, 49)
    gen.add("solve", f"epsilon-2x{copies}", a, b, ["--method", "epsilon"], method="epsilon")


def _stochastic(gen: _Generator, smoke: bool) -> None:
    big, small = (4, 3) if smoke else (40, 8)
    trials, ra_trials, samples = (2_000, 500, 4_000) if smoke else (1_000_000, 50_000, 1_000_000)
    a, b = gen.distinct(big, big, 5000)
    seed = gen.seed()
    gen.add(
        "simulate", f"frontmost-{big}v{big}", a, b,
        ["--trials", trials, "--seed", seed], trials=trials, seed=seed, policy="frontmost",
    )
    gen.add(
        "volume", f"{big}v{big}", a, b, ["--samples", samples, "--seed", seed],
        samples=samples, seed=seed,
    )
    a, b = gen.distinct(small, small, 5000)
    seed = gen.seed()
    gen.add(
        "simulate", f"random-adjacent-{small}v{small}", a, b,
        ["--trials", ra_trials, "--seed", seed, "--policy", "random-adjacent"],
        trials=ra_trials, seed=seed, policy="random-adjacent",
    )
    # At full size crosscheck runs with its own defaults.
    sizes = ["--trials", trials, "--samples", samples] if smoke else []
    gen.add(
        "crosscheck", f"{small}v{small}", a, b, ["--seed", seed, *sizes],
        trials=trials if smoke else CROSSCHECK_TRIALS,
        samples=samples if smoke else CROSSCHECK_SAMPLES, seed=seed,
    )


def _interactive(gen: _Generator, smoke: bool) -> None:
    sizes = (2, 3) if smoke else (2, 3, 4, 5, 6)
    for size in sizes:
        a, b = gen.distinct(size, size, 50)
        gen.add("solve", f"auto-{size}v{size}", a, b, method="auto")
        a, b = gen.distinct(size, size, 50)
        gen.add("solve", f"recursive-{size}v{size}", a, b, ["--method", "recursive"],
                method="recursive")
        a, b = gen.repeated(1, size, 50)
        gen.add("solve", f"closed-form-{size}v{size}", a, b, ["--method", "closed-form"],
                method="closed-form")
        a, b = gen.distinct(size, gen.rng.randint(1, size), 50)
        gen.add("relate", f"{len(a)}v{len(b)}", a, b)
        points = gen.rng.randint(5, 100)
        gen.add("curve", f"{points}", args=["--points", points, "--format", "json"],
                points=points)
    gen.add("cycle", "witness", args=[",".join(g) for g in CYCLE_WITNESS],
            groups=[list(g) for g in CYCLE_WITNESS])
    for index in range(1 if smoke else 4):
        groups = [gen.distinct(gen.rng.randint(1, 3), 0, 50)[0] for _ in range(3)]
        gen.add("cycle", f"random{index}", args=[",".join(map(str, g)) for g in groups],
                groups=groups)


_BUILDERS = {
    "exact-distinct": (_exact_distinct, 8.4),
    "exact-repeated": (_exact_repeated, 7.0),
    "stochastic": (_stochastic, 7.2),
    "interactive": (_interactive, 6.5),
}
WORKLOADS = tuple(_BUILDERS)
