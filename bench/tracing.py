"""Per-layer tracing of the skirmish package, from outside the program.

`Tracer.install` replaces each traced function at every name a skirmish
module resolves it by (so `skirmish.cli.p_a_wins_recursive` and
`skirmish.relations.p_a_wins_recursive` are both wrapped) and each traced
method on its class.  Every call then records a span: name, start, end,
parent span and command id, kept in memory until `write`.  The span name's
first part is the layer, i.e. the module.  A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from skirmish.model import GroupedInstance, Instance
from skirmish.series import TruncatedSeries


def _bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _count_result_bits(counts, parent, args, result):
    # Only results handed to the CLI; a route's inner calls are not results.
    if parent is not None and parent.startswith("cli."):
        counts["residues.result_bits"] += _bits(result.value)


def _count_cells(counts, parent, args, result):
    inst = args[0]
    counts["recurrence.cells"] += (len(inst.a) + 1) * (len(inst.b) + 1) - 1


# (module, function, span name, note).  A note adds the call's work counts.
FUNCTIONS = [
    ("cli", "main", "cli.main", None),
    ("cli", "_run_solve", "cli.solve", None),
    ("model", "parse_speed", "model.parse_speed", None),
    ("model", "parse_instance", "model.parse_instance", None),
    ("model", "group", "model.group", None),
    ("model", "decimal_str", "model.decimal_str", None),
    ("recurrence", "p_a_wins_recursive", "recurrence.p_a_wins_recursive", _count_cells),
    ("recurrence", "fill_table", "recurrence.fill_table", None),
    ("residues", "p_a_wins_distinct", "residues.distinct", _count_result_bits),
    ("residues", "p_a_wins_series", "residues.series", _count_result_bits),
    ("residues", "closed_form_report", "residues.closed_form", _count_result_bits),
    ("residues", "p_a_wins_epsilon", "residues.epsilon", _count_result_bits),
    ("residues", "default_epsilon", "residues.default_epsilon", None),
    ("streams", "raw_slots", "streams.raw_slots",
     lambda counts, parent, args, result: counts.update({"streams.draws": result.size})),
    ("streams", "unit_floats", "streams.unit_floats", None),
    ("montecarlo", "simulate", "montecarlo.simulate",
     lambda counts, parent, args, result: counts.update({"montecarlo.trials": result.trials})),
    ("montecarlo", "_run_frontmost", "montecarlo.frontmost", None),
    ("montecarlo", "_run_random_adjacent", "montecarlo.random_adjacent", None),
    ("montecarlo", "win_threshold", "montecarlo.threshold", None),
    ("volume", "estimate_volume", "volume.estimate_volume",
     lambda counts, parent, args, result: counts.update({"volume.samples": result.samples})),
    ("relations", "relate", "relations.relate", None),
    ("relations", "matching_curve", "relations.matching_curve", None),
    ("relations", "matching_curve_grid", "relations.matching_curve_grid", None),
    ("relations", "verify_cycle", "relations.verify_cycle", None),
]

# (class, attribute, span name).  TruncatedSeries.__rmul__ is __mul__.
METHODS = [
    (Instance, "__post_init__", "model.Instance"),
    (GroupedInstance, "__post_init__", "model.GroupedInstance"),
    (TruncatedSeries, "__mul__", "series.mul"),
    (TruncatedSeries, "__rmul__", "series.mul"),
    (TruncatedSeries, "__pow__", "series.pow"),
    (TruncatedSeries, "inverse", "series.inverse"),
    (TruncatedSeries, "affine", "series.affine"),
]


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent index or -1, command].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            module for name, module in sys.modules.items()
            if name == "skirmish" or name.startswith("skirmish.")
        ]
        for module_name, attribute, span, note in FUNCTIONS:
            original = getattr(sys.modules[f"skirmish.{module_name}"], attribute)
            traced = self._wrap(original, span, note)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, traced)
        for cls, attribute, span in METHODS:
            original = cls.__dict__[attribute]
            if isinstance(original, classmethod):
                traced = classmethod(self._wrap(original.__func__, span, None))
            else:
                traced = self._wrap(original, span, None)
            self._patch(cls, attribute, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, function, span_name: str, note):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([span_name, time.perf_counter_ns(), None, parent, self.command])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                note(counts, spans[parent][0] if parent >= 0 else None, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "command")
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]))

    def self_times(self) -> tuple[dict, Counter]:
        """Self seconds and call count per span name."""
        covered = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] += (end - start - covered[index]) / 1e9
            calls[name] += 1
        return seconds, calls

    def verify_share(self, verified_commands: set) -> float:
        """Reference-verifier time inside `solve`, over all `solve` time.

        A recursive call made directly by `solve` is the verifier when the
        command asked for another route (`verified_commands`).
        """
        solve = verify = 0
        for name, start, end, parent, command in self.spans:
            if name == "cli.solve":
                solve += end - start
            elif (
                name == "recurrence.p_a_wins_recursive"
                and parent >= 0
                and self.spans[parent][0] == "cli.solve"
                and command in verified_commands
            ):
                verify += end - start
        return verify / solve if solve else 0.0


def layer_metrics(tracer: Tracer, verified_commands: set) -> dict:
    """Per-layer metrics (without the CLI import times, errors and overhead)."""
    seconds, calls = tracer.self_times()

    def layer(prefix: str) -> float:
        return sum((s for name, s in seconds.items() if name.startswith(prefix + ".")), 0.0)

    def count(prefix: str) -> int:
        return sum(c for name, c in calls.items() if name.startswith(prefix + "."))

    return {
        "cli.self_s": (layer("cli"), "s"),
        "model.self_s": (layer("model"), "s"),
        "model.calls": (count("model"), "count"),
        "recurrence.self_s": (layer("recurrence"), "s"),
        "recurrence.calls": (calls["recurrence.p_a_wins_recursive"], "count"),
        "recurrence.cells": (tracer.counts["recurrence.cells"], "count"),
        "recurrence.verify_share": (tracer.verify_share(verified_commands), "ratio"),
        "residues.distinct_s": (seconds["residues.distinct"], "s"),
        "residues.series_s": (seconds["residues.series"], "s"),
        "residues.closed_form_s": (seconds["residues.closed_form"], "s"),
        "residues.epsilon_s": (seconds["residues.epsilon"], "s"),
        "residues.result_bits": (tracer.counts["residues.result_bits"], "bits"),
        "series.self_s": (layer("series"), "s"),
        "series.mul_calls": (calls["series.mul"], "count"),
        "series.inverse_calls": (calls["series.inverse"], "count"),
        "series.pow_calls": (calls["series.pow"], "count"),
        "streams.raw_slots_s": (seconds["streams.raw_slots"], "s"),
        "streams.draws": (tracer.counts["streams.draws"], "count"),
        "streams.unit_floats_s": (seconds["streams.unit_floats"], "s"),
        "montecarlo.frontmost_s": (seconds["montecarlo.frontmost"], "s"),
        "montecarlo.random_adjacent_s": (seconds["montecarlo.random_adjacent"], "s"),
        "montecarlo.threshold_s": (seconds["montecarlo.threshold"], "s"),
        "montecarlo.trials": (tracer.counts["montecarlo.trials"], "count"),
        "volume.self_s": (layer("volume"), "s"),
        "volume.samples": (tracer.counts["volume.samples"], "count"),
        "relations.self_s": (layer("relations"), "s"),
        "relations.calls": (count("relations"), "count"),
    }


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(skirmish, numpy) cumulative import seconds from `-X importtime`.

    skirmish is every top-level skirmish entry; numpy is its first entry at
    any depth, 0 when nothing imported it.
    """
    skirmish = numpy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        top_level = name.startswith(" ") and not name.startswith("  ")
        module = name.strip()
        if top_level and (module == "skirmish" or module.startswith("skirmish.")):
            skirmish += int(cumulative)
        if module == "numpy" and not numpy:
            numpy = int(cumulative)
    return skirmish / 1e6, numpy / 1e6
