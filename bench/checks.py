"""Pins and output checks for the benchmark's commands.

Exact results are pinned to the in-process recursive reference
(`p_a_wins_recursive`) and compared as rationals.  Seeded stochastic counts
(`aWins`, `hits`) are pinned bit for bit, and must also land within four
null-hypothesis standard errors of the exact value.  Stochastic pins come
from `stochastic_pins.json` when it holds the command (written by
`write_pins.py` from the library, so a change to the draw streams shows as
a mismatch), and are otherwise computed in process the same way.

Known failure: an exact command whose result (or one of its residues) has
more than 4300 decimal digits exits 2, because `str(Fraction)` in
`MethodReport.to_json` raises CPython's int->str digit-limit ValueError and
`cli.main` maps ValueError to the usage-error code.  Such a command counts
as failed but not as wrong; any other failure or mismatch is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from skirmish.model import Instance
from skirmish.montecarlo import SimConfig, simulate
from skirmish.recurrence import p_a_wins_recursive
from skirmish.volume import estimate_volume

PIN_FILE = Path(__file__).resolve().with_name("stochastic_pins.json")
OK = "ok"
DIGIT_LIMIT = "digit-limit"
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"
# The perturbation route is approximate by design; its error at the default
# epsilon is about 1e-6 on these instances.
EPSILON_TOLERANCE = Fraction(1, 10**4)
SIGMAS = 4.0
HALF = Fraction(1, 2)


def reference(a, b) -> Fraction:
    return p_a_wins_recursive(Instance(tuple(a), tuple(b)))


def fingerprint(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:24]


def load_pins() -> dict:
    return json.loads(PIN_FILE.read_text()) if PIN_FILE.is_file() else {}


def stochastic_pins(spec: dict) -> dict:
    """The seeded counts the library gives for a stochastic command."""
    inst = Instance(tuple(spec["a"]), tuple(spec["b"]))
    pins = {}
    if "trials" in spec:
        cfg = SimConfig(spec["trials"], spec["seed"], spec.get("policy", "frontmost"))
        pins["a_wins"] = simulate(inst, cfg).a_wins
    if "samples" in spec:
        pins["hits"] = estimate_volume(inst, spec["samples"], spec["seed"]).hits
    return pins


def expect(spec: dict, table: dict) -> dict:
    """Everything a command's output is checked against."""
    kind = spec["kind"]
    if kind == "curve":
        xs = [Fraction(k, spec["points"] + 1) for k in range(1, spec["points"] + 1)]
        return {"points": [(x, (1 - x) / (1 + x)) for x in xs]}
    if kind == "cycle":
        groups = spec["groups"]
        return {"p": [reference(groups[i], groups[(i + 1) % 3]) for i in range(3)]}
    expected = {"value": reference(spec["a"], spec["b"])}
    if kind in ("simulate", "volume", "crosscheck"):
        expected.update(table.get(fingerprint(spec)) or stochastic_pins(spec))
    return expected


def check(spec: dict, expected: dict, code: int, stdout: str, stderr: str) -> str:
    """OK, DIGIT_LIMIT for the known large-result failure, or what is wrong."""
    if code == 2 and DIGIT_LIMIT_MESSAGE in stderr and spec["kind"] == "solve":
        return DIGIT_LIMIT
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        return _CHECKERS[spec["kind"]](spec, expected, payload) or OK
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def _fraction(text: str) -> Fraction:
    """Parse a rational of any size; the digit limit is lifted only here."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(old)


def _check_solve(spec, expected, payload):
    value, exact = _fraction(payload["value"]), expected["value"]
    if spec["method"] == "epsilon":
        if abs(value - exact) > EPSILON_TOLERANCE:
            return f"epsilon value is {float(abs(value - exact)):.3g} from the reference"
    elif value != exact:
        return "value differs from the recursive reference"
    return None


def _check_relate(spec, expected, payload):
    p = expected["value"]
    verdict = "beats" if p > HALF else "matched" if p == HALF else "loses"
    if _fraction(payload["p"]) != p or payload["verdict"] != verdict:
        return "relation differs from the recursive reference"
    return None


def _check_cycle(spec, expected, payload):
    got = [_fraction(payload[key]) for key in ("pPQ", "pQR", "pRP")]
    if got != expected["p"] or payload["isCycle"] != all(p > HALF for p in got):
        return "cycle probabilities differ from the recursive reference"
    return None


def _check_curve(spec, expected, payload):
    got = [(_fraction(point["x"]), _fraction(point["y"])) for point in payload["points"]]
    return None if got == expected["points"] else "curve points differ from y = (1-x)/(1+x)"


def _check_simulate(spec, expected, payload):
    if payload["aWins"] != expected["a_wins"] or payload["trials"] != spec["trials"]:
        return f"aWins {payload['aWins']} differs from the pinned {expected['a_wins']}"
    return _within_sigmas(payload["aWins"], spec["trials"], expected["value"])


def _check_volume(spec, expected, payload):
    if payload["hits"] != expected["hits"] or payload["samples"] != spec["samples"]:
        return f"hits {payload['hits']} differs from the pinned {expected['hits']}"
    return _within_sigmas(payload["hits"], spec["samples"], expected["value"])


def _check_crosscheck(spec, expected, payload):
    if _fraction(payload["value"]) != expected["value"] or payload["agree"] is not True:
        return "crosscheck disagrees with the recursive reference"
    rows = {row["method"]: row for row in payload["methods"]}
    if rows["montecarlo"]["estimate"] != expected["a_wins"] / spec["trials"]:
        return "crosscheck Monte Carlo estimate differs from the pin"
    if rows["hypervolume"]["estimate"] != expected["hits"] / spec["samples"]:
        return "crosscheck volume estimate differs from the pin"
    return None


def _within_sigmas(hits: int, total: int, exact: Fraction):
    p = float(exact)
    error = abs(hits / total - p)
    if error > SIGMAS * math.sqrt(p * (1 - p) / total):
        return f"estimate {hits / total} is more than {SIGMAS} sigma from exact {p}"
    return None


_CHECKERS = {
    "solve": _check_solve,
    "relate": _check_relate,
    "cycle": _check_cycle,
    "curve": _check_curve,
    "simulate": _check_simulate,
    "volume": _check_volume,
    "crosscheck": _check_crosscheck,
}
