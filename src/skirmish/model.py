"""Exact model of a two-beam annihilation duel.

Side A fires particles rightward at speeds ``a``, side B fires leftward at
speeds ``b``.  Whenever opposing particles meet, exactly one survives: the
one with speed ``u`` beats the one with speed ``v`` with probability
``u/(u+v)``.  Side A wins the duel once every B particle is gone.

Every speed and probability the package hands around is a
`fractions.Fraction`, so the deterministic solvers can be compared for
exact equality; inside, the exact kernels work on `Instance.integer_speeds`.
Floats only appear in the stochastic estimators, and decimal strings in
input are converted exactly ("0.9" becomes 9/10, never a binary float).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable
from decimal import Decimal, localcontext
from fractions import Fraction
from numbers import Integral, Rational


class InvalidInstance(ValueError):
    """An input violates the model (bad speed or count, both sides empty, ...)."""


def whole_number(value, what: str, low: int = 1, high: int | None = None) -> int:
    """`value` as a Python int in [low, high], the one check for counts and seeds.

    Any integer type passes, numpy's included, and comes back a plain int,
    so records hold values that json can write.  A bool or float is refused:
    it would stand for some integer while the caller still showed the value
    given.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidInstance(f"{what} must be an integer, got {value!r}")
    number = int(value)
    if number < low:
        raise InvalidInstance(f"{what} must be at least {low}, got {number}")
    if high is not None and number > high:
        raise InvalidInstance(f"{what} must be at most {high}, got {number}")
    return number


def parse_speed(value) -> Fraction:
    """Convert one speed (int, Fraction, "p/q" or decimal string) exactly.

    Binary floats are rejected: Fraction(0.9) is not 9/10, and silent
    conversion would poison every exact-equality check downstream.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise InvalidInstance(
            f"speed {value!r} is not exact; pass an int, Fraction or string"
        )
    try:
        speed = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidInstance(f"malformed speed {value!r}") from exc
    if speed <= 0:
        raise InvalidInstance(f"speed must be positive, got {value!r}")
    return speed


class _Record:
    """Base of the package's immutable value records.

    The one record rule: a subclass names its fields in `__slots__`, in
    constructor order, and checks or converts them, if at all, in
    `__post_init__`; it defines `__init__` only to give defaults.  The
    constructor binds fields as a dataclass does (by position in slot
    order or by keyword, TypeError for a missing, unknown or repeated
    field) and then runs `__post_init__`.  Records compare and hash by
    their field values and print like dataclasses; assignment raises
    AttributeError; copy and pickle call the constructor again.  Frozen
    dataclasses would behave the same, but importing `dataclasses` (and with
    it `inspect`) would triple the package's import time, which every
    command pays.
    """

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        slots = self.__slots__
        if len(values) > len(slots):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(slots)} fields, got {len(values)}"
            )
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)
        for name in slots[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__qualname__} is missing field {name!r}")
            object.__setattr__(self, name, named.pop(name))
        for name in named:
            problem = "given twice" if name in slots else "unknown"
            raise TypeError(f"{type(self).__qualname__} field {name!r} is {problem}")
        # Looked up through self, so that the benchmark's tracer
        # (bench/tracing.py), which wraps this method on the class, sees it.
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Instance(_Record):
    """Ordered speed lists for the two sides.

    `Instance(a: Iterable, b: Iterable)` takes any speeds `parse_speed`
    reads and keeps tuples of Fractions.  Order matters to the simulators
    (collisions happen front to back) but not to any exact solver.  One
    side may be empty, in which case the other side has already won; both
    sides empty is rejected because the duel has no outcome to define.
    """

    __slots__ = ("a", "b")

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(parse_speed(x) for x in self.a))
        object.__setattr__(self, "b", tuple(parse_speed(x) for x in self.b))
        if not self.a and not self.b:
            raise InvalidInstance("at least one side must field a particle")

    def swapped(self) -> "Instance":
        """The same duel seen from side B."""
        return Instance(self.b, self.a)

    def integer_speeds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Both sides scaled by the lcm L of all denominators, as Python ints.

        Only speed ratios matter to the duel, so the exact solvers may work
        on these.  Each product s*L is formed exactly by construction.
        """
        scale = math.lcm(*(s.denominator for s in self.a + self.b))
        return tuple(
            tuple(s.numerator * (scale // s.denominator) for s in side)
            for side in (self.a, self.b)
        )


class GroupedInstance(_Record):
    """Distinct speeds with multiplicities, one entry per speed.

    `GroupedInstance(a_groups: Iterable, b_groups: Iterable)` takes
    (speed, multiplicity) pairs; `group` builds them ascending.
    """

    __slots__ = ("a_groups", "b_groups")

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_groups", _checked_groups(self.a_groups, "a"))
        object.__setattr__(self, "b_groups", _checked_groups(self.b_groups, "b"))
        if not self.a_groups and not self.b_groups:
            raise InvalidInstance("at least one side must field a particle")

    @property
    def total_particles(self) -> int:
        return sum(c for _, c in self.a_groups) + sum(c for _, c in self.b_groups)


def _checked_groups(groups, side: str) -> tuple[tuple[Fraction, int], ...]:
    checked = []
    for entry in groups:
        try:
            speed, count = entry
        except (TypeError, ValueError) as exc:
            raise InvalidInstance(
                f"{side}-side group entries must be (speed, multiplicity) pairs"
            ) from exc
        checked.append((parse_speed(speed), whole_number(count, "multiplicity")))
    if len({s for s, _ in checked}) != len(checked):
        raise InvalidInstance(f"{side}-side group speeds must be pairwise distinct")
    return tuple(checked)


def group(inst: Instance) -> GroupedInstance:
    """Collect repeated speeds into (speed, multiplicity) pairs, ascending."""
    return GroupedInstance(_grouped(inst.a), _grouped(inst.b))


def _grouped(speeds: Iterable[Fraction]) -> tuple[tuple[Fraction, int], ...]:
    counts = Counter(speeds)
    return tuple((s, counts[s]) for s in sorted(counts))


def parse_instance(text: str) -> Instance:
    """Read the JSON instance document {"a": [...], "b": [...]}.

    Float literals in the JSON are intercepted as raw text and turned into
    exact rationals, so "0.9" in a file means 9/10.
    """
    try:
        doc = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise InvalidInstance('instance document must be {"a": [...], "b": [...]}')
    for side in ("a", "b"):
        if not isinstance(doc[side], list):
            raise InvalidInstance(f'field "{side}" must be a list of speeds')
    return Instance(tuple(doc["a"]), tuple(doc["b"]))


def decimal_str(value: Rational, digits: int = 12) -> str:
    """Render an exact rational as a decimal with `digits` significant figures.

    Presentation only; decimal output is never fed back into computation.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))
