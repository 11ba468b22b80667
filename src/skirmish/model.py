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
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from numbers import Rational
from typing import Iterable


class InvalidInstance(ValueError):
    """A speed list violates the model (bad value, both sides empty, ...)."""


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


@dataclass(frozen=True)
class Instance:
    """Ordered speed lists for the two sides.

    Order matters to the simulators (collisions happen front to back) but
    not to any exact solver.  One side may be empty, in which case the
    other side has already won; both sides empty is rejected because the
    duel has no outcome to define.
    """

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

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


@dataclass(frozen=True)
class GroupedInstance:
    """Distinct speeds with multiplicities, ascending, one entry per speed."""

    a_groups: tuple[tuple[Fraction, int], ...]
    b_groups: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_groups", _checked_groups(self.a_groups, "a"))
        object.__setattr__(self, "b_groups", _checked_groups(self.b_groups, "b"))
        if not self.a_groups and not self.b_groups:
            raise InvalidInstance("at least one side must field a particle")

    def expand(self) -> Instance:
        """Spell the multiplicities back out into a flat Instance."""
        return Instance(
            tuple(s for s, count in self.a_groups for _ in range(count)),
            tuple(s for s, count in self.b_groups for _ in range(count)),
        )

    def swapped(self) -> "GroupedInstance":
        return GroupedInstance(self.b_groups, self.a_groups)

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
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise InvalidInstance(
                f"multiplicity must be a positive integer, got {count!r}"
            )
        checked.append((parse_speed(speed), count))
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
