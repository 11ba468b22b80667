"""Matching and beating relations between particle groups.

A group beats another when its exact win probability exceeds one half, and
the two are matched when the probability is exactly one half.  Verdicts
always come from the exact recurrence solver; no float tolerance is ever
involved, which is what lets a near-match (a decimal truncated just off a
matching curve) be distinguished from a true match.

Beating is not transitive: `verify_cycle` checks a witness triple where
each group beats the next around a ring.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .model import Instance, InvalidInstance, _Record, decimal_str, parse_speed, whole_number
from .recurrence import p_a_wins_recursive

HALF = Fraction(1, 2)


class RelationVerdict(_Record):
    """Exact win probability of the first group plus its reading.

    `RelationVerdict(p: Fraction, verdict: str)`; the verdict is "beats",
    "matched" or "loses".
    """

    __slots__ = ("p", "verdict")

    def to_json(self) -> dict:
        return {"p": str(self.p), "decimal": decimal_str(self.p), "verdict": self.verdict}


def relate(group1: Iterable, group2: Iterable) -> RelationVerdict:
    """How the first group fares against the second, exactly."""
    first = tuple(group1)
    second = tuple(group2)
    if not first or not second:
        raise InvalidInstance("a relation needs two non-empty groups")
    p = p_a_wins_recursive(Instance(first, second))
    if p > HALF:
        verdict = "beats"
    elif p == HALF:
        verdict = "matched"
    else:
        verdict = "loses"
    return RelationVerdict(p, verdict)


def matching_curve(speed, xs: Iterable) -> list[tuple[Fraction, Fraction]]:
    """Points (x, y) whose pair exactly matches one particle of `speed`.

    The lone speed s scales out, leaving (1 + x/s)(1 + y/s) = 2, so
    y = s*(s - x)/(s + x).  Positive partners exist only for 0 < x < s:
    at x = s the pair's first particle alone already matches, and past it
    the required y would be negative.
    """
    s = parse_speed(speed)
    points = []
    for x in xs:
        x = parse_speed(x)
        if x >= s:
            raise InvalidInstance(
                f"x={x} admits no positive matching partner (needs 0 < x < {s})"
            )
        points.append((x, s * (s - x) / (s + x)))
    return points


def matching_curve_grid(speed, points: int) -> list[tuple[Fraction, Fraction]]:
    """The matching curve on the even grid x = k*s/(points + 1), k = 1..points."""
    points = whole_number(points, "points")
    s = parse_speed(speed)
    return matching_curve(s, (Fraction(k, points + 1) * s for k in range(1, points + 1)))


class CycleWitness(_Record):
    """Three groups with the exact probabilities around the ring.

    p_pq is the first group's probability against the second, p_qr the
    second's against the third, p_rp the third's against the first.
    `CycleWitness(groups: tuple of three tuple[Fraction, ...], p_pq: Fraction,
    p_qr: Fraction, p_rp: Fraction)`.
    """

    __slots__ = ("groups", "p_pq", "p_qr", "p_rp")

    @property
    def is_cycle(self) -> bool:
        """True when every group strictly beats the next around the ring."""
        return self.p_pq > HALF and self.p_qr > HALF and self.p_rp > HALF

    def to_json(self) -> dict:
        return {
            "groups": [[str(s) for s in g] for g in self.groups],
            "pPQ": str(self.p_pq),
            "pQR": str(self.p_qr),
            "pRP": str(self.p_rp),
            "isCycle": self.is_cycle,
        }


def verify_cycle(p_group: Sequence, q_group: Sequence, r_group: Sequence) -> CycleWitness:
    """Evaluate the three pairwise duels of a would-be intransitivity witness."""
    groups = tuple(tuple(parse_speed(s) for s in g) for g in (p_group, q_group, r_group))
    p, q, r = groups
    return CycleWitness(
        groups,
        p_pq=relate(p, q).p,
        p_qr=relate(q, r).p,
        p_rp=relate(r, p).p,
    )
