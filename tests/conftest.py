"""Shared hypothesis strategies for duel instances, flat and grouped.

Also the whole-number argument sites that test_model.py tests with Python's
types and test_montecarlo.py with numpy's, and the route and sweep patches
that several modules use.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

from skirmish import (
    GroupedInstance,
    Instance,
    MethodReport,
    SimConfig,
    estimate_volume,
    matching_curve_grid,
    p_two_speeds,
    residues,
)

# Small pool so repeated speeds actually happen; the open range keeps
# denominators tame enough for exact arithmetic to stay fast.
_POOL = tuple(
    Fraction(n, d) for n in (1, 2, 3, 5, 7, 30) for d in (1, 2, 3)
)

speeds = st.one_of(
    st.sampled_from(_POOL),
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(40), max_denominator=12),
)


def speed_lists(min_size=0, max_size=5):
    return st.lists(speeds, min_size=min_size, max_size=max_size)


@st.composite
def instances(draw, min_side=1, max_side=5):
    """Random valid instances, both sides non-empty by default."""
    a = draw(speed_lists(min_side, max_side))
    b = draw(speed_lists(min_side, max_side))
    if not a and not b:
        a = [draw(speeds)]
    return Instance(tuple(a), tuple(b))


@st.composite
def grouped_instances(draw):
    """Random grouped instances whose a-poles reach order 12.

    `instances` draws at most a handful of speeds a side, so its poles stay
    low; here each of up to three distinct speeds a side gets its own
    multiplicity.  Side A is never empty, so there is always an a-pole.
    """
    multiplicity = st.integers(1, 12)

    def side(min_groups):
        distinct = draw(st.lists(speeds, min_size=min_groups, max_size=3, unique=True))
        return tuple((s, draw(multiplicity)) for s in sorted(distinct))

    return GroupedInstance(side(1), side(0))


# Every argument that must be a whole number: value -> what the library keeps of it.
_FIGHT = Instance((30, 20), (15, 36))
WHOLE_NUMBER_SITES = {
    "multiplicity": lambda k: GroupedInstance(((1, k),), ((2, 1),)).a_groups[0][1],
    "side-size": lambda k: p_two_speeds(k, 2, 1),
    "trials": lambda k: SimConfig(k).trials,
    "simulate-seed": lambda k: SimConfig(10, seed=k).seed,
    "samples": lambda k: estimate_volume(_FIGHT, k).samples,
    "volume-seed": lambda k: estimate_volume(_FIGHT, 10, k).seed,
    "points": lambda k: matching_curve_grid(1, k),
}


def huge_rational_speeds(count, digits, seed):
    """`count` seeded rationals of `digits`-digit numerators and denominators."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits
    speeds = [Fraction(rng.randrange(low, high), rng.randrange(low, high)) for _ in range(count)]
    assert len({s.denominator for s in speeds}) == count
    return tuple(speeds)


def seeded_duel(n):
    """n distinct speeds a side from 1..5000, side A from seed n, side B from seed n + 1."""
    return Instance(
        tuple(random.Random(n).sample(range(1, 5001), n)),
        tuple(random.Random(n + 1).sample(range(1, 5001), n)),
    )


# A seeded duel whose reference, started at the width of the answer's
# denominator as a verified `solve` starts it, reaches two bands' work, so
# that it forks wherever two cores are usable, and the lower band must widen
# that start before the upper one can use its row (both guarded by
# `test_fork_fixtures_fork`).  The unguessed reference starts at 1, one
# band's work at any size the tests use, and never forks.
SOLVE_FORKING_SIZE = 84


def break_route(monkeypatch, route="distinct", value=Fraction(1, 3)):
    """Make the distinct or series route return `value` whatever the instance."""

    def broken(inst):
        return MethodReport(value, route, (-value,))

    monkeypatch.setattr(residues, f"p_a_wins_{route}", broken)


def record_sweeps(monkeypatch):
    """The list of guesses, in order, of every reference sweep that `verify` runs from now on."""
    sweep, guesses = residues.p_a_wins_recursive, []

    def recorded(inst, guess=None):
        guesses.append(guess)
        return sweep(inst, guess)

    monkeypatch.setattr(residues, "p_a_wins_recursive", recorded)
    return guesses


# Wrong answers whose denominators `verify` hands the reference as its
# guess: the complement, a wrong numerator over the right denominator; 1,
# whose denominator is 1; and the value over one prime more.
WRONG_ANSWERS = ("wrong-numerator", "denominator-1", "extra-prime")


def wrong_answer(kind, value):
    """The `kind` of WRONG_ANSWERS for the true value (not 0, 1/2 or 1)."""
    if kind == "wrong-numerator":
        return 1 - value
    if kind == "denominator-1":
        return Fraction(1)
    prime = next(p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if value.numerator % p)
    return Fraction(value.numerator, value.denominator * prime)
