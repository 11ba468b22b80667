"""Shared hypothesis strategies for duel instances, flat and grouped."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from skirmish import GroupedInstance, Instance

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


def huge_rational_speeds(count, digits, seed):
    """`count` seeded rationals of `digits`-digit numerators and denominators."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits
    speeds = [Fraction(rng.randrange(low, high), rng.randrange(low, high)) for _ in range(count)]
    assert len({s.denominator for s in speeds}) == count
    return tuple(speeds)
