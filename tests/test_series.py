"""Truncated-series test oracle: ring behavior, and the series route checked against it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import p_a_wins_recursive, p_a_wins_series
from skirmish.series import TruncatedSeries

from conftest import grouped_instances
from oracles import expand

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=8
)


def series_of_degree(degree):
    return st.lists(rationals, min_size=degree + 1, max_size=degree + 1).map(
        TruncatedSeries
    )


@st.composite
def series_pairs(draw, max_degree=5):
    degree = draw(st.integers(0, max_degree))
    return draw(series_of_degree(degree)), draw(series_of_degree(degree))


@st.composite
def series_triples(draw, max_degree=4):
    degree = draw(st.integers(0, max_degree))
    return tuple(draw(series_of_degree(degree)) for _ in range(3))


def S(*coefficients):
    return TruncatedSeries(coefficients)


def one(degree):
    return (Fraction(1),) + (Fraction(0),) * degree


class TestBasics:
    def test_construction_and_degree(self):
        assert S(1, 2, 3).coefficients == (Fraction(1), Fraction(2), Fraction(3))

    def test_needs_a_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_constructors(self):
        assert TruncatedSeries.affine(1, -2, 3).coefficients == (1, -2, 0, 0)
        # Degree 0 simply truncates the linear term away.
        assert TruncatedSeries.affine(5, 7, 0).coefficients == (5,)


class TestArithmetic:
    def test_mul_truncates(self):
        assert (S(1, 1, 0) * S(1, -1, 0)).coefficients == (1, 0, -1)
        assert (S(1, 1) * S(1, 1)).coefficients == (1, 2)  # degree 1 drops the u^2 term

    def test_scalar_mul(self):
        assert (S(1, 2) * 3).coefficients == (3, 6)
        assert (Fraction(1, 2) * S(2, 4)).coefficients == (1, 2)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            S(1, 2) * S(1, 2, 3)
        with pytest.raises(ValueError):
            S(1, 2, 3) * S(1, 2)

    def test_pow(self):
        assert (S(1, 1, 0) ** 3).coefficients == (1, 3, 3)
        assert (S(1, -1, 0) ** 2).coefficients == (1, -2, 1)
        s = S(2, 5, 7)
        assert (s**1).coefficients == s.coefficients
        assert (s**0).coefficients == one(2)
        with pytest.raises(ValueError):
            s ** (-1)
        with pytest.raises(TypeError):
            s ** Fraction(2)

    def test_inverse(self):
        assert S(1, -1, 0, 0).inverse().coefficients == (1, 1, 1, 1)
        assert S(2).inverse().coefficients == (Fraction(1, 2),)
        assert S(1, 1, 0).inverse().coefficients == (1, -1, 1)
        with pytest.raises(ZeroDivisionError):
            S(0, 1).inverse()


class TestRingLaws:
    @given(series_triples())
    def test_associativity_and_distributivity(self, triple):
        r, s, t = triple
        assert ((r * s) * t).coefficients == (r * (s * t)).coefficients
        s_plus_t = TruncatedSeries(x + y for x, y in zip(s.coefficients, t.coefficients))
        expected = (x + y for x, y in zip((r * s).coefficients, (r * t).coefficients))
        assert (r * s_plus_t).coefficients == tuple(expected)

    @given(series_pairs())
    def test_commutativity(self, pair):
        s, t = pair
        assert (s * t).coefficients == (t * s).coefficients

    @given(series_pairs())
    def test_identities(self, pair):
        s, _ = pair
        assert (s * TruncatedSeries(one(len(s.coefficients) - 1))).coefficients == s.coefficients

    @given(series_of_degree(4))
    def test_inverse_is_two_sided(self, s):
        if s.coefficients[0] == 0:
            with pytest.raises(ZeroDivisionError):
                s.inverse()
            return
        assert (s * s.inverse()).coefficients == one(4)
        assert (s.inverse() * s).coefficients == one(4)

    @given(series_pairs(max_degree=4), st.integers(0, 4))
    def test_truncation_consistency(self, pair, lower):
        s, t = pair
        if lower >= len(s.coefficients):
            return
        low = lower + 1
        direct = TruncatedSeries(s.coefficients[:low]) * TruncatedSeries(t.coefficients[:low])
        assert (s * t).coefficients[:low] == direct.coefficients

    @given(series_of_degree(3), st.integers(0, 6))
    def test_pow_matches_repeated_multiplication(self, s, k):
        expected = TruncatedSeries(one(3))
        for _ in range(k):
            expected = expected * s
        assert (s**k).coefficients == expected.coefficients


def composed_residues(grouped):
    """Each a-pole's residue from the jet of the regular factors, built by
    multiplying truncated inverses and powers of affine series."""
    residues = []
    for i, (ai, xi) in enumerate(grouped.a_groups):
        degree = xi - 1
        affine = TruncatedSeries.affine
        regular = affine(1, ai, degree).inverse() * ai  # 1/w
        for k, (ak, xk) in enumerate(grouped.a_groups):
            if k != i:
                regular = regular * affine((ai - ak) / ai, -ak, degree).inverse() ** xk
        for bj, yj in grouped.b_groups:
            regular = regular * affine((ai + bj) / ai, bj, degree).inverse() ** yj
        residues.append((-1) ** xi * regular.coefficients[degree] / ai**xi)
    return tuple(residues)


class TestResidueOracle:
    @given(grouped_instances())
    @settings(max_examples=25, deadline=None)
    def test_series_route_matches_composed_jets(self, grouped):
        report = p_a_wins_series(grouped)
        assert report.residues == composed_residues(grouped)
        assert report.value == p_a_wins_recursive(expand(grouped))
