"""Truncated power-series arithmetic over exact rationals: a test oracle.

A series is a plain coefficient vector c[0..d]; every operation stays at
the fixed truncation degree d and is exact.  The series route no longer
uses it (`residues` computes the one Taylor coefficient a residue needs
from a power-sum recurrence); the tests build the same coefficient from
affine jets, inverses and powers here and compare.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction


class TruncatedSeries:
    """Power series in one variable, truncated at a fixed degree."""

    __slots__ = ("coefficients",)

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable) -> None:
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coefficients = coeffs

    @classmethod
    def affine(cls, c0, c1, degree: int) -> "TruncatedSeries":
        """c0 + c1*u, padded (or, at degree 0, truncated) to `degree`."""
        return cls(([c0, c1] + [0] * degree)[: degree + 1])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            size = len(self.coefficients)
            if len(other.coefficients) != size:
                raise ValueError(
                    f"truncation degrees differ: {size - 1} vs {len(other.coefficients) - 1}"
                )
            out = [Fraction(0)] * size
            for i, ci in enumerate(self.coefficients):
                if not ci:
                    continue
                for j in range(size - i):
                    out[i + j] += ci * other.coefficients[j]
            return TruncatedSeries(out)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(c * other for c in self.coefficients)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Exact power by binary exponentiation; exponent must be >= 0."""
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            raise ValueError("negative exponent; call inverse() first")
        result = TruncatedSeries([1] + [0] * (len(self.coefficients) - 1))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse at the same truncation degree.

        Solving (sum s_i u^i)(sum t_k u^k) = 1 triangularly:
        t_0 = 1/s_0 and t_k = -(sum_{i=1..k} s_i t_{k-i}) / s_0.
        """
        s = self.coefficients
        if s[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        t = [1 / s[0]]
        for k in range(1, len(s)):
            t.append(-sum(s[i] * t[k - i] for i in range(1, k + 1)) / s[0])
        return TruncatedSeries(t)
