"""Win probability as an exact residue sum over the a-side poles.

Encode the duel in the rational function

    Phi(w) = (1/w) * prod_i (1 - a_i*w)^-x_i * prod_j (1 + b_j*w)^-y_j

where x_i and y_j are the multiplicities of the distinct speeds.  Phi has a
simple pole at the origin with residue 1, a pole of order x_i at w = 1/a_i
for every distinct A speed, and a pole of order y_j at w = -1/b_j for every
distinct B speed; all residues sum to zero.  P(A wins) is minus the sum of
the a-pole residues, so swapping the sides gives the complement.

Routes provided here, all exact, with `solve` as the one route table:

* `p_a_wins_distinct`: simple poles only, closed product formula.
* `p_a_wins_series`: poles of any order, one Taylor coefficient per pole
  from the power-sum (Newton) recurrence on plain Fractions.
* `p_two_speeds` / `closed_form_report`: closed forms for one speed per side.
* `p_a_wins_epsilon`: split repeated speeds apart by a small rational
  perturbation and fall back to the simple-pole formula; approximate in a
  controlled way, since the error vanishes with the perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    GroupedInstance,
    Instance,
    InvalidInstance,
    decimal_str,
    group,
    parse_speed,
)
from .recurrence import p_a_wins_recursive

ROUTES = ("recursive", "distinct", "series", "epsilon", "closed-form")


@dataclass(frozen=True)
class MethodReport:
    """Solver outcome: the exact value, the route taken, per-pole residues.

    `residues` lists the residue of Phi at each a-pole, in the order the
    corresponding speeds were given; their negated sum is `value`.  None
    for the recursive route, and `to_json` then leaves the key out.
    """

    value: Fraction
    method: str
    residues: tuple[Fraction, ...] | None

    def to_json(self) -> dict:
        payload = {
            "value": str(self.value),
            "decimal": decimal_str(self.value),
            "method": self.method,
        }
        if self.residues is not None:
            payload["residues"] = [str(r) for r in self.residues]
        return payload


def solve(inst: Instance, method: str = "auto", eps=None) -> MethodReport:
    """The route table: run the route named `method` (in ROUTES, or auto).

    auto is distinct when every A speed differs, else series.  `eps` is the
    epsilon route's perturbation, `default_epsilon` when None.  Route names
    resolve at call time, so wrapping a module attribute wraps the route.
    """
    if method == "auto":
        method = "distinct" if len(set(inst.a)) == len(inst.a) else "series"
    if method not in ROUTES:
        raise ValueError(f"unknown route {method!r}; choose from auto, {', '.join(ROUTES)}")
    if method == "recursive":
        return MethodReport(p_a_wins_recursive(inst), "recursive", None)
    if method == "distinct":
        return p_a_wins_distinct(inst)
    grouped = group(inst)
    if method == "series":
        return p_a_wins_series(grouped)
    if method == "closed-form":
        return closed_form_report(grouped)
    return p_a_wins_epsilon(grouped, default_epsilon(grouped) if eps is None else eps)


def p_a_wins_distinct(inst: Instance) -> MethodReport:
    """Residue sum when every A speed is distinct (all a-poles simple).

    residue_i = -prod_{k != i} a_i/(a_i - a_k) * prod_j a_i/(a_i + b_j)
              = -A_i^(m+n-1) / (prod_{k != i} (A_i - A_k) * prod_j (A_i + B_j))
    on the integer speeds A, B, so each residue is one reduction.  B speeds
    may repeat freely; only the a-poles are evaluated.
    """
    if len(set(inst.a)) != len(inst.a):
        raise InvalidInstance(
            "repeated a-speed: the simple-pole formula needs distinct A speeds"
        )
    a, b = inst.integer_speeds()
    degree = len(a) + len(b) - 1
    residues = tuple(
        Fraction(
            -ai**degree,
            math.prod(ai - ak for k, ak in enumerate(a) if k != i)
            * math.prod(ai + bj for bj in b),
        )
        for i, ai in enumerate(a)
    )
    return MethodReport(-_total(residues), "distinct", residues)


def p_a_wins_series(grouped: GroupedInstance) -> MethodReport:
    """Exact residues at a-poles of any order via a power-sum recurrence.

    Substituting w = 1/a_i + u isolates the pole factor:
    (1 - a_i*w)^-x_i = (-a_i*u)^-x_i.  The residue is therefore
    (-a_i)^-x_i times the u^(x_i - 1) Taylor coefficient of the remaining,
    regular factors, which `_regular_coefficient` computes.
    """
    residues = []
    for i, (ai, xi) in enumerate(grouped.a_groups):
        coefficient = _regular_coefficient(grouped, i, ai, xi - 1)
        residues.append((-1) ** xi * coefficient / ai**xi)
    residues = tuple(residues)
    return MethodReport(-_total(residues), "series", residues)


def _regular_coefficient(
    grouped: GroupedInstance, pole_index: int, ai: Fraction, degree: int
) -> Fraction:
    """u^degree Taylor coefficient, around w = 1/a_i, of all factors but the pole.

    Every regular factor has the form (c0 + s*u)^-x = c0^-x * (1 + r*u)^-x
    with r = s/c0, so the product is R(u) = R_0 * prod (1 + r_k*u)^-x_k.
    Its log-derivative is sum_{t>=1} P_t u^(t-1) with the power sums
    P_t = sum_k x_k*(-r_k)^t, and R' = R * (log R)' gives Newton's
    recurrence t*R_t = sum_{s=1..t} P_s*R_(t-s) (Brent & Kung 1978).
    """
    # (1/c0, s, x) for the factor (c0 + s*u)^-x.  1/w = a_i * (1 + a_i*u)^-1;
    # 1 - a_k*w = (a_i - a_k)/a_i - a_k*u;  1 + b_j*w = (a_i + b_j)/a_i + b_j*u.
    factors = [(Fraction(1), ai, 1)]
    factors += [
        (ai / (ai - ak), -ak, xk)
        for k, (ak, xk) in enumerate(grouped.a_groups)
        if k != pole_index
    ]
    factors += [(ai / (ai + bj), bj, yj) for bj, yj in grouped.b_groups]
    coefficients = [ai * math.prod(inv_c0**x for inv_c0, _, x in factors)]
    if not degree:
        return coefficients[0]
    ratios = [-s * inv_c0 for inv_c0, s, _ in factors]
    terms = [x for _, _, x in factors]  # x_k * (-r_k)^t, at t = 0
    power_sums = []
    for t in range(1, degree + 1):
        terms = [term * q for term, q in zip(terms, ratios)]
        power_sums.append(sum(terms))
        # P_1..P_t against R_(t-1)..R_0
        total = sum(p * r for p, r in zip(power_sums, reversed(coefficients)))
        coefficients.append(total / t)
    return coefficients[degree]


def _total(residues) -> Fraction:
    """Sum pairwise in a balanced tree, so that operands stay alike in size."""
    terms = list(residues) or [Fraction(0)]
    while len(terms) > 1:
        terms = [sum(terms[k : k + 2]) for k in range(0, len(terms), 2)]
    return terms[0]


def p_two_speeds(m: int, n: int, v) -> Fraction:
    """m speed-1 attackers versus n speed-v defenders.

    Each collision has odds 1 : v, a fair coin at v = 1.  Any duel with one
    speed per side scales to this form.  With v = q/p in lowest terms,

        P = p^n * sum_{i<m} C(n+i-1, i) * q^i * (p+q)^(m-1-i) / (p+q)^(m+n-1),

    one integer numerator (summed by Horner's rule) and one reduction.
    """
    _check_counts(m, n)
    v = parse_speed(v)
    q, p = v.numerator, v.denominator
    total = 0
    for i in range(m):
        total = total * (p + q) + math.comb(n + i - 1, i) * q**i
    return Fraction(p**n * total, (p + q) ** (m + n - 1))


def _check_counts(m: int, n: int) -> None:
    for count in (m, n):
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise InvalidInstance(f"side sizes must be positive integers, got {count!r}")


def closed_form_report(grouped: GroupedInstance) -> MethodReport:
    """Fast path when each side fields a single speed, possibly repeated."""
    if len(grouped.a_groups) != 1 or len(grouped.b_groups) != 1:
        raise InvalidInstance("closed form needs exactly one distinct speed per side")
    (a0, m), (b0, n) = grouped.a_groups[0], grouped.b_groups[0]
    value = p_two_speeds(m, n, b0 / a0)
    method = "all-equal" if a0 == b0 else "per-type-equal"
    return MethodReport(value, method, (-value,))


def parse_perturbation(eps) -> Fraction:
    """Read a perturbation by the rules for a speed: exact, positive, well-formed."""
    try:
        return parse_speed(eps)
    except InvalidInstance as exc:
        raise InvalidInstance(
            f"perturbation must be an exact positive rational, got {eps!r}"
        ) from exc


def perturb(grouped: GroupedInstance, eps) -> Instance:
    """Split repeated speeds apart: q-th copy of speed s becomes s + q*eps.

    Raises if eps is so large that two perturbed speeds on one side
    coincide (possible when different base speeds sit close together).
    """
    eps = parse_perturbation(eps)
    a = tuple(ai + q * eps for ai, xi in grouped.a_groups for q in range(1, xi + 1))
    b = tuple(bj + r * eps for bj, yj in grouped.b_groups for r in range(1, yj + 1))
    for side, speeds in (("a", a), ("b", b)):
        if len(set(speeds)) != len(speeds):
            raise InvalidInstance(
                f"eps={eps} makes two perturbed {side}-speeds coincide"
            )
    return Instance(a, b)


def p_a_wins_epsilon(grouped: GroupedInstance, eps) -> MethodReport:
    """Approximate a repeated-speed duel by a nearby all-distinct one.

    The perturbed instance is solved with exact rational arithmetic, so the
    only error is the perturbation itself, which vanishes as eps does.
    """
    report = p_a_wins_distinct(perturb(grouped, eps))
    return MethodReport(report.value, "epsilon", report.residues)


def default_epsilon(grouped: GroupedInstance) -> Fraction:
    """A perturbation small enough to keep every pole well separated.

    gap / (1000 * (N + 1)), where N is the particle count and gap is the
    smallest spacing among the speeds and their cross-side pairwise sums
    (the quantities whose collisions would break the simple-pole formula).
    A single-element value set has no spacing; the element itself is the
    scale then.
    """
    values = {s for s, _ in grouped.a_groups} | {s for s, _ in grouped.b_groups}
    values |= {
        ai + bj for ai, _ in grouped.a_groups for bj, _ in grouped.b_groups
    }
    ordered = sorted(values)
    if len(ordered) > 1:
        gap = min(hi - lo for lo, hi in zip(ordered, ordered[1:]))
    else:
        gap = ordered[0]
    return gap / (1000 * (grouped.total_particles + 1))
