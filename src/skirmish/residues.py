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
  from the power-sum (Newton) recurrence on integers, one reduction per pole.
* `p_two_speeds` / `closed_form_report`: closed forms for one speed per side.
* `p_a_wins_epsilon`: split repeated speeds apart by a small rational
  perturbation and fall back to the simple-pole formula; approximate in a
  controlled way, since the error vanishes with the perturbation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import (
    GroupedInstance,
    Instance,
    InvalidInstance,
    _Record,
    decimal_str,
    group,
    parse_speed,
    whole_number,
)
from .recurrence import p_a_wins_recursive

ROUTES = ("recursive", "distinct", "series", "epsilon", "closed-form")


class MethodReport(_Record):
    """Solver outcome: the exact value, the route taken, per-pole residues.

    `residues` lists the residue of Phi at each a-pole, in the order the
    corresponding speeds were given; their negated sum is `value`.  None
    for the recursive route, and `to_json` then leaves the key out.
    `MethodReport(value: Fraction, method: str, residues: tuple[Fraction, ...] | None)`.
    """

    __slots__ = ("value", "method", "residues")

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

    On the integer speeds A, B (same ratios, same residues), w = 1/A_i + u
    isolates the pole factor (1 - A_i*w)^-x_i = (-A_i*u)^-x_i, so the residue
    is (-A_i)^-x_i times the u^(x_i - 1) Taylor coefficient of the regular
    factors 1/w = A_i / (1 + A_i*u), 1 - A_k*w = ((A_i - A_k) - A_i*A_k*u)/A_i
    and 1 + B_j*w = ((A_i + B_j) + A_i*B_j*u)/A_i.  Each is (c0 + s*u)^-x with
    c0 = d/A_i, so over N particles their product is
    A_i^(N + 1 - x_i) / E_i * prod (1 - q*u)^-x with q = -s/c0 and
    E_i = prod d^x.  Scaled by Q, the least common denominator of a pole's q,
    the u_k = q_k*Q are integers, and the u^t coefficient of the product is
    rho_t / Q^t with the integer rho_t of `_regular_coefficient`.  So

        residue_i = (-1)^x_i * A_i^(N + 1 - 2*x_i) * rho_(x_i - 1) / (Q^(x_i - 1) * E_i),

    one reduction per pole.
    """
    a_groups, b_groups = grouped.a_groups, grouped.b_groups
    a, b = Instance(tuple(s for s, _ in a_groups), tuple(s for s, _ in b_groups)).integer_speeds()
    a = list(zip(a, (x for _, x in a_groups)))
    b = list(zip(b, (y for _, y in b_groups)))
    residues = []
    for i, (ai, xi) in enumerate(a):
        # (numerator, denominator d, x) of q = -s/c0 for each regular factor
        factors = [(-ai, 1, 1)]
        factors += [(ak * ai, ai - ak, xk) for k, (ak, xk) in enumerate(a) if k != i]
        factors += [(-bj * ai, ai + bj, yj) for bj, yj in b]
        ratios = [Fraction(n, d) for n, d, _ in factors]
        scale = math.lcm(*(q.denominator for q in ratios))
        coefficient = _regular_coefficient(
            [q.numerator * (scale // q.denominator) for q in ratios],
            [x for _, _, x in factors],
            xi - 1,
        )
        power = grouped.total_particles + 1 - 2 * xi
        e_i = math.prod(d**x for _, d, x in factors)
        numerator = (-1) ** xi * coefficient * ai ** max(power, 0)
        residues.append(Fraction(numerator, scale ** (xi - 1) * ai ** max(-power, 0) * e_i))
    residues = tuple(residues)
    return MethodReport(-_total(residues), "series", residues)


def _regular_coefficient(ratios: list[int], weights: list[int], degree: int) -> int:
    """rho_degree: the v^degree coefficient of prod (1 - u_k*v)^-x_k.

    For integer ratios u_k and weights x_k every rho_t is an integer.  The
    log-derivative is sum_{t>=1} p_t v^(t-1) with the power sums
    p_t = sum_k x_k*u_k^t, and R' = R * (log R)' gives Newton's recurrence
    t*rho_t = sum_{s=1..t} p_s*rho_(t-s), rho_0 = 1 (Brent & Kung 1978),
    so each step is one exact division by t.
    """
    coefficients = [1]
    terms = weights  # x_k * u_k^t, at t = 0
    power_sums = []
    for t in range(1, degree + 1):
        terms = [term * u for term, u in zip(terms, ratios)]
        power_sums.append(sum(terms))
        # p_1..p_t against rho_(t-1)..rho_0
        total = sum(p * r for p, r in zip(power_sums, reversed(coefficients)))
        coefficient, remainder = divmod(total, t)
        if remainder:
            raise AssertionError(
                f"inexact division at step {t}: the pole's ratios are not integers"
            )
        coefficients.append(coefficient)
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
    m, n = whole_number(m, "side size"), whole_number(n, "side size")
    v = parse_speed(v)
    q, p = v.numerator, v.denominator
    total = 0
    for i in range(m):
        total = total * (p + q) + math.comb(n + i - 1, i) * q**i
    return Fraction(p**n * total, (p + q) ** (m + n - 1))


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
