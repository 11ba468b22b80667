"""Test-only helpers that exercise the library from outside its public surface.

`use_block_trials` and `record_blocks` set and observe how many trials each
block of `streams.block_sums` holds, and which process drew it, for the
partitioning tests.  `order_invariance_probe` replays one duel under
random reorderings of both sides, each under its own derived seed: the
winner distribution does not depend on firing order, so every estimate
must land near the same exact value.  Nothing in the CLI or the benchmark
needs it, so it lives here.

The exact oracles restate a solver the plain way, one reduced Fraction per
factor or term: `p_a_wins_single_a` (one A particle must win every
collision in turn), `distinct_residues_reference` (the simple-pole residues),
`series_residues_reference` (the residues at poles of any order) and
`p_two_speeds_reference` (the single-speed binomial sum).  The library
computes the same exact values on integer numerators.

`complement_estimates` runs the volume sampler once for a duel and its
side-swap; only the tests compare the two.  `expand` spells a grouped
instance back out, for the tests that hand one to the flat reference.
"""

import math
import os
import random
from fractions import Fraction

from skirmish import (
    GroupedInstance,
    Instance,
    SimConfig,
    VolumeEstimate,
    parse_speed,
    simulate,
    streams,
)
from skirmish import volume


def expand(grouped: GroupedInstance) -> Instance:
    """Spell the multiplicities back out into a flat Instance."""
    return Instance(
        tuple(s for s, count in grouped.a_groups for _ in range(count)),
        tuple(s for s, count in grouped.b_groups for _ in range(count)),
    )


def p_a_wins_single_a(a1, b) -> Fraction:
    """One A particle must win every collision in turn: a product, no table."""
    speed = parse_speed(a1)
    result = Fraction(1)
    for bj in b:
        bj = parse_speed(bj)
        result *= speed / (speed + bj)
    return result


def distinct_residues_reference(inst: Instance) -> tuple[Fraction, ...]:
    """-prod_{k != i} a_i/(a_i - a_k) * prod_j a_i/(a_i + b_j), factor by factor."""
    a, b = inst.a, inst.b
    residues = []
    for i, ai in enumerate(a):
        term = Fraction(1)
        for k, ak in enumerate(a):
            if k != i:
                term *= ai / (ai - ak)
        for bj in b:
            term *= ai / (ai + bj)
        residues.append(-term)
    return tuple(residues)


def series_residues_reference(grouped: GroupedInstance) -> tuple[Fraction, ...]:
    """Each a-pole's residue from Newton's power-sum recurrence on Fractions.

    Around w = 1/a_i every regular factor is (c0 + s*u)^-x, so their product
    is R_0 * prod (1 + r*u)^-x with r = s/c0 and R_0 = a_i * prod c0^-x.  The
    power sums P_t = sum x*(-r)^t give t*R_t = sum_{s=1..t} P_s*R_(t-s), and
    the residue is (-a_i)^-x_i * R_(x_i - 1).
    """
    residues = []
    for i, (ai, xi) in enumerate(grouped.a_groups):
        # (1/c0, s, x) for the factor (c0 + s*u)^-x.  1/w = a_i * (1 + a_i*u)^-1;
        # 1 - a_k*w = (a_i - a_k)/a_i - a_k*u;  1 + b_j*w = (a_i + b_j)/a_i + b_j*u.
        factors = [(Fraction(1), ai, 1)]
        factors += [
            (ai / (ai - ak), -ak, xk)
            for k, (ak, xk) in enumerate(grouped.a_groups)
            if k != i
        ]
        factors += [(ai / (ai + bj), bj, yj) for bj, yj in grouped.b_groups]
        coefficients = [ai * math.prod(inv_c0**x for inv_c0, _, x in factors)]
        ratios = [-s * inv_c0 for inv_c0, s, _ in factors]
        terms = [x for _, _, x in factors]  # x_k * (-r_k)^t, at t = 0
        power_sums = []
        for t in range(1, xi):
            terms = [term * q for term, q in zip(terms, ratios)]
            power_sums.append(sum(terms))
            # P_1..P_t against R_(t-1)..R_0
            total = sum(p * r for p, r in zip(power_sums, reversed(coefficients)))
            coefficients.append(total / t)
        residues.append((-1) ** xi * coefficients[xi - 1] / ai**xi)
    return tuple(residues)


def p_two_speeds_reference(m: int, n: int, v) -> Fraction:
    """sum_{i<m} C(n+i-1, i) * v^i / (1+v)^(n+i), term by term."""
    v = parse_speed(v)
    return sum(
        (math.comb(n + i - 1, i) * v**i / (1 + v) ** (n + i) for i in range(m)),
        Fraction(0),
    )


def complement_estimates(inst: Instance, samples: int, seed: int = 0) -> tuple:
    """Volume estimates for the duel and its side-swap from one shared draw set.

    Every sample falls strictly inside exactly one win region (log-score
    ties count for neither side), so the two estimates add up to one unless
    a tie occurred, which is measure-zero rare.
    """
    return tuple(
        VolumeEstimate(hits, samples, *streams.binomial(hits, samples), seed)
        for hits in volume._hit_counts(inst, samples, seed)
    )


def derived_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for auxiliary runs (e.g. permutation probes)."""
    import numpy as np

    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def order_invariance_probe(inst: Instance, cfg: SimConfig, permutations: int) -> list:
    """Simulate random reorderings of both sides under derived seeds.

    Samples `permutations` shuffles and keeps the distinct orderings (an
    all-equal side can only produce one), so the list may be shorter than
    asked.  Every estimate should land within a few standard errors of the
    common exact value; the exercise exists to check that ordering is
    statistical noise, not signal.
    """
    if permutations < 1:
        raise ValueError("need at least one permutation")
    shuffler = random.Random(cfg.seed)
    orderings: list[tuple[tuple, tuple]] = []
    for _ in range(permutations):
        a = list(inst.a)
        b = list(inst.b)
        shuffler.shuffle(a)
        shuffler.shuffle(b)
        ordering = (tuple(a), tuple(b))
        if ordering not in orderings:
            orderings.append(ordering)
    reports = []
    for index, (a, b) in enumerate(orderings):
        sub_cfg = SimConfig(cfg.trials, derived_seed(cfg.seed, index), cfg.policy)
        reports.append(simulate(Instance(a, b), sub_cfg))
    return reports


def use_block_trials(monkeypatch, trials, width):
    """Make `streams.block_sums` draw `trials` trials a block (None: default)."""
    if trials is not None:
        monkeypatch.setattr(streams, "BLOCK_BYTES", trials * 8 * width)


def record_blocks(monkeypatch, path):
    """Make every drawer call note its pid and trial count in `path`; the notes' reader.

    The drawers are `raw_slots` and `unit_floats`.  Forked workers inherit
    the patch, and each note is one append to the file, so it holds the
    blocks that every process drew, children included.
    """
    path.write_text("")

    def counted(draw):
        def drawn(seed, start, count, width):
            with open(path, "a") as notes:
                notes.write(f"{os.getpid()} {count}\n")
            return draw(seed, start, count, width)

        return drawn

    for name in ("raw_slots", "unit_floats"):
        monkeypatch.setattr(streams, name, counted(getattr(streams, name)))
    return lambda: [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def check_blocks(drawn, block, total):
    """The (pid, trials) notes of one `block_sums` call: full blocks, and one worker a process."""
    # Workers draw their blocks in any order: only one may be short.
    sizes = sorted(count for _, count in drawn)
    assert sizes[1:] == [block] * (len(sizes) - 1)
    assert sum(sizes) == total
    # Worker 0 runs in the caller, every other one in a child of its own.
    workers = min(streams.usable_cores(), len(sizes)) if streams.can_fork() else 1
    assert len({pid for pid, _ in drawn}) == workers
    assert os.getpid() in {pid for pid, _ in drawn}
