"""Geometric cross-check: the win probability as a hypercube volume.

P(A wins) equals the volume of the region of the unit (m+n)-cube where
prod_i x_i^(a_i) < prod_j y_j^(b_j), one coordinate per particle, speeds
as exponents.  The one-on-one slice shows the direction: the area under
x^a = y^b is P(x^a < y^b) = a/(a+b), one collision's survival odds.
Uniform sampling of the cube estimates the volume; the comparison runs in
log space (sum a_i*ln x_i < sum b_j*ln y_j), which is immune to underflow
of the high-power products.

Deliberately approximate, float weights and all: this estimator exists to
corroborate the exact solvers from an independent geometric angle, not to
compete with them.  Exact ties between the two log scores count as misses
for both sides; they have measure zero in the continuum and are vanishingly
rare in doubles, so they are documented rather than compensated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import streams
from .model import Instance, InvalidInstance


@dataclass(frozen=True)
class VolumeEstimate:
    hits: int
    samples: int
    estimate: float
    std_error: float
    seed: int

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "samples": self.samples,
            "estimate": self.estimate,
            "stdError": self.std_error,
            "seed": self.seed,
        }


def estimate_volume(inst: Instance, samples: int, seed: int = 0) -> VolumeEstimate:
    """Monte Carlo volume of side A's win region of the unit cube."""
    _validate(inst, samples, seed)
    hits, _ = _hit_counts(inst, samples, seed)
    return _report(hits, samples, seed)


def complement_estimates(
    inst: Instance, samples: int, seed: int = 0
) -> tuple[VolumeEstimate, VolumeEstimate]:
    """Estimates for the duel and its side-swap from one shared draw set.

    Every sample falls strictly inside exactly one win region (log-score
    ties count for neither side), so the two estimates add up to one unless
    a tie occurred, which is measure-zero rare.
    """
    _validate(inst, samples, seed)
    hits, swapped_hits = _hit_counts(inst, samples, seed)
    return _report(hits, samples, seed), _report(swapped_hits, samples, seed)


def _validate(inst: Instance, samples: int, seed: int) -> None:
    if not inst.a or not inst.b:
        raise InvalidInstance("volume sampling needs particles on both sides")
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError("samples must be a positive int")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit word")


def _hit_counts(inst: Instance, samples: int, seed: int) -> tuple[int, int]:
    """(A-region hits, B-region hits) over the shared sample stream.

    Each particle owns a fixed column of the per-sample slot: side A takes
    the first m, side B the next n.  A zero draw makes log(0) = -inf, which
    compares correctly and only warns, hence the errstate guard.  The
    weights are the speeds over a power of two near the largest: finite,
    and scaled exactly, so no comparison changes.
    """
    import numpy as np

    m, n = len(inst.a), len(inst.b)
    top = max(inst.a + inst.b)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    weights_a = np.array([float(s * scale) for s in inst.a])
    weights_b = np.array([float(s * scale) for s in inst.b])
    width = streams.slot_width(m + n)
    a_hits = 0
    b_hits = 0
    for raw in streams.trial_blocks(seed, samples, width):
        draws = streams.unit_floats(raw)
        with np.errstate(divide="ignore"):
            logs = np.log(draws)
        score_a = logs[:, :m] @ weights_a
        score_b = logs[:, m : m + n] @ weights_b
        a_hits += int((score_a < score_b).sum())
        b_hits += int((score_b < score_a).sum())
    return a_hits, b_hits


def _report(hits: int, samples: int, seed: int) -> VolumeEstimate:
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return VolumeEstimate(hits, samples, estimate, std_error, seed)
