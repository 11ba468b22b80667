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

from fractions import Fraction

from . import streams
from .model import Instance, InvalidInstance, _Record, whole_number


class VolumeEstimate(_Record):
    """`VolumeEstimate(hits: int, samples: int, estimate: float, std_error: float, seed: int)`."""

    __slots__ = ("hits", "samples", "estimate", "std_error", "seed")

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
    if not inst.a or not inst.b:
        raise InvalidInstance("volume sampling needs particles on both sides")
    samples, seed = whole_number(samples, "samples"), streams.check_seed(seed)
    hits, _ = _hit_counts(inst, samples, seed)
    estimate, std_error = streams.binomial(hits, samples)
    return VolumeEstimate(hits, samples, estimate, std_error, seed)


def _hit_counts(inst: Instance, samples: int, seed: int) -> tuple[int, int]:
    """(A-region hits, B-region hits) over the shared sample stream.

    Each particle owns a fixed column of the per-sample slot: side A takes
    the first m, side B the next n.  A zero draw makes log(0) = -inf, which
    compares correctly and only warns, hence the errstate guard.  Each
    worker turns its blocks into logs in one reused float buffer.  The
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

    def make_count(block_samples):
        floats = np.empty((block_samples, width))

        def count(raw):
            logs = streams.unit_floats(raw, floats[: len(raw)])
            with np.errstate(divide="ignore"):
                np.log(logs, out=logs)
            score_a = logs[:, :m] @ weights_a
            score_b = logs[:, m : m + n] @ weights_b
            return int((score_a < score_b).sum()), int((score_b < score_a).sum())

        return count

    return streams.block_sums(seed, samples, width, make_count)
