"""Hypercube-volume estimator: geometry, sharing, determinism."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skirmish import (
    Instance,
    InvalidInstance,
    estimate_volume,
    p_a_wins_recursive,
)
from skirmish import streams

from oracles import check_blocks, complement_estimates, record_blocks, use_block_trials

# Skipped at collection, not failed, where numpy is absent.
np = pytest.importorskip("numpy")
pytestmark = pytest.mark.draws

FIGHT = Instance((30, 20), (15, 36))
FIGHT_P = Fraction(270, 539)


def passes_gate(estimate, exact):
    return streams.gate(estimate.hits, estimate.samples, exact)[0]


class TestValidation:
    def test_needs_both_sides(self):
        with pytest.raises(InvalidInstance):
            estimate_volume(Instance((1,), ()), 100)

    def test_needs_positive_samples_and_seed_range(self):
        with pytest.raises(ValueError):
            estimate_volume(FIGHT, 0)
        with pytest.raises(ValueError):
            estimate_volume(FIGHT, 100, seed=-1)
        with pytest.raises(ValueError):
            estimate_volume(FIGHT, 100, seed=2**64)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
    def test_non_integer_seed_is_rejected(self, seed):
        # A float or bool would run another integer seed's stream under its own name.
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_volume(FIGHT, 10, seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert estimate_volume(FIGHT, 100, np.int64(3)) == estimate_volume(FIGHT, 100, 3)


class TestEstimates:
    def test_symmetric_duel(self):
        est = estimate_volume(Instance((1,), (1,)), 100_000, seed=0)
        assert passes_gate(est, Fraction(1, 2))

    def test_two_on_two_duel(self):
        assert passes_gate(estimate_volume(FIGHT, 200_000, seed=0), FIGHT_P)

    def test_product_formula_instance(self):
        est = estimate_volume(Instance((1,), (1, 1)), 200_000, seed=0)
        assert passes_gate(est, Fraction(1, 4))

    def test_report_arithmetic(self):
        est = estimate_volume(FIGHT, 10_000, seed=6)
        assert 0 <= est.hits <= est.samples == 10_000
        assert est.estimate == est.hits / est.samples
        assert est.std_error == math.sqrt(est.estimate * (1 - est.estimate) / 10_000)


class TestDeterminism:
    @pytest.mark.parametrize("shift", [-2000, -3, 5, 2000])
    def test_power_of_two_rescaling_is_exact(self, shift):
        # Speeds far outside the float range give the same hits as FIGHT.
        scale = Fraction(2) ** shift
        scaled = Instance(
            tuple(s * scale for s in FIGHT.a), tuple(s * scale for s in FIGHT.b)
        )
        assert estimate_volume(scaled, 20_000, seed=3) == estimate_volume(FIGHT, 20_000, seed=3)

    def test_repeatable(self):
        assert estimate_volume(FIGHT, 50_000, seed=4) == estimate_volume(
            FIGHT, 50_000, seed=4
        )

    def test_partitioning_invariance(self, tmp_path):
        # Pinned on a build that drew all 5000 samples in one block.
        width = streams.slot_width(len(FIGHT.a) + len(FIGHT.b))
        for block_samples in (1, 7, None):
            with pytest.MonkeyPatch.context() as monkeypatch:
                use_block_trials(monkeypatch, block_samples, width)
                blocks = record_blocks(monkeypatch, tmp_path / "blocks")
                hits = estimate_volume(FIGHT, 5_000, seed=9).hits
            assert hits == 2519
            expected = block_samples or streams.BLOCK_BYTES // (8 * width)
            check_blocks(blocks(), expected, 5_000)


class TestDraws:
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 10**6),
        st.integers(1, 50),
        st.integers(1, 40).map(lambda blocks: 4 * blocks),
    )
    def test_unit_floats_are_the_raw_words_mantissa(self, seed, start, count, width):
        raw = streams.raw_slots(seed, start, count, width)
        floats = streams.unit_floats(seed, start, count, width)
        assert np.array_equal(floats, (raw >> np.uint64(11)) * 2.0**-53)

    def test_one_worker_holds_one_block_of_floats(self, monkeypatch):
        # The logs are taken in place on the drawn block; a second block of
        # words or floats beside it would put the peak near two blocks.
        monkeypatch.setattr(streams, "usable_cores", lambda: 1)
        inst = Instance(tuple(range(1, 41)), tuple(range(2, 42)))
        samples = streams.BLOCK_BYTES // (8 * streams.slot_width(80))
        estimate_volume(inst, samples, 1)  # keep first-call imports out of the peak
        tracemalloc.start()
        try:
            estimate_volume(inst, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * streams.BLOCK_BYTES


class TestComplementSharing:
    def test_hits_partition_the_samples(self):
        forward, backward = complement_estimates(FIGHT, 200_000, seed=4)
        assert forward.hits + backward.hits == 200_000
        assert forward.estimate + backward.estimate == 1.0

    def test_forward_estimate_is_the_plain_one(self):
        forward, _ = complement_estimates(FIGHT, 50_000, seed=4)
        assert forward == estimate_volume(FIGHT, 50_000, seed=4)

    def test_both_sides_track_their_exact_values(self):
        forward, backward = complement_estimates(FIGHT, 200_000, seed=0)
        p = p_a_wins_recursive(FIGHT)
        assert passes_gate(forward, p)
        assert passes_gate(backward, 1 - p)


class TestPermutationInvariance:
    def test_two_column_relabeling_is_exact(self):
        # With two coordinates per side, permuting speeds together with
        # their draw columns flips one addition, which IEEE floats commute.
        samples, seed = 20_000, 3
        m = n = 2
        width = streams.slot_width(m + n)
        logs = np.log(streams.unit_floats(seed, 0, samples, width))
        wa = np.array([30.0, 20.0])
        wb = np.array([15.0, 36.0])
        direct_a = logs[:, :2] @ wa
        direct_b = logs[:, 2:4] @ wb
        permuted_a = logs[:, [1, 0]] @ wa[[1, 0]]
        permuted_b = logs[:, [3, 2]] @ wb[[1, 0]]
        assert int((direct_a < direct_b).sum()) == int((permuted_a < permuted_b).sum())

    def test_reordered_speeds_stay_unbiased(self):
        est = estimate_volume(Instance((20, 30), (36, 15)), 200_000, seed=0)
        assert passes_gate(est, FIGHT_P)


class TestJson:
    def test_schema(self):
        payload = estimate_volume(FIGHT, 1_000, seed=8).to_json()
        assert set(payload) == {"hits", "samples", "estimate", "stdError", "seed"}
        assert payload["samples"] == 1_000
        assert payload["seed"] == 8
