"""Monte Carlo play-out: determinism, partitioning, policies, statistics."""

import json
import math
import os
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skirmish.montecarlo as mc
from skirmish import (
    Instance,
    InvalidInstance,
    SimConfig,
    estimate_volume,
    p_a_wins_recursive,
    simulate,
)
from skirmish import streams
from skirmish.cli import main
from skirmish.montecarlo import win_threshold

from conftest import WHOLE_NUMBER_SITES, instances, speeds
from oracles import check_blocks, order_invariance_probe, record_blocks, use_block_trials

# Skipped at collection, not failed, where numpy is absent.
np = pytest.importorskip("numpy")
pytestmark = pytest.mark.draws

FIGHT = Instance((30, 20), (15, 36))
FIGHT_P = Fraction(270, 539)


def passes_gate(report, exact):
    return streams.gate(report.a_wins, report.trials, exact)[0]


def frontmost_reference(inst, seed, trials):
    """(A wins, collisions per trial), replayed one draw at a time."""
    m, n = len(inst.a), len(inst.b)
    raw = streams.raw_slots(seed, 0, trials, streams.slot_width(m + n - 1))
    a_wins = 0
    collisions_used = []
    for row in raw:
        dead_a = dead_b = step = 0
        while dead_a < m and dead_b < n:
            a_speed = inst.a[m - 1 - dead_a]
            b_speed = inst.b[dead_b]
            if int(row[step]) < win_threshold(a_speed, b_speed):
                dead_b += 1
            else:
                dead_a += 1
            step += 1
        collisions_used.append(step)
        a_wins += dead_b == n
    return a_wins, collisions_used


def random_adjacent_reference(inst, seed, trials):
    """A wins, replayed one trial at a time on Python ints."""
    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    thresholds = [[win_threshold(ai, bj) for bj in b] for ai in a]
    raw = streams.raw_slots(seed, 0, trials, streams.slot_width((m + n - 1) * 3))
    a_wins = 0
    for row in raw:
        alive_a = list(range(m))
        alive_b = list(range(n))
        position = 0
        while alive_a and alive_b:
            pick_a, pick_b, outcome = (int(x) for x in row[position : position + 3])
            position += 3
            ia = alive_a[(pick_a * len(alive_a)) >> 64]
            ib = alive_b[(pick_b * len(alive_b)) >> 64]
            if outcome < thresholds[ia][ib]:
                alive_b.remove(ib)
            else:
                alive_a.remove(ia)
        a_wins += not alive_b
    return a_wins


def slot_width(inst, policy):
    collisions = len(inst.a) + len(inst.b) - 1
    return streams.slot_width(collisions if policy == "frontmost" else 3 * collisions)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(0)
        with pytest.raises(ValueError):
            SimConfig(10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(10, seed=2**64)
        with pytest.raises(ValueError):
            SimConfig(10, policy="nearest")
        with pytest.raises(ValueError):
            SimConfig(10.0)

    def test_keyword_construction_with_defaults(self):
        cfg = SimConfig(trials=200_000, seed=0)
        assert cfg == SimConfig(200_000) == SimConfig(200_000, 0, "frontmost")
        assert (cfg.trials, cfg.seed, cfg.policy) == (200_000, 0, "frontmost")
        assert repr(cfg) == "SimConfig(trials=200000, seed=0, policy='frontmost')"
        assert SimConfig(5, policy="random-adjacent").seed == 0

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, "1", Fraction(1)])
    def test_non_integer_seed_is_rejected(self, seed):
        # A float or bool would run another integer seed's stream under its own name.
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(10, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        cfg = SimConfig(50, seed=np.uint64(7))
        assert simulate(FIGHT, cfg).a_wins == simulate(FIGHT, SimConfig(50, seed=7)).a_wins


class TestNumpyWholeNumbers:
    """numpy's integer types are whole numbers, kept as Python ints, at every
    site that takes one; its floats are refused, as Python's are."""

    @pytest.mark.parametrize("site", WHOLE_NUMBER_SITES.values(), ids=WHOLE_NUMBER_SITES)
    @pytest.mark.parametrize("value", [np.int64(3), np.uint64(3), np.int8(3)], ids=repr)
    def test_numpy_integers_are_kept_as_ints(self, site, value):
        kept = site(value)
        assert kept == site(3)
        assert type(kept) is type(site(3))

    @pytest.mark.parametrize("site", WHOLE_NUMBER_SITES.values(), ids=WHOLE_NUMBER_SITES)
    @pytest.mark.parametrize("value", [np.float64(3)], ids=repr)
    def test_other_types_are_refused(self, site, value):
        # A float would stand for an integer the record never shows.
        with pytest.raises(ValueError):
            site(value)

    def test_numpy_seeded_reports_serialise(self):
        seed = np.uint64(7)
        reports = [
            simulate(FIGHT, SimConfig(np.int64(10), seed=seed)),
            estimate_volume(FIGHT, np.int64(10), seed),
        ]
        for report in reports:
            assert json.loads(json.dumps(report.to_json()))["seed"] == 7


class TestThreshold:
    def test_exact_floor_values(self):
        assert win_threshold(1, 1) == 1 << 63
        assert win_threshold(1, 2) == (1 << 64) // 3
        assert win_threshold(3, 1) == ((3 << 64) // 4)
        assert win_threshold(7, 7) == 1 << 63

    @given(speeds, speeds)
    def test_floor_of_the_exact_share(self, a, b):
        assert win_threshold(a, b) == math.floor(2**64 * a / (a + b))

    @given(instances())
    def test_every_table_entry_is_the_pair_s_threshold(self, inst):
        """The policies' threshold table, from cross-multiplied integers, is
        `win_threshold` of each pair, itself the floor of the exact share."""
        table = mc.thresholds(inst.a, inst.b)
        assert table == [
            [math.floor(2**64 * ai / (ai + bj)) for bj in inst.b] for ai in inst.a
        ]
        assert table == [[win_threshold(ai, bj) for bj in inst.b] for ai in inst.a]

    @given(speeds, speeds)
    def test_scale_invariant(self, a, b):
        assert win_threshold(a, b) == win_threshold(3 * a, 3 * b)

    @given(speeds, speeds)
    def test_momentum_identity(self, a, b):
        # The collision rule preserves momentum on average, exactly.
        p = a / (a + b)
        assert a * p - b * (1 - p) == a - b


class TestSimulate:
    def test_rejects_empty_sides(self):
        with pytest.raises(InvalidInstance):
            simulate(Instance((5,), ()), SimConfig(10))
        with pytest.raises(InvalidInstance):
            simulate(Instance((), (5,)), SimConfig(10))

    def test_deterministic(self):
        cfg = SimConfig(50_000, seed=3)
        assert simulate(FIGHT, cfg) == simulate(FIGHT, cfg)

    def test_partitioning_invariance(self, tmp_path):
        # Pinned on a build that ran all 3000 trials in one block.
        for policy, a_wins in (("frontmost", 1489), ("random-adjacent", 1527)):
            width = slot_width(FIGHT, policy)
            for block_trials in (1, 7, None):
                with pytest.MonkeyPatch.context() as monkeypatch:
                    use_block_trials(monkeypatch, block_trials, width)
                    blocks = record_blocks(monkeypatch, tmp_path / "blocks")
                    report = simulate(FIGHT, SimConfig(3_000, seed=3, policy=policy))
                assert report.a_wins == a_wins
                expected = block_trials or streams.BLOCK_BYTES // (8 * width)
                check_blocks(blocks(), expected, 3_000)

    def test_report_arithmetic(self):
        report = simulate(FIGHT, SimConfig(5_000, seed=2))
        assert 0 <= report.a_wins <= report.trials == 5_000
        assert report.estimate == report.a_wins / report.trials
        expected_se = math.sqrt(report.estimate * (1 - report.estimate) / 5_000)
        assert report.std_error == expected_se
        assert report.seed == 2 and report.policy == "frontmost"

    def test_estimates_track_exact_values(self):
        assert passes_gate(simulate(FIGHT, SimConfig(60_000, seed=0)), FIGHT_P)
        quarter = simulate(Instance((1,), (1, 1)), SimConfig(60_000, seed=0))
        assert passes_gate(quarter, Fraction(1, 4))

    def test_a_run_that_never_wins_is_no_false_alarm(self):
        # P(A wins) = 1/1001: ten trials are expected to have no win, and
        # have none; the plug-in standard error of that estimate is 0.
        report = simulate(Instance((1,), (1000,)), SimConfig(10, seed=0))
        assert (report.a_wins, report.std_error) == (0, 0.0)
        assert passes_gate(report, Fraction(1, 1001))

    def test_random_adjacent_policy_agrees(self):
        report = simulate(FIGHT, SimConfig(20_000, seed=5, policy="random-adjacent"))
        assert report.policy == "random-adjacent"
        assert passes_gate(report, FIGHT_P)

    def test_policies_draw_from_independent_layouts(self):
        # Same seed, different draw interpretation; both must stay unbiased.
        front = simulate(Instance((2, 1), (1,)), SimConfig(30_000, seed=8))
        randomized = simulate(
            Instance((2, 1), (1,)), SimConfig(30_000, seed=8, policy="random-adjacent")
        )
        exact = Fraction(5, 6)
        assert passes_gate(front, exact)
        assert passes_gate(randomized, exact)

    def test_frontmost_matches_scalar_reference(self):
        # Re-play the trials one draw at a time from the same stream and
        # check the vectorized runner reproduces every outcome.
        inst = Instance((3, 1), (2, 2))
        trials = 512
        report = simulate(inst, SimConfig(trials, seed=13))
        a_wins, collisions_used = frontmost_reference(inst, 13, trials)
        assert report.a_wins == a_wins
        # Every duel ends after m + n - survivors collisions.
        m, n = len(inst.a), len(inst.b)
        assert all(1 <= c <= m + n - 1 for c in collisions_used)

    def test_random_adjacent_matches_scalar_reference(self):
        inst = Instance((3, 1, 2), (2, 2))
        report = simulate(inst, SimConfig(512, seed=13, policy="random-adjacent"))
        assert report.a_wins == random_adjacent_reference(inst, 13, 512)

    @pytest.mark.parametrize("side, trials", [(12, 400), (40, 300)])
    def test_random_adjacent_matches_scalar_reference_at_wide_sides(self, side, trials):
        # The hypothesis replay below draws at most 6 a side: here the
        # running counts span many rows, ragged across the trials of a block.
        inst = Instance(
            tuple(range(1, side + 1)), tuple(Fraction(2 * k + 1, 2) for k in range(side))
        )
        report = simulate(inst, SimConfig(trials, seed=side, policy="random-adjacent"))
        assert report.a_wins == random_adjacent_reference(inst, side, trials)

    @settings(max_examples=100, deadline=None)
    @given(
        inst=instances(max_side=6),
        seed=st.integers(0, 2**64 - 1),
        block_trials=st.sampled_from([1, 7, None]),
    )
    def test_lockstep_runners_match_scalar_references(self, inst, seed, block_trials):
        # Ragged sides, repeated speeds and every block size replay the
        # scalar loops draw for draw.
        trials = 40
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_block_trials(monkeypatch, block_trials, slot_width(inst, "frontmost"))
            front = simulate(inst, SimConfig(trials, seed)).a_wins
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_block_trials(monkeypatch, block_trials, slot_width(inst, "random-adjacent"))
            adjacent = simulate(inst, SimConfig(trials, seed, "random-adjacent")).a_wins
        assert front == frontmost_reference(inst, seed, trials)[0]
        assert adjacent == random_adjacent_reference(inst, seed, trials)

    def test_short_draw_budget_is_caught(self, monkeypatch):
        # One collision too few leaves some duel unfinished.
        monkeypatch.setattr(streams, "slot_width", lambda draws: 4)
        with pytest.raises(AssertionError, match="draw budget"):
            simulate(Instance((1,) * 4, (1,) * 4), SimConfig(200, seed=1))

    @pytest.mark.parametrize("policy", mc.POLICIES)
    def test_short_draw_budget_is_caught_in_a_worker(self, monkeypatch, capsys, tmp_path, policy):
        # 29 blocks on three workers, two of them forked children: the error
        # reaches the caller as a crash, and no child outlives the call.
        monkeypatch.setattr(streams, "slot_width", lambda draws: 4)
        monkeypatch.setattr(streams, "usable_cores", lambda: 3)
        use_block_trials(monkeypatch, 7, 4)
        blocks = record_blocks(monkeypatch, tmp_path / "blocks")
        argv = ["simulate", "--a", "1,1,1,1", "--b", "1,1,1,1", "--trials", "200"]
        assert main([*argv, "--seed", "1", "--policy", policy]) == 3
        assert "AssertionError: a duel failed to finish within its draw budget" in (
            capsys.readouterr().err
        )
        drawing = {pid for pid, _ in blocks()}
        assert os.getpid() in drawing
        assert len(drawing) == (3 if streams.can_fork() else 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("policy, side", [("frontmost", 40), ("random-adjacent", 8)])
    def test_one_worker_holds_one_block_of_draws(self, monkeypatch, policy, side):
        # The kernels step through the Philox block in place; a second,
        # transposed copy of it would put the peak near two blocks.
        monkeypatch.setattr(streams, "usable_cores", lambda: 1)
        inst = Instance(tuple(range(1, side + 1)), tuple(range(2, side + 2)))
        cfg = SimConfig(streams.BLOCK_BYTES // (8 * slot_width(inst, policy)), 1, policy)
        simulate(inst, cfg)  # keep first-call imports out of the peak
        tracemalloc.start()
        try:
            simulate(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * streams.BLOCK_BYTES


class TestScaledFloor:
    @given(st.integers(0, 2**64 - 1), st.integers(1, 2**32 - 1))
    @example(2**64 - 1, 2**32 - 1)
    @example(2**64 - 1, 1)
    @example(0, 2**32 - 1)
    @example(2**32 - 1, 2**32 - 1)
    # The low half's carry decides these: hi * k alone is one short.
    @example(2**33 - 1, 2**32 - 1)
    @example(0x55555555FFFFFFFF, 3)
    @example(0xAAAAAAAAFFFFFFFF, 3)
    def test_matches_python_int_product(self, u, k):
        words = np.array([u], dtype=np.uint64)
        counts = np.array([k], dtype=np.uint64)
        assert int(mc._scaled_floor(words, counts)[0]) == (u * k) >> 64


class TestOrderInvarianceProbe:
    def test_single_ordering_collapses(self):
        reports = order_invariance_probe(Instance((1,), (1,)), SimConfig(1_000, 0), 5)
        assert len(reports) == 1

    def test_all_orderings_compatible(self):
        exact = p_a_wins_recursive(FIGHT)
        reports = order_invariance_probe(FIGHT, SimConfig(20_000, seed=11), 5)
        assert 1 < len(reports) <= 5
        assert all(passes_gate(r, exact) for r in reports)
        # Derived seeds differ run to run.
        assert len({r.seed for r in reports}) == len(reports)

    def test_small_instance(self):
        reports = order_invariance_probe(Instance((2, 1), (1,)), SimConfig(20_000, 2), 3)
        assert all(passes_gate(r, Fraction(5, 6)) for r in reports)

    def test_deterministic(self):
        first = order_invariance_probe(FIGHT, SimConfig(2_000, seed=4), 4)
        second = order_invariance_probe(FIGHT, SimConfig(2_000, seed=4), 4)
        assert first == second

    def test_needs_positive_permutations(self):
        with pytest.raises(ValueError):
            order_invariance_probe(FIGHT, SimConfig(10), 0)


class TestReportJson:
    def test_schema(self):
        report = simulate(Instance((1,), (1,)), SimConfig(100, seed=9))
        payload = report.to_json()
        assert set(payload) == {"aWins", "trials", "estimate", "stdError", "seed", "policy"}
        assert payload["trials"] == 100
        assert payload["seed"] == 9
        assert payload["aWins"] == report.a_wins
