import copy
import pickle
import time

import numpy as np
import pytest

from oracles import expected_time_guided, expected_time_traditional
from rbcscan import scanning
from rbcscan.errors import DomainError, UsageError
from rbcscan.scanning import (
    MAX_TRIALS,
    ScanConfig,
    SimulationSummary,
    breakeven_ap,
    simulate_guided,
    simulate_guided_multi,
    simulate_traditional,
    t1_analytic,
    t2_analytic,
)

REFERENCE_CFG = ScanConfig(n_cells=64, t_scan_s=2.0, t_detect_s=0.2, ap=0.70)


class TestAnalytic:
    def test_t1_reference_value(self):
        assert t1_analytic(REFERENCE_CFG) == 65.0

    def test_t1_single_cell(self):
        assert t1_analytic(ScanConfig(1, 2.0)) == 2.0

    def test_t1_three_cells(self):
        # Enumerating positions {1, 2, 3} at 1 s each gives mean 2 s.
        assert t1_analytic(ScanConfig(3, 1.0)) == 2.0

    def test_t2_reference_value(self):
        assert abs(t2_analytic(REFERENCE_CFG) - 21.4) < 1e-12

    def test_t2_certain_candidate(self):
        cfg = ScanConfig(64, 2.0, 0.2, 1.0)
        assert abs(t2_analytic(cfg) - 2.2) < 1e-12

    def test_t2_hopeless_candidate(self):
        cfg = ScanConfig(64, 2.0, 0.2, 0.0)
        assert abs(t2_analytic(cfg) - 66.2) < 1e-12

    def test_t2_strictly_decreasing_in_ap(self):
        values = [
            t2_analytic(ScanConfig(64, 2.0, 0.2, ap / 20)) for ap in range(21)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_one_third_claim(self):
        assert t2_analytic(REFERENCE_CFG) / t1_analytic(REFERENCE_CFG) <= 1 / 3 + 0.01

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ts", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("td", [0.0, 0.2])
    def test_exhaustive_enumeration_matches_formulas(self, n, ts, td):
        assert abs(t1_analytic(ScanConfig(n, ts)) - float(expected_time_traditional(n, ts))) < 1e-12
        for ap in (0.0, 0.3, 0.7, 1.0):
            cfg = ScanConfig(n, ts, td, ap)
            assert abs(t2_analytic(cfg) - float(expected_time_guided(n, ts, td, ap))) < 1e-12


class TestBreakeven:
    def test_curves_cross_at_breakeven(self):
        ap_star, in_range = breakeven_ap(REFERENCE_CFG)
        assert in_range
        cfg = ScanConfig(64, 2.0, 0.2, ap_star)
        assert abs(t2_analytic(cfg) - t1_analytic(cfg)) < 1e-12

    def test_reference_value(self):
        # (T_d + T_s/2) / (N * T_s / 2) = (0.2 + 1.0) / 64 = 0.01875.
        ap_star, _ = breakeven_ap(REFERENCE_CFG)
        assert abs(ap_star - 0.01875) < 1e-12

    def test_zero_detect_time(self):
        cfg = ScanConfig(64, 2.0, 0.0, 0.0)
        ap_star, in_range = breakeven_ap(cfg)
        assert in_range
        assert ap_star == 1 / 64
        assert t2_analytic(ScanConfig(64, 2.0, 0.0, ap_star)) == t1_analytic(cfg)

    def test_brackets_the_crossing(self):
        ap_star, _ = breakeven_ap(REFERENCE_CFG)
        below = ScanConfig(64, 2.0, 0.2, ap_star - 0.01)
        above = ScanConfig(64, 2.0, 0.2, ap_star + 0.01)
        assert t2_analytic(below) > t1_analytic(below)
        assert t2_analytic(above) < t1_analytic(above)

    def test_clamped_when_detection_too_slow(self):
        ap_star, in_range = breakeven_ap(ScanConfig(4, 1.0, 100.0, 0.0))
        assert ap_star == 1.0
        assert not in_range

    def test_requires_two_cells(self):
        with pytest.raises(UsageError):
            breakeven_ap(ScanConfig(1, 2.0))


class TestScanConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_cells=0, t_scan_s=1.0),
            dict(n_cells=4, t_scan_s=0.0),
            dict(n_cells=4, t_scan_s=1.0, t_detect_s=-1.0),
            dict(n_cells=4, t_scan_s=1.0, ap=1.5),
            dict(n_cells=4, t_scan_s=float("nan")),
            dict(n_cells=4, t_scan_s=float("inf")),
            dict(n_cells=4, t_scan_s=1.0, t_detect_s=float("nan")),
            dict(n_cells=4, t_scan_s=1.0, t_detect_s=float("inf")),
            dict(n_cells=4, t_scan_s=1.0, ap=float("nan")),
            dict(n_cells=64, t_scan_s=1e308),
            dict(n_cells=1, t_scan_s=1e308, t_detect_s=1e308),
            dict(n_cells=10**400, t_scan_s=1.0),
            # All integers: the sum is an exact int too large for a float.
            dict(n_cells=10**400, t_scan_s=2, t_detect_s=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            ScanConfig(**kwargs)

    @pytest.mark.parametrize("n_cells", [2.5, 2.0, float("nan")])
    def test_rejects_non_integral_cell_count(self, n_cells):
        with pytest.raises(DomainError, match=f"n_cells must be an integer, got {n_cells}"):
            ScanConfig(n_cells, 1.0)

    @pytest.mark.parametrize("n_cells", ["4", None, [4]])
    def test_rejects_cell_count_of_another_type(self, n_cells):
        # The type is checked before n_cells is compared with 1.
        with pytest.raises(DomainError) as e:
            ScanConfig(n_cells, 1.0)
        assert str(e.value) == f"n_cells must be an integer, got {n_cells!r}"

    def test_accepts_numpy_integer_cell_count(self):
        summary = simulate_traditional(ScanConfig(np.int64(4), 1.0), rng_seed=0, trials=10)
        assert summary.analytic_time_s == 2.5


class TestSimulateTraditional:
    def test_single_cell_is_exact(self):
        summary = simulate_traditional(ScanConfig(1, 2.0), rng_seed=1, trials=5000)
        assert summary.mean_time_s == 2.0
        assert summary.stderr_s == 0.0

    def test_deterministic_for_fixed_seed(self):
        a = simulate_traditional(REFERENCE_CFG, rng_seed=99, trials=50_000)
        b = simulate_traditional(REFERENCE_CFG, rng_seed=99, trials=50_000)
        assert a == b

    def test_seed_changes_outcome(self):
        a = simulate_traditional(REFERENCE_CFG, rng_seed=1, trials=50_000)
        b = simulate_traditional(REFERENCE_CFG, rng_seed=2, trials=50_000)
        assert a.mean_time_s != b.mean_time_s

    def test_zero_trials_rejected(self):
        with pytest.raises(UsageError):
            simulate_traditional(REFERENCE_CFG, rng_seed=1, trials=0)

    def test_spans_batch_boundary(self):
        summary = simulate_traditional(REFERENCE_CFG, rng_seed=5, trials=70_000)
        assert summary.trials == 70_000
        assert abs(summary.mean_time_s - 65.0) <= 4 * summary.stderr_s + 1e-9


class TestSimulateGuided:
    def test_certain_candidate_is_exact(self):
        cfg = ScanConfig(8, 2.0, 0.25, 1.0)
        summary = simulate_guided(cfg, rng_seed=1, trials=5000)
        assert summary.mean_time_s == pytest.approx(2.25, abs=1e-9)
        assert summary.stderr_s == pytest.approx(0.0, abs=1e-12)

    def test_hopeless_candidate_matches_formula(self):
        cfg = ScanConfig(64, 2.0, 0.2, 0.0)
        summary = simulate_guided(cfg, rng_seed=3, trials=200_000)
        assert abs(summary.mean_time_s - 66.2) <= 4 * summary.stderr_s + 1e-9

    def test_deterministic_for_fixed_seed(self):
        a = simulate_guided(REFERENCE_CFG, rng_seed=7, trials=50_000)
        b = simulate_guided(REFERENCE_CFG, rng_seed=7, trials=50_000)
        assert a == b

    def test_rejects_single_cell(self):
        with pytest.raises(UsageError):
            simulate_guided(ScanConfig(1, 2.0), rng_seed=1, trials=10)

    def test_zero_trials_rejected(self):
        with pytest.raises(UsageError):
            simulate_guided(REFERENCE_CFG, rng_seed=1, trials=0)

    @pytest.mark.parametrize(
        "cfg",
        [ScanConfig(64, 1e-3, 1e6, 0.7), ScanConfig(16, 1e-2, 1e8, 0.7)],
        ids=["td-1e6", "td-1e8"],
    )
    def test_stderr_exact_when_detection_time_dominates(self, cfg):
        # A sum of squared full times cancels when T_d >> N * T_s; the
        # reference is the two-pass standard error, in long double, of the
        # simulator's own draws.
        trials = 10**6
        times = []
        for batch, start in enumerate(range(0, trials, 1 << 16)):
            size = min(1 << 16, trials - start)
            rng = scanning._batch_rng(3, batch)
            correct = rng.random(size) < cfg.ap
            scans = np.where(correct, 1, 1 + rng.integers(1, cfg.n_cells, size=size))
            times.append(np.longdouble(cfg.t_detect_s) + scans * np.longdouble(cfg.t_scan_s))
        dev = np.concatenate(times)
        dev -= dev.mean()
        exact = float(np.sqrt(dev @ dev / (trials - 1) / trials))
        summary = simulate_guided(cfg, rng_seed=3, trials=trials)
        assert summary.stderr_s == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("simulate", [simulate_traditional, simulate_guided])
class TestSimulationLimits:
    def test_negative_seed_rejected(self, simulate):
        with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
            simulate(REFERENCE_CFG, rng_seed=-1, trials=10)

    def test_cells_past_int64_rejected(self, simulate):
        with pytest.raises(UsageError, match=r"n_cells < 2\*\*63"):
            simulate(ScanConfig(2**63, 1.0), rng_seed=1, trials=10)
        assert simulate(ScanConfig(2**63 - 1, 1.0), rng_seed=1, trials=10).trials == 10

    def test_overflowing_squares_rejected(self, simulate):
        with pytest.raises(DomainError, match="overflow"):
            simulate(ScanConfig(64, 1e200), rng_seed=1, trials=10)

    @staticmethod
    def _forbid_draws(monkeypatch):
        def must_not_run(*args):  # a run past the bound would take hours, not fail
            raise AssertionError("drew a batch")

        monkeypatch.setattr(scanning, "_batch_rng", must_not_run)

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12])
    def test_trial_count_is_bounded(self, simulate, trials, monkeypatch):
        assert MAX_TRIALS == 10**9
        self._forbid_draws(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(UsageError) as e:
            # The trial count is checked before the seed.
            simulate(REFERENCE_CFG, rng_seed=-1, trials=trials)
        assert time.perf_counter() - start < 1.0
        assert str(e.value) == f"trials must be <= {MAX_TRIALS} per strategy, got {trials}"

    @pytest.mark.parametrize(
        "seed, trials, message",
        [
            (2.5, 10, "seed must be an integer, got 2.5"),
            ("1", 10, "seed must be an integer, got '1'"),
            (1, 2.5, "trials must be an integer, got 2.5"),
            (1, 10.0, "trials must be an integer, got 10.0"),
            # The trial count is read before the seed, as it is checked first.
            (-1, 2.5, "trials must be an integer, got 2.5"),
            (2.5, 0, "trials must be >= 1, got 0"),
        ],
    )
    def test_non_integer_run_arguments_rejected(self, simulate, seed, trials, message):
        with pytest.raises(UsageError) as e:
            simulate(REFERENCE_CFG, rng_seed=seed, trials=trials)
        assert str(e.value) == message

    def test_numpy_integer_run_arguments_accepted(self, simulate):
        summary = simulate(REFERENCE_CFG, rng_seed=np.uint32(7), trials=np.int64(1000))
        assert summary == simulate(REFERENCE_CFG, rng_seed=7, trials=1000)
        assert type(summary.trials) is int

    def test_trial_bound_is_inclusive(self, simulate, monkeypatch):
        self._forbid_draws(monkeypatch)
        with pytest.raises(AssertionError, match="drew a batch"):
            simulate(REFERENCE_CFG, rng_seed=1, trials=MAX_TRIALS)


class TestMonteCarloAgreesWithAnalytic:
    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("ts", [1.0, 2.0])
    def test_traditional_grid(self, n, ts):
        cfg = ScanConfig(n, ts)
        summary = simulate_traditional(cfg, rng_seed=1234, trials=100_000)
        assert summary.analytic_time_s == t1_analytic(cfg)
        assert abs(summary.mean_time_s - summary.analytic_time_s) <= 4 * summary.stderr_s + 1e-9

    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("td", [0.0, 0.2])
    @pytest.mark.parametrize("ap", [0.0, 0.3, 0.7, 1.0])
    def test_guided_grid(self, n, td, ap):
        cfg = ScanConfig(n, 2.0, td, ap)
        summary = simulate_guided(cfg, rng_seed=4321, trials=100_000)
        assert summary.analytic_time_s == t2_analytic(cfg)
        assert abs(summary.mean_time_s - summary.analytic_time_s) <= 4 * summary.stderr_s + 1e-9


def _scans(cfg, candidates, true_cells):
    """Cells scanned in the episode, from its time t_detect_s + k * t_scan_s."""
    summary = simulate_guided_multi(cfg, candidates, true_cells, rng_seed=0, trials=1)
    k = round((summary.mean_time_s - cfg.t_detect_s) / cfg.t_scan_s)
    assert summary.mean_time_s == cfg.t_detect_s + k * cfg.t_scan_s
    return k


class TestGuidedMulti:
    def test_candidate_is_true_cell(self):
        assert _scans(REFERENCE_CFG, [12], {12}) == 1

    @pytest.mark.parametrize("trials", [2.5, "1", None])
    def test_non_integer_trial_count_rejected(self, trials):
        with pytest.raises(UsageError) as e:
            simulate_guided_multi(REFERENCE_CFG, [1], {2}, rng_seed=0, trials=trials)
        assert str(e.value) == f"trials must be an integer, got {trials!r}"

    def test_numpy_integer_trial_count_accepted(self):
        summary = simulate_guided_multi(REFERENCE_CFG, [1], {2}, rng_seed=0, trials=np.int64(3))
        assert summary == simulate_guided_multi(REFERENCE_CFG, [1], {2}, rng_seed=0, trials=3)

    def test_second_candidate_hits(self):
        assert _scans(REFERENCE_CFG, [5, 9], {9}) == 2

    def test_candidate_hit_precedes_remainder(self):
        assert _scans(REFERENCE_CFG, [3], {3, 0}) == 1

    def test_remainder_scanned_in_ascending_order(self):
        cfg = ScanConfig(4, 1.0, 0.5)
        # Scan order with candidate 2 is [2, 0, 1, 3].
        assert _scans(cfg, [2], {0}) == 2
        assert _scans(cfg, [2], {1}) == 3
        assert _scans(cfg, [2], {3}) == 4

    def test_remainder_skips_every_candidate(self):
        cfg = ScanConfig(8, 1.0)
        # Scan order with candidates [5, 1, 6] is [5, 1, 6, 0, 2, 3, 4, 7].
        assert [_scans(cfg, [5, 1, 6], {t}) for t in (0, 2, 3, 4, 7)] == [4, 5, 6, 7, 8]

    def test_disjoint_candidates_mean_matches_enumeration(self):
        # Receiver uniform over the non-candidate cells of a 4-cell grid:
        # positions 2, 3, 4 after the wasted candidate, mean 3 scans.
        cfg = ScanConfig(4, 1.0, 0.5)
        elapsed = [
            simulate_guided_multi(cfg, [2], {t}, rng_seed=0, trials=1).mean_time_s
            for t in (0, 1, 3)
        ]
        assert sum(elapsed) / 3 == cfg.t_detect_s + 3 * cfg.t_scan_s

    def test_multiple_true_cells_first_hit_ends_trial(self):
        cfg = ScanConfig(8, 1.0)
        # Order: [6, 0, 1, 2, 3, 4, 5, 7]; true cells {4, 7} -> 4 found 6th.
        assert _scans(cfg, [6], {4, 7}) == 6

    def test_summary_wraps_deterministic_trial(self):
        summary = simulate_guided_multi(REFERENCE_CFG, [5, 9], {9}, rng_seed=1, trials=100)
        assert summary.trials == 100
        assert summary.mean_time_s == REFERENCE_CFG.t_detect_s + 2 * REFERENCE_CFG.t_scan_s
        assert summary.stderr_s == 0.0
        assert summary.analytic_time_s is None

    @pytest.mark.parametrize(
        "candidates,true_cells",
        [([], {1}), ([1, 1], {2}), ([99], {1}), ([1], set()), ([1], {99})],
    )
    def test_bad_inputs_rejected(self, candidates, true_cells):
        with pytest.raises(UsageError):
            simulate_guided_multi(ScanConfig(8, 1.0), candidates, true_cells, rng_seed=0, trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(UsageError):
            simulate_guided_multi(REFERENCE_CFG, [1], {1}, rng_seed=1, trials=0)


class TestSimulationSummary:
    SUMMARY = SimulationSummary(10, 21.4, 0.25, 21.4)

    def test_record_semantics(self):
        s = self.SUMMARY
        assert repr(s) == (
            "SimulationSummary(trials=10, mean_time_s=21.4, stderr_s=0.25, analytic_time_s=21.4)"
        )
        assert s == SimulationSummary(10, 21.4, 0.25, 21.4) == (10, 21.4, 0.25, 21.4)
        assert hash(s) == hash(SimulationSummary(10, 21.4, 0.25, 21.4))
        with pytest.raises(AttributeError):
            s.trials = 11
        for clone in (pickle.loads(pickle.dumps(s)), copy.copy(s)):
            assert type(clone) is SimulationSummary and clone == s
