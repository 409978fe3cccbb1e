"""The batched Monte Carlo simulators as they were before the shared batch loop.

Kept verbatim as a test oracle: each strategy has its own loop, the guided
one selects scan counts with ``np.where``, and ``_summarize`` takes the
spread from the running sums of the full times and of their squares.
``rbcscan.scanning.simulate_traditional`` and ``simulate_guided`` must give
the same ``trials``, ``mean_time_s`` and ``analytic_time_s`` and the same
errors as these, and a ``stderr_s`` that agrees up to this ``_summarize``'s
rounding.
"""

from __future__ import annotations

import math

import numpy as np

from rbcscan.errors import DomainError, UsageError
from rbcscan.scanning import (
    ScanConfig,
    SimulationSummary,
    _batch_rng,
    _batch_sizes,
    _check_run,
    t1_analytic,
    t2_analytic,
)


def _summarize(total: float, total_sq: float, trials: int, analytic: float | None) -> SimulationSummary:
    if not (math.isfinite(total) and math.isfinite(total_sq)):
        raise DomainError(
            f"simulated times overflow: the sum of {trials} times or of their squares "
            "is not a finite float"
        )
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    else:
        var = 0.0
    return SimulationSummary(
        trials=trials,
        mean_time_s=mean,
        stderr_s=math.sqrt(var / trials),
        analytic_time_s=analytic,
    )


def simulate_traditional(cfg: ScanConfig, rng_seed: int, trials: int) -> SimulationSummary:
    """Monte Carlo estimate of the exhaustive-scan localization time.

    Per trial the receiver's cell is uniform over the N scan positions and
    the scan stops on reaching it, costing position * T_s. Deterministic
    for a fixed seed.
    """
    _check_run(cfg, rng_seed, trials)
    total = 0.0
    total_sq = 0.0
    for batch_index, size in enumerate(_batch_sizes(trials)):
        rng = _batch_rng(rng_seed, batch_index)
        cells = rng.integers(1, cfg.n_cells + 1, size=size)
        elapsed = cells * cfg.t_scan_s
        total += float(elapsed.sum())
        with np.errstate(over="ignore"):  # _summarize reports an overflow
            total_sq += float(np.square(elapsed).sum())
    return _summarize(total, total_sq, trials, t1_analytic(cfg))


def simulate_guided(cfg: ScanConfig, rng_seed: int, trials: int) -> SimulationSummary:
    """Monte Carlo estimate of the detection-guided localization time.

    Per trial: detection costs T_d and is correct with probability AP
    (one scan); on a miss the receiver is uniform over the other N - 1
    cells scanned in fixed order, costing 1 + k scans with k uniform on
    {1..N-1}. Each batch draws the correctness uniforms first, then the
    miss offsets (the latter are discarded for correct trials).
    """
    _check_run(cfg, rng_seed, trials)
    if cfg.n_cells < 2:
        raise UsageError(f"guided scanning requires n_cells >= 2, got {cfg.n_cells}")
    total = 0.0
    total_sq = 0.0
    for batch_index, size in enumerate(_batch_sizes(trials)):
        rng = _batch_rng(rng_seed, batch_index)
        correct = rng.random(size) < cfg.ap
        miss_offset = rng.integers(1, cfg.n_cells, size=size)
        cells = np.where(correct, 1, 1 + miss_offset)
        elapsed = cfg.t_detect_s + cells * cfg.t_scan_s
        total += float(elapsed.sum())
        with np.errstate(over="ignore"):  # _summarize reports an overflow
            total_sq += float(np.square(elapsed).sum())
    return _summarize(total, total_sq, trials, t2_analytic(cfg))
