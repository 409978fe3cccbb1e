"""Expected scan time for receiver localization: analytic and Monte Carlo.

Two strategies are modeled. The traditional strategy scans the N cells of
the coverage grid in a fixed order until the receiver answers, so with the
receiver uniformly placed the expected time is (1 + N) * T_s / 2. The
detection-guided strategy first spends T_d on a camera detection that
names a candidate cell, correct with probability AP; a hit costs one scan,
a miss falls back to the remaining N - 1 cells in fixed order, giving
T_d + AP * T_s + (1 - AP) * (1 + N / 2) * T_s.

Simulations draw from numpy's PCG64. Trials are processed in batches of
65536; batch b of a run seeded with s uses the stream
SeedSequence(entropy=s, spawn_key=(b,)), so batches may be computed
concurrently and merged in batch order with results bit-identical to a
sequential run. Both strategies share one batch loop: the mean comes from
the full times (T_d plus the scans), the standard error from the scan
times alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import DomainError, UsageError, checked, number, shown

# For annotations only: the functions that compute with arrays import numpy
# themselves, so `import rbcscan` does not load it.
if TYPE_CHECKING:
    import numpy as np

_BATCH_TRIALS = 1 << 16
#: Most Monte Carlo trials per strategy a run may take: both strategies then
#: run in about half a minute on two cores, not for hours with no output.
MAX_TRIALS = 10**9
#: Cell positions are drawn as int64.
_MAX_CELLS = 1 << 63


@checked
class ScanConfig(NamedTuple):
    """Grid size and timing constants for one localization setup.

    ``ap`` is the probability that the detector's candidate cell actually
    contains the receiver, applied per episode.
    """

    n_cells: int
    t_scan_s: float
    t_detect_s: float = 0.0
    ap: float = 0.0

    def _new(cls, n_cells, t_scan_s, t_detect_s, ap):
        # Stored as an int: numpy integer arithmetic would wrap past 2**63.
        n_cells = number(n_cells, "n_cells", DomainError, ">= 1", integral=True)
        number(t_scan_s, "t_scan_s", DomainError, "finite and > 0")
        number(t_detect_s, "t_detect_s", DomainError, "finite and >= 0")
        number(ap, "ap", DomainError, "within [0, 1]")
        # The longest scan plus detection bounds every time computed from it;
        # from integers it is an exact int, which may not fit a float.
        try:
            longest = float(t_detect_s + (1 + n_cells) * t_scan_s)
        except OverflowError:
            longest = math.inf
        if not math.isfinite(longest):
            raise DomainError(
                "scan times overflow: t_detect_s + (1 + n_cells) * t_scan_s is not finite"
            )
        return tuple.__new__(cls, (n_cells, t_scan_s, t_detect_s, ap))


class SimulationSummary(NamedTuple):
    """Aggregate of repeated trials, paired with the analytic expectation.

    ``mean_time_s`` is the mean of the full times, detection included;
    ``stderr_s`` is the standard error of the scan times (scan count * T_s),
    which have the same spread without T_d's cancellation.
    ``analytic_time_s`` is None where no closed form exists (multi-candidate
    scans).
    """

    trials: int
    mean_time_s: float
    stderr_s: float
    analytic_time_s: float | None


def t1_analytic(cfg: ScanConfig) -> float:
    """Expected localization time for the exhaustive scan: (1 + N) * T_s / 2."""
    return (1 + cfg.n_cells) * cfg.t_scan_s / 2


def t2_analytic(cfg: ScanConfig) -> float:
    """Expected localization time for the detection-guided scan.

    T_d + AP * T_s + (1 - AP) * (1 + N / 2) * T_s; meaningful for N >= 2,
    where the miss branch has somewhere left to fall back to.
    """
    return (
        cfg.t_detect_s
        + cfg.ap * cfg.t_scan_s
        + (1 - cfg.ap) * (1 + cfg.n_cells / 2) * cfg.t_scan_s
    )


def breakeven_ap(cfg: ScanConfig) -> tuple[float, bool]:
    """The AP at which the guided strategy's expected time equals the traditional one.

    Solves t2_analytic = t1_analytic for AP. Returns (value, in_range):
    the value is clamped to [0, 1] and in_range is False when the true
    solution lies outside that interval (detection overhead so large that
    guiding never pays off at any achievable AP).
    """
    if cfg.n_cells < 2:
        raise UsageError(f"breakeven_ap requires n_cells >= 2, got {cfg.n_cells}")
    denom = cfg.n_cells * cfg.t_scan_s / 2
    raw = (
        cfg.t_detect_s
        + (1 + cfg.n_cells / 2) * cfg.t_scan_s
        - (1 + cfg.n_cells) * cfg.t_scan_s / 2
    ) / denom
    clamped = min(1.0, max(0.0, raw))
    return clamped, clamped == raw


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    )


def _check_run(cfg: ScanConfig, rng_seed: int, trials: int) -> tuple[int, int]:
    """The seed and trial count as ints, once both pass the run's checks."""
    trials = number(trials, "trials", UsageError, ">= 1", integral=True)
    if trials > MAX_TRIALS:
        raise UsageError(f"trials must be <= {MAX_TRIALS} per strategy, got {shown(trials)}")
    rng_seed = number(rng_seed, "seed", UsageError, ">= 0", integral=True)
    if cfg.n_cells >= _MAX_CELLS:
        raise UsageError(f"simulation needs n_cells < 2**63, got {cfg.n_cells}")
    return rng_seed, trials


def _batch_sizes(trials: int) -> Iterable[int]:
    full, rest = divmod(trials, _BATCH_TRIALS)
    for _ in range(full):
        yield _BATCH_TRIALS
    if rest:
        yield rest


def _traditional_scans(rng: np.random.Generator, size: int, cfg: ScanConfig) -> np.ndarray:
    return rng.integers(1, cfg.n_cells + 1, size=size)


def _guided_scans(rng: np.random.Generator, size: int, cfg: ScanConfig) -> np.ndarray:
    missed = rng.random(size) >= cfg.ap
    scans = rng.integers(1, cfg.n_cells, size=size)
    # 1 + offset * missed: np.where on a random mask mispredicts a branch
    # per element, the multiply has none.
    scans *= missed
    scans += 1
    return scans


def _simulate(
    cfg: ScanConfig,
    rng_seed: int,
    trials: int,
    draw_scans: Callable[[np.random.Generator, int, ScanConfig], np.ndarray],
    t_detect_s: float,
    analytic: float,
) -> SimulationSummary:
    """Run the batches of one strategy, whose ``draw_scans`` gives each trial's scan count.

    A trial takes t_detect_s + scans * T_s. The mean is the sum of those
    full times over trials. The spread is taken from the scan counts: the
    constant t_detect_s does not change it, and at T_d >> N * T_s its
    square would swamp the variance in a running sum of squared times.
    """
    import numpy as np

    t_scan = cfg.t_scan_s
    total = 0.0
    count_sum = 0.0
    count_sq = 0.0
    with np.errstate(over="ignore"):  # the check below reports an overflow
        for batch_index, size in enumerate(_batch_sizes(trials)):
            counts = draw_scans(_batch_rng(rng_seed, batch_index), size, cfg).astype(np.float64)
            count_sum += float(counts.sum())
            # einsum, not np.dot: a BLAS dot of this size wakes BLAS threads.
            count_sq += float(np.einsum("i,i->", counts, counts))
            times = np.multiply(counts, t_scan, out=counts)
            if t_detect_s:
                times += t_detect_s
            total += float(times.sum())
    # The run must keep the sum of squared full times finite (the documented
    # overflow bound), though the spread no longer uses it.
    total_sq = count_sq * t_scan * t_scan + t_detect_s * (
        2 * t_scan * count_sum + trials * t_detect_s
    )
    if not (math.isfinite(total) and math.isfinite(total_sq)):
        raise DomainError(
            f"simulated times overflow: the sum of {trials} times or of their squares "
            "is not a finite float"
        )
    if trials > 1:
        var = max(0.0, (count_sq - count_sum * (count_sum / trials)) / (trials - 1))
    else:
        var = 0.0
    return SimulationSummary(
        trials=trials,
        mean_time_s=total / trials,
        stderr_s=t_scan * math.sqrt(var / trials),
        analytic_time_s=analytic,
    )


def simulate_traditional(cfg: ScanConfig, rng_seed: int, trials: int) -> SimulationSummary:
    """Monte Carlo estimate of the exhaustive-scan localization time.

    Per trial the receiver's cell is uniform over the N scan positions and
    the scan stops on reaching it, costing position * T_s. Deterministic
    for a fixed seed.
    """
    rng_seed, trials = _check_run(cfg, rng_seed, trials)
    return _simulate(cfg, rng_seed, trials, _traditional_scans, 0.0, t1_analytic(cfg))


def simulate_guided(cfg: ScanConfig, rng_seed: int, trials: int) -> SimulationSummary:
    """Monte Carlo estimate of the detection-guided localization time.

    Per trial: detection costs T_d and is correct with probability AP
    (one scan); on a miss the receiver is uniform over the other N - 1
    cells scanned in fixed order, costing 1 + k scans with k uniform on
    {1..N-1}. Each batch draws the correctness uniforms first, then the
    miss offsets (the latter are discarded for correct trials).
    """
    rng_seed, trials = _check_run(cfg, rng_seed, trials)
    if cfg.n_cells < 2:
        raise UsageError(f"guided scanning requires n_cells >= 2, got {cfg.n_cells}")
    return _simulate(cfg, rng_seed, trials, _guided_scans, cfg.t_detect_s, t2_analytic(cfg))


def simulate_guided_multi(
    cfg: ScanConfig,
    candidate_cells: Sequence[int],
    true_cells: Iterable[int],
    rng_seed: int,
    trials: int,
) -> SimulationSummary:
    """Repeated multi-candidate episodes with fixed candidates and receivers.

    Cells are 0-based row-major indices. The candidates are scanned in list
    order, then the remaining cells in ascending index order; an episode
    ends at the first cell that holds a receiver, and detection time is
    charged once. With both sets fixed every episode is identical, so the
    mean equals the single-episode time and the spread is zero; no closed
    form is reported. ``rng_seed`` draws nothing but is checked as a seed,
    and stays because the benchmark's pipeline operation passes it.

    A single candidate, the only shape the detector pipeline produces, takes
    a loop-free path: rank 1 on a hit, else 2 + t - (c < t) for the lowest
    true cell t. Longer lists take the general path.
    """
    if not (type(trials) is int and trials >= 1 and type(rng_seed) is int and rng_seed >= 0):
        trials = number(trials, "trials", UsageError, ">= 1", integral=True)
        number(rng_seed, "seed", UsageError, ">= 0", integral=True)
    n = cfg.n_cells
    if not candidate_cells:
        raise UsageError("candidate_cells must be non-empty")
    if len(candidate_cells) > 1 and len(set(candidate_cells)) != len(candidate_cells):
        raise UsageError(f"candidate_cells must be distinct, got {shown(list(candidate_cells))}")
    for c in candidate_cells:
        if not 0 <= c < n:
            raise UsageError(f"candidate cell {shown(c, str)} outside grid of {n} cells")
    tset = set(true_cells)
    if not tset:
        raise UsageError("true_cells must be non-empty")
    # A loop, not min()/max(): every comparison with NaN is False, so only
    # a test of each cell rejects a NaN among valid ones.
    for t in tset:
        if not 0 <= t < n:
            raise UsageError(f"true cell {shown(t, str)} outside grid of {n} cells")
    if len(candidate_cells) == 1:
        # c is the one candidate, bound by the check above. A miss ranks as
        # in the general formula below, its float operations in that order.
        rank = 1
        if c not in tset:
            t = min(tset)
            rank = 1 + t + 1 - (c < t)
    else:
        for rank, c in enumerate(candidate_cells, start=1):
            if c in tset:
                break
        else:
            # No candidate held a receiver, so the lowest true cell t is
            # reached first in the ascending remainder: at rank t + 1 less
            # the candidates below it, after all the candidates.
            t = min(tset)
            rank = len(candidate_cells) + t + 1 - len([c for c in candidate_cells if c < t])
    # tuple.__new__, not the constructor: this runs once per pipeline
    # episode, and the generated constructor costs about twice as much.
    return tuple.__new__(
        SimulationSummary, (trials, cfg.t_detect_s + rank * cfg.t_scan_s, 0.0, None)
    )
