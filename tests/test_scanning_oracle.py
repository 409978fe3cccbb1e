"""Property tests: the shared-loop simulators against the per-strategy oracle.

``legacy_scanning`` holds ``simulate_traditional``, ``simulate_guided`` and
``_summarize`` as they were before the batch loop was shared. Inputs are
drawn to hit the cases where the rewrite could drift: trial counts on
either side of the 65536-trial batch edge, grids from 2 cells to 2**62,
AP of exactly 0 or 1, seeds up to 2**63, and detection times from 0 to far
above the scan times.

The oracle takes its variance from running sums of squared full times, so
its own rounding puts a floor under the variances it can resolve: about
1e-13 * mean**2 for these batch counts (a few hundred float64 epsilons,
summed pairwise within a batch and in order across four). The spread is
compared there as a variance, to 2e-9 relative (1e-9 on the standard
error) above that floor.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import legacy_scanning as legacy
from rbcscan.errors import RbcScanError
from rbcscan.scanning import ScanConfig, simulate_guided, simulate_traditional

#: Legacy variance error, relative to the squared mean (see the module docstring).
LEGACY_VARIANCE_FLOOR = 1e-13

_TRIALS = st.sampled_from([1, 2, 65535, 65536, 65537, 3 * 65536 + 1])
_STRATEGIES = st.sampled_from(
    [
        (simulate_traditional, legacy.simulate_traditional),
        (simulate_guided, legacy.simulate_guided),
    ]
)


def _outcome(fn, *args):
    """The value a call returns, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except RbcScanError as e:
        return type(e), str(e)


def _legacy_outcome(fn, *args):
    # The legacy loops sum the times outside their np.errstate, so an
    # overflowing sum would warn before their overflow check raises.
    with np.errstate(over="ignore"):
        return _outcome(fn, *args)


@given(
    strategy=_STRATEGIES,
    n_cells=st.one_of(st.integers(2, 70), st.integers(2, 2**62)),
    ap=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    t_scan_s=st.floats(1e-3, 1e3),
    t_detect_s=st.one_of(st.just(0.0), st.floats(0.0, 1e9)),
    seed=st.integers(0, 2**63),
    trials=_TRIALS,
)
def test_simulators_match_legacy(strategy, n_cells, ap, t_scan_s, t_detect_s, seed, trials):
    simulate, oracle = strategy
    cfg = ScanConfig(n_cells, t_scan_s, t_detect_s, ap)
    got = simulate(cfg, seed, trials)
    want = oracle(cfg, seed, trials)
    assert got.trials == want.trials
    assert got.mean_time_s == want.mean_time_s
    assert got.analytic_time_s == want.analytic_time_s
    var_got = got.stderr_s**2 * trials
    var_want = want.stderr_s**2 * trials
    floor = LEGACY_VARIANCE_FLOOR * want.mean_time_s**2
    event("spread above the legacy floor" if var_want > floor else "spread at the legacy floor")
    assert abs(var_got - var_want) <= 2e-9 * var_want + floor


@pytest.mark.parametrize(
    "kind", ["seed", "trials", "one-cell", "cells", "scan-overflow", "detect-overflow"]
)
@settings(max_examples=10)
@given(data=st.data())
def test_rejections_match_legacy(kind, data):
    simulate, oracle = data.draw(_STRATEGIES)
    n_cells, t_scan_s, t_detect_s = data.draw(st.integers(2, 70)), 1.0, 0.0
    seed, trials = data.draw(st.integers(0, 2**63)), data.draw(_TRIALS)
    if kind == "seed":
        seed = data.draw(st.integers(-(2**63), -1))
    elif kind == "trials":
        trials = data.draw(st.integers(-3, 0))
    elif kind == "one-cell":
        # A single cell is a valid exhaustive scan.
        simulate, oracle, n_cells = simulate_guided, legacy.simulate_guided, 1
    elif kind == "cells":
        n_cells = data.draw(st.integers(2**63, 2**70))
    elif kind == "scan-overflow":
        t_scan_s = data.draw(st.floats(1e155, 1e306))
    else:
        # The exhaustive scan spends no detection time.
        simulate, oracle = simulate_guided, legacy.simulate_guided
        t_detect_s = data.draw(st.floats(1e155, 1e307))
    cfg = ScanConfig(n_cells, t_scan_s, t_detect_s, data.draw(st.sampled_from([0.0, 0.7, 1.0])))
    want = _legacy_outcome(oracle, cfg, seed, trials)
    assert isinstance(want, tuple)
    assert _outcome(simulate, cfg, seed, trials) == want
