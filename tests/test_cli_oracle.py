"""Value properties of the ``analytic`` and ``geometry`` tables.

Each runs ``cli.main`` in-process on valid inputs drawn at random and
compares every CSV cell with an exact oracle from ``oracles``: the closed
forms and the AP grid for ``analytic``; the pinhole projection rounded half
to even, and the two detectability thresholds, for ``geometry``. A number
printed to 12 significant digits must lie within half a unit of its twelfth
digit of the exact value; the slack left over covers the float arithmetic.
"""

import contextlib
import csv
import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbcscan.cli import main


def _table(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return list(csv.reader(io.StringIO(out.getvalue())))


def _value(cell):
    return Fraction(Decimal(cell))


def _near12(cell, exact):
    """Whether ``cell`` is ``exact`` to the CSV's 12 significant digits."""
    if exact == 0:
        return _value(cell) == 0
    with localcontext() as ctx:
        ctx.prec = 40
        digit = (Decimal(exact.numerator) / Decimal(exact.denominator)).adjusted()
    return abs(_value(cell) - exact) <= Fraction(51, 100) * Fraction(10) ** (digit - 11)


def test_closed_forms_are_the_enumerated_expectations():
    for n in (2, 3, 17):
        for ts, td, ap in ((2.0, 0.2, 0.7), (0.1, 0.0, 0.3), (1e3, 5e2, 1.0)):
            assert oracles.scan_times(n, ts, td, ap) == (
                oracles.expected_time_traditional(n, ts),
                oracles.expected_time_guided(n, ts, td, ap),
            )
            t1, t2 = oracles.scan_times(n, ts, td, oracles.breakeven(n, ts, td))
            assert t1 == t2


@st.composite
def _sweeps(draw):
    """Valid ``analytic`` options: steps down to 1e-7, a stop that falls
    between two grid points, and detection times on both sides of the
    breakeven's clamp."""
    n = draw(st.integers(2, 10**6))
    ts = draw(st.floats(1e-3, 1e3))
    td = ts * n * draw(st.floats(0, 1))
    step = draw(st.floats(1, 10)) * 10.0 ** draw(st.integers(-7, -1))
    rows = min(draw(st.integers(0, 30)), math.floor(1 / step) - 1)
    start = draw(st.floats(0, 1)) * (1 - (rows + 1) * step)
    stop = start + (rows + draw(st.floats(0.1, 0.9))) * step
    return n, ts, td, start, stop, step


@settings(max_examples=30)  # each example builds the argument parser afresh
@given(sweep=_sweeps())
def test_analytic_rows_are_the_closed_forms(sweep):
    n, ts, td, start, stop, step = sweep
    argv = ["analytic", "--n-cells", str(n), "--t-scan", repr(ts), "--t-detect", repr(td),
            "--ap-start", repr(start), "--ap-stop", repr(stop), "--ap-step", repr(step)]
    header, *curve, last = _table(argv)
    assert header == ["kind", "ap", "t1_s", "t2_s"]
    grid = oracles.ap_grid(start, stop, step)
    assert [row[0] for row in curve] == ["curve"] * len(grid)
    t1 = oracles.scan_times(n, ts, td, 0)[0]
    for row, ap in zip(curve, grid):
        assert abs(_value(row[1]) - ap) <= Fraction(1, 10**10), (row, ap)
        assert _near12(row[2], t1), (row, t1)
        # T2 at the AP the row prints, the float the table computed with.
        assert _near12(row[3], oracles.scan_times(n, ts, td, float(row[1]))[1]), row
    raw = oracles.breakeven(n, ts, td)
    if abs(raw - 1) > Fraction(1, 10**9):
        assert last[0] == ("breakeven" if raw < 1 else "breakeven_clamped"), (last, raw)
    assert _near12(last[2], t1), last
    if last[0] == "breakeven":
        # The table takes the AP from a difference of two times near N T_s / 2.
        rounding = (Fraction(td) + (1 + n) * Fraction(ts)) / (n * Fraction(ts) / 2) / 10**15
        assert _near12(last[1], raw) or abs(_value(last[1]) - raw) <= rounding, (last, raw)
        assert _near12(last[3], t1), last
    else:
        assert last[0] == "breakeven_clamped" and last[1] == "1", last
        assert _near12(last[3], oracles.scan_times(n, ts, td, 1)[1]), last


@st.composite
def _geometry_options(draw):
    """Valid ``geometry`` options, and the exact focal length they give.

    Either every projection is exactly k + 1/2 (odd focal length and sizes,
    distance 2, the reference resolution), which pins the tie rule, or the
    focal length, sizes and distances are arbitrary floats, so projections
    are not integers. Thresholds are multiples of the first row's sizes,
    exactly those sizes included."""
    aspect = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    m = draw(st.integers(1, 100))
    ref = aspect[0] * m, aspect[1] * m
    exact = draw(st.booleans())
    if exact:
        focal = float(2 * draw(st.integers(0, 2000)) + 1)
        sizes = [float(2 * draw(st.integers(0, 50)) + 1) for _ in "wh"]
        distances, scales = [2.0], [m]
        focal_args, focal_exact = ["--focal-px", repr(focal)], Fraction(focal)
    else:
        sizes = [draw(st.floats(0.5, 100)) for _ in "wh"]
        distances = draw(st.lists(st.floats(1, 1e4), min_size=1, max_size=4))
        scales = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4))
        mode = draw(st.sampled_from(["focal", "calibrate", "reference"]))
        if mode == "focal":
            focal = draw(st.floats(1, 1e5))
            focal_args, focal_exact = ["--focal-px", repr(focal)], Fraction(focal)
        elif mode == "calibrate":
            observed = [draw(st.floats(1, 100)), draw(st.floats(10, 1e4)), draw(st.floats(1, 1e4))]
            focal_args = ["--calibrate", *map(repr, observed)]
            obj, dist, px = map(Fraction, observed)
            focal_exact = px * dist / obj
        else:  # 124 px for 14 cm at 120 cm in a 1280 px wide frame, scaled to ref
            focal_args, focal_exact = [], Fraction(124 * 120, 14) * Fraction(ref[0], 1280)
    first = [oracles.pinhole_px(focal_exact, ref[0], aspect[0] * scales[0], s, distances[0])
             for s in sizes]
    factor = st.just(1.0) | st.floats(0.25, 4)
    minimums = [float(size * Fraction(draw(factor))) for size in first]
    argv = [
        "geometry", *focal_args,
        "--ref-width", str(ref[0]), "--ref-height", str(ref[1]),
        "--receiver-width-cm", repr(sizes[0]), "--receiver-height-cm", repr(sizes[1]),
        "--distances", ",".join(map(repr, distances)),
        "--resolutions", ",".join(f"{aspect[0] * j}x{aspect[1] * j}" for j in scales),
        "--min-width-px", repr(minimums[0]), "--min-height-px", repr(minimums[1]),
    ]
    resolutions = [(aspect[0] * j, aspect[1] * j) for j in scales]
    return argv, exact, focal_exact, ref[0], sizes, distances, resolutions, minimums


def _roundings(px, exact):
    """The pixel counts a size may print as: half to even, and either
    neighbour when float rounding could move it across a half."""
    below = math.floor(px)
    if not exact and abs(px - below - Fraction(1, 2)) <= px / 10**9:
        return {below, below + 1}
    return {oracles.round_half_even(px)}


@settings(max_examples=30)
@given(options=_geometry_options())
def test_geometry_rows_are_the_rounded_projection(options):
    argv, exact, focal, ref_width, sizes, distances, resolutions, minimums = options
    header, *rows = _table(argv)
    assert header == ["distance_cm", "resolution", "width_px", "height_px", "detectable"]
    cases = [(d, r) for d in distances for r in resolutions]
    assert len(rows) == len(cases)
    min_w, min_h = map(Fraction, minimums)
    for row, (distance, (w, h)) in zip(rows, cases):
        px = [oracles.pinhole_px(focal, ref_width, w, s, distance) for s in sizes]
        assert _near12(row[0], Fraction(distance)) and row[1] == f"{w}x{h}", row
        assert int(row[2]) in _roundings(px[0], exact), (row, px)
        assert int(row[3]) in _roundings(px[1], exact), (row, px)
        # Float rounding decides a size within it of a threshold.
        if exact or all(abs(p - t) > t / 10**9 for p in px for t in (min_w, min_h)):
            detectable = oracles.detectable(*px, min_w, min_h)
            assert row[4] == str(detectable).lower(), (row, px, minimums)
