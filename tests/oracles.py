"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's code paths: AP is computed
straight from its definition (max precision at recall >= each sample
point), expected scan times come from exact rational enumeration of
every (receiver position, detection outcome) combination, and the spread
of the scan counts from their exact laws. The CLI's tables are pinned by
exact rational closed forms, AP grids and pinhole projections, and by
rounding and threshold rules written out case by case.
"""

import math
from fractions import Fraction


def ap_101point_oracle(tp_flags, total_gt):
    """101-point interpolated AP, straight from the definition.

    For each recall sample q in {0.00, 0.01, ..., 1.00} take the maximum
    precision over all prefix PR points whose recall is >= q (0 if none),
    then average.
    """
    if total_gt == 0:
        return 1.0 if not tp_flags else 0.0
    points = []
    tp = 0
    for i, flag in enumerate(tp_flags):
        if flag:
            tp += 1
        points.append((tp / total_gt, tp / (i + 1)))
    total = 0.0
    for k in range(101):
        q = k / 100
        best = 0.0
        for recall, precision in points:
            if recall >= q and precision > best:
                best = precision
        total += best
    return total / 101


def expected_time_traditional(n_cells, t_scan_s):
    """Exact expectation of the exhaustive scan: enumerate receiver positions."""
    ts = Fraction(t_scan_s)
    total = sum(position * ts for position in range(1, n_cells + 1))
    return total / n_cells


def expected_time_guided(n_cells, t_scan_s, t_detect_s, ap):
    """Exact expectation of the guided scan.

    Enumerates the two detection outcomes: a correct candidate (probability
    ap, one scan) and a miss, under which the receiver is uniform over the
    remaining n_cells - 1 positions, costing 1 + k scans each.
    """
    ts, td, p = Fraction(t_scan_s), Fraction(t_detect_s), Fraction(ap)
    correct = p * ts
    miss = sum((1 + k) * ts for k in range(1, n_cells)) / (n_cells - 1)
    return td + correct + (1 - p) * miss


def scan_count_law_traditional(n_cells):
    """Law of the exhaustive scan's count, {count: probability}: uniform on {1..N}."""
    return {k: Fraction(1, n_cells) for k in range(1, n_cells + 1)}


def scan_count_law_guided(n_cells, ap):
    """Law of the guided scan's count: 1 with probability ap, else uniform on {2..N}."""
    p = Fraction(ap)
    law = {k: (1 - p) / (n_cells - 1) for k in range(2, n_cells + 1)}
    law[1] = p
    return law


def central_moment(law, order):
    """The exact ``order``-th central moment of a law {value: probability}."""
    mean = sum(k * p for k, p in law.items())
    return sum((k - mean) ** order * p for k, p in law.items())


def var_scans_traditional(n_cells):
    """Exact variance of the exhaustive scan's count: (N**2 - 1) / 12."""
    return Fraction(n_cells * n_cells - 1, 12)


def var_scans_guided(n_cells, ap):
    """Exact variance of the guided scan's count, by the law of total variance.

    A miss is uniform on {2..N}: variance N (N - 2) / 12, mean 1 + N / 2, so
    N / 2 above the hit's single scan.
    """
    p = Fraction(ap)
    return (1 - p) * Fraction(n_cells * (n_cells - 2), 12) + p * (1 - p) * Fraction(n_cells, 2) ** 2


def scan_times(n_cells, t_scan_s, t_detect_s, ap):
    """Exact (T1, T2) from the closed forms: (1 + N) T_s / 2 for the blind
    scan; T_d + AP T_s + (1 - AP) (1 + N / 2) T_s for the guided one, whose
    miss costs one scan plus a blind scan of the other N - 1 cells."""
    ts, td, p = Fraction(t_scan_s), Fraction(t_detect_s), Fraction(ap)
    t1 = (1 + n_cells) * ts / 2
    return t1, td + p * ts + (1 - p) * (1 + Fraction(n_cells, 2)) * ts


def breakeven(n_cells, t_scan_s, t_detect_s):
    """The exact AP at which T2 = T1, unclamped: (2 T_d + T_s) / (N T_s)."""
    ts = Fraction(t_scan_s)
    return (2 * Fraction(t_detect_s) + ts) / (n_cells * ts)


def ap_grid(start, stop, step):
    """The exact sweep start + i * step for every i that stays at or below stop."""
    start, step = Fraction(start), Fraction(step)
    return [start + i * step for i in range(math.floor((Fraction(stop) - start) / step) + 1)]


def pinhole_px(focal_px, ref_width, out_width, size_cm, distance_cm):
    """Exact on-image size in pixels at out_width: focal * size / distance at
    the reference width, scaled by out_width / ref_width."""
    scale = Fraction(out_width, ref_width)
    return Fraction(focal_px) * scale * Fraction(size_cm) / Fraction(distance_cm)


def round_half_even(x):
    """The integer nearest x; a tie goes to the even neighbour."""
    below = math.floor(x)
    rest = x - below
    return below + (rest > Fraction(1, 2) or (rest == Fraction(1, 2) and below % 2 == 1))


def detectable(w_px, h_px, min_w, min_h):
    """Long side against the larger threshold, short side against the smaller,
    each inclusive."""
    return max(w_px, h_px) >= max(min_w, min_h) and min(w_px, h_px) >= min(min_w, min_h)
