"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's code paths: AP is computed
straight from its definition (max precision at recall >= each sample
point), expected scan times come from exact rational enumeration of
every (receiver position, detection outcome) combination, and the spread
of the scan counts from their exact laws.
"""

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
