"""Detection-evaluation metrics: IoU, greedy matching, interpolated AP.

Everything here is computed from scratch on axis-aligned pixel boxes.
Average precision uses the 101-point recall sampling with a monotone
precision envelope, so results are comparable to the usual COCO-style
reports: mAP averages AP over the ten IoU thresholds 0.50 to 0.95, and
the small-object score restricts ground truth to boxes with area below
a pixel cutoff (32 px by default).
"""

from __future__ import annotations

from itertools import chain, count
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, Sized

from .errors import DomainError, UsageError, checked, number, shown

# For annotations only: the functions that compute with arrays import numpy
# themselves, so `import rbcscan` does not load it.
if TYPE_CHECKING:
    import numpy as np

ImageId = str | int

#: The ten IoU thresholds 0.50, 0.55, ..., 0.95 used for mAP.
STANDARD_IOU_THRESHOLDS: tuple[float, ...] = tuple((50 + 5 * i) / 100 for i in range(10))

#: Ground-truth boxes with area below this side length squared count as small.
SMALL_OBJECT_CUTOFF_PX = 32.0

_RECALL_SAMPLES = 101

#: Most candidate (detection, box) pairs that one ``evaluate`` or
#: ``match_detections`` call may enumerate: ~0.8 GB of pair arrays.
MAX_MATCH_PAIRS = 10**7


@checked
class BBox(NamedTuple):
    """Axis-aligned rectangle in pixel coordinates, top-left origin, y down.

    Boxes follow the minimum-circumscribed-rectangle convention: (x, y) is
    the top-left corner and w, h extend right and down. A box is the tuple
    ``(x, y, w, h)``, so a list of boxes converts to an (n, 4) array.
    """

    x: float
    y: float
    w: float
    h: float

    def _new(cls, x, y, w, h):
        # Inline test kept: the (w, h) tuple calls below miss number's fast path.
        if not (float is type(x) is type(y) is type(w) is type(h) and w >= 0 and h >= 0):
            # An int past float range would fail later, in float arithmetic.
            number(x, "box x", DomainError, "within float range")
            number(y, "box y", DomainError, "within float range")
            number((w, h), "box width/height", DomainError, ">= 0")
            number((w, h), "box width/height", DomainError, "within float range")
        return tuple.__new__(cls, (x, y, w, h))

    @property
    def area(self) -> float:
        return self.w * self.h


@checked
class Detection(NamedTuple):
    """A scored, labeled box predicted for one image."""

    image_id: ImageId
    bbox: BBox
    score: float
    class_label: str = "smartphone"

    def _new(cls, image_id, bbox, score, class_label):
        number(score, "detection score", DomainError, "within [0, 1]")
        return tuple.__new__(cls, (image_id, bbox, score, class_label))


class GroundTruthObject(NamedTuple):
    """An annotated, labeled box for one image."""

    image_id: ImageId
    bbox: BBox
    class_label: str = "smartphone"


@checked
class Columns(NamedTuple):
    """Detections or ground-truth objects as columns, one entry per record.

    ``boxes`` holds each record's ``[x, y, w, h]`` numbers as given;
    ``scores`` is filled for detections and empty for ground truth, and
    ``Columns()`` holds no records. The parsers in ``formats`` fill these
    columns straight from the file, and ``evaluate`` scores from them. A
    field that has no length raises UsageError naming it.
    """

    image_ids: Sequence[ImageId] = ()
    labels: Sequence[str] = ()
    boxes: Sequence[Sequence[float]] = ()
    scores: Sequence[float] = ()

    def _new(cls, image_ids, labels, boxes, scores):
        for field, column in zip(cls._fields, (image_ids, labels, boxes, scores)):
            if not isinstance(column, Sized):
                raise UsageError(f"{field} must be a sequence, got {type(column).__name__}")
        n = len(image_ids)
        if not (len(labels) == len(boxes) == n and len(scores) in (0, n)):
            raise UsageError("columns must have one entry per record")
        return tuple.__new__(cls, (image_ids, labels, boxes, scores))

    @classmethod
    def of(cls, records: Sequence[Detection] | Sequence[GroundTruthObject]) -> Columns:
        """The records' fields as columns, in the parsers' shape: tuples, each
        box an ``[x, y, w, h]`` list. ``records`` are all detections or all
        ground truth, or UsageError names the first record of another kind."""
        scored = bool(records) and isinstance(records[0], Detection)
        kind = Detection if scored else GroundTruthObject
        for i, r in enumerate(records):
            if not isinstance(r, kind):
                raise UsageError(f"record {i} is a {type(r).__name__}, not a {kind.__name__}")
        return cls(
            tuple(r.image_id for r in records),
            tuple(r.class_label for r in records),
            tuple(list(r.bbox) for r in records),
            tuple(d.score for d in records) if scored else (),
        )


class EvalResult(NamedTuple):
    """Per-threshold AP plus the derived mAP and small-object AP."""

    ap_per_threshold: dict[float, float]
    map_value: float
    ap_small: float


class MatchResult(NamedTuple):
    """Outcome of greedy matching on a single image and class.

    ``matched_gt_index[i]`` is the index (into the ground-truth list) the
    i-th detection matched, or None for a false positive; order follows
    the detection input order. The boxes that matched are its non-None
    entries.
    """

    matched_gt_index: tuple[int | None, ...]

    @property
    def tp_flags(self) -> tuple[bool, ...]:
        return tuple(m is not None for m in self.matched_gt_index)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; 0 when the union is empty.

    Areas are taken from the same rounded corner coordinates as the
    intersection, so identical boxes score exactly 1.0 even for
    non-representable float extents.
    """
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    iw = min(ax2, bx2) - max(a.x, b.x)
    ih = min(ay2, by2) - max(a.y, b.y)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = (ax2 - a.x) * (ay2 - a.y) + (bx2 - b.x) * (by2 - b.y) - inter
    if union <= 0:
        return 0.0
    return inter / union


def _box_array(boxes: Iterable[Sequence[float]], n: int) -> np.ndarray:
    """``n`` boxes of four numbers ``(x, y, w, h)`` each as an (n, 4) float array."""
    import numpy as np

    return np.fromiter(chain.from_iterable(boxes), np.float64, 4 * n).reshape(n, 4)


def _pair_ious(boxes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of box ``a[k]`` with box ``b[k]`` for every k, bit for bit.

    Corners and areas are taken once per row of ``boxes`` and gathered per
    pair; the float operations are those of ``iou``, in the same order.
    """
    import numpy as np

    x, y, w, h = boxes.T
    # A box past float range gives inf and NaN, as Python floats do, unwarned.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x2, y2 = x + w, y + h
        area = (x2 - x) * (y2 - y)
        iw = np.minimum(x2[a], x2[b]) - np.maximum(x[a], x[b])
        ih = np.minimum(y2[a], y2[b]) - np.maximum(y[a], y[b])
        inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
        union = area[a] + area[b] - inter
        return np.where(union > 0, inter / union, 0.0)


def _components(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """A component label for each of ``size`` nodes joined by the edges (u, v).

    Each node points at a node of its component with no larger index; a
    root points at itself. A round points the larger of each edge's two
    roots at the smaller one, then every node straight at its root, so a
    component's trees at least halve in number per round. Once every edge
    joins two nodes of one tree, each component is one tree, labelled by
    its root.
    """
    import numpy as np

    label = np.arange(size)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(root := label[label], label):
            label = root


def _greedy_assign(
    boxes: np.ndarray,
    group: np.ndarray,
    scores: np.ndarray,
    thresholds: Sequence[float],
    name: Callable[[int], str],
) -> np.ndarray:
    """Greedy matching in every group (one image and class), all thresholds at once.

    ``boxes`` and ``group`` (one integer >= 0 per group) hold the D
    detections, whose ``scores`` are given, then the ground truth. The
    rule is that of ``match_detections``; thresholds are > 0. Returns
    (T, D) matched ground-truth indices or -1. More than
    ``MAX_MATCH_PAIRS`` candidate pairs raise DomainError, which names
    the group with the most of them as ``name(group)`` does.

    Only a pair that overlaps can reach a threshold, so a detection's
    candidates are the boxes of its group whose x lies in its window, from
    its x less the widest box to its right edge. The boxes are sorted by
    group, then by integer x bin, W = max(widest / 4, x span / (G + 1))
    wide, so a window is one run of them, found by two searches. IoUs
    are computed once per candidate pair, and pairs below the lowest
    threshold are dropped: a detection matches only a best IoU that
    reaches the threshold, and ties go to the lowest box index at the best
    value, all of which survive, so every threshold gets the same match
    from the surviving pairs. A detection can then only take a box it
    shares a pair with, so its outcome depends only on the detections
    ahead of it (by descending score, ties in input order) in its
    connected component of detections and boxes, and no two components
    share a box. Round k therefore matches the k-th detection of every
    component at once, for all thresholds through a (T, G) taken mask.
    """
    import numpy as np

    n, n_gt = len(scores), len(group) - len(scores)
    assigned = np.full((len(thresholds), n), -1, dtype=np.int64)
    thr = np.asarray(thresholds, dtype=float)[:, None]
    x, w = boxes[:, 0], boxes[:, 2]
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x + w
    # A box with a non-finite right edge has an infinite or NaN area, so
    # IoU 0 or NaN with every box: it matches nothing and sizes no bin.
    finite = np.isfinite(x2[n:])
    if not finite.any():
        return assigned
    gx = x[n:]
    x0, x1 = gx.min(where=finite, initial=np.inf), gx.max(where=finite, initial=-np.inf)
    widest = w[n:].max(where=finite, initial=0.0)
    # The span is divided before it is taken, so that it cannot overflow.
    width = max(widest / 4, x1 / (n_gt + 1) - x0 / (n_gt + 1)) or 1.0
    n_bins = n_gt + 2
    # A box and a window end share one bin function, monotone in x, so a
    # box left of a window's right edge has no higher bin. A box that
    # overlaps the detection has x2 > x, so its x exceeds x - widest, and
    # x - widest rounds to no more than that float x: the window's left end
    # needs no margin. Bins are floored and clipped as floats, NaN to the
    # low end, so no cast sees NaN or inf; a window ends at most one bin
    # before it starts, which is an empty run.
    with np.errstate(over="ignore", invalid="ignore"):
        gt_bin = np.floor((gx - x0) / width)
        lo = np.floor((x[:n] - widest - x0) / width)
        hi = np.floor((x2[:n] - x0) / width)
    top = n_bins - 1
    gt_bin = np.fmin(np.fmax(gt_bin, 0), top).astype(np.int64)
    lo = np.fmin(np.fmax(lo, 0), top).astype(np.int64)
    hi = np.fmin(np.fmax(hi, -1), top).astype(np.int64)
    # Key = group * n_bins + bin; groups are numbered densely when that
    # product could pass int64.
    code = group
    if (int(group.max()) + 1) * n_bins > 2**63:
        code = np.unique(group, return_inverse=True)[1]
    gt_key = code[n:] * n_bins + gt_bin
    gt_order = np.argsort(gt_key)
    keys = gt_key[gt_order]
    begin = np.searchsorted(keys, code[:n] * n_bins + lo, "left")
    n_cand = np.searchsorted(keys, code[:n] * n_bins + hi, "right") - begin
    total = int(n_cand.sum())
    if total > MAX_MATCH_PAIRS:
        codes, inverse = np.unique(group[:n], return_inverse=True)
        most = np.bincount(inverse, weights=n_cand)
        raise DomainError(
            f"matching needs {total} candidate pairs, more than MAX_MATCH_PAIRS = "
            f"{MAX_MATCH_PAIRS}; {name(int(codes[most.argmax()]))} alone needs {int(most.max())}"
        )
    pair_start = np.cumsum(n_cand) - n_cand
    pair_det = np.repeat(np.arange(n), n_cand)
    pair_gt = gt_order[np.repeat(begin - pair_start, n_cand) + np.arange(total)]
    ious = _pair_ious(boxes, pair_det, n + pair_gt)
    keep = ious >= thr.min()
    pair_det, pair_gt, ious = pair_det[keep], pair_gt[keep], ious[keep]

    # Rank each detection with a pair within its component by descending
    # score, ties in input order; then order the detections by rank.
    label = _components(pair_det, n + pair_gt, len(group))
    n_pairs = np.bincount(pair_det, minlength=n)
    dets = np.flatnonzero(n_pairs)
    by_score = dets[np.lexsort((-scores[dets], label[dets]))]
    comp = label[by_score]
    rank = np.arange(by_score.size) - np.searchsorted(comp, comp)
    by_rank = np.argsort(rank, kind="stable")
    active, ranks = by_score[by_rank], rank[by_rank]
    # active[i] owns the pairs seg_start[i]:seg_end[i], boxes in bin order.
    seg_len = n_pairs[active]
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    pair_of = np.cumsum(n_pairs) - n_pairs
    take = np.repeat(pair_of[active] - seg_start, seg_len) + np.arange(seg_len.sum())
    pair_gt, ious = pair_gt[take], ious[take]

    taken = np.zeros((len(thresholds), n_gt), dtype=bool)
    bounds = np.searchsorted(ranks, np.arange(ranks.max(initial=-1) + 2)).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        p0, p1 = seg_start[a], seg_end[b - 1]
        cols = pair_gt[p0:p1]
        vals = np.where(taken[:, cols], -1.0, ious[p0:p1])
        starts = seg_start[a:b] - p0
        best = np.maximum.reduceat(vals, starts, axis=1)
        is_best = vals == np.repeat(best, seg_len[a:b], axis=1)
        lowest = np.minimum.reduceat(np.where(is_best, cols, n_gt), starts, axis=1)
        t, i = np.nonzero(best >= thr)
        gt = lowest[t, i]
        taken[t, gt] = True
        assigned[t, active[a + i]] = gt
    return assigned


def match_detections(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float,
) -> MatchResult:
    """Greedily match detections to ground truth on one image and class.

    Detections are considered in descending score order (ties keep input
    order); each takes the still-unmatched ground-truth box of highest IoU
    provided that IoU reaches the threshold, otherwise it is a false
    positive. Each ground-truth box matches at most once.
    """
    import numpy as np

    number(iou_threshold, "iou_threshold", UsageError, "in (0, 1]")
    ids = {d.image_id for d in dets} | {g.image_id for g in gts}
    if len(ids) > 1:
        raise UsageError(f"match_detections expects a single image_id, got {sorted(map(str, ids))}")
    labels = {d.class_label for d in dets} | {g.class_label for g in gts}
    if len(labels) > 1:
        raise UsageError(f"match_detections expects a single class_label, got {sorted(labels)}")

    scores = np.array([d.score for d in dets], dtype=float)
    one_group = np.zeros(len(dets) + len(gts), dtype=np.int64)
    boxes = _box_array((o.bbox for o in chain(dets, gts)), len(one_group))
    name = f"image {next(iter(ids), None)!r}, class {next(iter(labels), None)!r}"
    assigned = _greedy_assign(boxes, one_group, scores, [iou_threshold], lambda _: name)[0]
    return MatchResult(tuple(j if j >= 0 else None for j in assigned.tolist()))


def average_precision(tp_flags: Sequence[bool], total_gt: int) -> float:
    """101-point interpolated AP from TP/FP flags in descending-score order.

    The precision-recall sequence is built cumulatively, precision is made
    monotone non-increasing in recall, and the envelope is sampled at the
    101 recall points 0.00, 0.01, ..., 1.00. When there is no ground truth
    the score is 1.0 for an empty detection list and 0.0 otherwise.
    """
    import numpy as np

    total_gt = number(total_gt, "total_gt", DomainError, "finite and >= 0", integral=True)
    flags = np.asarray(tp_flags, dtype=bool).reshape(-1)
    tp = np.cumsum(flags)
    if tp.size and tp[-1] > total_gt:
        raise DomainError(f"total_gt must be >= the {tp[-1]} true positives, got {total_gt}")
    if total_gt == 0:
        return 1.0 if not flags.size else 0.0

    precision = tp / np.arange(1, flags.size + 1)
    # Monotone envelope: precision at recall r becomes max precision at any
    # recall >= r. Recall points beyond the last flag read the appended 0.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    # A float count divides as numpy would an int64 one, and past int64 too.
    recall_points = np.arange(_RECALL_SAMPLES) / (_RECALL_SAMPLES - 1)
    sampled = envelope[np.searchsorted(tp / float(total_gt), recall_points)]
    # cumsum adds left to right, as a running total does.
    return float(np.cumsum(sampled)[-1] / _RECALL_SAMPLES)


def evaluate(
    dets: Columns | Sequence[Detection],
    gts: Columns | Sequence[GroundTruthObject],
    thresholds: Iterable[float] = STANDARD_IOU_THRESHOLDS,
    small_cutoff_px: float = SMALL_OBJECT_CUTOFF_PX,
) -> EvalResult:
    """Full evaluation: AP per IoU threshold, their mean, and small-object AP.

    AP at each threshold is computed per class (classes taken from the
    union of detections and ground truth) and averaged; with a single
    class this is plain AP. Detections are matched per image, then pooled
    by descending score with ties in input order, so the result does not
    depend on how images are partitioned. ``ap_small`` is always computed
    at IoU 0.50 on ground truth below the area cutoff; detections matched
    to a larger box are dropped from it. Records given as objects are
    turned into ``Columns`` first. ``thresholds`` is read once, so an
    array or an iterator scores like the list of its values.

    The columns are checked once: a box that is not four numbers raises
    UsageError; a non-finite box number, a negative width or height, or a
    score outside [0, 1] raises DomainError. Each names the record's index.
    The element types of hand-built columns are trusted (see ``errors``).
    """
    import numpy as np

    thresholds = tuple(thresholds)
    if not thresholds:
        raise UsageError("thresholds must be non-empty")
    for t in thresholds:
        number(t, "thresholds", UsageError, "in (0, 1]")
    number(small_cutoff_px, "small_cutoff_px", UsageError, "finite and > 0")

    if not isinstance(dets, Columns):
        dets = Columns.of(dets)
    if not isinstance(gts, Columns):
        gts = Columns.of(gts)
    n = len(dets.labels)
    if len(dets.scores) != n:
        raise UsageError("every detection needs a score")

    classes = sorted({*dets.labels, *gts.labels})
    if not classes:  # nothing to detect, nothing detected
        return EvalResult({t: 1.0 for t in thresholds}, map_value=1.0, ap_small=1.0)

    reported = list(dict.fromkeys(thresholds))
    # ap_small is scored at IoU 0.50, which need not be a reported threshold.
    levels = reported if 0.5 in reported else [*reported, 0.5]
    half = levels.index(0.5)

    # Detections, then ground truth: class codes and (image, class) group
    # codes, images numbered in order of first appearance.
    size = n + len(gts.labels)
    class_of = dict(zip(classes, count()))
    image_ids = [*dets.image_ids, *gts.image_ids]
    image_of = dict(zip(dict.fromkeys(image_ids), count()))
    cls = np.fromiter(map(class_of.__getitem__, chain(dets.labels, gts.labels)), np.int64, size)
    img = np.fromiter(map(image_of.__getitem__, image_ids), np.int64, size)
    group = img * len(classes) + cls
    # Hand-built columns have passed no record check, and a box of another
    # length would shift every later box of the (size, 4) array.
    kinds = (("detection", dets.boxes), ("ground-truth object", gts.boxes))
    for kind, col in kinds:
        try:
            ok = set(map(len, col)) <= {4}
        except TypeError:  # a box with no length, such as a bare number
            ok = False
        if not ok:
            i = next(i for i, b in enumerate(col) if not isinstance(b, Sized) or len(b) != 4)
            got = f"{len(col[i])} numbers" if isinstance(col[i], Sized) else "no length"
            raise UsageError(f"{kind} {i}: box has {got}, expected [x, y, w, h]")
    boxes = _box_array(chain(dets.boxes, gts.boxes), size)
    # Whole-array tests first: per-row reductions cost ten times as much.
    if not (np.isfinite(boxes).all() and (boxes[:, 2:] >= 0).all()):
        ok = np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] >= 0).all(axis=1)
        i = int(ok.argmin())
        (kind, col), i = (kinds[0], i) if i < n else (kinds[1], i - n)
        raise DomainError(f"{kind} {i}: box must be finite with w, h >= 0, got {col[i]}")
    scores = np.array(dets.scores, dtype=float)
    bad = ~((scores >= 0) & (scores <= 1))  # NaN fails both
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"detection {i}: score must be within [0, 1], got {dets.scores[i]}")

    def name(g: int) -> str:  # of an (image, class) group code
        return f"image {list(image_of)[g // len(classes)]!r}, class {classes[g % len(classes)]!r}"

    assigned = _greedy_assign(boxes, group, scores, levels, name)

    # Pool each class's detections by descending score, ties in input order.
    order = np.lexsort((-scores, cls[:n]))
    assigned = assigned[:, order]
    bounds = np.searchsorted(cls[:n][order], np.arange(len(classes) + 1)).tolist()
    # Index -1 (no match) reads the appended False.
    # A float squares within float range, where an int's exact square may not.
    cutoff = float(small_cutoff_px)
    is_small = np.append(boxes[n:, 2] * boxes[n:, 3] < cutoff * cutoff, False)
    gt_total = np.bincount(cls[n:], minlength=len(classes)).tolist()
    small_total = np.bincount(cls[n:][is_small[:-1]], minlength=len(classes)).tolist()

    slices = list(zip(bounds[:-1], bounds[1:], gt_total, small_total))
    ap_per_threshold = {
        t: sum(average_precision(row[lo:hi] >= 0, n_gt) for lo, hi, n_gt, _ in slices)
        / len(classes)
        for t, row in zip(reported, assigned)
    }
    small_hit = is_small[assigned[half]]
    # Detections matched to a large box drop out of the small-object score.
    kept = small_hit | (assigned[half] < 0)
    small_aps = [
        average_precision(small_hit[lo:hi][kept[lo:hi]], n_small) for lo, hi, _, n_small in slices
    ]
    map_value = sum(ap_per_threshold.values()) / len(ap_per_threshold)
    return EvalResult(ap_per_threshold, map_value, ap_small=sum(small_aps) / len(small_aps))


def flip_augment(gt: GroundTruthObject, image_width: int) -> GroundTruthObject:
    """Mirror an annotation across the vertical image axis.

    The flip maps x to image_width - x - w and leaves y, w, h and the
    class label unchanged. Applying it twice restores the original box
    when that float arithmetic is exact, as it is for whole-number boxes;
    otherwise x comes back only to rounding: ``BBox(0.1, 0.0, 0.7, 1.0)``
    in a 1 px wide image returns with x = 0.09999999999999998.
    """
    number(image_width, "image_width", DomainError, "finite", integral=True)
    b = gt.bbox
    if not (0 <= b.x and b.x + b.w <= image_width):  # NaN fails both
        raise DomainError(
            f"box spans [{shown(b.x, str)}, {shown(b.x + b.w, str)}], "
            f"outside image width {image_width}"
        )
    flipped = BBox(image_width - b.x - b.w, b.y, b.w, b.h)
    return GroundTruthObject(image_id=gt.image_id, bbox=flipped, class_label=gt.class_label)
