"""The evaluator as it was before matching moved to precomputed IoU arrays.

Scalar, object-at-a-time code kept verbatim as a test oracle: it re-runs
``match_detections`` (and so ``iou``) for every class and threshold and
once more for the small-object score. ``rbcscan.metrics.evaluate`` must
agree with ``evaluate`` here on every input.
"""

from __future__ import annotations

from typing import Sequence

from rbcscan.errors import DomainError, UsageError
from rbcscan.metrics import (
    _RECALL_SAMPLES,
    STANDARD_IOU_THRESHOLDS,
    SMALL_OBJECT_CUTOFF_PX,
    BBox,
    Detection,
    EvalResult,
    GroundTruthObject,
    ImageId,
    MatchResult,
)


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
    if not 0.0 < iou_threshold <= 1.0:
        raise UsageError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    ids = {d.image_id for d in dets} | {g.image_id for g in gts}
    if len(ids) > 1:
        raise UsageError(f"match_detections expects a single image_id, got {sorted(map(str, ids))}")
    labels = {d.class_label for d in dets} | {g.class_label for g in gts}
    if len(labels) > 1:
        raise UsageError(f"match_detections expects a single class_label, got {sorted(labels)}")

    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    matched_gt: list[int | None] = [None] * len(dets)
    gt_taken = [False] * len(gts)
    for i in order:
        best_j = None
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if gt_taken[j]:
                continue
            v = iou(dets[i].bbox, gt.bbox)
            if v > best_iou:
                best_iou = v
                best_j = j
        if best_j is not None and best_iou >= iou_threshold:
            matched_gt[i] = best_j
            gt_taken[best_j] = True
    return MatchResult(tuple(matched_gt))


def average_precision(tp_flags: Sequence[bool], total_gt: int) -> float:
    """101-point interpolated AP from TP/FP flags in descending-score order.

    The precision-recall sequence is built cumulatively, precision is made
    monotone non-increasing in recall, and the envelope is sampled at the
    101 recall points 0.00, 0.01, ..., 1.00. When there is no ground truth
    the score is 1.0 for an empty detection list and 0.0 otherwise.
    """
    if total_gt < 0:
        raise DomainError(f"total_gt must be >= 0, got {total_gt}")
    if total_gt == 0:
        return 1.0 if not tp_flags else 0.0

    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for i, flag in enumerate(tp_flags):
        if flag:
            tp += 1
        precisions.append(tp / (i + 1))
        recalls.append(tp / total_gt)

    # Monotone envelope: precision at recall r becomes max precision at any
    # recall >= r.
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])

    total = 0.0
    idx = 0
    for k in range(_RECALL_SAMPLES):
        r = k / (_RECALL_SAMPLES - 1)
        while idx < len(recalls) and recalls[idx] < r:
            idx += 1
        if idx < len(precisions):
            total += precisions[idx]
    return total / _RECALL_SAMPLES


def _pooled_flags(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    class_label: str,
    iou_threshold: float,
) -> tuple[list[bool], int]:
    """Match per image, then pool flags globally by descending score.

    Score ties across the pool are broken by position in the original
    detection list, which keeps results independent of how images are
    partitioned across workers.
    """
    det_groups: dict[ImageId, list[tuple[int, Detection]]] = {}
    for idx, d in enumerate(dets):
        if d.class_label == class_label:
            det_groups.setdefault(d.image_id, []).append((idx, d))
    gt_groups: dict[ImageId, list[GroundTruthObject]] = {}
    for g in gts:
        if g.class_label == class_label:
            gt_groups.setdefault(g.image_id, []).append(g)

    scored: list[tuple[float, int, bool]] = []
    for image_id, pairs in det_groups.items():
        image_dets = [d for _, d in pairs]
        result = match_detections(image_dets, gt_groups.get(image_id, []), iou_threshold)
        for (orig_idx, d), flag in zip(pairs, result.tp_flags):
            scored.append((d.score, orig_idx, flag))
    scored.sort(key=lambda t: (-t[0], t[1]))
    total_gt = sum(len(v) for v in gt_groups.values())
    return [flag for _, _, flag in scored], total_gt


def _small_object_flags(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    class_label: str,
    small_cutoff_px: float,
) -> tuple[list[bool], int]:
    """Flags restricted to small ground truth at IoU 0.50.

    Matching runs against all ground truth first; detections matched to a
    large (excluded) box are then dropped entirely, so they count neither
    as hits nor as false positives for the small-object score.
    """
    max_area = small_cutoff_px * small_cutoff_px
    det_groups: dict[ImageId, list[tuple[int, Detection]]] = {}
    for idx, d in enumerate(dets):
        if d.class_label == class_label:
            det_groups.setdefault(d.image_id, []).append((idx, d))
    gt_groups: dict[ImageId, list[GroundTruthObject]] = {}
    for g in gts:
        if g.class_label == class_label:
            gt_groups.setdefault(g.image_id, []).append(g)

    scored: list[tuple[float, int, bool]] = []
    total_small = sum(
        1 for image_gts in gt_groups.values() for g in image_gts if g.bbox.area < max_area
    )
    for image_id, pairs in det_groups.items():
        image_dets = [d for _, d in pairs]
        image_gts = gt_groups.get(image_id, [])
        result = match_detections(image_dets, image_gts, 0.5)
        for (orig_idx, d), gt_idx in zip(pairs, result.matched_gt_index):
            if gt_idx is None:
                scored.append((d.score, orig_idx, False))
            elif image_gts[gt_idx].bbox.area < max_area:
                scored.append((d.score, orig_idx, True))
            # matched to an excluded (large) box: ignored
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [flag for _, _, flag in scored], total_small


def evaluate(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    thresholds: Sequence[float] = STANDARD_IOU_THRESHOLDS,
    small_cutoff_px: float = SMALL_OBJECT_CUTOFF_PX,
) -> EvalResult:
    """Full evaluation: AP per IoU threshold, their mean, and small-object AP.

    AP at each threshold is computed per class (classes taken from the
    union of detections and ground truth) and averaged; with a single
    class this is plain AP. ``ap_small`` is always computed at IoU 0.50.
    """
    if not thresholds:
        raise UsageError("thresholds must be non-empty")
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise UsageError(f"thresholds must be in (0, 1], got {t}")

    classes = sorted({d.class_label for d in dets} | {g.class_label for g in gts})
    ap_per_threshold: dict[float, float] = {}
    for t in thresholds:
        if classes:
            aps = []
            for cls in classes:
                flags, total_gt = _pooled_flags(dets, gts, cls, t)
                aps.append(average_precision(flags, total_gt))
            ap_per_threshold[t] = sum(aps) / len(aps)
        else:
            ap_per_threshold[t] = 1.0  # nothing to detect, nothing detected

    if classes:
        small_aps = []
        for cls in classes:
            flags, total_small = _small_object_flags(dets, gts, cls, small_cutoff_px)
            small_aps.append(average_precision(flags, total_small))
        ap_small = sum(small_aps) / len(small_aps)
    else:
        ap_small = 1.0

    map_value = sum(ap_per_threshold.values()) / len(ap_per_threshold)
    return EvalResult(ap_per_threshold=ap_per_threshold, map_value=map_value, ap_small=ap_small)
