"""File-format code as it was before two rewrites, kept verbatim as test oracles.

The annotation and detection parsers as they were before their fast paths:
field-at-a-time code with the checkers it calls, every field going through
``_obj``, ``_num``, ``_bbox`` and the rest, its path formatted whether or
not it is valid. ``rbcscan.formats`` must return equal values for every
input this accepts and raise the same exception class with the same
message for every input it rejects; the one intended difference is an
integer too large for a float, on which ``_num`` here raises
``OverflowError``.

The scenario and profile parsers and emitters as they were before the
record helpers, each field named in a key tuple, a getter and an emitted
dict. Their number checker, ``_finite_num``, already turned an integer too
large for a float into a ``SchemaError``, so on these formats every outcome
must match exactly: an equal value with identical emitted bytes, or the
same exception class and message.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable

from rbcscan.detector import DetectorProfile
from rbcscan.errors import DomainError, InvariantError, SchemaError
from rbcscan.formats import MAX_TRIALS, AnnotationFile, DetectionFile, ImageInfo, ScenarioFile
from rbcscan.geometry import CameraModel, CellGrid
from rbcscan.metrics import BBox, Columns, Detection, GroundTruthObject, ImageId
from rbcscan.scanning import ScanConfig

_SPLIT_KEYS = ("train", "dev", "test")


def _reject_constant(name: str) -> Any:
    raise SchemaError(f"not valid JSON: {name} is not a number")


def _decode(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from None


def _obj(value: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}: unknown field")
    for key in required:
        if key not in value:
            raise SchemaError(f"{path}.{key}: required field is missing")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise SchemaError(f"{path}: expected a finite number, got {value}")
    return value


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _image_id(value: Any, path: str) -> ImageId:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{path}: expected a string or integer image id")
    return value


def _bbox(value: Any, path: str) -> BBox:
    arr = _array(value, path)
    if len(arr) != 4:
        raise SchemaError(f"{path}: expected [x, y, w, h], got {len(arr)} elements")
    x, y, w, h = (_num(v, f"{path}[{i}]") for i, v in enumerate(arr))
    return _construct(path, BBox, x, y, w, h)


def _construct(path: str, factory: Callable, *args, **kwargs):
    """Build a domain value, converting constructor complaints to field errors."""
    try:
        return factory(*args, **kwargs)
    except DomainError as e:
        raise InvariantError(f"{path}: {e}") from None


def parse_annotations(text: str) -> AnnotationFile:
    root = _obj(_decode(text), "$", ("images", "objects"), ("split",))

    images: list[ImageInfo] = []
    by_id: dict[ImageId, ImageInfo] = {}
    for i, item in enumerate(_array(root["images"], "$.images")):
        path = f"$.images[{i}]"
        obj = _obj(item, path, ("image_id", "width", "height"))
        info = ImageInfo(
            image_id=_image_id(obj["image_id"], f"{path}.image_id"),
            width=_int(obj["width"], f"{path}.width"),
            height=_int(obj["height"], f"{path}.height"),
        )
        if info.width < 1 or info.height < 1:
            raise InvariantError(f"{path}: image dimensions must be >= 1")
        if info.image_id in by_id:
            raise InvariantError(f"{path}.image_id: duplicate image id {info.image_id!r}")
        by_id[info.image_id] = info
        images.append(info)

    objects: list[GroundTruthObject] = []
    for i, item in enumerate(_array(root["objects"], "$.objects")):
        path = f"$.objects[{i}]"
        obj = _obj(item, path, ("image_id", "class_label", "bbox"))
        image_id = _image_id(obj["image_id"], f"{path}.image_id")
        info = by_id.get(image_id)
        if info is None:
            raise InvariantError(f"{path}.image_id: no such image {image_id!r}")
        bbox = _bbox(obj["bbox"], f"{path}.bbox")
        if bbox.x < 0 or bbox.y < 0 or bbox.x + bbox.w > info.width or bbox.y + bbox.h > info.height:
            raise InvariantError(
                f"{path}.bbox: box exceeds the {info.width}x{info.height} image bounds"
            )
        objects.append(
            GroundTruthObject(
                image_id=image_id,
                bbox=bbox,
                class_label=_str(obj["class_label"], f"{path}.class_label"),
            )
        )

    split = None
    if "split" in root:
        obj = _obj(root["split"], "$.split", (), _SPLIT_KEYS)
        split = {k: _int(obj[k], f"$.split.{k}") for k in _SPLIT_KEYS if k in obj}
        for k, v in split.items():
            if v < 0:
                raise InvariantError(f"$.split.{k}: counts must be >= 0")

    return AnnotationFile(tuple(images), Columns.of(objects), split)


def parse_detections(text: str) -> DetectionFile:
    root = _obj(_decode(text), "$", ("detections",))
    dets: list[Detection] = []
    for i, item in enumerate(_array(root["detections"], "$.detections")):
        path = f"$.detections[{i}]"
        obj = _obj(item, path, ("image_id", "class_label", "bbox", "score"))
        score = _num(obj["score"], f"{path}.score")
        if not 0.0 <= score <= 1.0:
            raise InvariantError(f"{path}.score: must be within [0, 1], got {score}")
        dets.append(
            Detection(
                image_id=_image_id(obj["image_id"], f"{path}.image_id"),
                bbox=_bbox(obj["bbox"], f"{path}.bbox"),
                score=score,
                class_label=_str(obj["class_label"], f"{path}.class_label"),
            )
        )
    return DetectionFile(Columns.of(dets))




# ---------------------------------------------------------------------------
# detector profiles and scenarios
# ---------------------------------------------------------------------------


def _finite_num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise SchemaError(
            f"{path}: expected a finite number, got an integer too large for a float"
        ) from None
    if not finite:
        raise SchemaError(f"{path}: expected a finite number, got {value}")
    return value


def parse_profile(text: str) -> DetectorProfile:
    root = _obj(
        _decode(text),
        "$",
        ("name", "per_image_latency_s", "ap_vs_iou"),
        ("ap_vs_distance", "notes"),
    )
    knots: list[tuple[float, float]] = []
    for i, item in enumerate(_array(root["ap_vs_iou"], "$.ap_vs_iou")):
        path = f"$.ap_vs_iou[{i}]"
        pair = _array(item, path)
        if len(pair) != 2:
            raise SchemaError(f"{path}: expected [iou_threshold, ap]")
        knots.append((_finite_num(pair[0], f"{path}[0]"), _finite_num(pair[1], f"{path}[1]")))
    triples: list[tuple[float, str, float]] = []
    for i, item in enumerate(_array(root.get("ap_vs_distance", []), "$.ap_vs_distance")):
        path = f"$.ap_vs_distance[{i}]"
        triple = _array(item, path)
        if len(triple) != 3:
            raise SchemaError(f"{path}: expected [distance_cm, image_size_tag, ap]")
        triples.append(
            (
                _finite_num(triple[0], f"{path}[0]"),
                _str(triple[1], f"{path}[1]"),
                _finite_num(triple[2], f"{path}[2]"),
            )
        )
    return _construct(
        "$",
        DetectorProfile,
        name=_str(root["name"], "$.name"),
        per_image_latency_s=_finite_num(root["per_image_latency_s"], "$.per_image_latency_s"),
        ap_vs_iou=tuple(knots),
        ap_vs_distance=tuple(triples),
        notes=_str(root.get("notes", ""), "$.notes"),
    )


def emit_profile(profile: DetectorProfile) -> str:
    payload: dict[str, Any] = {
        "name": profile.name,
        "per_image_latency_s": profile.per_image_latency_s,
        "ap_vs_iou": [[t, ap] for t, ap in profile.ap_vs_iou],
    }
    if profile.ap_vs_distance:
        payload["ap_vs_distance"] = [[d, tag, ap] for d, tag, ap in profile.ap_vs_distance]
    if profile.notes:
        payload["notes"] = profile.notes
    return json.dumps(payload, indent=2) + "\n"


def parse_scenario(text: str) -> ScenarioFile:
    root = _obj(
        _decode(text), "$", ("camera", "grid", "scan", "profile", "trials", "seed")
    )

    cam_obj = _obj(root["camera"], "$.camera", ("focal_px", "ref_width", "ref_height"))
    camera = _construct(
        "$.camera",
        CameraModel,
        focal_px=_finite_num(cam_obj["focal_px"], "$.camera.focal_px"),
        ref_width=_int(cam_obj["ref_width"], "$.camera.ref_width"),
        ref_height=_int(cam_obj["ref_height"], "$.camera.ref_height"),
    )

    grid_obj = _obj(root["grid"], "$.grid", ("rows", "cols", "image_width", "image_height"))
    grid = _construct(
        "$.grid",
        CellGrid,
        rows=_int(grid_obj["rows"], "$.grid.rows"),
        cols=_int(grid_obj["cols"], "$.grid.cols"),
        image_width=_int(grid_obj["image_width"], "$.grid.image_width"),
        image_height=_int(grid_obj["image_height"], "$.grid.image_height"),
    )

    scan_obj = _obj(root["scan"], "$.scan", ("n_cells", "t_scan_s", "t_detect_s", "ap"))
    scan = _construct(
        "$.scan",
        ScanConfig,
        n_cells=_int(scan_obj["n_cells"], "$.scan.n_cells"),
        t_scan_s=_finite_num(scan_obj["t_scan_s"], "$.scan.t_scan_s"),
        t_detect_s=_finite_num(scan_obj["t_detect_s"], "$.scan.t_detect_s"),
        ap=_finite_num(scan_obj["ap"], "$.scan.ap"),
    )
    if scan.n_cells != grid.n_cells:
        raise InvariantError(
            f"$.scan.n_cells: {scan.n_cells} does not match the "
            f"{grid.rows}x{grid.cols} grid ({grid.n_cells} cells)"
        )

    trials = _int(root["trials"], "$.trials")
    if trials < 1:
        raise InvariantError(f"$.trials: must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise InvariantError(f"$.trials: must be <= {MAX_TRIALS}, got {trials}")
    seed = _int(root["seed"], "$.seed")
    if seed < 0:
        raise InvariantError(f"$.seed: must be >= 0, got {seed}")

    return ScenarioFile(
        camera=camera,
        grid=grid,
        scan=scan,
        profile=_str(root["profile"], "$.profile"),
        trials=trials,
        seed=seed,
    )


def emit_scenario(sc: ScenarioFile) -> str:
    payload = {
        "camera": {
            "focal_px": sc.camera.focal_px,
            "ref_width": sc.camera.ref_width,
            "ref_height": sc.camera.ref_height,
        },
        "grid": {
            "rows": sc.grid.rows,
            "cols": sc.grid.cols,
            "image_width": sc.grid.image_width,
            "image_height": sc.grid.image_height,
        },
        "scan": {
            "n_cells": sc.scan.n_cells,
            "t_scan_s": sc.scan.t_scan_s,
            "t_detect_s": sc.scan.t_detect_s,
            "ap": sc.scan.ap,
        },
        "profile": sc.profile,
        "trials": sc.trials,
        "seed": sc.seed,
    }
    return json.dumps(payload, indent=2) + "\n"
