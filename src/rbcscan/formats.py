"""File formats: annotations, detections, detector profiles, scenarios.

All inputs share one JSON-based schema family, documented field by field
in the README. Parsing is strict: unknown fields are rejected (typo
protection), type mismatches raise SchemaError, and well-formed files
that break a documented invariant raise InvariantError; both carry the
offending field path. Emission is canonical, so parse(emit(parse(text)))
equals parse(text) for every valid file.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable

from .detector import DetectorProfile, builtin_profile, builtin_profile_names
from .errors import DomainError, InvariantError, SchemaError
from .geometry import CameraModel, CellGrid
from .metrics import BBox, Columns, Detection, GroundTruthObject, ImageId
from .scanning import ScanConfig

_SPLIT_KEYS = ("train", "dev", "test")


@dataclass(frozen=True)
class ImageInfo:
    """One annotated image: identifier and pixel dimensions."""

    image_id: ImageId
    width: int
    height: int


class _RecordFile:
    """Equality and repr over the record fields ``_FIELDS``, as a dataclass's.

    A parsed file holds its records as ``columns`` of the values read from
    the file, which is what ``metrics.evaluate`` scores; the tuple of record
    objects is built from those values on first access. A file built from
    record objects makes its columns from them on first access instead.
    """

    _FIELDS: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class AnnotationFile(_RecordFile):
    """Ground-truth annotations plus optional dataset-split metadata."""

    _FIELDS = ("images", "objects", "split")

    def __init__(
        self,
        images: tuple[ImageInfo, ...],
        objects: tuple[GroundTruthObject, ...],
        split: dict[str, int] | None = None,
    ) -> None:
        self.images, self.objects, self.split = images, objects, split

    @classmethod
    def _of_columns(
        cls, images: tuple[ImageInfo, ...], columns: Columns, split: dict[str, int] | None
    ) -> AnnotationFile:
        af = cls.__new__(cls)
        af.images, af.columns, af.split = images, columns, split
        return af

    @cached_property
    def objects(self) -> tuple[GroundTruthObject, ...]:
        c = self.columns
        return tuple(map(GroundTruthObject, c.image_ids, [BBox(*b) for b in c.boxes], c.labels))

    @cached_property
    def columns(self) -> Columns:
        return Columns.of(self.objects)


class DetectionFile(_RecordFile):
    """Detector output: scored boxes, grouped by image identifier."""

    _FIELDS = ("detections",)

    def __init__(self, detections: tuple[Detection, ...]) -> None:
        self.detections = detections

    @classmethod
    def _of_columns(cls, columns: Columns) -> DetectionFile:
        df = cls.__new__(cls)
        df.columns = columns
        return df

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        c = self.columns
        boxes = [BBox(*b) for b in c.boxes]
        return tuple(map(Detection, c.image_ids, boxes, c.scores, c.labels))

    @cached_property
    def columns(self) -> Columns:
        return Columns.of(self.detections)


@dataclass(frozen=True)
class ScenarioFile:
    """Everything one simulation run needs: camera, grid, timing, RNG."""

    camera: CameraModel
    grid: CellGrid
    scan: ScanConfig
    profile: str
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# strict-parsing helpers
# ---------------------------------------------------------------------------


def _reject_constant(name: str) -> Any:
    raise SchemaError(f"not valid JSON: {name} is not a number")


def _decode(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from None
    except SchemaError:
        raise
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise SchemaError(
            f"not valid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise SchemaError("not valid JSON: arrays or objects nested too deeply") from None


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
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise SchemaError(
            f"{path}: expected a finite number, got an integer too large for a float"
        ) from None
    if not finite:
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


def _bbox(value: Any, path: str) -> list:
    arr = _array(value, path)
    if len(arr) != 4:
        raise SchemaError(f"{path}: expected [x, y, w, h], got {len(arr)} elements")
    x, y, w, h = (_num(v, f"{path}[{i}]") for i, v in enumerate(arr))
    _construct(path, BBox, x, y, w, h)  # BBox's own width/height check
    return arr


def _construct(path: str, factory: Callable, *args, **kwargs):
    """Build a domain value, converting constructor complaints to field errors."""
    try:
        return factory(*args, **kwargs)
    except DomainError as e:
        raise InvariantError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


# Each record is checked in one pass, field by field in a fixed order. A
# field gets a direct type() or bound test; only a value that fails it goes
# to the field's helper (_obj, _num, _image_id, _bbox, ...), which names the
# fault with its path or accepts a number the bound test is too strict for.
# Path strings are built only then. A checked record's field values, in
# Columns field order, go into the file's columns as they are; no record
# object is built.

_IMAGE_FIELDS = ("image_id", "width", "height")
_OBJECT_FIELDS = ("image_id", "class_label", "bbox")
_DETECTION_FIELDS = ("image_id", "class_label", "bbox", "score")
_IMAGE_KEYS = frozenset(_IMAGE_FIELDS)
_OBJECT_KEYS = frozenset(_OBJECT_FIELDS)
_DETECTION_KEYS = frozenset(_DETECTION_FIELDS)
_image_fields = itemgetter(*_IMAGE_FIELDS)
_object_fields = itemgetter(*_OBJECT_FIELDS)
_detection_fields = itemgetter(*_DETECTION_FIELDS)
#: A number within +-_FLOAT_MAX is finite and converts to a float.
_FLOAT_MAX = sys.float_info.max


def _record_bbox(value: Any, records: str, i: int) -> list:
    """Record i's checked bbox list: direct tests, or _bbox and the field path
    if one fails."""
    if type(value) is list and len(value) == 4:
        x, y, w, h = value
        if (
            (type(x) is float or type(x) is int)
            and (type(y) is float or type(y) is int)
            and (type(w) is float or type(w) is int)
            and (type(h) is float or type(h) is int)
            and -_FLOAT_MAX <= x <= _FLOAT_MAX
            and -_FLOAT_MAX <= y <= _FLOAT_MAX
            and 0 <= w <= _FLOAT_MAX
            and 0 <= h <= _FLOAT_MAX
        ):
            return value
    return _bbox(value, f"{records}[{i}].bbox")


def parse_annotations(text: str) -> AnnotationFile:
    root = _obj(_decode(text), "$", ("images", "objects"), ("split",))

    images: list[ImageInfo] = []
    by_id: dict[ImageId, ImageInfo] = {}
    for i, item in enumerate(_array(root["images"], "$.images")):
        if type(item) is not dict or item.keys() != _IMAGE_KEYS:
            _obj(item, f"$.images[{i}]", _IMAGE_FIELDS)
        image_id, width, height = _image_fields(item)
        if type(image_id) is not str and type(image_id) is not int:
            _image_id(image_id, f"$.images[{i}].image_id")
        if type(width) is not int:
            _int(width, f"$.images[{i}].width")
        if type(height) is not int:
            _int(height, f"$.images[{i}].height")
        if width < 1 or height < 1:
            raise InvariantError(f"$.images[{i}]: image dimensions must be >= 1")
        if image_id in by_id:
            raise InvariantError(f"$.images[{i}].image_id: duplicate image id {image_id!r}")
        info = by_id[image_id] = ImageInfo(image_id, width, height)
        images.append(info)

    objects: list[tuple] = []
    for i, item in enumerate(_array(root["objects"], "$.objects")):
        if type(item) is not dict or item.keys() != _OBJECT_KEYS:
            _obj(item, f"$.objects[{i}]", _OBJECT_FIELDS)
        fields = image_id, label, box = _object_fields(item)
        if type(image_id) is not str and type(image_id) is not int:
            _image_id(image_id, f"$.objects[{i}].image_id")
        info = by_id.get(image_id)
        if info is None:
            raise InvariantError(f"$.objects[{i}].image_id: no such image {image_id!r}")
        x, y, w, h = _record_bbox(box, "$.objects", i)
        if x < 0 or y < 0 or x + w > info.width or y + h > info.height:
            raise InvariantError(
                f"$.objects[{i}].bbox: box exceeds the {info.width}x{info.height} image bounds"
            )
        if type(label) is not str:
            _str(label, f"$.objects[{i}].class_label")
        objects.append(fields)

    split = None
    if "split" in root:
        obj = _obj(root["split"], "$.split", (), _SPLIT_KEYS)
        split = {k: _int(obj[k], f"$.split.{k}") for k in _SPLIT_KEYS if k in obj}
        for k, v in split.items():
            if v < 0:
                raise InvariantError(f"$.split.{k}: counts must be >= 0")

    return AnnotationFile._of_columns(tuple(images), Columns(*zip(*objects)), split)


def emit_annotations(af: AnnotationFile) -> str:
    payload: dict[str, Any] = {
        "images": [
            {"image_id": im.image_id, "width": im.width, "height": im.height}
            for im in af.images
        ],
        "objects": [
            {
                "image_id": gt.image_id,
                "class_label": gt.class_label,
                "bbox": [gt.bbox.x, gt.bbox.y, gt.bbox.w, gt.bbox.h],
            }
            for gt in af.objects
        ],
    }
    if af.split is not None:
        payload["split"] = dict(af.split)
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# detections
# ---------------------------------------------------------------------------


def parse_detections(text: str) -> DetectionFile:
    root = _obj(_decode(text), "$", ("detections",))
    dets: list[tuple] = []
    for i, item in enumerate(_array(root["detections"], "$.detections")):
        if type(item) is not dict or item.keys() != _DETECTION_KEYS:
            _obj(item, f"$.detections[{i}]", _DETECTION_FIELDS)
        fields = image_id, label, box, score = _detection_fields(item)
        if not ((type(score) is float or type(score) is int) and 0.0 <= score <= 1.0):
            path = f"$.detections[{i}].score"
            if not 0.0 <= _num(score, path) <= 1.0:
                raise InvariantError(f"{path}: must be within [0, 1], got {score}")
        if type(image_id) is not str and type(image_id) is not int:
            _image_id(image_id, f"$.detections[{i}].image_id")
        _record_bbox(box, "$.detections", i)
        if type(label) is not str:
            _str(label, f"$.detections[{i}].class_label")
        dets.append(fields)
    return DetectionFile._of_columns(Columns(*zip(*dets)))


def emit_detections(df: DetectionFile) -> str:
    payload = {
        "detections": [
            {
                "image_id": d.image_id,
                "class_label": d.class_label,
                "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
                "score": d.score,
            }
            for d in df.detections
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# detector profiles
# ---------------------------------------------------------------------------


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
        knots.append((_num(pair[0], f"{path}[0]"), _num(pair[1], f"{path}[1]")))
    triples: list[tuple[float, str, float]] = []
    for i, item in enumerate(_array(root.get("ap_vs_distance", []), "$.ap_vs_distance")):
        path = f"$.ap_vs_distance[{i}]"
        triple = _array(item, path)
        if len(triple) != 3:
            raise SchemaError(f"{path}: expected [distance_cm, image_size_tag, ap]")
        triples.append(
            (
                _num(triple[0], f"{path}[0]"),
                _str(triple[1], f"{path}[1]"),
                _num(triple[2], f"{path}[2]"),
            )
        )
    return _construct(
        "$",
        DetectorProfile,
        name=_str(root["name"], "$.name"),
        per_image_latency_s=_num(root["per_image_latency_s"], "$.per_image_latency_s"),
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


def resolve_profile(ref: str, base_dir: str | Path | None = None) -> DetectorProfile:
    """Load a profile reference: a bundled profile name or a file path.

    A reference that is neither raises SchemaError naming it; a file that
    does not parse as a profile raises its parse error, prefixed with the
    reference and the resolved path.
    """
    names = builtin_profile_names()
    if ref in names:
        return builtin_profile(ref)
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise SchemaError(
            f"profile {ref!r} is neither a bundled profile ({', '.join(names)}) "
            f"nor a readable file: {e.strerror or e} ({path})"
        ) from None
    try:
        return parse_profile(text)
    except (SchemaError, DomainError) as e:
        raise type(e)(f"profile {ref!r} ({path}): {e}") from None


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def parse_scenario(text: str) -> ScenarioFile:
    root = _obj(
        _decode(text), "$", ("camera", "grid", "scan", "profile", "trials", "seed")
    )

    cam_obj = _obj(root["camera"], "$.camera", ("focal_px", "ref_width", "ref_height"))
    camera = _construct(
        "$.camera",
        CameraModel,
        focal_px=_num(cam_obj["focal_px"], "$.camera.focal_px"),
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
        t_scan_s=_num(scan_obj["t_scan_s"], "$.scan.t_scan_s"),
        t_detect_s=_num(scan_obj["t_detect_s"], "$.scan.t_detect_s"),
        ap=_num(scan_obj["ap"], "$.scan.ap"),
    )
    if scan.n_cells != grid.n_cells:
        raise InvariantError(
            f"$.scan.n_cells: {scan.n_cells} does not match the "
            f"{grid.rows}x{grid.cols} grid ({grid.n_cells} cells)"
        )

    trials = _int(root["trials"], "$.trials")
    if trials < 1:
        raise InvariantError(f"$.trials: must be >= 1, got {trials}")

    return ScenarioFile(
        camera=camera,
        grid=grid,
        scan=scan,
        profile=_str(root["profile"], "$.profile"),
        trials=trials,
        seed=_int(root["seed"], "$.seed"),
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
