"""The annotation and detection parsers as they were before their fast paths.

Field-at-a-time code kept verbatim as a test oracle, with the checkers it
calls: every field goes through ``_obj``, ``_num``, ``_bbox`` and the rest,
its path formatted whether or not it is valid. ``rbcscan.formats`` must
return equal values for every input this accepts and raise the same
exception class with the same message for every input it rejects; the one
intended difference is an integer too large for a float, on which ``_num``
here raises ``OverflowError``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable

from rbcscan.errors import DomainError, InvariantError, SchemaError
from rbcscan.formats import AnnotationFile, DetectionFile, ImageInfo
from rbcscan.metrics import BBox, Columns, Detection, GroundTruthObject, ImageId

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


