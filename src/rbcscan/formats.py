"""File formats: annotations, detections, detector profiles, scenarios.

All inputs share one JSON-based schema family, documented field by field
in the README. Parsing is strict: unknown fields are rejected (typo
protection), type mismatches raise SchemaError, and well-formed files
that break a documented invariant raise InvariantError; both carry the
offending field path. Emission is canonical, so parse(emit(parse(text)))
equals parse(text) for every valid file.

Annotation and detection files are decoded with orjson, which is 2-3x
faster than json on them. json stays the reference: a file is decoded
again with json, and checked again, wherever the orjson pass raises, so
every error message is json's and every accepted value is the one json
reads.
"""

from __future__ import annotations

import json
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .detector import DetectorProfile, builtin_profile, builtin_profile_names
from .errors import DomainError, InvariantError, RbcScanError, SchemaError, finite, number
from .geometry import CameraModel, CellGrid
from .metrics import BBox, Columns, Detection, GroundTruthObject, ImageId
from .scanning import MAX_TRIALS, ScanConfig

_SPLIT_KEYS = ("train", "dev", "test")


class ImageInfo(NamedTuple):
    """One annotated image: identifier and pixel dimensions."""

    image_id: ImageId
    width: int
    height: int


class AnnotationFile(NamedTuple):
    """Ground-truth annotations plus optional dataset-split metadata.

    ``columns`` holds the objects' fields as read from the file, which is
    what ``metrics.evaluate`` scores; ``objects`` builds the record tuple
    from them.
    """

    images: tuple[ImageInfo, ...]
    columns: Columns
    split: dict[str, int] | None = None

    @property
    def objects(self) -> tuple[GroundTruthObject, ...]:
        c = self.columns
        return tuple(map(GroundTruthObject, c.image_ids, [BBox(*b) for b in c.boxes], c.labels))


class DetectionFile(NamedTuple):
    """Detector output: scored boxes, held as ``columns`` like ``AnnotationFile``'s."""

    columns: Columns

    @property
    def detections(self) -> tuple[Detection, ...]:
        c = self.columns
        boxes = [BBox(*b) for b in c.boxes]
        return tuple(map(Detection, c.image_ids, boxes, c.scores, c.labels))


class ScenarioFile(NamedTuple):
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
    if not finite(value):
        got = "an integer too large for a float" if isinstance(value, int) else value
        raise SchemaError(f"{path}: expected a finite number, got {got}")
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


def _record(value: Any, path: str, factory: Callable, **checks: Callable):
    """An object with exactly the keys of ``checks``, each field checked in
    order, built into ``factory``."""
    obj = _obj(value, path, tuple(checks))
    return _construct(
        path, factory, **{key: check(obj[key], f"{path}.{key}") for key, check in checks.items()}
    )


def _rows(value: Any, path: str, checks: tuple[Callable, ...], shape: str) -> tuple:
    """An array of rows, each an array of ``len(checks)`` fields checked in order."""
    rows = []
    for i, item in enumerate(_array(value, path)):
        at = f"{path}[{i}]"
        row = _array(item, at)
        if len(row) != len(checks):
            raise SchemaError(f"{at}: expected {shape}")
        rows.append(tuple(check(v, f"{at}[{k}]") for k, (check, v) in enumerate(zip(checks, row))))
    return tuple(rows)


def _keys(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A record's field names: those without a default, then those with one."""
    optional = tuple(cls._field_defaults)
    return tuple(k for k in cls._fields if k not in optional), optional


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
#: The box bound on an orjson document. orjson reads an integer literal
#: outside [-2**63, 2**64) as the nearest float, whose magnitude is then at
#: least 2**63, so a box number within this bound is the number written.
_ORJSON_BOX_MAX = math.nextafter(2.0**63, 0.0)


def _record_bbox(value: Any, records: str, i: int, bound: float) -> list:
    """Record i's checked bbox list: direct tests with each number within
    +-bound, or _bbox and the field path if one fails.

    On an orjson document (bound _ORJSON_BOX_MAX) a box that fails is not
    looked at further: SchemaError sends the file to json, which checks it.
    """
    if type(value) is list and len(value) == 4:
        x, y, w, h = value
        if (
            (type(x) is float or type(x) is int)
            and (type(y) is float or type(y) is int)
            and (type(w) is float or type(w) is int)
            and (type(h) is float or type(h) is int)
            and -bound <= x <= bound
            and -bound <= y <= bound
            and 0 <= w <= bound
            and 0 <= h <= bound
        ):
            return value
    path = f"{records}[{i}].bbox"
    if bound < _FLOAT_MAX:
        raise SchemaError(f"{path}: to be checked on json's reading")
    return _bbox(value, path)


#: Every byte but the two bracket pairs and the quote.
_NOT_NESTING = bytes(b for b in range(256) if b not in b'[]{}"')
#: Passes of _orjson_loads' depth test.
_NESTING_PASSES = 4


def _orjson_loads(text: str) -> Any:
    """``text`` decoded by orjson, or SchemaError where json must decode it.

    orjson 3.8.3 has no depth limit: it converts nested arrays and objects
    recursively in C, and 80,000 nested objects (a 400 kB file) overflow an
    8 MB stack and kill the process, where json raises RecursionError. So
    orjson decodes only a text first shown shallow, in C. Each escaped
    backslash, then each escaped quote, is deleted: read left to right, as
    JSON reads a string's escapes, so the quotes left alternate between
    opening and closing a string and no bracket inside a string pairs with
    one outside. (A backslash outside a string is invalid JSON, which
    orjson rejects before it converts anything.) Of the remaining UTF-8
    bytes only brackets and quotes are kept, and each pass deletes the
    adjacent pairs "", [] and {}. A valid file is empty after two passes.
    Each pass takes off at most three levels, so a text left empty nests
    at most 3 * _NESTING_PASSES deep.
    """
    import orjson  # here, not at the top: `import rbcscan` does not pay for it

    data = text.encode("utf-8", "surrogatepass")
    # Most files hold no backslash at all, which one byte scan shows.
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    skeleton = data.translate(None, _NOT_NESTING)
    for _ in range(_NESTING_PASSES):
        skeleton = skeleton.replace(b'""', b"").replace(b"[]", b"").replace(b"{}", b"")
    if skeleton:
        raise SchemaError("not valid JSON: nested too deeply for orjson; json decodes it")
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        raise SchemaError("not valid JSON for orjson; json decodes it") from None


def _parse_records(records: Callable[[Any, float], Any], text: str) -> Any:
    """``records`` of orjson's document, or of json's where that pass raises.

    json is the reference: its document is checked in full, so the value or
    the error is exactly what json alone gives. ``records`` takes the root
    value and the bound for box numbers.
    """
    try:
        return records(_orjson_loads(text), _ORJSON_BOX_MAX)
    except RbcScanError:
        pass
    return records(_decode(text), _FLOAT_MAX)


def parse_annotations(text: str) -> AnnotationFile:
    return _parse_records(_annotations, text)


def _annotations(doc: Any, bound: float) -> AnnotationFile:
    root = _obj(doc, "$", ("images", "objects"), ("split",))

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
        x, y, w, h = _record_bbox(box, "$.objects", i, bound)
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

    return AnnotationFile(tuple(images), Columns(*zip(*objects)), split)


def emit_annotations(af: AnnotationFile) -> str:
    c = af.columns
    payload: dict[str, Any] = {
        "images": [im._asdict() for im in af.images],
        "objects": [dict(zip(_OBJECT_FIELDS, r)) for r in zip(c.image_ids, c.labels, c.boxes)],
    }
    if af.split is not None:
        payload["split"] = dict(af.split)
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# detections
# ---------------------------------------------------------------------------


def parse_detections(text: str) -> DetectionFile:
    return _parse_records(_detections, text)


def _detections(doc: Any, bound: float) -> DetectionFile:
    root = _obj(doc, "$", ("detections",))
    dets: list[tuple] = []
    for i, item in enumerate(_array(root["detections"], "$.detections")):
        if type(item) is not dict or item.keys() != _DETECTION_KEYS:
            _obj(item, f"$.detections[{i}]", _DETECTION_FIELDS)
        fields = image_id, label, box, score = _detection_fields(item)
        if not ((type(score) is float or type(score) is int) and 0.0 <= score <= 1.0):
            path = f"$.detections[{i}].score"
            number(_num(score, path), f"{path}:", InvariantError, "within [0, 1]")
        if type(image_id) is not str and type(image_id) is not int:
            _image_id(image_id, f"$.detections[{i}].image_id")
        _record_bbox(box, "$.detections", i, bound)
        if type(label) is not str:
            _str(label, f"$.detections[{i}].class_label")
        dets.append(fields)
    return DetectionFile(Columns(*zip(*dets)))


def emit_detections(df: DetectionFile) -> str:
    c = df.columns
    records = zip(c.image_ids, c.labels, c.boxes, c.scores)
    payload = {"detections": [dict(zip(_DETECTION_FIELDS, r)) for r in records]}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# detector profiles
# ---------------------------------------------------------------------------


def parse_profile(text: str) -> DetectorProfile:
    root = _obj(_decode(text), "$", *_keys(DetectorProfile))
    knots = _rows(root["ap_vs_iou"], "$.ap_vs_iou", (_num, _num), "[iou_threshold, ap]")
    triples = _rows(
        root.get("ap_vs_distance", []),
        "$.ap_vs_distance",
        (_num, _str, _num),
        "[distance_cm, image_size_tag, ap]",
    )
    return _construct(
        "$",
        DetectorProfile,
        name=_str(root["name"], "$.name"),
        per_image_latency_s=_num(root["per_image_latency_s"], "$.per_image_latency_s"),
        ap_vs_iou=knots,
        ap_vs_distance=triples,
        notes=_str(root.get("notes", ""), "$.notes"),
    )


def emit_profile(profile: DetectorProfile) -> str:
    """The profile's fields in order, an optional one only when not empty."""
    optional = DetectorProfile._field_defaults
    payload = {k: v for k, v in profile._asdict().items() if v or k not in optional}
    return json.dumps(payload, indent=2) + "\n"


def read_text(path: str | Path) -> str:
    """A file's text, decoded as UTF-8: the one way input files are read.

    The path is opened as given, so an empty one names no file rather
    than the working directory. Bytes that are not UTF-8 raise SchemaError
    naming the path; OSError passes through.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def resolve_profile(ref: str, base_dir: str | Path | None = None) -> DetectorProfile:
    """Load a profile reference: a bundled profile name or a file path.

    A relative path is taken from ``base_dir``. A reference that is
    neither, the empty one included, raises SchemaError naming it; a file
    that is not UTF-8 raises ``read_text``'s SchemaError, and one that
    does not parse as a profile raises its parse error, prefixed with the
    reference and the resolved path.
    """
    names = builtin_profile_names()
    if ref in names:
        return builtin_profile(ref)
    # An empty reference is opened as it is, not as base_dir itself.
    path = Path(base_dir or "", ref) if ref else ref
    try:
        text = read_text(path)
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
    root = _obj(_decode(text), "$", *_keys(ScenarioFile))
    camera = _record(
        root["camera"], "$.camera", CameraModel, focal_px=_num, ref_width=_int, ref_height=_int
    )
    grid = _record(
        root["grid"], "$.grid", CellGrid, rows=_int, cols=_int, image_width=_int, image_height=_int
    )
    scan = _record(
        root["scan"], "$.scan", ScanConfig, n_cells=_int, t_scan_s=_num, t_detect_s=_num, ap=_num
    )
    if scan.n_cells != grid.n_cells:
        raise InvariantError(
            f"$.scan.n_cells: {scan.n_cells} does not match the "
            f"{grid.rows}x{grid.cols} grid ({grid.n_cells} cells)"
        )

    trials = number(_int(root["trials"], "$.trials"), "$.trials:", InvariantError, ">= 1")
    if trials > MAX_TRIALS:
        raise InvariantError(f"$.trials: must be <= {MAX_TRIALS}, got {trials}")
    seed = number(_int(root["seed"], "$.seed"), "$.seed:", InvariantError, ">= 0")

    return ScenarioFile(camera, grid, scan, _str(root["profile"], "$.profile"), trials, seed)


def emit_scenario(sc: ScenarioFile) -> str:
    """The scenario's fields in order, its camera, grid and scan as nested objects."""
    payload = {k: v._asdict() if isinstance(v, tuple) else v for k, v in sc._asdict().items()}
    return json.dumps(payload, indent=2) + "\n"
