"""Every record is a NamedTuple that keeps the fields, defaults and repr of
the frozen dataclass it replaced, and whose checks no constructor skips.

``RECORDS`` gives one valid instance per record, its repr as the dataclass
printed it, its field defaults, and, for a record that checks its fields,
one bad field value with the error its constructor raises.
"""

from __future__ import annotations

import importlib
import math
import pickle
import pkgutil
from typing import Any, NamedTuple

import numpy as np
import pytest

import rbcscan
from rbcscan.detector import DetectorProfile, SyntheticScene
from rbcscan.errors import DomainError, UsageError
from rbcscan.formats import AnnotationFile, DetectionFile, ImageInfo, ScenarioFile
from rbcscan.geometry import CameraModel, CellGrid, PixelSize, ReceiverSpec
from rbcscan.metrics import BBox, Columns, Detection, EvalResult, GroundTruthObject, MatchResult
from rbcscan.scanning import ScanConfig, SimulationSummary


class Bad(NamedTuple):
    field: str
    value: Any
    error: type[Exception]
    message: str


class Record(NamedTuple):
    instance: tuple
    repr: str
    defaults: dict[str, Any]
    bad: Bad | None


GRID = CellGrid(2, 4, 640, 360)
BOX = BBox(1.0, 2.0, 3.0, 4.0)
IMAGE = ImageInfo("a", 640, 360)
GT_COLUMNS = Columns(("a",), ("smartphone",), ([1.0, 2.0, 3.0, 4.0],))
_GRID_REPR = "CellGrid(rows=2, cols=4, image_width=640, image_height=360)"
_GT_COLUMNS_REPR = (
    "Columns(image_ids=('a',), labels=('smartphone',), boxes=([1.0, 2.0, 3.0, 4.0],), scores=())"
)

_BOX_REPR = "BBox(x=1.0, y=2.0, w=3.0, h=4.0)"

RECORDS = {
    "BBox": Record(
        BOX,
        _BOX_REPR,
        {},
        Bad("w", -1.0, DomainError, "box width/height must be >= 0, got (-1.0, 4.0)"),
    ),
    "Detection": Record(
        Detection("a", BOX, 0.5),
        f"Detection(image_id='a', bbox={_BOX_REPR}, score=0.5, class_label='smartphone')",
        {"class_label": "smartphone"},
        Bad("score", 1.5, DomainError, "detection score must be within [0, 1], got 1.5"),
    ),
    "GroundTruthObject": Record(
        GroundTruthObject("a", BOX, "tablet"),
        f"GroundTruthObject(image_id='a', bbox={_BOX_REPR}, class_label='tablet')",
        {"class_label": "smartphone"},
        None,
    ),
    "CameraModel": Record(
        CameraModel(1062.857142857143, 1280, 720),
        "CameraModel(focal_px=1062.857142857143, ref_width=1280, ref_height=720)",
        {},
        Bad("focal_px", -1.0, DomainError, "focal_px must be finite and > 0, got -1.0"),
    ),
    "ReceiverSpec": Record(
        ReceiverSpec(14.0, 7.0),
        "ReceiverSpec(width_cm=14.0, height_cm=7.0)",
        {},
        Bad("height_cm", 0.0, DomainError, "height_cm must be finite and > 0, got 0.0"),
    ),
    "CellGrid": Record(GRID, _GRID_REPR, {}, Bad("cols", 0, DomainError, "cols must be >= 1, got 0")),
    "PixelSize": Record(
        PixelSize(124.0, 62.0),
        "PixelSize(w_px=124.0, h_px=62.0)",
        {},
        Bad("w_px", math.nan, DomainError, "w_px must be finite and >= 0, got nan"),
    ),
    "Columns": Record(
        Columns(("a",), ("smartphone",), ([1.0, 2.0, 3.0, 4.0],), (0.5,)),
        "Columns(image_ids=('a',), labels=('smartphone',), boxes=([1.0, 2.0, 3.0, 4.0],), "
        "scores=(0.5,))",
        {"image_ids": (), "labels": (), "boxes": (), "scores": ()},
        Bad("labels", (), UsageError, "columns must have one entry per record"),
    ),
    "EvalResult": Record(
        EvalResult({0.5: 0.75, 0.75: 0.25}, 0.5, 1.0),
        "EvalResult(ap_per_threshold={0.5: 0.75, 0.75: 0.25}, map_value=0.5, ap_small=1.0)",
        {},
        None,
    ),
    "MatchResult": Record(
        MatchResult((0, None)),
        "MatchResult(matched_gt_index=(0, None))",
        {},
        None,
    ),
    "DetectorProfile": Record(
        DetectorProfile("p", 0.2, ((0.5, 0.9), (0.75, 0.6)), ((120.0, "1280x720", 0.9),), "n"),
        "DetectorProfile(name='p', per_image_latency_s=0.2, ap_vs_iou=((0.5, 0.9), (0.75, 0.6)), "
        "ap_vs_distance=((120.0, '1280x720', 0.9),), notes='n')",
        {"ap_vs_distance": (), "notes": ""},
        Bad(
            "ap_vs_iou",
            ((0.5, 0.6), (0.75, 0.7)),
            DomainError,
            "ap_vs_iou must be non-increasing, rises to 0.7 at 0.75",
        ),
    ),
    "SyntheticScene": Record(
        SyntheticScene(GRID, ((GroundTruthObject("a", BOX), 120.0),)),
        f"SyntheticScene(grid={_GRID_REPR}, receivers=((GroundTruthObject(image_id='a', "
        "bbox=BBox(x=1.0, y=2.0, w=3.0, h=4.0), class_label='smartphone'), 120.0),))",
        {},
        Bad(
            "receivers",
            ((GroundTruthObject("a", BOX), 0.0),),
            DomainError,
            "receiver distance must be > 0, got 0.0",
        ),
    ),
    "ScanConfig": Record(
        ScanConfig(8, 2.0, 0.2, 0.7),
        "ScanConfig(n_cells=8, t_scan_s=2.0, t_detect_s=0.2, ap=0.7)",
        {"t_detect_s": 0.0, "ap": 0.0},
        Bad("ap", 1.5, DomainError, "ap must be within [0, 1], got 1.5"),
    ),
    "SimulationSummary": Record(
        SimulationSummary(1000, 2.5, 0.125, None),
        "SimulationSummary(trials=1000, mean_time_s=2.5, stderr_s=0.125, analytic_time_s=None)",
        {},
        None,
    ),
    "ImageInfo": Record(IMAGE, "ImageInfo(image_id='a', width=640, height=360)", {}, None),
    "AnnotationFile": Record(
        AnnotationFile((IMAGE,), GT_COLUMNS, {"train": 1}),
        "AnnotationFile(images=(ImageInfo(image_id='a', width=640, height=360),), "
        f"columns={_GT_COLUMNS_REPR}, split={{'train': 1}})",
        {"split": None},
        None,
    ),
    "DetectionFile": Record(
        DetectionFile(Columns()),
        "DetectionFile(columns=Columns(image_ids=(), labels=(), boxes=(), scores=()))",
        {},
        None,
    ),
    "ScenarioFile": Record(
        ScenarioFile(
            CameraModel(1000.0, 1280, 720),
            CellGrid(8, 8, 1280, 720),
            ScanConfig(64, 2.0, 0.2, 0.7),
            "mask-rcnn-smartphone",
            1000,
            0,
        ),
        "ScenarioFile(camera=CameraModel(focal_px=1000.0, ref_width=1280, ref_height=720), "
        "grid=CellGrid(rows=8, cols=8, image_width=1280, image_height=720), "
        "scan=ScanConfig(n_cells=64, t_scan_s=2.0, t_detect_s=0.2, ap=0.7), "
        "profile='mask-rcnn-smartphone', trials=1000, seed=0)",
        {},
        None,
    ),
}

#: Each record's fields, in the order of the dataclass it replaced.
FIELDS = {
    "BBox": ("x", "y", "w", "h"),
    "Detection": ("image_id", "bbox", "score", "class_label"),
    "GroundTruthObject": ("image_id", "bbox", "class_label"),
    "CameraModel": ("focal_px", "ref_width", "ref_height"),
    "ReceiverSpec": ("width_cm", "height_cm"),
    "CellGrid": ("rows", "cols", "image_width", "image_height"),
    "PixelSize": ("w_px", "h_px"),
    "Columns": ("image_ids", "labels", "boxes", "scores"),
    "EvalResult": ("ap_per_threshold", "map_value", "ap_small"),
    "MatchResult": ("matched_gt_index",),
    "DetectorProfile": ("name", "per_image_latency_s", "ap_vs_iou", "ap_vs_distance", "notes"),
    "SyntheticScene": ("grid", "receivers"),
    "ScanConfig": ("n_cells", "t_scan_s", "t_detect_s", "ap"),
    "SimulationSummary": ("trials", "mean_time_s", "stderr_s", "analytic_time_s"),
    "ImageInfo": ("image_id", "width", "height"),
    "AnnotationFile": ("images", "columns", "split"),
    "DetectionFile": ("columns",),
    "ScenarioFile": ("camera", "grid", "scan", "profile", "trials", "seed"),
}

CHECKED = [name for name, record in RECORDS.items() if record.bad is not None]


def test_table_covers_the_same_records():
    assert set(RECORDS) == set(FIELDS)
    assert all(type(r.instance).__name__ == name for name, r in RECORDS.items())


def test_every_record_in_the_package_is_one_class_in_the_table():
    # A tuple class the package defines is a record: it needs a row above,
    # and it declares its fields itself, with no fields class between it and tuple.
    found = {}
    for info in pkgutil.iter_modules(rbcscan.__path__):
        module = importlib.import_module(f"rbcscan.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, tuple):
                if obj.__module__ == module.__name__:
                    found[obj.__name__] = obj
    assert set(found) == set(RECORDS)
    for name, cls in found.items():
        assert type(RECORDS[name].instance) is cls
        assert cls.__mro__[1] is tuple, name


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_one(name):
    assert repr(RECORDS[name].instance) == RECORDS[name].repr


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_defaults_keep_their_order(name):
    record = RECORDS[name]
    cls = type(record.instance)
    assert cls._fields == FIELDS[name]
    assert cls._field_defaults == record.defaults
    assert dict(zip(cls._fields, record.instance)) == record.instance._asdict()
    # Positional and keyword calls build the same record.
    assert cls(*record.instance) == record.instance
    assert cls(**record.instance._asdict()) == record.instance
    required = [k for k in cls._fields if k not in record.defaults]
    with_defaults = cls(**{k: getattr(record.instance, k) for k in required})
    assert with_defaults._asdict() == {**record.instance._asdict(), **record.defaults}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_the_tuple_of_its_fields(name):
    record = RECORDS[name].instance
    assert record == tuple(getattr(record, k) for k in record._fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name].instance
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert clone == record and repr(clone) == repr(record)


@pytest.mark.parametrize("name", CHECKED)
@pytest.mark.parametrize("build", ["constructor", "_make", "_replace"])
def test_every_constructor_checks(name, build):
    record = RECORDS[name].instance
    bad = RECORDS[name].bad
    cls = type(record)
    fields = {**record._asdict(), bad.field: bad.value}
    calls = {
        "constructor": lambda: cls(**fields),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: record._replace(**{bad.field: bad.value}),
    }
    with pytest.raises(bad.error) as e:
        calls[build]()
    assert type(e.value) is bad.error and str(e.value) == bad.message


@pytest.mark.parametrize("name", CHECKED)
def test_make_and_replace_keep_type_and_arity(name):
    record = RECORDS[name].instance
    cls = type(record)
    assert type(cls._make(record)) is cls and cls._make(record) == record
    assert type(record._replace()) is cls and record._replace() == record
    with pytest.raises(TypeError, match=f"Expected {len(cls._fields)} arguments, got 1"):
        cls._make(record[:1])
    with pytest.raises(ValueError, match="unexpected field name"):
        record._replace(no_such_field=1)


@pytest.mark.parametrize("name", ["CameraModel", "CellGrid", "ScanConfig"])
def test_integer_fields_are_stored_as_ints(name):
    record = RECORDS[name].instance
    cls = type(record)
    ints = [k for k in cls._fields if type(getattr(record, k)) is int]
    built = cls(**{k: np.int64(v) if k in ints else v for k, v in record._asdict().items()})
    replaced = record._replace(**{k: np.int64(getattr(record, k)) for k in ints})
    for other in (built, replaced):
        assert other == record and all(type(getattr(other, k)) is int for k in ints)
