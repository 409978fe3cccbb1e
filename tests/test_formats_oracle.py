"""Property tests: the one-pass record parsers against the field-at-a-time oracle.

``legacy_formats`` holds ``parse_annotations`` and ``parse_detections`` as
they were before each record was checked in one pass of direct type and
bound tests. Documents are drawn valid, then given one fault or two faults
in the same record: a field of the wrong type, a bool for a number, a
missing or unknown key, a negative width or height, a box outside its
image, an image side below 1, an unknown or duplicate image id, a float,
bool or list in place of an image id, a score out of range, a box of the
wrong shape, or an integer too large for a float; a record of the wrong
shape is always the only fault. Both parsers must return the same values
or raise the same class with the same message, so with two faults they
must name the same one, the first in check order; where the oracle raises
``OverflowError`` the new parser raises ``SchemaError``. A document both
accept must also come back equal, with an equal repr, from
``parse(emit(...))``.

The scenario and profile parsers and emitters are checked the same way
against ``legacy_formats``' copies from before the record helpers, on
documents with up to two faults anywhere in them: an unknown or missing
key, a wrong type, a bool for a number, an integer too large for a float,
NaN or infinity, a profile row of the wrong length, an ``n_cells`` that
does not match the grid, a trial count out of range or a negative seed.
Here every outcome must match exactly, emitted bytes included.

Annotation and detection files are decoded with orjson first and with
json where that pass fails, so single faults also cover what the two
decoders read differently, in every field: integers too wide for 64 bits,
escaped lone surrogates, ``1e400``, raw control characters, duplicate keys
and nesting around the depth limits. Where the oracle's json raises
``RecursionError`` the parser raises ``SchemaError``. One property runs
with ``orjson.loads`` forced to raise, so the json path is covered on
valid files too.

The round-trip properties ``parse(emit(parse(x))) == parse(x)`` cover all
four file formats, and the bundled scenario file is its own emission.
"""

import json
import math
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_formats as legacy
from rbcscan.detector import builtin_profile
from rbcscan.errors import RbcScanError, SchemaError
from rbcscan.formats import (
    MAX_TRIALS,
    emit_annotations,
    emit_detections,
    emit_profile,
    emit_scenario,
    parse_annotations,
    parse_detections,
    parse_profile,
    parse_scenario,
)

#: Above the largest float, yet rounds to it: finite for ``math.isfinite``.
BEYOND_FLOAT_MAX = 2**1024 - 2**971 + 1
#: Too large for a float: ``math.isfinite`` raises ``OverflowError``.
HUGE = 10**400
#: Integers at and past the 64-bit edges, which orjson reads as floats.
WIDE = [2**63, 2**64 - 1, 2**64, -(2**63) - 1, 10**30]
#: Nesting depths around the depth limit of orjson's pass, json's recursion
#: limit and the 1024 levels some orjson releases allow.
DEPTHS = [4, 5, 12, 13, 14, 500, 1023, 1024, 1025, 2000]

_ids = st.one_of(st.integers(-3, 30), st.text("ab1", max_size=2))
_labels = st.sampled_from(["phone", "tablet", ""])
_real = st.one_of(
    st.integers(-50, 300),
    st.floats(-50, 300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([sys.float_info.max, -sys.float_info.max, BEYOND_FLOAT_MAX, -0.0]),
)
_scores = st.one_of(st.sampled_from([0, 1, 0.0, 1.0]), st.floats(0, 1))


def _upto(limit):
    """A number in [0, limit], an integer when it fits."""
    return st.one_of(st.integers(0, int(limit)), st.floats(0, limit))


def _shuffled(draw, record):
    return dict(draw(st.permutations(list(record.items()))))


@st.composite
def _annotation_docs(draw):
    images = [
        {"image_id": i, "width": draw(st.integers(1, 100)), "height": draw(st.integers(1, 100))}
        for i in draw(st.lists(_ids, unique=True, min_size=1, max_size=4))
    ]
    objects = []
    for _ in range(draw(st.integers(1, 6))):
        im = draw(st.sampled_from(images))
        x, y = draw(_upto(im["width"])), draw(_upto(im["height"]))
        # x + w may still round past the edge: then both parsers reject it.
        box = [x, y, draw(_upto(im["width"] - x)), draw(_upto(im["height"] - y))]
        objects.append({"image_id": im["image_id"], "class_label": draw(_labels), "bbox": box})
    doc = {
        "images": [_shuffled(draw, r) for r in images],
        "objects": [_shuffled(draw, r) for r in objects],
    }
    if draw(st.booleans()):
        doc["split"] = {k: draw(st.integers(0, 9)) for k in ("train", "dev", "test")}
    return doc


@st.composite
def _detection_docs(draw):
    def detection():
        box = [draw(_real), draw(_real), draw(_upto(300)), draw(_upto(300))]
        if draw(st.booleans()):  # any finite extent at all
            box[2:] = [abs(draw(_real)), abs(draw(_real))]
        record = {"image_id": draw(_ids), "class_label": draw(_labels), "bbox": box}
        return _shuffled(draw, dict(record, score=draw(_scores)))

    return {"detections": [detection() for _ in range(draw(st.integers(1, 6)))]}


_ALL = ("images", "objects", "detections")
#: Each fault, with the record lists it applies to.
FAULTS = {
    "type": _ALL,
    "bool": _ALL,
    "missing": _ALL,
    "unknown": _ALL,
    "record": _ALL,
    "huge": _ALL,
    "box type": ("objects", "detections"),
    "arity": ("objects", "detections"),
    "negative": ("objects", "detections"),
    "shifted": ("objects",),
    "outside": ("objects",),
    "unknown id": ("objects",),
    "id lookalike": ("objects",),
    "duplicate id": ("images",),
    "size": ("images",),
    "score": ("detections",),
}
#: Faults at which orjson and json read the text differently, used one at a
#: time.
DECODER_FAULTS = {
    fault: _ALL
    for fault in ("wide", "surrogate", "1e400", "control", "duplicate key", "nesting")
}


def _cases(*lists):
    return [(None, lists[0])] + [
        (fault, name)
        for fault, names in (FAULTS | DECODER_FAULTS).items()
        for name in names
        if name in lists
    ]


class _Raw:
    """JSON text that ``_dumps`` writes into a document as it is."""

    def __init__(self, text):
        self.text = text


def _dumps(doc):
    """``json.dumps(doc)``, with every ``_Raw`` value written as its text."""
    raws = []

    def placeholder(raw):
        raws.append(raw.text)
        return f"\0{len(raws) - 1}"

    text = json.dumps(doc, default=placeholder)
    for i, raw in enumerate(raws):
        text = text.replace(json.dumps(f"\0{i}"), raw, 1)
    return text


def _pairs(*lists):
    """Every two distinct faults that can share a record of the named lists."""
    return [
        (pair, name)
        for name in lists
        for pair in combinations([f for f, names in FAULTS.items() if name in names], 2)
        if "record" not in pair
    ]


@st.composite
def _with_faults(draw, docs, faults, name):
    """A document with the faults, if any, all in one record of the named list.

    Each fault is applied to the record as the faults before it left it; a
    fault with nothing left to act on (no box to shift, say) is skipped.
    """
    doc = draw(docs)
    if not faults:
        return doc
    i = draw(st.integers(0, len(doc[name]) - 1))
    for fault in faults:
        _apply(draw, doc, name, i, fault)
    return doc


def _apply(draw, doc, name, i, fault):
    record = doc[name][i]
    box = record.get("bbox")
    box = box if type(box) is list else []
    numbers = [(box, k) for k in range(len(box))] + [
        (record, key) for key in ("width", "height", "score") if key in record
    ]
    if fault in ("type", "box type"):
        slots = [(record, key) for key in record] if fault == "type" else numbers[:4]
        if slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(st.sampled_from([None, "1", [], {}, [1, 2, 3, 4], 1.5, 3]))
    elif fault in ("bool", "huge"):
        if numbers:
            container, key = draw(st.sampled_from(numbers))
            value = st.booleans() if fault == "bool" else st.sampled_from([HUGE, -HUGE])
            container[key] = draw(value)
    elif fault == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
    elif fault == "unknown":
        record[draw(st.sampled_from(["mask", "Score", "image"]))] = 1
    elif fault == "record":
        doc[name][i] = draw(st.sampled_from([None, 1, "x", [], box]))
    elif fault == "arity":
        record["bbox"] = draw(st.sampled_from([[], box[:3], box + [1]]))
    elif fault == "negative":
        if len(box) >= 4:
            box[draw(st.integers(2, 3))] = -draw(st.sampled_from([1, 0.5, 1e-300]))
    elif fault == "shifted":
        # A shifted bool or huge integer would lose its fault or overflow.
        slots = [
            k for k, v in enumerate(box[:4]) if type(v) in (int, float) and abs(v) < 1e300
        ]
        if slots:
            box[draw(st.sampled_from(slots))] += draw(st.sampled_from([-1e-9, -1, 200, 1e300]))
    elif fault == "outside":  # x and w each within the image, x + w not
        image_id = record.get("image_id")
        image = next((im for im in doc["images"] if im["image_id"] == image_id), None)
        if image is not None and len(box) >= 4:
            k = draw(st.integers(0, 1))
            side = image[("width", "height")[k]]
            box[k + 2] = draw(st.integers(1, side))
            box[k] = side - box[k + 2] + draw(st.sampled_from([1, 2**-30]))
    elif fault == "unknown id":
        record["image_id"] = "ghost"
    elif fault == "id lookalike":  # equal to an image id, or unhashable
        image_id = record.get("image_id")
        record["image_id"] = draw(
            st.sampled_from([float(image_id), True] if type(image_id) is int else [[image_id]])
        )
    elif fault == "duplicate id":
        record["image_id"] = doc[name][i - 1].get("image_id")  # its own id when alone
    elif fault == "size":
        record[draw(st.sampled_from(["width", "height"]))] = draw(st.sampled_from([0, -1]))
    elif fault == "score":
        record["score"] = draw(st.sampled_from([1.5, -0.25, 1.0000000000000002, -1e-300, 2]))
    else:
        _apply_decoder_fault(draw, doc, record, numbers, name, i, fault)


def _apply_decoder_fault(draw, doc, record, numbers, name, i, fault):
    """One of ``DECODER_FAULTS`` in record i, or in the split counts."""
    if type(record.get("image_id")) is int:
        numbers = numbers + [(record, "image_id")]
    if name == "images" and "split" in doc:
        numbers = numbers + [(doc["split"], key) for key in doc["split"]]
    strings = [(record, key) for key in ("image_id", "class_label") if key in record]
    if fault == "wide":
        if numbers:
            container, key = draw(st.sampled_from(numbers))
            container[key] = draw(st.sampled_from(WIDE))
    elif fault == "surrogate":
        container, key = draw(st.sampled_from(strings))
        container[key] = draw(st.sampled_from(["\ud800", "a\udfff", "\udc00\ud800"]))
    elif fault == "1e400":
        if numbers:
            container, key = draw(st.sampled_from(numbers))
            container[key] = _Raw(draw(st.sampled_from(["1e400", "-1e400", "1E+400", "2e308"])))
    elif fault == "control":
        container, key = draw(st.sampled_from(strings))
        container[key] = _Raw(draw(st.sampled_from(['"\x01"', '"a\tb"', '"\x1f"', '"\n"'])))
    elif fault == "duplicate key":
        key = draw(st.sampled_from(sorted(record)))
        again = (key, draw(st.sampled_from([record[key], None, -1, "x"])))
        items = list(record.items())
        items = items + [again] if draw(st.booleans()) else [again] + items
        fields = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items)
        doc[name][i] = _Raw("{" + fields + "}")
    elif fault == "nesting":
        depth = draw(st.sampled_from(DEPTHS))
        nested = "[" * depth + "]" * depth
        if draw(st.booleans()):
            nested = '{"a": ' * depth + "0" + "}" * depth
        if draw(st.booleans()):
            doc[name][i] = _Raw(nested)
        else:
            record[draw(st.sampled_from(sorted(record)))] = _Raw(nested)


def _outcome(parse, text):
    try:
        return parse(text)
    except (RbcScanError, OverflowError, RecursionError) as e:
        return type(e), str(e)


#: What the parsers raise where the oracle raises one of these.
_MAPPED = {
    OverflowError: "too large for a float",
    RecursionError: "not valid JSON: arrays or objects nested too deeply",
}


def _assert_agrees(parse, oracle, emit, doc):
    """``parse`` and ``oracle`` agree on ``doc``, emitted bytes included; a
    parsed file also survives ``emit``, which writes it from its columns,
    unchanged."""
    text = _dumps(doc)
    got, want = _outcome(parse, text), _outcome(oracle, text)
    if type(want) is tuple and want[0] in _MAPPED:
        assert isinstance(got, tuple) and got[0] is SchemaError, got
        assert _MAPPED[want[0]] in got[1]
        return
    assert got == want
    # == holds between 1 and 1.0; repr tells them apart.
    assert repr(got) == repr(want)
    if type(got) is not tuple:
        assert emit(got) == emit(want)
        again = parse(emit(got))
        assert again == got
        assert repr(again) == repr(got)


@pytest.mark.parametrize("fault, name", _cases("images", "objects"))
@settings(max_examples=15)
@given(data=st.data())
def test_parse_annotations_matches_legacy(fault, name, data):
    doc = data.draw(_with_faults(_annotation_docs(), (fault,) if fault else (), name))
    _assert_agrees(parse_annotations, legacy.parse_annotations, emit_annotations, doc)


@pytest.mark.parametrize("fault, name", _cases("detections"))
@settings(max_examples=15)
@given(data=st.data())
def test_parse_detections_matches_legacy(fault, name, data):
    doc = data.draw(_with_faults(_detection_docs(), (fault,) if fault else (), name))
    _assert_agrees(parse_detections, legacy.parse_detections, emit_detections, doc)


@settings(max_examples=100)
@given(data=st.data())
def test_json_path_alone_matches_legacy(data):
    """The single-fault properties of both record parsers with orjson's
    decoding forced to fail, so that every file, valid ones included, is
    read by json."""
    fault, name = data.draw(st.sampled_from(_cases("images", "objects") + _cases("detections")))
    if name == "detections":
        doc = data.draw(_with_faults(_detection_docs(), (fault,) if fault else (), name))
        parse, oracle, emit = parse_detections, legacy.parse_detections, emit_detections
    else:
        doc = data.draw(_with_faults(_annotation_docs(), (fault,) if fault else (), name))
        parse, oracle, emit = parse_annotations, legacy.parse_annotations, emit_annotations
    failure = orjson.JSONDecodeError("forced", "", 0)
    with mock.patch.object(orjson, "loads", side_effect=failure) as loads:
        _assert_agrees(parse, oracle, emit, doc)
    if fault is None:
        assert loads.called


_WIDE_ANNOTATIONS = {
    "images": [{"image_id": 0, "width": 2**64 - 1, "height": 100}],
    "objects": [{"image_id": 0, "class_label": "a", "bbox": [0, 0, 1, 1]}],
    "split": {"train": 1, "dev": 2, "test": 3},
}
_WIDE_DETECTIONS = {
    "detections": [{"image_id": 0, "class_label": "a", "bbox": [0, 0, 1, 1], "score": 0.5}]
}


@pytest.mark.parametrize("value", WIDE)
def test_wide_integers_in_every_numeric_field_match_legacy(value):
    """Each wide integer in each numeric field of a valid file, one at a time."""
    cases = [
        (_WIDE_ANNOTATIONS, path, parse_annotations, legacy.parse_annotations, emit_annotations)
        for path in _paths(_WIDE_ANNOTATIONS)
    ] + [
        (_WIDE_DETECTIONS, path, parse_detections, legacy.parse_detections, emit_detections)
        for path in _paths(_WIDE_DETECTIONS)
    ]
    for base, path, parse, oracle, emit in cases:
        doc = json.loads(json.dumps(base))
        container, key = _slot(doc, path)
        if type(container[key]) is int:
            container[key] = value
            _assert_agrees(parse, oracle, emit, doc)


def test_wide_box_integer_keeps_its_value():
    """orjson reads 10**30 as the float 1e30; the box keeps json's int."""
    record = {"image_id": 0, "class_label": "a", "bbox": [10**30, 0, 1, 1], "score": 0.5}
    parsed = parse_detections(json.dumps({"detections": [record]}))
    (box,) = parsed.columns.boxes
    assert box == [10**30, 0, 1, 1] and type(box[0]) is int
    (emitted,) = json.loads(emit_detections(parsed))["detections"]
    assert emitted["bbox"] == [10**30, 0, 1, 1] and type(emitted["bbox"][0]) is int


def _pair_id(case):
    return "+".join(case) if isinstance(case, tuple) else case


@pytest.mark.parametrize("faults, name", _pairs("images", "objects"), ids=_pair_id)
@settings(max_examples=5)
@given(data=st.data())
def test_parse_annotations_two_faults_match_legacy(faults, name, data):
    doc = data.draw(_with_faults(_annotation_docs(), faults, name))
    _assert_agrees(parse_annotations, legacy.parse_annotations, emit_annotations, doc)


@pytest.mark.parametrize("faults, name", _pairs("detections"), ids=_pair_id)
@settings(max_examples=5)
@given(data=st.data())
def test_parse_detections_two_faults_match_legacy(faults, name, data):
    doc = data.draw(_with_faults(_detection_docs(), faults, name))
    _assert_agrees(parse_detections, legacy.parse_detections, emit_detections, doc)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

_positive = st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e6))
_unit = st.one_of(st.sampled_from([0, 1]), st.floats(0, 1))


@st.composite
def _profile_docs(draw):
    thresholds = sorted(draw(st.lists(st.floats(0, 1), min_size=1, max_size=5, unique=True)))
    aps = sorted((draw(_unit) for _ in thresholds), reverse=True)
    doc = {
        "name": draw(st.text(max_size=5)),
        "per_image_latency_s": draw(st.one_of(st.just(0), _positive)),
        "ap_vs_iou": [[t, ap] for t, ap in zip(thresholds, aps)],
    }
    if draw(st.booleans()):
        triple = st.tuples(_positive, st.text(min_size=1, max_size=3), _unit).map(list)
        doc["ap_vs_distance"] = draw(st.lists(triple, max_size=3))
    if draw(st.booleans()):
        doc["notes"] = draw(st.text(max_size=5))
    return doc


@st.composite
def _scenario_docs(draw):
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    return {
        "camera": {
            "focal_px": draw(_positive),
            "ref_width": draw(st.integers(1, 4000)),
            "ref_height": draw(st.integers(1, 4000)),
        },
        "grid": {
            "rows": rows,
            "cols": cols,
            "image_width": draw(st.integers(1, 4000)),
            "image_height": draw(st.integers(1, 4000)),
        },
        "scan": {
            "n_cells": rows * cols,
            "t_scan_s": draw(_positive),
            "t_detect_s": draw(st.one_of(st.just(0), _positive)),
            "ap": draw(_unit),
        },
        "profile": draw(st.text(max_size=5)),
        "trials": draw(st.integers(1, 10**9)),
        "seed": draw(st.integers(0, 2**63)),
    }


@given(_annotation_docs())
def test_annotations_round_trip(doc):
    try:
        first = parse_annotations(json.dumps(doc))
    except RbcScanError:  # a float sum rounded past the image edge
        return
    assert parse_annotations(emit_annotations(first)) == first


@given(_detection_docs())
def test_detections_round_trip(doc):
    first = parse_detections(json.dumps(doc))
    assert parse_detections(emit_detections(first)) == first


@given(_profile_docs())
def test_profile_round_trip(doc):
    first = parse_profile(json.dumps(doc))
    assert parse_profile(emit_profile(first)) == first


@given(_scenario_docs())
def test_scenario_round_trip(doc):
    first = parse_scenario(json.dumps(doc))
    assert parse_scenario(emit_scenario(first)) == first


_DEFAULT_SCENARIO_TEXT = (Path(__file__).parents[1] / "scenarios" / "default.json").read_text(
    encoding="utf-8"
)


def test_default_scenario_is_its_own_emission():
    assert emit_scenario(parse_scenario(_DEFAULT_SCENARIO_TEXT)) == _DEFAULT_SCENARIO_TEXT


# ---------------------------------------------------------------------------
# scenarios and profiles against the oracle
# ---------------------------------------------------------------------------

SCENARIO_FAULTS = ("unknown", "missing", "type", "bool", "huge", "nan", "n_cells", "trials", "seed")
PROFILE_FAULTS = ("unknown", "missing", "type", "bool", "huge", "nan", "arity")


def _paths(value, prefix=()):
    """The key path of every field under an object or array, depth first."""
    for key in list(value) if type(value) is dict else range(len(value)):
        yield prefix + (key,)
        if type(value[key]) in (dict, list):
            yield from _paths(value[key], prefix + (key,))


def _slot(doc, path):
    """The container and key of the field at a key path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _apply_anywhere(draw, doc, fault):
    """Give ``doc`` one fault in place; one with nothing to act on is skipped."""
    slots = [_slot(doc, path) for path in _paths(doc)]
    objects = [doc] + [c[k] for c, k in slots if type(c[k]) is dict]
    numbers = [(c, k) for c, k in slots if type(c[k]) in (int, float)]
    rows = [c[k] for c, k in slots if type(c) is list and type(c[k]) is list]
    if fault == "unknown":
        draw(st.sampled_from(objects))[draw(st.sampled_from(["mask", "n_cell", "Seed"]))] = 1
    elif fault == "missing" and any(objects):
        record = draw(st.sampled_from([o for o in objects if o]))
        del record[draw(st.sampled_from(sorted(record)))]
    elif fault == "type" and slots:
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(st.sampled_from([None, "1", [], {}, [0.5, 0.5], 1.5, 3]))
    elif fault in ("bool", "huge", "nan") and numbers:
        container, key = draw(st.sampled_from(numbers))
        values = {"bool": [True, False], "huge": [HUGE, -HUGE], "nan": [math.nan, math.inf]}
        container[key] = draw(st.sampled_from(values[fault]))
    elif fault == "arity" and rows:
        row = draw(st.sampled_from(rows))
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(0.5)
    elif fault == "n_cells" and type(doc.get("scan")) is dict:
        n_cells = doc["scan"].get("n_cells")
        if type(n_cells) is int:
            doc["scan"]["n_cells"] = n_cells + draw(st.sampled_from([-1, 1, 2**63]))
    elif fault == "trials":
        doc["trials"] = draw(st.sampled_from([0, -1, MAX_TRIALS + 1, 10**30]))
    elif fault == "seed":
        doc["seed"] = -1


@st.composite
def _faulty(draw, docs, faults):
    doc = draw(docs)
    for fault in faults:
        _apply_anywhere(draw, doc, fault)
    return doc


def _assert_same(parse, emit, oracle_parse, oracle_emit, doc):
    """Equal values with identical emitted bytes, or the same error."""
    text = json.dumps(doc)
    got, want = _outcome(parse, text), _outcome(oracle_parse, text)
    assert got == want
    assert repr(got) == repr(want)
    if type(got) is not tuple:
        assert emit(got) == oracle_emit(want)


_BUNDLED_PROFILE = json.loads(emit_profile(builtin_profile()))
_SMALL_PROFILE = dict(
    _BUNDLED_PROFILE,
    ap_vs_iou=_BUNDLED_PROFILE["ap_vs_iou"][:2],
    ap_vs_distance=_BUNDLED_PROFILE["ap_vs_distance"][:2],
)
_DEFAULT_SCENARIO = json.loads(_DEFAULT_SCENARIO_TEXT)


@pytest.mark.parametrize(
    "doc, parse, emit, oracle_parse, oracle_emit",
    [
        (_DEFAULT_SCENARIO, parse_scenario, emit_scenario, legacy.parse_scenario,
         legacy.emit_scenario),
        (_SMALL_PROFILE, parse_profile, emit_profile, legacy.parse_profile, legacy.emit_profile),
    ],
    ids=["scenario", "profile"],
)
def test_every_two_null_fields_match_legacy(doc, parse, emit, oracle_parse, oracle_emit):
    """Null, a wrong type everywhere, in each field and in each two fields:
    both parsers name the same field first."""
    paths = list(_paths(doc))
    for a, b in [(a, a) for a in paths] + list(combinations(paths, 2)):
        if b[: len(a)] == a and a != b:  # b lies inside a
            continue
        faulty = json.loads(json.dumps(doc))
        for path in (a, b):
            container, key = _slot(faulty, path)
            container[key] = None
        _assert_same(parse, emit, oracle_parse, oracle_emit, faulty)


@pytest.mark.parametrize("fault", [None, *SCENARIO_FAULTS])
@settings(max_examples=15)
@given(data=st.data())
def test_parse_scenario_matches_legacy(fault, data):
    doc = data.draw(_faulty(_scenario_docs(), (fault,) if fault else ()))
    _assert_same(parse_scenario, emit_scenario, legacy.parse_scenario, legacy.emit_scenario, doc)


@settings(max_examples=150)
@given(data=st.data())
def test_parse_scenario_two_faults_match_legacy(data):
    faults = data.draw(st.lists(st.sampled_from(SCENARIO_FAULTS), min_size=2, max_size=2))
    doc = data.draw(_faulty(_scenario_docs(), faults))
    _assert_same(parse_scenario, emit_scenario, legacy.parse_scenario, legacy.emit_scenario, doc)


@pytest.mark.parametrize("fault", [None, *PROFILE_FAULTS])
@settings(max_examples=15)
@given(data=st.data())
def test_parse_profile_matches_legacy(fault, data):
    doc = data.draw(_faulty(_profile_docs(), (fault,) if fault else ()))
    _assert_same(parse_profile, emit_profile, legacy.parse_profile, legacy.emit_profile, doc)


@settings(max_examples=150)
@given(data=st.data())
def test_parse_profile_two_faults_match_legacy(data):
    faults = data.draw(st.lists(st.sampled_from(PROFILE_FAULTS), min_size=2, max_size=2))
    doc = data.draw(_faulty(_profile_docs(), faults))
    _assert_same(parse_profile, emit_profile, legacy.parse_profile, legacy.emit_profile, doc)
