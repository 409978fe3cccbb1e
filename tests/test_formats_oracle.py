"""Property tests: the file parsers against the field-at-a-time oracle.

``legacy_formats`` holds the record parsers from before each record was
checked in one pass, and the scenario and profile parsers and emitters from
before the record helpers. On every document a parser and its oracle return
equal values, with equal reprs and emitted bytes, or raise the same error
(with two faults, the first in check order; ``SchemaError`` where the
oracle's is ``OverflowError`` or ``RecursionError``), and a parsed value
survives ``parse(emit(...))``.

A document takes few draws: Hypothesis draws its list lengths, the record
that takes the faults, a field index per fault and one seed, and plain
Python builds the rest from the seed (``_build``): ids, labels, numbers in
and past the float range, ``-0.0``, scores and key orders. One engine,
``_fault``, breaks it: a wrong type, a bool or a huge integer for a number,
a missing or unknown key in the faulted record or anywhere in a scenario or
profile, and the faults of each file kind. A single fault always changes
the text; of two in one record, one left with nothing to act on is skipped.

Annotation and detection files are decoded with orjson, and with json where
that pass fails, so single faults also cover what the two decoders read
differently (``DECODER_FAULTS``); a census checks that the documents write
each such value kind, and one property forces ``orjson.loads`` to raise.
Round trips cover all four formats, and the bundled scenario file is its own
emission.
"""

import copy
import json
import math
import random
import re
import sys
from itertools import combinations, product
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

#: Strings that json.dumps writes with escaped quotes and backslashes, and
#: with no bracket, so that ``_value_kinds`` finds no nesting in them.
_ESCAPED = ['say "hi"', "C:\\data", "\\", '\\"']
#: Image ids: small integers, short strings over "ab1" and escaped strings.
_IDS = [
    *range(-3, 31),
    *("".join(p) for n in range(3) for p in product("ab1", repeat=n)),
    *_ESCAPED,
]
_LABELS = ["phone", "tablet", "", *_ESCAPED]
#: The largest floats, an integer above them that rounds to one, and -0.0.
_EDGES = [sys.float_info.max, -sys.float_info.max, BEYOND_FLOAT_MAX, -0.0]
#: Characters for free text: ASCII, escapes, controls and beyond the BMP.
_CHARS = 'ab1 "\\\x00\n\x1f\x7f\xe9\u2028中\U0001f600'


def _int(rng, lo, hi):
    """An integer in [lo, hi], an end half the time."""
    return rng.choice((lo, hi)) if rng.random() < 0.5 else rng.randint(lo, hi)


def _any_float(rng):
    """A finite float of any sign and magnitude, subnormals included."""
    return math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1024))


def _float(rng, lo, hi):
    """A float in [lo, hi]: an end, a whole number, a uniform draw or any
    float clamped into it."""
    whole = float(rng.randint(math.ceil(lo), math.floor(hi)))
    clamped = min(max(_any_float(rng), lo), hi)
    return rng.choice((float(lo), float(hi), whole, rng.uniform(lo, hi), clamped))


def _number(rng, lo, hi):
    """An integer or a float in [lo, hi]."""
    if rng.random() < 0.5:
        return _int(rng, math.ceil(lo), math.floor(hi))
    return _float(rng, lo, hi)


def _real(rng):
    """Any finite number, most of them within [-50, 300]."""
    return rng.choice(
        (rng.randint(-50, 300), _float(rng, -50, 300), _any_float(rng), rng.choice(_EDGES))
    )


def _positive(rng):
    return _number(rng, 1e-6, 1e6)


def _text(rng, lo, hi):
    return "".join(rng.choices(_CHARS, k=rng.randint(lo, hi)))


def _shuffled(rng, record):
    return dict(rng.sample(list(record.items()), len(record)))


def _annotations(rng, shape):
    images = [
        {"image_id": i, "width": _int(rng, 1, 100), "height": _int(rng, 1, 100)}
        for i in rng.sample(_IDS, shape["images"])
    ]
    objects = []
    for _ in range(shape["objects"]):
        im = rng.choice(images)
        x, y = _number(rng, 0, im["width"]), _number(rng, 0, im["height"])
        # x + w may still round past the edge: then both parsers reject it.
        box = [x, y, _number(rng, 0, im["width"] - x), _number(rng, 0, im["height"] - y)]
        objects.append({"image_id": im["image_id"], "class_label": rng.choice(_LABELS), "bbox": box})
    doc = {
        "images": [_shuffled(rng, r) for r in images],
        "objects": [_shuffled(rng, r) for r in objects],
    }
    if rng.random() < 0.5:
        doc["split"] = {k: _int(rng, 0, 9) for k in ("train", "dev", "test")}
    return doc


def _detections(rng, shape):
    def detection():
        box = [_real(rng), _real(rng), _number(rng, 0, 300), _number(rng, 0, 300)]
        if rng.random() < 0.5:  # any finite extent at all
            box[2:] = [abs(_real(rng)), abs(_real(rng))]
        record = {"image_id": rng.choice(_IDS), "class_label": rng.choice(_LABELS), "bbox": box}
        return _shuffled(rng, dict(record, score=_number(rng, 0, 1)))

    return {"detections": [detection() for _ in range(shape["detections"])]}


def _profile(rng, shape):
    thresholds = sorted({_float(rng, 0, 1) for _ in range(shape["ap_vs_iou"])})
    aps = sorted((_number(rng, 0, 1) for _ in thresholds), reverse=True)
    n = shape["ap_vs_distance"]
    triples = [[_positive(rng), _text(rng, 1, 3), _number(rng, 0, 1)] for _ in range(n)]
    doc = {
        "name": _text(rng, 0, 5),
        "per_image_latency_s": 0 if rng.random() < 0.5 else _positive(rng),
        "ap_vs_iou": [[t, ap] for t, ap in zip(thresholds, aps)],
    }
    if rng.random() < 0.5:
        doc["ap_vs_distance"] = triples
    if rng.random() < 0.5:
        doc["notes"] = _text(rng, 0, 5)
    return doc


def _scenario(rng, shape):
    rows, cols = _int(rng, 1, 16), _int(rng, 1, 16)
    width, height, ref_width, ref_height = (_int(rng, 1, 4000) for _ in range(4))
    t_detect = 0 if rng.random() < 0.5 else _positive(rng)
    scan = {"n_cells": rows * cols, "t_scan_s": _positive(rng), "t_detect_s": t_detect}
    return {
        "camera": {"focal_px": _positive(rng), "ref_width": ref_width, "ref_height": ref_height},
        "grid": {"rows": rows, "cols": cols, "image_width": width, "image_height": height},
        "scan": dict(scan, ap=_number(rng, 0, 1)),
        "profile": _text(rng, 0, 5),
        "trials": _int(rng, 1, 10**9),
        "seed": _int(rng, 0, 2**63),
    }


#: Each file kind's builder and the length range of each of its lists.
_BUILDERS = {
    "annotations": (_annotations, {"images": (1, 4), "objects": (1, 6)}),
    "detections": (_detections, {"detections": (1, 6)}),
    "profile": (_profile, {"ap_vs_iou": (1, 5), "ap_vs_distance": (0, 3)}),
    "scenario": (_scenario, {}),
}
#: The file kind of each record list.
_KIND = {"images": "annotations", "objects": "annotations", "detections": "detections"}


def _build(kind, shape, seed, faults=(), name=None, i=None, fields=()):
    """The ``kind`` document of list lengths ``shape`` built from ``seed``,
    with ``faults`` in record i of list ``name``, or anywhere when ``name``
    is None; each fault starts from its field index in ``fields``."""
    rng = random.Random(seed)
    doc = _BUILDERS[kind][0](rng, shape)
    before = _dumps(doc) if len(faults) == 1 else None
    for fault, field in zip(faults, fields):
        _fault(rng, doc, fault, name, i, field)
    assert before is None or _dumps(doc) != before, f"{faults} left the document as it was"
    return doc


@st.composite
def _docs(draw, kind, *faults, name=None):
    """A ``kind`` document with ``faults`` (None stands for none) in one
    record of list ``name``, or anywhere in it when ``name`` is None."""
    faults = tuple(f for f in faults if f)
    shape = {}
    for key, (lo, hi) in _BUILDERS[kind][1].items():
        if key == "images" and "duplicate id" in faults:
            lo = 2  # the faulted image takes another one's id
        shape[key] = draw(st.integers(lo, hi))
    i = draw(st.integers(0, shape[name] - 1)) if name and faults else None
    fields = [draw(st.integers(0, 2**16)) for _ in faults]
    return _build(kind, shape, draw(st.integers(0, 2**32)), faults, name, i, fields)


_ALL = ("images", "objects", "detections")
#: Each fault, with the record lists it applies to.
FAULTS = {
    **dict.fromkeys(["type", "bool", "missing", "unknown", "record", "huge"], _ALL),
    **dict.fromkeys(["box type", "arity", "negative"], ("objects", "detections")),
    **dict.fromkeys(["shifted", "outside", "unknown id", "id lookalike"], ("objects",)),
    **dict.fromkeys(["duplicate id", "size"], ("images",)),
    "score": ("detections",),
}
#: Faults at which orjson and json read the text differently, each used alone.
DECODER_FAULTS = dict.fromkeys(
    ["wide", "surrogate", "1e400", "control", "duplicate key", "nesting"], _ALL
)
SCENARIO_FAULTS = ("unknown", "missing", "type", "bool", "huge", "nan", "n_cells", "trials", "seed")
PROFILE_FAULTS = ("unknown", "missing", "type", "bool", "huge", "nan", "arity")

#: Values of the wrong type for most fields, and of the right one for some.
_WRONG_TYPES = [None, "1", [], {}, [1, 2, 3, 4], [0.5, 0.5], 1.5, 3]
#: What each number fault puts in place of a number.
_NUMBER_FAULTS = {"bool": [True, False], "huge": [HUGE, -HUGE], "nan": [math.nan, math.inf]}
_UNKNOWN_KEYS = ["mask", "Score", "image", "n_cell", "Seed"]


def _put(rng, slot, values):
    """Set the field at ``slot`` to a copy of one of ``values`` it does not hold."""
    container, key = slot
    value = rng.choice([v for v in values if repr(v) != repr(container[key])])
    container[key] = copy.deepcopy(value)


def _fault(rng, doc, fault, name, i, field):
    """Give ``doc`` one fault in place: in record i of list ``name``, or
    anywhere in it when ``name`` is None. ``field`` picks the field hit."""

    def pick(options):
        return options[field % len(options)]

    if name is None:
        slots = [_slot(doc, path) for path in _paths(doc)]
        objects = [doc] + [c[k] for c, k in slots if type(c[k]) is dict]
        numbers = [(c, k) for c, k in slots if type(c[k]) in (int, float)]
    else:
        record = doc[name][i]
        box = record["bbox"] if type(record.get("bbox")) is list else []
        slots, objects = [(record, key) for key in record], [record]
        numbers = [(box, k) for k in range(len(box))]
        numbers += [(record, key) for key in ("width", "height", "score") if key in record]
    if fault == "type" and slots:
        _put(rng, pick(slots), _WRONG_TYPES)
    elif fault in _NUMBER_FAULTS and numbers:
        _put(rng, pick(numbers), _NUMBER_FAULTS[fault])
    elif fault == "missing" and slots:
        container, key = pick([(c, k) for c, k in slots if type(c) is dict])
        del container[key]
    elif fault == "unknown":
        rng.choice(objects)[rng.choice(_UNKNOWN_KEYS)] = 1
    elif name is not None:
        _record_fault(rng, doc, name, i, fault, box, numbers, pick)
    elif fault == "arity":
        rows = [c[k] for c, k in slots if type(c) is list and type(c[k]) is list]
        if rows:
            row = pick(rows)
            if row and rng.random() < 0.5:
                row.pop()
            else:
                row.append(0.5)
    elif fault == "n_cells" and type(doc.get("scan")) is dict:
        if type(doc["scan"].get("n_cells")) is int:
            doc["scan"]["n_cells"] += rng.choice([-1, 1, 2**63])
    elif fault == "trials":
        doc["trials"] = rng.choice([0, -1, MAX_TRIALS + 1, 10**30])
    elif fault == "seed":
        doc["seed"] = -1


def _record_fault(rng, doc, name, i, fault, box, numbers, pick):
    """One of the faults only records take, in record i."""
    record = doc[name][i]
    strings = [(record, key) for key in ("image_id", "class_label") if key in record]
    # Wide and unbounded numbers also go in an integer id or a split count.
    if type(record.get("image_id")) is int:
        numbers = numbers + [(record, "image_id")]
    if name == "images" and "split" in doc:
        numbers = numbers + [(doc["split"], key) for key in doc["split"]]
    if fault == "record":
        doc[name][i] = rng.choice([None, 1, "x", [], box])
    elif fault == "box type" and numbers[:4]:
        _put(rng, pick(numbers[:4]), _WRONG_TYPES)
    elif fault == "arity":
        record["bbox"] = rng.choice([[], box[:3], box + [1]])
    elif fault == "negative" and len(box) >= 4:
        box[rng.randint(2, 3)] = -rng.choice([1, 0.5, 1e-300])
    elif fault == "shifted":
        # A shifted bool or huge integer would lose its fault or overflow.
        slots = [k for k, v in enumerate(box[:4]) if type(v) in (int, float) and abs(v) < 1e300]
        if slots:
            k = pick(slots)
            box[k] += rng.choice([d for d in (-1e-9, -1, 200, 1e300) if box[k] + d != box[k]])
    elif fault == "outside":  # x and w each within the image, x + w not
        image = next((im for im in doc["images"] if im["image_id"] == record.get("image_id")), None)
        if image is not None and len(box) >= 4:
            k = rng.randint(0, 1)
            side = image[("width", "height")[k]]
            box[k + 2] = rng.randint(1, side)
            box[k] = side - box[k + 2] + rng.choice([1, 2**-30])
    elif fault == "unknown id":
        record["image_id"] = "ghost"
    elif fault == "id lookalike":  # equal to an image id, or unhashable
        image_id = record.get("image_id")
        lookalikes = [float(image_id), True] if type(image_id) is int else [[image_id]]
        record["image_id"] = rng.choice(lookalikes)
    elif fault == "duplicate id":
        record["image_id"] = rng.choice([im for im in doc["images"] if im is not record])["image_id"]
    elif fault == "size":
        record[pick(["width", "height"])] = rng.choice([0, -1])
    elif fault == "score":
        record["score"] = rng.choice([1.5, -0.25, 1.0000000000000002, -1e-300, 2])
    elif fault == "wide":
        _put(rng, pick(numbers), WIDE)
    elif fault == "surrogate":
        _put(rng, pick(strings), ["\ud800", "a\udfff", "\udc00\ud800"])
    elif fault == "1e400":
        container, key = pick(numbers)
        container[key] = _Raw(rng.choice(["1e400", "-1e400", "1E+400", "2e308"]))
    elif fault == "control":
        container, key = pick(strings)
        container[key] = _Raw(rng.choice(['"\x01"', '"a\tb"', '"\x1f"', '"\n"']))
    elif fault == "duplicate key":
        key = pick(sorted(record))
        again = (key, rng.choice([record[key], None, -1, "x"]))
        items = list(record.items())
        items = items + [again] if rng.random() < 0.5 else [again] + items
        fields = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items)
        doc[name][i] = _Raw("{" + fields + "}")
    elif fault == "nesting":
        depth = rng.choice(DEPTHS)
        nested = rng.choice(["[" * depth + "]" * depth, '{"a": ' * depth + "0" + "}" * depth])
        if rng.random() < 0.5:
            doc[name][i] = _Raw(nested)
        else:
            record[pick(sorted(record))] = _Raw(nested)


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


#: Each file kind's parser and emitter, then the oracle's.
_PARSERS = {
    "annotations": (parse_annotations, emit_annotations, legacy.parse_annotations, emit_annotations),
    "detections": (parse_detections, emit_detections, legacy.parse_detections, emit_detections),
    "profile": (parse_profile, emit_profile, legacy.parse_profile, legacy.emit_profile),
    "scenario": (parse_scenario, emit_scenario, legacy.parse_scenario, legacy.emit_scenario),
}
#: What the parsers raise where the oracle raises one of these.
_MAPPED = {
    OverflowError: "too large for a float",
    RecursionError: "not valid JSON: arrays or objects nested too deeply",
}


def _outcome(parse, text):
    try:
        return parse(text)
    except (RbcScanError, OverflowError, RecursionError) as e:
        return type(e), str(e)


def _assert_agrees(kind, doc):
    """The ``kind`` parser and its oracle agree on ``doc``: equal values with
    equal reprs and emitted bytes, or the same error. A parsed file also
    survives ``emit`` unchanged."""
    parse, emit, oracle_parse, oracle_emit = _PARSERS[kind]
    text = _dumps(doc)
    got, want = _outcome(parse, text), _outcome(oracle_parse, text)
    if type(want) is tuple and want[0] in _MAPPED:
        assert isinstance(got, tuple) and got[0] is SchemaError, got
        assert _MAPPED[want[0]] in got[1]
        return
    assert got == want
    # == holds between 1 and 1.0; repr tells them apart.
    assert repr(got) == repr(want)
    if type(got) is not tuple:
        assert emit(got) == oracle_emit(want)
        again = parse(emit(got))
        assert again == got
        assert repr(again) == repr(got)


def _cases(*lists):
    return [(None, lists[0])] + [
        (fault, name)
        for fault, names in (FAULTS | DECODER_FAULTS).items()
        for name in names
        if name in lists
    ]


def _pairs(*lists):
    """Every two distinct faults that can share a record of the named lists."""
    return [
        (pair, name)
        for name in lists
        for pair in combinations([f for f, names in FAULTS.items() if name in names], 2)
        if "record" not in pair
    ]


def _pair_id(case):
    return "+".join(case) if isinstance(case, tuple) else case


@pytest.mark.parametrize("fault, name", _cases("images", "objects"))
@settings(max_examples=15)
@given(data=st.data())
def test_parse_annotations_matches_legacy(fault, name, data):
    _assert_agrees("annotations", data.draw(_docs("annotations", fault, name=name)))


@pytest.mark.parametrize("fault, name", _cases("detections"))
@settings(max_examples=15)
@given(data=st.data())
def test_parse_detections_matches_legacy(fault, name, data):
    _assert_agrees("detections", data.draw(_docs("detections", fault, name=name)))


@pytest.mark.parametrize("fault, name", _cases("images", "objects") + _cases("detections"))
@settings(max_examples=2)
@given(data=st.data())
def test_json_path_alone_matches_legacy(fault, name, data):
    """The single-fault properties of both record parsers with orjson's
    decoding forced to fail, so that every file, valid ones included, is
    read by json."""
    doc = data.draw(_docs(_KIND[name], fault, name=name))
    failure = orjson.JSONDecodeError("forced", "", 0)
    with mock.patch.object(orjson, "loads", side_effect=failure) as loads:
        _assert_agrees(_KIND[name], doc)
    if fault is None:
        assert loads.called


@pytest.mark.parametrize("faults, name", _pairs("images", "objects"), ids=_pair_id)
@settings(max_examples=5)
@given(data=st.data())
def test_parse_annotations_two_faults_match_legacy(faults, name, data):
    _assert_agrees("annotations", data.draw(_docs("annotations", *faults, name=name)))


@pytest.mark.parametrize("faults, name", _pairs("detections"), ids=_pair_id)
@settings(max_examples=5)
@given(data=st.data())
def test_parse_detections_two_faults_match_legacy(faults, name, data):
    _assert_agrees("detections", data.draw(_docs("detections", *faults, name=name)))


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
    for kind, base in (("annotations", _WIDE_ANNOTATIONS), ("detections", _WIDE_DETECTIONS)):
        for path in _paths(base):
            doc = json.loads(json.dumps(base))
            container, key = _slot(doc, path)
            if type(container[key]) is int:
                container[key] = value
                _assert_agrees(kind, doc)


def test_wide_box_integer_keeps_its_value():
    """orjson reads 10**30 as the float 1e30; the box keeps json's int."""
    record = {"image_id": 0, "class_label": "a", "bbox": [10**30, 0, 1, 1], "score": 0.5}
    parsed = parse_detections(json.dumps({"detections": [record]}))
    (box,) = parsed.columns.boxes
    assert box == [10**30, 0, 1, 1] and type(box[0]) is int
    (emitted,) = json.loads(emit_detections(parsed))["detections"]
    assert emitted["bbox"] == [10**30, 0, 1, 1] and type(emitted["bbox"][0]) is int


def _value_kinds(text):
    """The value kinds of ``DECODER_FAULTS`` that a document's text holds."""
    numbers = set(re.findall(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", text))
    found = {
        "wide": numbers & {str(v) for v in WIDE},
        "1e400": [n for n in numbers if "e" in n.lower() and math.isinf(float(n))],
        "surrogate": re.search(r"\\ud[89a-f]", text),
        "control": re.search(r"[\x00-\x1f]", text),
        "duplicate key": re.search(r'\{[^{}]*"(\w+)": [^{}]*"\1": ', text),
    }
    kinds = {kind for kind, hits in found.items() if hits}
    # A run of "[" that opens a record list holds one bracket of the list's own.
    for key, run in re.findall(r'(?:"(\w+)": )?(\[+)\]', text):
        kinds.add(("nesting", len(run) - (key in _KIND)))
    for run in re.findall(r'((?:\{"a": )+)0', text):
        kinds.add(("nesting", len(run) // len('{"a": ')))
    return kinds


def test_decoder_faults_write_every_value_kind():
    """Decoder-fault documents built from seeds below 60 write into each
    record list a wide integer, a lone surrogate, a number past the float
    range, a raw control character, a duplicate key and each of ``DEPTHS``."""
    expected = {"wide", "surrogate", "1e400", "control", "duplicate key"}
    expected |= {("nesting", depth) for depth in DEPTHS}
    for name, kind in _KIND.items():
        shape = {key: hi for key, (lo, hi) in _BUILDERS[kind][1].items()}
        seen = set()
        for seed, fault in product(range(60), DECODER_FAULTS):
            if seen != expected:
                doc = _build(kind, shape, seed, (fault,), name, seed % shape[name], (seed,))
                seen |= _value_kinds(_dumps(doc))
        assert seen == expected, name


@given(_docs("annotations"))
def test_annotations_round_trip(doc):
    try:
        first = parse_annotations(json.dumps(doc))
    except RbcScanError:  # a float sum rounded past the image edge
        return
    assert parse_annotations(emit_annotations(first)) == first


@given(_docs("detections"))
def test_detections_round_trip(doc):
    first = parse_detections(json.dumps(doc))
    assert parse_detections(emit_detections(first)) == first


@given(_docs("profile"))
def test_profile_round_trip(doc):
    first = parse_profile(json.dumps(doc))
    assert parse_profile(emit_profile(first)) == first


@given(_docs("scenario"))
def test_scenario_round_trip(doc):
    first = parse_scenario(json.dumps(doc))
    assert parse_scenario(emit_scenario(first)) == first


_DEFAULT_SCENARIO_TEXT = (Path(__file__).parents[1] / "scenarios" / "default.json").read_text(
    encoding="utf-8"
)


def test_default_scenario_is_its_own_emission():
    assert emit_scenario(parse_scenario(_DEFAULT_SCENARIO_TEXT)) == _DEFAULT_SCENARIO_TEXT


_SMALL_PROFILE = json.loads(emit_profile(builtin_profile()))
_SMALL_PROFILE.update((key, _SMALL_PROFILE[key][:2]) for key in ("ap_vs_iou", "ap_vs_distance"))
#: Valid documents to null fields in.
_NULLED = {"scenario": json.loads(_DEFAULT_SCENARIO_TEXT), "profile": _SMALL_PROFILE}


@pytest.mark.parametrize("kind", _NULLED)
def test_every_two_null_fields_match_legacy(kind):
    """Null, a wrong type everywhere, in each field and in each two fields:
    both parsers name the same field first."""
    doc = _NULLED[kind]
    paths = list(_paths(doc))
    for a, b in [(a, a) for a in paths] + list(combinations(paths, 2)):
        if b[: len(a)] == a and a != b:  # b lies inside a
            continue
        faulty = json.loads(json.dumps(doc))
        for path in (a, b):
            container, key = _slot(faulty, path)
            container[key] = None
        _assert_agrees(kind, faulty)


@pytest.mark.parametrize("fault", [None, *SCENARIO_FAULTS])
@settings(max_examples=15)
@given(data=st.data())
def test_parse_scenario_matches_legacy(fault, data):
    _assert_agrees("scenario", data.draw(_docs("scenario", fault)))


@settings(max_examples=150)
@given(data=st.data())
def test_parse_scenario_two_faults_match_legacy(data):
    faults = data.draw(st.lists(st.sampled_from(SCENARIO_FAULTS), min_size=2, max_size=2))
    _assert_agrees("scenario", data.draw(_docs("scenario", *faults)))


@pytest.mark.parametrize("fault", [None, *PROFILE_FAULTS])
@settings(max_examples=15)
@given(data=st.data())
def test_parse_profile_matches_legacy(fault, data):
    _assert_agrees("profile", data.draw(_docs("profile", fault)))


@settings(max_examples=150)
@given(data=st.data())
def test_parse_profile_two_faults_match_legacy(data):
    faults = data.draw(st.lists(st.sampled_from(PROFILE_FAULTS), min_size=2, max_size=2))
    _assert_agrees("profile", data.draw(_docs("profile", *faults)))
