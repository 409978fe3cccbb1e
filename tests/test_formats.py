import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbcscan
from rbcscan import formats
from rbcscan.detector import builtin_profile
from rbcscan.errors import InvariantError, SchemaError
from rbcscan.formats import (
    AnnotationFile,
    DetectionFile,
    ImageInfo,
    ScenarioFile,
    emit_annotations,
    emit_detections,
    emit_profile,
    emit_scenario,
    parse_annotations,
    parse_detections,
    parse_profile,
    parse_scenario,
    resolve_profile,
)
from rbcscan.geometry import CameraModel, CellGrid
from rbcscan.metrics import BBox, Columns, Detection, GroundTruthObject
from rbcscan.scanning import ScanConfig

ANNOTATIONS_TEXT = """
{
  "images": [
    {"image_id": "img1", "width": 1280, "height": 720},
    {"image_id": 2, "width": 640, "height": 360}
  ],
  "objects": [
    {"image_id": "img1", "class_label": "smartphone", "bbox": [100, 50, 124, 62]},
    {"image_id": 2, "class_label": "smartphone", "bbox": [10, 10.5, 62, 31]}
  ],
  "split": {"train": 1600, "dev": 800, "test": 800}
}
"""

DETECTIONS_TEXT = """
{
  "detections": [
    {"image_id": "img1", "class_label": "smartphone", "bbox": [98, 51, 126, 60], "score": 0.91}
  ]
}
"""

SCENARIO_TEXT = """
{
  "camera": {"focal_px": 1062.857142857143, "ref_width": 1280, "ref_height": 720},
  "grid": {"rows": 8, "cols": 8, "image_width": 1280, "image_height": 720},
  "scan": {"n_cells": 64, "t_scan_s": 2.0, "t_detect_s": 0.2, "ap": 0.70},
  "profile": "mask-rcnn-smartphone",
  "trials": 1000000,
  "seed": 20240601
}
"""


class TestAnnotations:
    def test_parse(self):
        af = parse_annotations(ANNOTATIONS_TEXT)
        assert af.images == (ImageInfo("img1", 1280, 720), ImageInfo(2, 640, 360))
        assert af.objects[0].bbox == BBox(100, 50, 124, 62)
        assert af.split == {"train": 1600, "dev": 800, "test": 800}

    def test_round_trip(self):
        first = parse_annotations(ANNOTATIONS_TEXT)
        assert parse_annotations(emit_annotations(first)) == first

    def test_split_is_optional(self):
        af = parse_annotations('{"images": [], "objects": []}')
        assert af.split is None
        assert parse_annotations(emit_annotations(af)) == af

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SchemaError, match="extra"):
            parse_annotations('{"images": [], "objects": [], "extra": 1}')

    def test_unknown_object_field_rejected(self):
        text = json.dumps(
            {
                "images": [{"image_id": "a", "width": 10, "height": 10}],
                "objects": [
                    {"image_id": "a", "class_label": "x", "bbox": [0, 0, 1, 1], "mask": []}
                ],
            }
        )
        with pytest.raises(SchemaError, match=r"objects\[0\].mask"):
            parse_annotations(text)

    def test_missing_image_reference_rejected(self):
        text = json.dumps(
            {
                "images": [],
                "objects": [{"image_id": "ghost", "class_label": "x", "bbox": [0, 0, 1, 1]}],
            }
        )
        with pytest.raises(InvariantError, match="ghost"):
            parse_annotations(text)

    def test_box_outside_image_rejected(self):
        text = json.dumps(
            {
                "images": [{"image_id": "a", "width": 100, "height": 100}],
                "objects": [{"image_id": "a", "class_label": "x", "bbox": [50, 50, 60, 10]}],
            }
        )
        with pytest.raises(InvariantError, match=r"objects\[0\].bbox"):
            parse_annotations(text)

    def test_duplicate_image_id_rejected(self):
        text = json.dumps(
            {
                "images": [
                    {"image_id": "a", "width": 10, "height": 10},
                    {"image_id": "a", "width": 20, "height": 20},
                ],
                "objects": [],
            }
        )
        with pytest.raises(InvariantError, match="duplicate"):
            parse_annotations(text)

    def test_bbox_arity_checked(self):
        text = json.dumps(
            {
                "images": [{"image_id": "a", "width": 10, "height": 10}],
                "objects": [{"image_id": "a", "class_label": "x", "bbox": [0, 0, 1]}],
            }
        )
        with pytest.raises(SchemaError, match=r"bbox"):
            parse_annotations(text)

    def test_malformed_json_reports_line(self):
        with pytest.raises(SchemaError, match="line"):
            parse_annotations('{"images": [,]}')

    def test_type_mismatch_rejected(self):
        text = '{"images": [{"image_id": "a", "width": "wide", "height": 10}], "objects": []}'
        with pytest.raises(SchemaError, match="width"):
            parse_annotations(text)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_box_rejected(self, number):
        # A NaN box would pass the image-bounds check: every comparison
        # with NaN is false.
        text = (
            '{"images": [{"image_id": "a", "width": 100, "height": 100}], "objects": '
            f'[{{"image_id": "a", "class_label": "x", "bbox": [{number}, 1, 10, 10]}}]}}'
        )
        with pytest.raises(SchemaError):
            parse_annotations(text)


class TestDetections:
    def test_parse(self):
        df = parse_detections(DETECTIONS_TEXT)
        assert df.detections == (
            Detection(image_id="img1", bbox=BBox(98, 51, 126, 60), score=0.91,
                      class_label="smartphone"),
        )

    def test_round_trip(self):
        first = parse_detections(DETECTIONS_TEXT)
        assert parse_detections(emit_detections(first)) == first

    def test_score_out_of_range_rejected_with_path(self):
        text = json.dumps(
            {
                "detections": [
                    {"image_id": "a", "class_label": "x", "bbox": [0, 0, 1, 1], "score": 1.5}
                ]
            }
        )
        with pytest.raises(InvariantError, match=r"detections\[0\].score"):
            parse_detections(text)

    def test_negative_box_rejected(self):
        text = json.dumps(
            {
                "detections": [
                    {"image_id": "a", "class_label": "x", "bbox": [0, 0, -1, 1], "score": 0.5}
                ]
            }
        )
        with pytest.raises(InvariantError, match=r"detections\[0\].bbox"):
            parse_detections(text)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="detections"):
            parse_detections("{}")

    @pytest.mark.parametrize(
        "field",
        [
            '"bbox": [NaN, 1, 10, 10], "score": 0.5',
            '"bbox": [0, 0, 1e999, 1], "score": 0.5',
            '"bbox": [0, 0, 1, 1], "score": NaN',
        ],
    )
    def test_non_finite_number_rejected(self, field):
        text = f'{{"detections": [{{"image_id": "a", "class_label": "x", {field}}}]}}'
        with pytest.raises(SchemaError):
            parse_detections(text)


class TestProfileFormat:
    def test_round_trip_builtin(self):
        profile = builtin_profile()
        assert parse_profile(emit_profile(profile)) == profile

    def test_rising_curve_rejected(self):
        text = json.dumps(
            {"name": "x", "per_image_latency_s": 0.1, "ap_vs_iou": [[0.5, 0.2], [0.6, 0.9]]}
        )
        with pytest.raises(InvariantError):
            parse_profile(text)

    def test_bad_knot_arity_rejected(self):
        text = json.dumps({"name": "x", "per_image_latency_s": 0.1, "ap_vs_iou": [[0.5]]})
        with pytest.raises(SchemaError, match=r"ap_vs_iou\[0\]"):
            parse_profile(text)

    def test_resolve_builtin_name(self):
        assert resolve_profile("mask-rcnn-smartphone") == builtin_profile()

    def test_resolve_path_relative_to_base(self, tmp_path):
        path = tmp_path / "custom.json"
        profile = builtin_profile()
        path.write_text(emit_profile(profile), encoding="utf-8")
        assert resolve_profile("custom.json", base_dir=tmp_path) == profile


class TestScenario:
    def test_parse_reference_constants(self):
        sc = parse_scenario(SCENARIO_TEXT)
        assert sc.scan == ScanConfig(n_cells=64, t_scan_s=2.0, t_detect_s=0.2, ap=0.70)
        assert sc.grid == CellGrid(8, 8, 1280, 720)
        assert sc.camera == CameraModel(1062.857142857143, 1280, 720)
        assert sc.profile == "mask-rcnn-smartphone"
        assert (sc.trials, sc.seed) == (1_000_000, 20240601)

    def test_round_trip(self):
        first = parse_scenario(SCENARIO_TEXT)
        assert parse_scenario(emit_scenario(first)) == first

    def test_grid_mismatch_rejected(self):
        payload = json.loads(SCENARIO_TEXT)
        payload["scan"]["n_cells"] = 63
        with pytest.raises(InvariantError, match="n_cells"):
            parse_scenario(json.dumps(payload))

    def test_bad_ap_rejected_with_path(self):
        payload = json.loads(SCENARIO_TEXT)
        payload["scan"]["ap"] = 1.5
        with pytest.raises(InvariantError, match=r"\$\.scan"):
            parse_scenario(json.dumps(payload))

    def test_non_positive_trials_rejected(self):
        payload = json.loads(SCENARIO_TEXT)
        payload["trials"] = 0
        with pytest.raises(InvariantError, match="trials"):
            parse_scenario(json.dumps(payload))

    def test_negative_seed_rejected(self):
        payload = json.loads(SCENARIO_TEXT)
        payload["seed"] = -5
        with pytest.raises(InvariantError, match=r"^\$\.seed: must be >= 0, got -5$"):
            parse_scenario(json.dumps(payload))
        payload["seed"] = 0
        assert parse_scenario(json.dumps(payload)).seed == 0

    def test_unknown_field_rejected(self):
        payload = json.loads(SCENARIO_TEXT)
        payload["grid"]["shape"] = "square"
        with pytest.raises(SchemaError, match="shape"):
            parse_scenario(json.dumps(payload))


class TestRecordColumns:
    """Parsed files hold columns; their record tuples equal tuple-built ones."""

    OBJECTS = (
        GroundTruthObject("img1", BBox(100, 50, 124, 62), "smartphone"),
        GroundTruthObject(2, BBox(10, 10.5, 62, 31), "smartphone"),
    )
    DETECTIONS = (Detection("img1", BBox(98, 51, 126, 60), 0.91, "smartphone"),)

    def test_parsed_annotations_equal_tuple_built(self):
        af = parse_annotations(ANNOTATIONS_TEXT)
        built = AnnotationFile(
            images=(ImageInfo("img1", 1280, 720), ImageInfo(2, 640, 360)),
            columns=Columns.of(self.OBJECTS),
            split={"train": 1600, "dev": 800, "test": 800},
        )
        assert af == built and built == af
        assert repr(af) == repr(built)
        assert af != AnnotationFile(built.images, Columns.of(self.OBJECTS[:1]), built.split)

    def test_parsed_detections_equal_tuple_built(self):
        df = parse_detections(DETECTIONS_TEXT)
        built = DetectionFile(Columns.of(self.DETECTIONS))
        assert df == built and built == df
        assert repr(df) == repr(built)
        assert df != DetectionFile(Columns())

    def test_records_keep_the_file_values(self):
        # An integer stays an integer: repr tells 1 from 1.0.
        af = parse_annotations(ANNOTATIONS_TEXT)
        assert repr(af.objects[1].bbox) == "BBox(x=10, y=10.5, w=62, h=31)"
        assert af.columns == Columns(
            ("img1", 2), ("smartphone", "smartphone"), ([100, 50, 124, 62], [10, 10.5, 62, 31])
        )
        df = parse_detections(DETECTIONS_TEXT)
        assert df.columns == Columns(("img1",), ("smartphone",), ([98, 51, 126, 60],), (0.91,))

    def test_lengths(self):
        assert len(parse_annotations(ANNOTATIONS_TEXT).objects) == 2
        assert len(parse_detections(DETECTIONS_TEXT).detections) == 1
        empty = parse_annotations('{"images": [], "objects": []}')
        assert len(empty.objects) == 0 and empty.columns == Columns()
        assert len(parse_detections('{"detections": []}').detections) == 0

    def test_tuple_built_files_have_columns(self):
        assert DetectionFile(Columns.of(self.DETECTIONS)).detections == self.DETECTIONS
        af = AnnotationFile(images=(), columns=Columns.of(self.OBJECTS))
        assert af.objects == self.OBJECTS


class TestEmitters:
    def test_emit_annotations_canonical(self):
        af = AnnotationFile(
            images=(ImageInfo("a", 100, 50),),
            columns=Columns.of((GroundTruthObject(image_id="a", bbox=BBox(1, 2, 3, 4)),)),
            split=None,
        )
        text = emit_annotations(af)
        assert text.endswith("\n")
        assert parse_annotations(text) == af

    def test_emit_detections_preserves_float_scores(self):
        df = DetectionFile(
            Columns.of((Detection(image_id=7, bbox=BBox(0.25, 0.5, 1.125, 2.0), score=1 / 3),))
        )
        assert parse_detections(emit_detections(df)) == df

    def test_emit_scenario_round_trip_from_values(self):
        sc = ScenarioFile(
            camera=CameraModel(1000.5, 1920, 1080),
            grid=CellGrid(4, 4, 1920, 1080),
            scan=ScanConfig(16, 1.5, 0.1, 0.5),
            profile="mask-rcnn-smartphone",
            trials=10,
            seed=3,
        )
        assert parse_scenario(emit_scenario(sc)) == sc


class TestDecoding:
    DATA = Path(__file__).resolve().parents[1] / "data"

    def test_valid_files_are_decoded_by_orjson_alone(self, monkeypatch):
        def json_decode(text):
            raise AssertionError("decoded with json")

        expected = parse_annotations(ANNOTATIONS_TEXT), parse_detections(DETECTIONS_TEXT)
        monkeypatch.setattr(formats, "_decode", json_decode)
        assert (parse_annotations(ANNOTATIONS_TEXT), parse_detections(DETECTIONS_TEXT)) == expected
        for path in sorted(self.DATA.glob("*.json")):
            parse = parse_annotations if "detection" not in path.name else parse_detections
            parse(path.read_text(encoding="utf-8"))

    def test_escaped_text_is_decoded_by_orjson_alone(self, monkeypatch):
        def json_decode(text):
            raise AssertionError("decoded with json")

        monkeypatch.setattr(formats, "_decode", json_decode)
        # A non-ASCII label as json.dumps writes it, a newline and a slash;
        # escaped quotes and backslashes, runs of them and brackets among them.
        strings = [
            r'"caf\u00e9\n\/"', r'"say \"hi\""', r'"C:\\data"', r'"\\"', r'"\\\""',
            r'"\\\\[\"]\\"',
        ]
        for label, image_id in zip(strings, strings[::-1]):
            text = DETECTIONS_TEXT.replace('"smartphone"', label).replace('"img1"', image_id)
            got = parse_detections(text).columns
            assert (got.labels, got.image_ids) == ((json.loads(label),), (json.loads(image_id),))

    def test_faults_get_json_messages(self):
        with pytest.raises(SchemaError) as e:
            parse_detections('{"detections": [1,]}')
        assert str(e.value) == "not valid JSON: Expecting value (line 1, column 19)"
        with pytest.raises(SchemaError) as e:
            parse_detections('{"detections": NaN}')
        assert str(e.value) == "not valid JSON: NaN is not a number"

    def test_deep_nesting_is_a_schema_error_not_a_crash(self):
        """orjson 3.8.3 converts nesting recursively in C with no limit: 200,000
        nested objects overflow its stack and kill the process. Run in a
        child process, so that a crash fails this test alone. The child also
        shows that ``import rbcscan`` and the CLI module do not load orjson."""
        code = (
            "import sys\n"
            "import rbcscan\n"
            "assert 'rbcscan.formats' not in sys.modules\n"
            "import rbcscan.cli\n"
            "assert 'orjson' not in sys.modules\n"
            "from rbcscan.errors import SchemaError\n"
            "from rbcscan.formats import parse_annotations, parse_detections\n"
            "n = 200_000\n"
            "masked = '[\"]\",' * n + '0' + ',\"[\"]' * n\n"
            "b = chr(92)\n"  # a backslash
            "text = '\\u00e9' + b + 'n'\n"  # an e-acute and a newline escape
            "escaped = ('[\"]' + text + '\",') * n + '0' + (',\"' + text + '[\"]') * n\n"
            # Masks made of escaped quotes, then of escaped backslashes.
            "quoted = ('[\"' + b + '\"]\",') * n + '0' + (',\"[' + b + '\"\"]') * n\n"
            "slashes = ('[\"' + b + b + '\",\"]\",') * n + '0' + (',\"[\",\"' + b + b + '\"]') * n\n"
            "for inner in ('{\"a\":' * n + '0' + '}' * n, '[' * n + ']' * n, masked,\n"
            "              ('{\"' + text + '\":') * n + '0' + '}' * n, escaped, quoted, slashes):\n"
            "    for parse in (parse_annotations, parse_detections):\n"
            "        try:\n"
            "            parse('{\"detections\": ' + inner + '}')\n"
            "        except SchemaError as e:\n"
            "            print(e)\n"
        )
        src = str(Path(rbcscan.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "not valid JSON: arrays or objects nested too deeply\n" * 14
