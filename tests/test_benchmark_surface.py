"""What the benchmark calls in the package still exists and still runs.

The tracer in ``benchmarks/tracing.py`` wraps package attributes by module
and name, and reports one it cannot find as absent rather than failing; the
benchmark's ``pipeline`` operation (``benchmarks/ops.py``) builds records
and calls the per-episode functions by name. A refactor that renames or
breaks one of them would otherwise pass tier-1 and show up only as a
missing layer, or a failed operation, in a benchmark run. Likewise a
scoring change that drifts from the recorded seed-0 eval CSVs in
``benchmarks/reference`` fails here, not only in a benchmark run. One run
of the harness itself, on a tiny eval input, shows that a benchmark run
completes and reports the metrics ``BENCHMARK.json`` declares. The
benchmark files are imported, never changed.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_tracing():
    # Under its own name, so that it cannot clash with the benchmark's own
    # tests, which import it as ``tracing``.
    spec = importlib.util.spec_from_file_location("benchmark_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_traced_target_resolves(target):
    module = importlib.import_module(target.module)
    assert callable(getattr(module, target.attribute, None)), (
        f"{target.module}.{target.attribute} is gone: the benchmark would report "
        f"{target.name} as absent"
    )


def test_pipeline_operation_runs_and_passes_its_check(tmp_path, monkeypatch):
    """One chunk of the benchmark's pipeline operation, checked as the benchmark
    checks it; the eval input is shrunk to one image, which the pipeline
    does not read."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    inputs = importlib.import_module("inputs")
    ops = importlib.import_module("ops")
    shape = inputs.EvalShape(1, (1, 1), ("smartphone",), 1, 0)
    manifest = inputs.generate("eval-sparse", 0, tmp_path, eval_shape=shape)
    operations = ops.Operations(manifest, tmp_path)
    chunk, mean, dets = operations.pipeline(0)
    assert chunk == 0 and len(dets) == operations.items["pipeline"]
    # Only the pooled check, after every chunk, returns a summary.
    assert operations.check_pipeline((chunk, mean, dets)) is None


def test_simulate_operation_runs_and_passes_its_check(tmp_path, monkeypatch):
    """The benchmark's simulate operation on its generated scenario, which
    carries a camera and scan.n_cells, checked as the benchmark checks it;
    the eval input is shrunk to one image, which simulate does not read."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    inputs = importlib.import_module("inputs")
    ops = importlib.import_module("ops")
    shape = inputs.EvalShape(1, (1, 1), ("smartphone",), 1, 0)
    manifest = inputs.generate("eval-sparse", 0, tmp_path, eval_shape=shape)
    operations = ops.Operations(manifest, tmp_path)
    operations.check_simulate(operations.simulate())


def _slow_route(*args):
    raise AssertionError("a record file left orjson's document and the column tests")


@pytest.mark.parametrize("workload", ["eval-crowded", "eval-sparse"])
def test_eval_operation_reproduces_its_reference(workload, tmp_path, monkeypatch):
    """The benchmark's eval operation on its seed-0 input passes its check
    and writes the recorded reference CSV byte for byte. It parses both
    files from orjson's document by the column tests alone: json's decoder
    and the per-record loops fail here, so a column test too strict for
    these files, which would only slow parsing down, fails too."""
    from rbcscan import formats

    monkeypatch.syspath_prepend(str(BENCH_DIR))
    inputs = importlib.import_module("inputs")
    ops = importlib.import_module("ops")
    reference = BENCH_DIR / "reference" / f"{workload}-seed0.csv"
    operations = ops.Operations(inputs.generate(workload, 0, tmp_path), tmp_path, reference)
    for name in ("_decode", "_annotation_records", "_detection_records"):
        monkeypatch.setattr(formats, name, _slow_route)
    operations.check_eval(operations.eval())
    assert operations.eval_csv.read_bytes() == reference.read_bytes()


def test_harness_runs_a_workload_and_reports_its_declared_metrics(tmp_path, monkeypatch):
    """``benchmarks/run.py`` end to end, untraced, as the benchmark's own tiny
    run does it: set-up, warm-up and one round on a 5-image eval input."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    inputs = importlib.import_module("inputs")
    run = importlib.import_module("run")
    shape = dataclasses.replace(inputs.WORKLOADS["eval-crowded"], images=5)
    record = run.run_workload(
        "eval-crowded", 3, 0.0, False, out_dir=tmp_path, eval_shape=shape, setup_samples=1
    )
    result = record["result"]
    assert record["errors"] == [] and result["failed"] == 0 and result["correct"]
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
