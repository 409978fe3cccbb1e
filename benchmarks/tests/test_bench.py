"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest benchmarks/tests``.
Eval inputs are shrunk to a few images; the pipeline and simulate inputs
keep their size, because their output checks are statistical and hold
only at that sample size.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

run.import_package()

import ops  # noqa: E402
import rbcscan.metrics  # noqa: E402

TINY = {
    "eval-crowded": replace(inputs.WORKLOADS["eval-crowded"], images=5),
    "eval-sparse": replace(inputs.WORKLOADS["eval-sparse"], images=200),
}
EXACT_COUNTS = (
    "metrics.iou.calls",
    "metrics.match_detections.calls",
    "geometry.cell_of_point.calls",
    "scanning.batches",
)


def _run(workload, tmp_path, trace, seed=3):
    return run.run_workload(
        workload, seed, 0.0, trace, out_dir=tmp_path, eval_shape=TINY[workload], setup_samples=1
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced records: eval-crowded twice, eval-sparse once."""
    out = tmp_path_factory.mktemp("traced")
    return {
        "crowded": [_run("eval-crowded", out / str(i), True) for i in range(2)],
        "sparse": _run("eval-sparse", out / "sparse", True),
    }


def _metrics(record):
    return {name: m["value"] for name, m in record["result"]["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_every_workload_runs_tiny_without_errors(workload, tmp_path):
    record = _run(workload, tmp_path, trace=False)
    result = record["result"]
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == {
        "setup_s", "eval_dets_per_s", "pipeline_episodes_per_s", "simulate_trials_per_s",
        "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (tmp_path / "results" / f"{workload}-seed3-trace0.json").is_file()


def test_generator_is_deterministic(tmp_path):
    for workload in inputs.WORKLOADS:
        a = inputs.generate(workload, 7, tmp_path / "a", TINY[workload])
        b = inputs.generate(workload, 7, tmp_path / "b", TINY[workload])
        c = inputs.generate(workload, 8, tmp_path / "c", TINY[workload])
        for key in a["files"]:
            first = Path(a["files"][key]).read_bytes()
            assert first == Path(b["files"][key]).read_bytes(), key
            assert first != Path(c["files"][key]).read_bytes(), key


def test_traced_counts_repeat_exactly(traced):
    first, second = (_metrics(r) for r in traced["crowded"])
    for name in EXACT_COUNTS:
        assert first[name] == second[name] > 0, name


def test_traced_run_reports_every_layer(traced):
    for record in (*traced["crowded"], traced["sparse"]):
        assert record["result"]["correct"]
        values = _metrics(record)
        assert values["trace.absent_targets"] == 0
        assert values["trace.overhead_ratio"] > 0
        assert all(values[f"{m}.errors"] == 0 for m in run.MODULES)
        assert values["metrics.iou.calls_per_pair"] > 1
        assert 0 < values["metrics.iou.overlap_ratio"] < 1
        assert values["cli.main.s"] > values["cli.self_s"] > 0
        chunk = inputs.PIPELINE_EPISODES // inputs.PIPELINE_CHUNKS
        assert values["scanning.simulate_guided_multi.calls"] == chunk


def test_eval_workloads_load_metrics_differently(traced):
    crowded = _metrics(traced["crowded"][0])
    sparse = _metrics(traced["sparse"])
    assert crowded["metrics.iou.calls"] > sparse["metrics.iou.calls"]
    assert sparse["metrics.match_detections.calls"] >= 50 * crowded["metrics.match_detections.calls"]


def test_absent_target_is_reported_not_raised():
    tracer = tracing.Tracer(
        (
            tracing.Target("metrics.gone", "rbcscan.metrics", "no_such_function", True),
            tracing.Target("cli.gone", "rbcscan.no_such_module", "main", True),
        )
    )
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["metrics.gone", "cli.gone"]


def test_exception_counts_once_per_layer():
    original = rbcscan.metrics.match_detections
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gt = rbcscan.metrics.GroundTruthObject(0, rbcscan.metrics.BBox(0, 0, 10, 10))
        # The box-less detection makes iou raise inside match_detections.
        det = rbcscan.metrics.Detection(0, None, 0.5)
        with pytest.raises(AttributeError):
            rbcscan.metrics.match_detections([det], [gt], 0.5)
    finally:
        tracer.uninstall()
    assert rbcscan.metrics.match_detections is original
    assert tracer.counts["metrics.iou.calls"] == 1
    assert tracer.counts["metrics.errors"] == 1


def test_eval_check_uses_the_recorded_reference(tmp_path):
    manifest = inputs.generate("eval-crowded", run.DEFAULT_SEED, tmp_path)
    reference = run.REFERENCE_DIR / f"eval-crowded-seed{run.DEFAULT_SEED}.csv"
    operations = ops.Operations(manifest, tmp_path, reference)
    operations.check_eval(operations.eval())

    rows = reference.read_text(encoding="utf-8").splitlines()
    metric, threshold, value = rows[1].split(",")
    rows[1] = f"{metric},{threshold},{float(value) + 1e-6!r}"
    perturbed = tmp_path / "perturbed.csv"
    perturbed.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ops.CheckFailed):
        ops.Operations(manifest, tmp_path, perturbed).check_eval(0)
