"""What the benchmark calls in the package still exists and still runs.

The tracer in ``benchmarks/tracing.py`` wraps package attributes by module
and name, and reports one it cannot find as absent rather than failing; the
benchmark's ``pipeline`` operation (``benchmarks/ops.py``) builds records
and calls the per-episode functions by name. A refactor that renames or
breaks one of them would otherwise pass tier-1 and show up only as a
missing layer, or a failed operation, in a benchmark run. Likewise a
scoring change that drifts from the recorded seed-0 eval CSVs in
``benchmarks/reference`` fails here, not only in a benchmark run. The
benchmark files are imported, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
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


@pytest.mark.parametrize("workload", ["eval-crowded", "eval-sparse"])
def test_eval_operation_reproduces_its_reference(workload, tmp_path, monkeypatch):
    """The benchmark's eval operation on its seed-0 input passes its check
    and writes the recorded reference CSV byte for byte."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    inputs = importlib.import_module("inputs")
    ops = importlib.import_module("ops")
    reference = BENCH_DIR / "reference" / f"{workload}-seed0.csv"
    operations = ops.Operations(inputs.generate(workload, 0, tmp_path), tmp_path, reference)
    operations.check_eval(operations.eval())
    assert operations.eval_csv.read_bytes() == reference.read_bytes()
