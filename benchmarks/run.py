"""Seeded, closed-loop benchmark of rbcscan's eval, detector->scan pipeline and Monte Carlo.

Run from the repository root:

    python3 benchmarks/run.py --workload eval-crowded --seed 0 --seconds 45 --trace 0

One process, one caller, one operation at a time: each operation starts
only after the previous one returned. Inputs are generated from
``--seed`` at set-up (see ``inputs.py``). A round runs the three
operations of ``ops.py`` once each; one untimed round warms caches first,
then rounds repeat until ``--seconds`` have passed. Every operation's
output is checked, and one that raises, exits nonzero or fails its check
counts as failed.

``--trace 0`` reports the end-to-end metrics from untraced rounds, with
the three throughputs rescaled by a calibration workload to cancel the
host's drifting speed (see ``CALIBRATION_REFERENCE_S``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (median over rounds, per round), plus
the tracing overhead. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary goes
to stderr. Everything the run writes stays under ``.bench_out/`` in the
checkout: the generated inputs, a results record per (workload, seed,
trace) with the seed, workload parameters, git SHA and Python and numpy
versions, and the spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"
#: Eval CSVs recorded for this seed are checked row by row.
DEFAULT_SEED = 0
#: Fresh interpreters started, one at a time, for ``setup_s``.
SETUP_SAMPLES = 9
OPS = ("eval", "pipeline", "simulate")
#: What each operation's throughput metric counts.
ITEMS = {"eval": "eval_dets", "pipeline": "pipeline_episodes", "simulate": "simulate_trials"}
MODULES = ("cli", "formats", "metrics", "detector", "geometry", "scanning")

#: On a shared host the speed of the whole run drifts, by up to 2x between
#: runs a few minutes apart, and all three operations slow together. A
#: fixed calibration workload timed just before every operation measures
#: that drift: each operation's time is rescaled to a host on which the
#: calibration takes this long before the median is taken.
CALIBRATION_REFERENCE_S = 0.015

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import rbcscan\n"
    "print(time.perf_counter() - start)\n"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_package():
    """Import rbcscan from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "rbcscan" / "__init__.py").is_file():
        raise SetupError(f"no rbcscan package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rbcscan

    if SRC.resolve() not in Path(rbcscan.__file__).resolve().parents:
        raise SetupError(f"rbcscan was imported from {rbcscan.__file__}, not from {SRC}")
    return rbcscan


def calibrate() -> float:
    """Seconds taken by a fixed mix of object, dict, sort and numpy work."""
    start = time.perf_counter()
    rows = [(i % 97, i * 0.5, str(i)) for i in range(20000)]
    groups: dict[int, list[float]] = {}
    for key, value, _label in rows:
        groups.setdefault(key, []).append(value)
    rows.sort(key=lambda r: -r[1])
    np.random.Generator(np.random.PCG64(0)).random(200_000).sum()
    return time.perf_counter() - start


def measure_setup(samples: int) -> list[float]:
    """Wall time of ``import rbcscan`` in fresh interpreters, one at a time."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(proc.stdout.strip()))
    return times


def git_sha() -> str | None:
    """SHA of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _stats(values: list[float]) -> dict:
    """Median, quartiles and the slowest time that still has ten samples beyond it."""
    out = {"n": len(values), "seconds": values}
    if values:
        out.update(median=statistics.median(values), min=min(values), max=max(values))
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) > 10:
        out.update(tail_quantile=(len(values) - 10) / len(values),
                   tail=sorted(values)[len(values) - 11])
    return out


class Runner:
    """Runs rounds of operations and keeps one sample per operation."""

    def __init__(self, ops, tracer=None) -> None:
        self.ops = ops
        self.tracer = tracer
        self.samples: list[dict] = []
        self.pipeline_check: dict | None = None
        self.traced_rounds: list[tuple[list[int], Counter]] = []

    def _operation(self, kind: str, round_index: int, traced: bool, *args) -> float:
        op_id = len(self.samples)
        if self.tracer is not None:
            self.tracer.op = op_id
        error = None
        calibration = calibrate()
        # Every operation starts from the same heap; its own collections count.
        gc.collect()
        start = time.perf_counter()
        try:
            output = getattr(self.ops, kind)(*args)
        except Exception as e:  # an operation that raises counts as failed
            error = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                checked = getattr(self.ops, f"check_{kind}")(output)
            except Exception as e:  # a failed or broken check fails the operation
                error = f"{type(e).__name__}: {e}"
            else:
                if checked is not None:
                    self.pipeline_check = checked
        self.samples.append(
            {"op": op_id, "kind": kind, "round": round_index, "traced": traced,
             "seconds": elapsed, "calibration_s": calibration, "error": error}
        )
        return elapsed

    def warm_up(self) -> None:
        """Untimed: one operation of each kind, the pipeline once per chunk.

        Timed rounds run the pipeline on the first chunk only; the warm-up
        lets its pooled check see every episode.
        """
        self._operation("eval", -1, False)
        for chunk in range(len(self.ops.chunks)):
            self._operation("pipeline", -1, False, chunk)
        self._operation("simulate", -1, False)

    def round(self, round_index: int, traced: bool = False) -> float:
        """One operation of each kind; returns their summed wall time."""
        first = len(self.samples)
        if traced:
            self.tracer.counts.clear()
            self.tracer.install()
        try:
            wall = sum(self._operation(kind, round_index, traced) for kind in OPS)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            ops = list(range(first, len(self.samples)))
            self.traced_rounds.append((ops, Counter(self.tracer.counts)))
        return wall

    def timed(self, kind: str | None = None, key: str = "seconds") -> list[float]:
        """``key`` of the untraced timed operations, of one kind or of all."""
        return [s[key] for s in self.samples
                if kind in (None, s["kind"]) and s["round"] >= 0 and not s["traced"]]


#: Span names reported as ``<name>.s``, the seconds spent in them per round.
SPAN_SECONDS = (
    "cli.main",
    "formats.parse_annotations",
    "formats.parse_detections",
    "formats.parse_scenario",
    "metrics.evaluate",
    "metrics.match_detections",
    "metrics.average_precision",
    "detector.SyntheticScene",
    "detector.sample_detections",
    "detector.detections_to_candidates",
    "scanning.simulate_guided_multi",
    "scanning.simulate_guided",
    "scanning.simulate_traditional",
)
#: Span names reported as ``<name>.calls``.
SPAN_CALLS = (
    "metrics.match_detections",
    "metrics.average_precision",
    "detector.detections_to_candidates",
    "scanning.simulate_guided_multi",
)
#: Self time: a span's seconds less those of its child spans.
SPAN_SELF = {"cli.self_s": "cli.main", "metrics.evaluate.self_s": "metrics.evaluate"}
#: Counters of the tracer, by metric name.
COUNTERS = {
    "formats.objects_parsed": "formats.objects_parsed",
    "metrics.iou.calls": "metrics.iou.calls",
    "geometry.cell_of_point.calls": "geometry.cell_of_point.calls",
    "scanning.batches": "scanning._batch_rng.calls",
    **{f"{m}.errors": f"{m}.errors" for m in MODULES},
}


def layer_metrics(tracer, traced_rounds, pairs: int) -> dict[str, float]:
    """Per-layer figures of each traced round, as the median over rounds.

    Counts take the lower median, so that a count stays a whole number.
    """
    per_round = []
    for op_ids, counts in traced_rounds:
        spans = tracer.span_totals(op_ids)
        values = {f"{name}.s": spans[name][1] for name in SPAN_SECONDS}
        values.update({f"{name}.calls": spans[name][0] for name in SPAN_CALLS})
        values.update({metric: spans[name][2] for metric, name in SPAN_SELF.items()})
        values.update({metric: counts[name] for metric, name in COUNTERS.items()})
        iou_calls = counts["metrics.iou.calls"]
        values["metrics.iou.calls_per_pair"] = iou_calls / pairs if pairs else 0.0
        values["metrics.iou.overlap_ratio"] = (
            counts["metrics.iou.overlaps"] / iou_calls if iou_calls else 0.0
        )
        per_round.append(values)
    out = {}
    for key in per_round[0]:
        values = [r[key] for r in per_round]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units that ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path = OUT,
    eval_shape=None,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Set up, warm up and measure one workload; return its results record."""
    rbcscan = import_package()
    import ops as ops_module

    work_dir = out_dir / "work" / workload
    set_up_start = time.perf_counter()
    manifest = inputs.generate(workload, seed, work_dir, eval_shape)
    reference = None
    if seed == DEFAULT_SEED and eval_shape is None:
        reference = REFERENCE_DIR / f"{workload}-seed{seed}.csv"
    ops = ops_module.Operations(manifest, work_dir, reference)
    generate_s = time.perf_counter() - set_up_start
    setup_times = [] if trace else measure_setup(setup_samples)

    tracer = tracing.Tracer() if trace else None
    runner = Runner(ops, tracer)
    runner.warm_up()
    untraced_walls, traced_walls = [], []
    start = time.perf_counter()
    round_index = 0
    while True:
        untraced_walls.append(runner.round(round_index))
        if trace:
            traced_walls.append(runner.round(round_index, traced=True))
        round_index += 1
        if time.perf_counter() - start >= seconds:
            break

    if trace:
        metrics = layer_metrics(tracer, runner.traced_rounds, manifest["eval"]["pairs"])
        metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(untraced_walls)
        metrics["trace.absent_targets"] = len(tracer.absent)
        tracer.write(out_dir / f"spans-{workload}.npz")
    else:
        unscaled, scaled = {}, {}
        for kind in OPS:
            times = runner.timed(kind)
            calibration = runner.timed(kind, "calibration_s")
            unscaled[kind] = statistics.median(times)
            scaled[kind] = statistics.median(
                t * CALIBRATION_REFERENCE_S / c for t, c in zip(times, calibration)
            )
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update({f"{ITEMS[k]}_per_s": ops.items[k] / scaled[k] for k in OPS})
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    failed = sum(1 for s in runner.samples if s["error"] is not None)
    attempted = len(runner.samples)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rbcscan": rbcscan.__version__,
        "parameters": {k: v for k, v in manifest.items() if k != "files"},
        "generate_s": generate_s,
        "setup_samples_s": setup_times,
        "calibration": None if trace else {
            "reference_s": CALIBRATION_REFERENCE_S,
            "median_s": statistics.median(runner.timed(key="calibration_s")),
            "unscaled_per_s": {f"{ITEMS[k]}_per_s": ops.items[k] / unscaled[k] for k in OPS},
        },
        "operations": {kind: _stats(runner.timed(kind)) for kind in OPS},
        "round_walls_s": {"untraced": untraced_walls, "traced": traced_walls},
        "pipeline_check": runner.pipeline_check,
        "absent_targets": tracer.absent if trace else [],
        "errors": [s for s in runner.samples if s["error"] is not None],
        "error_rate": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def _summary(record: dict) -> str:
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['result']['attempted']} operations, {record['result']['failed']} failed "
        f"(error_rate {record['error_rate']:g})"
    ]
    for kind, s in record["operations"].items():
        if s["n"]:
            line = f"  {kind:9s} n={s['n']:3d} median {s['median']:.4f} s"
            if "tail" in s:
                line += f", p{100 * s['tail_quantile']:.0f} {s['tail']:.4f} s"
            lines.append(line + f", min {s['min']:.4f} max {s['max']:.4f}")
    for name, m in record["result"]["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    for e in record["errors"][:5]:
        lines.append(f"  failed op {e['op']} ({e['kind']}): {e['error']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(_summary(record), file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
