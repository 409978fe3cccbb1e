"""Spans and counts recorded around rbcscan's public functions, from outside.

The tracer replaces module attributes (``rbcscan.metrics.match_detections``,
``rbcscan.detector.cell_of_point``, ...) with wrappers for the length of a
traced round and puts the originals back afterwards; no file of the
package is changed. Because the package calls these functions through
module globals or module attributes, the wrappers see every internal call
too. A target that no longer exists is reported as absent.

Span wrappers record (name, start, end, parent span, operation id) into
flat arrays kept in memory; count wrappers, used for functions called once
per box pair or per point, only bump a counter. An exception leaving a
wrapped call is counted once per module boundary it crosses, as
``<module>.errors``, and re-raised.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

@dataclass(frozen=True)
class Target:
    """One wrapped attribute.

    ``name`` is the metric prefix (``<module>.<function>``); the module part
    is the layer the call belongs to, which for a count taken through
    another module's reference (``cell_of_point`` as ``detector`` holds it)
    differs from the module that is patched. ``on_result`` adds its return
    value to the ``result_count`` counter.
    """

    name: str
    module: str
    attribute: str
    span: bool
    result_count: str | None = None
    on_result: Callable[[Any], int] | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _overlaps(value: float) -> int:
    return 1 if value > 0 else 0


TARGETS: tuple[Target, ...] = (
    Target("cli.main", "rbcscan.cli", "main", True),
    Target("formats.parse_annotations", "rbcscan.formats", "parse_annotations", True,
           "formats.objects_parsed", lambda r: len(r.objects)),
    Target("formats.parse_detections", "rbcscan.formats", "parse_detections", True,
           "formats.objects_parsed", lambda r: len(r.detections)),
    Target("formats.parse_scenario", "rbcscan.formats", "parse_scenario", True),
    Target("metrics.evaluate", "rbcscan.metrics", "evaluate", True),
    Target("metrics.match_detections", "rbcscan.metrics", "match_detections", True),
    Target("metrics.average_precision", "rbcscan.metrics", "average_precision", True),
    Target("metrics.iou", "rbcscan.metrics", "iou", False, "metrics.iou.overlaps", _overlaps),
    Target("detector.SyntheticScene", "rbcscan.detector", "SyntheticScene", True),
    Target("detector.sample_detections", "rbcscan.detector", "sample_detections", True),
    Target("detector.detections_to_candidates", "rbcscan.detector", "detections_to_candidates", True),
    Target("geometry.cell_of_point", "rbcscan.detector", "cell_of_point", False),
    Target("scanning.simulate_guided_multi", "rbcscan.scanning", "simulate_guided_multi", True),
    Target("scanning.simulate_guided", "rbcscan.scanning", "simulate_guided", True),
    Target("scanning.simulate_traditional", "rbcscan.scanning", "simulate_traditional", True),
    # One PCG64 stream is made per batch of Monte Carlo trials.
    Target("scanning._batch_rng", "rbcscan.scanning", "_batch_rng", False),
)


class Tracer:
    """Install wrappers for a traced round and collect what they record."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names = [t.name for t in targets]
        self._layer_of = [t.layer for t in targets]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts: Counter[str] = Counter()
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _count_error(self, layer: str) -> None:
        # Only the outermost wrapped call of a layer counts the exception.
        stack = self._stack
        if not stack or self._layer_of[self.span_name[stack[-1]]] != layer:
            self.counts[f"{layer}.errors"] += 1

    def _span_wrapper(self, index: int, target: Target, fn: Callable) -> Callable:
        stack, counts = self._stack, self.counts
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        clock = time.perf_counter
        layer, result_count, on_result = target.layer, target.result_count, target.on_result

        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[span] = clock()
                stack.pop()
                self._count_error(layer)
                raise
            ends[span] = clock()
            stack.pop()
            if on_result is not None:
                counts[result_count] += on_result(result)
            return result

        return wrapper

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        counts = self.counts
        calls = f"{target.name}.calls"
        layer, result_count, on_result = target.layer, target.result_count, target.on_result

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._count_error(layer)
                raise
            if on_result is not None:
                counts[result_count] += on_result(result)
            return result

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for index, target in enumerate(self.targets):
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            fn = getattr(module, target.attribute, None)
            if fn is None:
                self.absent.append(target.name)
                continue
            wrapped = (
                self._span_wrapper(index, target, fn)
                if target.span
                else self._count_wrapper(target, fn)
            )
            setattr(module, target.attribute, wrapped)
            self._installed.append((module, target.attribute, fn))

    def uninstall(self) -> None:
        for module, attribute, fn in reversed(self._installed):
            setattr(module, attribute, fn)
        self._installed = []

    # -- results -----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        """All spans so far as columns, plus each span's self time."""
        # Copies, so that no buffer export blocks later appends.
        cols = {
            "name": np.array(self.span_name, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "op": np.array(self.span_op, dtype=np.int32),
        }
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.bincount(
            cols["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        cols["self"] = duration - child_time
        return cols

    def span_totals(self, op_ids: list[int]) -> dict[str, tuple[int, float, float]]:
        """(calls, seconds, self seconds) per span name over some operations."""
        cols = self.span_arrays()
        mask = np.isin(cols["op"], np.asarray(op_ids, dtype=np.int32))
        name = cols["name"][mask]
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=(cols["end"] - cols["start"])[mask], minlength=n)
        total_self = np.bincount(name, weights=cols["self"][mask], minlength=n)
        return {
            self.names[i]: (int(calls[i]), float(total[i]), float(total_self[i])) for i in range(n)
        }

    def write(self, path: Path) -> None:
        """Write every recorded span to an ``.npz`` file (names in ``names``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.span_arrays())
