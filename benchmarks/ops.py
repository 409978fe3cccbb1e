"""The three benchmark operations and the checks on their outputs.

Each operation goes through a public entry point and looks every package
function up on its module at call time, so the tracer's wrappers apply:

* ``eval``: one ``rbcscan.cli.main(["eval", ..., "--output", csv])`` call;
  it reads and parses both files, runs ``evaluate`` and writes the CSV.
* ``pipeline``: the detector -> candidate cell -> scan episodes of the
  acceptance pipeline test on one chunk of the true-cell array: receivers
  built from the array, the ``SyntheticScene``, ``sample_detections``,
  then per episode ``detections_to_candidates`` and
  ``simulate_guided_multi``.
* ``simulate``: one ``rbcscan.cli.main(["simulate", ...])`` call on the
  generated scenario, both strategies.

A check raises ``CheckFailed``; the caller counts the operation as failed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import inputs
from rbcscan import cli, detector, geometry, scanning
from rbcscan.metrics import STANDARD_IOU_THRESHOLDS, BBox, GroundTruthObject

#: Tolerance for AP rows against the recorded reference (ROADMAP: 1e-9).
AP_TOLERANCE = 1e-9
#: Monte Carlo means against the closed forms (ROADMAP: 0.5%).
SIMULATE_TOLERANCE = 0.005
#: Pipeline mean against the guided closed form (ROADMAP: 1%).
PIPELINE_TOLERANCE = 0.01
#: Standard errors allowed between the pipeline's hit rate and the profile AP.
HIT_RATE_SIGMAS = 5.0


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


class Operations:
    """The operations of one workload run, bound to its generated inputs."""

    def __init__(self, manifest: dict, work_dir: Path, reference: Path | None = None) -> None:
        files = manifest["files"]
        self.annotations = files["annotations"]
        self.detections = files["detections"]
        self.scenario = files["scenario"]
        self.eval_csv = work_dir / "eval.csv"
        self.simulate_csv = work_dir / "simulate.csv"
        self.reference = _rows(reference) if reference is not None else None

        pipe = manifest["pipeline"]
        self.chunks = np.split(np.load(files["true_cells"], allow_pickle=False), pipe["chunks"])
        self.detector_seeds = pipe["detector_seeds"]
        #: Per chunk: (sum of episode times, hits, episodes), once checked.
        self.chunk_results: dict[int, tuple[float, int, int]] = {}
        self.grid = geometry.CellGrid(*pipe["grid"])
        self.profile = detector.builtin_profile(pipe["profile"])
        self.iou_threshold = pipe["iou_threshold"]
        self.ap = detector.ap_at(self.profile, self.iou_threshold)
        self.cfg = scanning.ScanConfig(
            n_cells=self.grid.n_cells,
            t_scan_s=inputs.T_SCAN_S,
            t_detect_s=inputs.T_DETECT_S,
            ap=self.ap,
        )
        self.trials = manifest["simulate"]["trials_per_strategy"]

        #: Items each operation processes, for the throughput metrics.
        self.items = {
            "eval": manifest["eval"]["detections"],
            "pipeline": len(self.chunks[0]),
            "simulate": 2 * self.trials,
        }

    # -- operations --------------------------------------------------------

    def eval(self) -> int:
        return cli.main(
            [
                "eval",
                "--ground-truth", self.annotations,
                "--detections", self.detections,
                "--output", str(self.eval_csv),
            ]
        )

    def pipeline(self, chunk: int = 0) -> tuple[int, float, list]:
        grid = self.grid
        w, h = inputs.RECEIVER_BOX_PX
        cells = self.chunks[chunk].tolist()
        first = chunk * len(cells)
        receivers = []
        for i, cell in enumerate(cells, start=first):
            cx, cy = geometry.cell_center(grid, cell)
            box = BBox(cx - w / 2, cy - h / 2, w, h)
            receivers.append((GroundTruthObject(image_id=i, bbox=box), 120.0))
        scene = detector.SyntheticScene(grid=grid, receivers=tuple(receivers))
        dets = detector.sample_detections(
            scene, self.profile, iou_threshold=self.iou_threshold,
            rng_seed=self.detector_seeds[chunk],
        )
        total = 0.0
        for cell, det in zip(cells, dets):
            candidates = detector.detections_to_candidates([det], grid)
            episode = scanning.simulate_guided_multi(
                self.cfg, candidates, {cell}, rng_seed=0, trials=1
            )
            total += episode.mean_time_s
        return chunk, total / len(cells), dets

    def simulate(self) -> int:
        return cli.main(
            ["simulate", "--scenario", self.scenario, "--output", str(self.simulate_csv)]
        )

    # -- checks ------------------------------------------------------------

    def check_eval(self, exit_code: int) -> None:
        if exit_code != 0:
            raise CheckFailed(f"eval exited with {exit_code}")
        rows = _rows(self.eval_csv)
        expected = (
            [["metric", "iou_threshold", "value"]]
            + [["ap", format(t, ".12g")] for t in STANDARD_IOU_THRESHOLDS]
            + [["map", ""], ["ap_small", "0.5"]]
        )
        if [r[:2] for r in rows] != [e[:2] for e in expected] or any(len(r) != 3 for r in rows):
            raise CheckFailed(f"eval CSV has unexpected rows: {[r[:2] for r in rows]}")
        values = [float(r[2]) for r in rows[1:]]
        if not all(0.0 <= v <= 1.0 for v in values):
            raise CheckFailed(f"eval values outside [0, 1]: {values}")
        aps = values[:10]
        if abs(values[10] - sum(aps) / len(aps)) > AP_TOLERANCE:
            raise CheckFailed(f"map {values[10]} is not the mean of the AP rows")
        if self.reference is not None:
            ref = [float(r[2]) for r in self.reference[1:]]
            if len(ref) != len(values):
                raise CheckFailed(f"reference has {len(ref)} rows, eval wrote {len(values)}")
            worst = max(abs(a - b) for a, b in zip(values, ref))
            if worst > AP_TOLERANCE:
                raise CheckFailed(f"eval rows differ from the reference by {worst}")

    def check_pipeline(self, result: tuple[int, float, list]) -> dict | None:
        """Check one chunk's mean, and the pooled mean once every chunk ran.

        Per chunk:

        1. Exactly: each episode's time is recomputed from the true cell and
           the detection's centre cell, independently of the package.
        2. The share of detections in the true cell (the realised AP) lies
           within ``HIT_RATE_SIGMAS`` binomial standard errors of the
           profile's AP at the pipeline IoU.

        Pooled over all chunks, the mean lies within 1% of ``t2_analytic``
        at the realised AP; the pooled figures are returned. Against the
        profile AP itself the 1% bound sits fewer than 2.5 standard errors
        from the mean at this episode count, so that figure is reported,
        not checked.
        """
        chunk, mean, dets = result
        truth = self.chunks[chunk]
        n = len(truth)
        if len(dets) != n:
            raise CheckFailed(f"pipeline produced {len(dets)} detections for {n} receivers")
        grid = self.grid
        boxes = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets])
        cx = boxes[:, 0] + boxes[:, 2] / 2
        cy = boxes[:, 1] + boxes[:, 3] / 2
        col = np.minimum(grid.cols - 1, np.floor(cx * grid.cols / grid.image_width))
        row = np.minimum(grid.rows - 1, np.floor(cy * grid.rows / grid.image_height))
        candidate = (row * grid.cols + col).astype(np.int64)
        # After a miss the remaining cells are scanned in ascending order, so
        # the true cell t is reached after t + 1 scans, less one if the
        # candidate lies below it, plus the candidate's own scan.
        scans = np.where(candidate == truth, 1, 2 + truth - (candidate < truth))
        times = self.cfg.t_detect_s + scans * self.cfg.t_scan_s
        expected = float(np.mean(times))
        if not math.isclose(mean, expected, rel_tol=1e-9):
            raise CheckFailed(f"pipeline mean {mean} differs from the episode oracle {expected}")

        hits = int(np.count_nonzero(candidate == truth))
        stderr = math.sqrt(self.ap * (1 - self.ap) / n)
        if abs(hits / n - self.ap) > HIT_RATE_SIGMAS * stderr:
            raise CheckFailed(f"pipeline hit rate {hits / n} is not the profile AP {self.ap}")
        self.chunk_results[chunk] = (mean * n, hits, n)
        if len(self.chunk_results) < len(self.chunks):
            return None

        total, hits, episodes = (sum(col) for col in zip(*self.chunk_results.values()))
        pooled = total / episodes
        hit_rate = hits / episodes
        realised = scanning.t2_analytic(
            scanning.ScanConfig(self.cfg.n_cells, self.cfg.t_scan_s, self.cfg.t_detect_s, hit_rate)
        )
        if abs(pooled - realised) / realised > PIPELINE_TOLERANCE:
            raise CheckFailed(f"pooled pipeline mean {pooled} is not within 1% of T2 {realised}")
        analytic = scanning.t2_analytic(self.cfg)
        return {
            "episodes": episodes,
            "mean_s": pooled,
            "hit_rate": hit_rate,
            "t2_at_hit_rate_s": realised,
            "t2_at_profile_ap_s": analytic,
            "relative_error_vs_profile_ap": abs(pooled - analytic) / analytic,
        }

    def check_simulate(self, exit_code: int) -> None:
        if exit_code != 0:
            raise CheckFailed(f"simulate exited with {exit_code}")
        rows = _rows(self.simulate_csv)
        header = ["strategy", "trials", "mean_s", "stderr_s", "analytic_s", "relative_error"]
        if rows[0] != header or [r[0] for r in rows[1:]] != ["traditional", "guided"]:
            raise CheckFailed(f"simulate CSV has unexpected rows: {rows}")
        closed_form = {
            "traditional": scanning.t1_analytic(self.cfg),
            "guided": scanning.t2_analytic(
                scanning.ScanConfig(
                    self.cfg.n_cells, self.cfg.t_scan_s, self.cfg.t_detect_s, inputs.SCENARIO_AP
                )
            ),
        }
        for name, trials, mean, _stderr, analytic, rel in rows[1:]:
            if int(trials) != self.trials:
                raise CheckFailed(f"{name}: ran {trials} trials, expected {self.trials}")
            if not math.isclose(float(analytic), closed_form[name], rel_tol=1e-9):
                raise CheckFailed(f"{name}: analytic {analytic} != {closed_form[name]}")
            if not float(rel) <= SIMULATE_TOLERANCE:
                raise CheckFailed(f"{name}: relative error {rel} exceeds 0.5%")
            if not math.isclose(abs(float(mean) - float(analytic)) / float(analytic), float(rel),
                                rel_tol=1e-6, abs_tol=1e-12):
                raise CheckFailed(f"{name}: relative error {rel} does not match its mean")
