"""Command-line interface.

Subcommands reproduce the package's tables as CSV on stdout or to a
file: ``eval`` scores detection files against annotations, ``analytic``
sweeps the expected-scan-time curves over AP, ``simulate`` runs the
Monte Carlo comparison from a scenario file, ``geometry`` tabulates
projected receiver sizes, and ``augment`` mirror-doubles an annotation
file. Each ``cmd_*`` returns its output text, and ``main`` writes it to
stdout or to ``--output``. Exit codes: 0 success, else the ``exit_code``
of the ``errors`` class raised (1 file or schema error, 2 invariant
violation, 3 usage error); an OSError exits 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path
from typing import Callable, TypeVar

from . import geometry, metrics, scanning
from .errors import DomainError, RbcScanError, UsageError, number

T = TypeVar("T")


def _fmt(x: float) -> str:
    return format(x, ".12g")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 3
        raise UsageError(message)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_list(raw: str, flag: str, convert: Callable[[str], T]) -> list[T]:
    """A list flag's comma-separated entries, each read by ``convert``.

    Empty entries are skipped; an entry ``convert`` rejects with
    ValueError, or a list with no entries, raises UsageError.
    """
    try:
        values = [convert(part) for part in map(str.strip, raw.split(",")) if part]
    except ValueError:
        raise UsageError(f"{flag}: cannot read {raw!r} as a comma-separated list") from None
    if not values:
        raise UsageError(f"{flag}: expected at least one entry, got {raw!r}")
    return values


def _resolution(text: str) -> tuple[int, int]:
    w, h = text.split("x")
    return int(w), int(h)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> str:
    from . import formats  # here, not at the top: only file commands load formats and detector

    gts = formats.parse_annotations(formats.read_text(args.ground_truth))
    dets = formats.parse_detections(formats.read_text(args.detections))
    thresholds = _parse_list(args.thresholds, "--thresholds", float)
    result = metrics.evaluate(
        dets.columns, gts.columns, thresholds, small_cutoff_px=args.small_cutoff
    )
    rows = [["ap", _fmt(t), _fmt(ap)] for t, ap in result.ap_per_threshold.items()]
    rows.append(["map", "", _fmt(result.map_value)])
    rows.append(["ap_small", "0.5", _fmt(result.ap_small)])
    return _csv_text(["metric", "iou_threshold", "value"], rows)


#: Most rows an ``analytic`` sweep may have: an --ap-step of 1e-5 over [0, 1].
MAX_AP_ROWS = 100_001


def _ap_grid(start: float, stop: float, step: float) -> list[float]:
    for flag, bound in (("--ap-start", start), ("--ap-stop", stop)):
        if not 0.0 <= bound <= 1.0:
            raise UsageError(f"AP sweep bounds must lie within [0, 1], got {flag} {bound}")
    if stop < start:
        raise UsageError(f"--ap-stop ({stop}) must be >= --ap-start ({start})")
    if start == stop:
        return [round(start, 10)]
    number(step, "--ap-step", UsageError, "> 0")
    # The sweep has floor(span) + 1 rows; span may be inf for a tiny step.
    span = (stop - start) / step + 1e-9
    if span >= MAX_AP_ROWS:
        raise UsageError(
            f"--ap-step {step} asks for more than {MAX_AP_ROWS} rows from {start} to {stop}"
        )
    return [round(start + i * step, 10) for i in range(math.floor(span) + 1)]


def cmd_analytic(args: argparse.Namespace) -> str:
    base = scanning.ScanConfig(
        n_cells=args.n_cells, t_scan_s=args.t_scan, t_detect_s=args.t_detect, ap=0.0
    )
    t1 = scanning.t1_analytic(base)
    rows = []
    for ap in _ap_grid(args.ap_start, args.ap_stop, args.ap_step):
        t2 = scanning.t2_analytic(base._replace(ap=ap))
        rows.append(["curve", _fmt(ap), _fmt(t1), _fmt(t2)])
    ap_star, in_range = scanning.breakeven_ap(base)
    kind = "breakeven" if in_range else "breakeven_clamped"
    t2_star = scanning.t2_analytic(base._replace(ap=ap_star))
    rows.append([kind, _fmt(ap_star), _fmt(t1), _fmt(t2_star)])
    return _csv_text(["kind", "ap", "t1_s", "t2_s"], rows)


def cmd_simulate(args: argparse.Namespace) -> str:
    from . import formats

    scenario = formats.parse_scenario(formats.read_text(args.scenario))
    formats.resolve_profile(scenario.profile, Path(args.scenario).parent)
    trials = args.trials if args.trials is not None else scenario.trials
    seed = args.seed if args.seed is not None else scenario.seed
    rows = []
    for name, summary in (
        ("traditional", scanning.simulate_traditional(scenario.scan, seed, trials)),
        ("guided", scanning.simulate_guided(scenario.scan, seed, trials)),
    ):
        rel = abs(summary.mean_time_s - summary.analytic_time_s) / summary.analytic_time_s
        rows.append(
            [
                name,
                str(summary.trials),
                _fmt(summary.mean_time_s),
                _fmt(summary.stderr_s),
                _fmt(summary.analytic_time_s),
                _fmt(rel),
            ]
        )
    header = ["strategy", "trials", "mean_s", "stderr_s", "analytic_s", "relative_error"]
    return _csv_text(header, rows)


def cmd_geometry(args: argparse.Namespace) -> str:
    if args.calibrate is not None:
        obj_cm, dist_cm, obs_px = args.calibrate
        focal = geometry.calibrate_focal(obj_cm, dist_cm, obs_px)
    elif args.focal_px is not None:
        focal = args.focal_px
    else:  # the reference camera's, scaled to --ref-width as project_size scales outputs
        focal, width, _ = geometry.reference_camera()
        focal *= number(args.ref_width, "ref_width", DomainError, "finite and > 0") / width
    cam = geometry.CameraModel(focal_px=focal, ref_width=args.ref_width, ref_height=args.ref_height)
    spec = geometry.ReceiverSpec(
        width_cm=args.receiver_width_cm, height_cm=args.receiver_height_cm
    )
    resolutions = _parse_list(args.resolutions, "--resolutions", _resolution)
    rows = []
    for dist in _parse_list(args.distances, "--distances", float):
        for w, h in resolutions:
            size = geometry.project_size(cam, spec, dist, w, h)
            ok = geometry.is_detectable(size, args.min_width_px, args.min_height_px)
            rows.append(
                [
                    _fmt(dist),
                    f"{w}x{h}",
                    str(round(size.w_px)),
                    str(round(size.h_px)),
                    str(ok).lower(),
                ]
            )
    header = ["distance_cm", "resolution", "width_px", "height_px", "detectable"]
    return _csv_text(header, rows)


def cmd_augment(args: argparse.Namespace) -> str:
    from . import formats

    af = formats.parse_annotations(formats.read_text(args.annotations))
    widths = {im.image_id: im.width for im in af.images}
    # Derived ids get a _flip suffix, extended until unique so re-running on
    # already-augmented output keeps quadrupling instead of colliding.
    used: set = {im.image_id for im in af.images}
    derived: dict = {}
    for im in af.images:
        candidate = f"{im.image_id}_flip"
        while candidate in used:
            candidate += "_flip"
        used.add(candidate)
        derived[im.image_id] = candidate
    flipped_images = [
        formats.ImageInfo(image_id=derived[im.image_id], width=im.width, height=im.height)
        for im in af.images
    ]
    objects = af.objects
    flipped_objects = [
        metrics.flip_augment(gt, widths[gt.image_id])._replace(image_id=derived[gt.image_id])
        for gt in objects
    ]
    doubled = formats.AnnotationFile(
        af.images + tuple(flipped_images),
        metrics.Columns.of(objects + tuple(flipped_objects)),
        af.split,
    )
    return formats.emit_annotations(doubled)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rbcscan",
        description="Detection-guided beam-charging scan models, metrics, and geometry tables.",
    )
    # Without a dest, argparse names the missing subcommand by its choices.
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("eval", help="score a detection file against annotations")
    p.add_argument("--ground-truth", required=True, help="annotation file (JSON)")
    p.add_argument("--detections", required=True, help="detection file (JSON)")
    p.add_argument("--thresholds", default=",".join(map(str, metrics.STANDARD_IOU_THRESHOLDS)),
                   help="comma-separated IoU thresholds (default %(default)s)")
    p.add_argument("--small-cutoff", type=float, default=metrics.SMALL_OBJECT_CUTOFF_PX,
                   help="side length in px below which ground truth counts as small")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analytic", help="expected scan time vs AP (CSV curve)")
    p.add_argument("--n-cells", type=int, default=64)
    p.add_argument("--t-scan", type=float, default=2.0, help="seconds per cell scan")
    p.add_argument("--t-detect", type=float, default=0.2, help="detector seconds per image")
    p.add_argument("--ap-start", type=float, default=0.0)
    p.add_argument("--ap-stop", type=float, default=1.0)
    p.add_argument("--ap-step", type=float, default=0.05)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo comparison of both strategies")
    p.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p.add_argument("--trials", type=int, help="override the scenario's trial count")
    p.add_argument("--seed", type=int, help="override the scenario's RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("geometry", help="projected receiver sizes and detectability")
    focal = p.add_mutually_exclusive_group()
    focal.add_argument("--focal-px", type=float,
                       help="focal length in px at the reference resolution")
    focal.add_argument("--calibrate", type=float, nargs=3, metavar=("OBJ_CM", "DIST_CM", "OBS_PX"),
                       help="derive the focal length from one observation")
    p.add_argument("--ref-width", type=int, default=1280)
    p.add_argument("--ref-height", type=int, default=720)
    p.add_argument("--receiver-width-cm", type=float, default=14.0)
    p.add_argument("--receiver-height-cm", type=float, default=7.0)
    p.add_argument("--distances", default="120,200,250,350",
                   help="comma-separated distances in cm (default %(default)s)")
    p.add_argument("--resolutions", default="1280x720,640x360",
                   help="comma-separated WxH list (default %(default)s)")
    p.add_argument("--min-width-px", type=float, default=geometry.MIN_DETECTABLE_W_PX)
    p.add_argument("--min-height-px", type=float, default=geometry.MIN_DETECTABLE_H_PX)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("augment", help="mirror-double an annotation file")
    p.add_argument("--annotations", required=True, help="annotation file (JSON)")
    p.set_defaults(func=cmd_augment)

    for p in sub.choices.values():
        p.add_argument("--output", help="write the output here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.func(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        return 0
    except (RbcScanError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 1)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
