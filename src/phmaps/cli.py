"""Command-line front end.

Exit codes: 0 = success/check passed, 1 = mathematically meaningful negative
(non-member, geometry violation, outside neighborhood), 2 = usage, parse, or
I/O errors. Reports go to stdout as "name=value" lines; diagnostics to stderr.

Only `verify` and `render` import the numeric layer (numpy, `geometry`,
`render`); the exact-only commands never load it.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import catalog
from .classes import FIXED_LAMBDA, ClassParams, Family, hs_lambda, membership
from .errors import MAX_GRID_POINTS, GridTooLargeError, NotMemberError, ParamError, PhmapsError
from .exact import brief_scalar, brief_text, kv_lines, parse_scalar
from .operators import convolve, integral_convolve, neighborhood_report
from .phmio import load_map, save_map, serialize_map
from .series import PolyharmonicMap

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _scalar_arg(text: str):
    try:
        return parse_scalar(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _grid_arg(text: str) -> tuple[int, int]:
    try:
        rings, _, rays = text.lower().partition("x")
        return int(rings), int(rays)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected RINGSxRAYS, got {brief_text(text)}") from None


def _write_map(F: PolyharmonicMap, path: str | None) -> None:
    if path is None:
        sys.stdout.buffer.write(serialize_map(F))
    else:
        save_map(F, path)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, which the subparsers inherit, quoting error tokens over 40 characters by brief_text."""

    def error(self, message):
        super().error(re.sub(r"'([^'\n]{41,})'|\"([^\"\n]{41,})\"", lambda m: brief_text(m[1] or m[2]), message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phmaps",
        description="Construct, classify, combine, and geometrically verify "
        "polyharmonic mappings of the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="class membership report")
    p_check.add_argument("--class", dest="family", required=True, choices=["hs-lambda", "hs", "hc"])
    p_check.add_argument("--lambda", dest="lam", type=_scalar_arg, default=None)
    p_check.add_argument("--normalized", action="store_true")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    for name in ("convolve", "iconvolve"):
        p_c = sub.add_parser(name, help=f"{'integral ' if name == 'iconvolve' else ''}convolution of two maps")
        p_c.add_argument("file1")
        p_c.add_argument("file2")
        p_c.add_argument("-o", "--output", default=None)
        p_c.set_defaults(func=_cmd_convolution, integral=name == "iconvolve")

    p_nb = sub.add_parser("neighborhood", help="weighted coefficient distance vs. inclusion bound")
    p_nb.add_argument("file1")
    p_nb.add_argument("file2")
    p_nb.add_argument("--lambda", dest="lam", type=_scalar_arg, required=True)
    p_nb.set_defaults(func=_cmd_neighborhood)

    p_verify = sub.add_parser("verify", help="grid verification of geometric properties")
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["starlike", "convex", "jacobian", "injective", "distortion", "all"],
    )
    p_verify.add_argument("--grid", type=_grid_arg, default=None, metavar="RINGSxRAYS")
    p_verify.add_argument("--r", dest="radius", type=_scalar_arg, default=None,
                          help="outermost sampled radius (rational or decimal)")
    p_verify.add_argument("--lambda", dest="lam", type=_scalar_arg, default=None,
                          help="class parameter (required for the distortion suite)")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", help="SVG (and optional CSV) image of the mapped disk")
    p_render.add_argument("file")
    p_render.add_argument("-o", "--output", required=True)
    p_render.add_argument("--csv", default=None)
    p_render.add_argument("--rings", type=int, default=12)
    p_render.add_argument("--rays", type=int, default=24)
    p_render.add_argument("--rmax", type=float, default=0.98)
    p_render.add_argument("--samples", type=int, default=256)
    p_render.add_argument("--width", type=int, default=800)
    p_render.add_argument("--height", type=int, default=800)
    p_render.set_defaults(func=_cmd_render)

    p_ext = sub.add_parser("extremal", help="boundary-tight single-slot map")
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--k", type=int, default=1)
    p_ext.add_argument("--lambda", dest="lam", type=_scalar_arg, required=True)
    p_ext.add_argument("--kind", choices=["a", "b"], default="a")
    p_ext.add_argument("--phase", type=float, default=0.0)
    p_ext.add_argument("-p", type=int, default=None)
    p_ext.add_argument("-o", "--output", default=None)
    p_ext.set_defaults(func=_cmd_extremal)

    p_cat = sub.add_parser("catalog", help="write a named built-in map")
    p_cat.add_argument("name", choices=["identity", "f1", "f2", "half-plane"])
    p_cat.add_argument("-N", type=int, default=64, help="truncation degree for half-plane")
    p_cat.add_argument("-p", type=int, default=1, help="layer count for identity")
    p_cat.add_argument("-o", "--output", default=None)
    p_cat.set_defaults(func=_cmd_catalog)

    return parser


def _cmd_check(args) -> int:
    F = load_map(args.file)
    family = Family(args.family)
    if args.lam is not None:
        hs_lambda(args.lam)  # ParamError for lambda outside [0, 1], whichever class is checked
    elif family not in FIXED_LAMBDA:
        raise ParamError("--lambda is required for --class hs-lambda")
    report = membership(F, ClassParams(family, FIXED_LAMBDA.get(family, args.lam), args.normalized))
    print(report.to_kv())
    return EXIT_OK if report.member else EXIT_FAIL


def _cmd_convolution(args) -> int:
    F = load_map(args.file1)
    G = load_map(args.file2)
    out = integral_convolve(F, G) if args.integral else convolve(F, G)
    _write_map(out, args.output)
    return EXIT_OK


def _cmd_neighborhood(args) -> int:
    F = load_map(args.file1)
    G = load_map(args.file2)
    report = neighborhood_report(F, G, args.lam)
    print(report.to_kv())
    return EXIT_OK if report.inside else EXIT_FAIL


def _cmd_verify(args) -> int:
    from .geometry import ALL_CHECKS, DiskGrid, distortion_check, verify_geometry

    F = load_map(args.file)
    suite = args.suite
    grid_checks = {"distortion": (), "all": ALL_CHECKS}.get(suite, (suite,))

    rings, rays = args.grid if args.grid else (32, 256)
    if args.grid is None and suite == "convex":
        rings, rays = 8, 4096  # dense boundary sweep
    radius = args.radius if args.radius is not None else 0.995
    if not 0 < radius < 1:  # compared exactly: an exact radius may not convert to float
        raise ParamError(f"--r must lie in (0,1), got {brief_scalar(radius)}")
    distortion = suite == "distortion" or (suite == "all" and args.lam is not None)
    if distortion and args.lam is None:
        raise ParamError("--lambda is required for the distortion suite")
    # every flag is checked before the first report line, whether or not its suite runs
    if args.lam is not None:
        hs_lambda(args.lam)  # ParamError for lambda outside [0, 1]
    for bad, message in ((args.samples > MAX_GRID_POINTS, f"--samples {args.samples} exceeds {MAX_GRID_POINTS}"),
                         (args.samples < 1, f"samples must be >= 1, got {args.samples}"),
                         (args.seed < 0, f"--seed must be >= 0, got {args.seed}")):
        if bad:
            raise ParamError(message)
    grid = DiskGrid(rings=rings, rays=rays, r_max=radius)
    if rings * rays > MAX_GRID_POINTS:
        raise GridTooLargeError(f"{rings}x{rays} grid exceeds {MAX_GRID_POINTS} points")

    ok = True
    if grid_checks:
        report = verify_geometry(F, grid, grid_checks)
        print(report.to_kv())
        ok &= report.passed()
    if distortion:
        dist = distortion_check(F, args.lam, args.samples, args.seed)
        print(dist.to_kv())
        ok &= dist.passed()
    print(kv_lines([("suite_passed", ok)]))
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_render(args) -> int:
    from .geometry import DiskGrid
    from .render import Image, RenderSpec

    F = load_map(args.file)
    spec = RenderSpec(
        grid=DiskGrid(rings=args.rings, rays=args.rays, r_max=args.rmax),
        samples_per_curve=args.samples,
        width=args.width,
        height=args.height,
    )
    image = Image(F, spec)  # before any file is opened, so a failed render leaves none
    with open(args.output, "wb") as fh:
        fh.write(image.svg())
    if args.csv:
        with open(args.csv, "wb") as fh:
            fh.write(image.csv())
    return EXIT_OK


def _cmd_extremal(args) -> int:
    spec = catalog.ExtremalSpec(
        n=args.n,
        k=args.k,
        lam=args.lam,
        kind="analytic" if args.kind == "a" else "antianalytic",
        phase=args.phase,
    )
    _write_map(catalog.extremal_point(spec, args.p), args.output)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.name == "identity":
        F = catalog.identity_map(args.p)
    elif args.name == "f1":
        F = catalog.example_F1()
    elif args.name == "f2":
        F = catalog.example_F2()
    else:
        F = catalog.half_plane_map(args.N)
    _write_map(F, args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotMemberError as e:
        print(f"not a member: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (PhmapsError, OSError, ValueError, OverflowError) as e:  # OverflowError: exact meets float
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
