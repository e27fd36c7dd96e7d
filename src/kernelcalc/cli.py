"""Command-line front end.

Subcommands: eval, psd, wallach, norm, bound, quasi, repro.  JSON is the
default output format; `psd --format csv` emits the Gram spectrum as CSV.
Every flag can also be supplied through a JSON config file (--config): keys
are flag names, validated like flags (a bad value or unknown key exits 2),
and explicit flags win.  --tol and --resolution must be positive, --n and
--pairs positive integers, --order a non-negative integer, --radius in
(0, 1), --lambda, --t, --lo and --hi finite, and the coordinate of
`bound --f` must exist in the kernel's domain.

Exit codes: 0 success, 2 configuration or parse error, 3 evaluation error,
4 scan bracket failure (no sign change in the scanned interval); `repro`
exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .automorphisms import MobiusMap, curvature_quasi_check
from .eig import eigenvalues
from .errors import BracketError, KernelCalcError, ParseError
from .geometry import sample_points, unit_ball, unit_disc
from .parser import parse_kernel
from .positivity import DEFAULT_TOL, gram, psd_check, wallach_scan
from .repro import run_all
from .rkhs import multiplier_bound, z2_tensor_e1_norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_BRACKET = 4


def _parse_point(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(c.strip().replace("i", "j")) for c in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad point {text!r}: {exc}", 0)


def _domain_for(m: int, radius: float):
    return unit_disc(radius) if m == 1 else unit_ball(m, radius)


def _provenance(args, kernel: str | None) -> dict:
    out = {"version": __version__}
    if kernel is not None:
        out["kernel"] = kernel
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        out["tol"] = args.tol
    return out


def _emit(args, payload: dict) -> None:
    _write(args, json.dumps(payload, indent=2))


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _complex_matrix(mat) -> list:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [[[c.real, c.imag] for c in row] for row in mat]


def cmd_eval(args) -> int:
    expr = parse_kernel(args.kernel)
    z = _parse_point(args.z)
    w = _parse_point(args.w)
    report = _provenance(args, expr.to_dsl())
    if args.order > 0:
        tab = expr.eval_jet(z, w, args.order)
        report["order"] = args.order
        report["entries"] = {
            f"{list(i)}|{list(j)}": _complex_matrix(mat)
            for (i, j), mat in tab.entries.items()
        }
    else:
        report["value"] = _complex_matrix(expr.eval(z, w))
    _emit(args, report)
    return EXIT_OK


def cmd_psd(args) -> int:
    expr = parse_kernel(args.kernel)
    domain = _domain_for(expr.m, args.radius)
    if args.format == "csv":
        eigs = eigenvalues(gram(expr, sample_points(domain, args.n, args.seed)))
        lines = ["index,eigenvalue"] + [
            f"{i},{float(v)!r}" for i, v in enumerate(eigs)
        ]
        _write(args, "\n".join(lines))
        return EXIT_OK
    rep = psd_check(expr, domain, args.n, args.seed, args.tol)
    payload = json.loads(rep.to_json())
    payload.update(_provenance(args, expr.to_dsl()))
    _emit(args, payload)
    return EXIT_OK


def cmd_wallach(args) -> int:
    base = parse_kernel(args.base)
    domain = _domain_for(base.m, args.radius)
    est = wallach_scan(base, args.lo, args.hi, domain, tol=args.tol,
                       resolution=args.resolution)
    payload = json.loads(est.to_json())
    payload.update(_provenance(args, base.to_dsl()))
    _emit(args, payload)
    return EXIT_OK


def cmd_norm(args) -> int:
    value = z2_tensor_e1_norm(args.m, getattr(args, "lambda"))
    payload = _provenance(args, None)
    payload.update({"m": args.m, "lambda": getattr(args, "lambda"), "norm": value})
    _emit(args, payload)
    return EXIT_OK


def cmd_bound(args) -> int:
    expr = parse_kernel(args.kernel)
    digits = args.f[1:] or "1"  # "z" is z1
    f = int(digits) - 1 if args.f.startswith("z") and digits.isdecimal() else -1
    if not 0 <= f < expr.m:
        raise ParseError(f"--f {args.f!r} names no coordinate of C^{expr.m}", 0)
    domain = _domain_for(expr.m, args.radius)
    est = multiplier_bound(expr, f, domain, resolution=args.resolution)
    payload = json.loads(est.to_json())
    payload.update(_provenance(args, expr.to_dsl()))
    _emit(args, payload)
    return EXIT_OK


def cmd_quasi(args) -> int:
    base = parse_kernel(args.kernel)
    m = base.m
    rng = np.random.default_rng(args.seed)
    if args.a:
        a = _parse_point(args.a)
    else:
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a = tuple(0.5 * rng.random() * v / np.linalg.norm(v))
    phi = MobiusMap(a)
    domain = _domain_for(m, args.radius)
    pts = sample_points(domain, 2 * args.pairs, args.seed)
    pairs = list(zip(pts[: args.pairs], pts[args.pairs :]))
    residual = curvature_quasi_check(base, args.t, phi, pairs)
    payload = _provenance(args, base.to_dsl())
    payload.update(
        {
            "t": args.t,
            "map": json.loads(phi.to_json()),
            "pairs": args.pairs,
            "residual": residual,
        }
    )
    _emit(args, payload)
    return EXIT_OK


def cmd_repro(args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag}  {r.name:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


def _checked(convert, ok, what: str):
    """An argparse type: `convert` the text, then reject values failing `ok`."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "positive and finite")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_radius = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_finite_float = _checked(float, math.isfinite, "finite")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kernelcalc",
        description="kernel calculus workbench: evaluate, differentiate, and "
        "certify sesqui-analytic kernels",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--radius", type=_radius, default=0.8,
                       help="sampling radius inside the domain")

    p = sub.add_parser("eval", help="evaluate a kernel or its jet table")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--order", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("psd", help="finite-sample positivity certificate")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--n", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("wallach", help="bisect a curvature positivity boundary")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--lo", type=_finite_float, default=-1.0)
    p.add_argument("--hi", type=_finite_float, default=1.0)
    p.add_argument("--resolution", type=_positive_float, default=0.05)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_wallach)

    p = sub.add_parser("norm", help="derivative-section norm of the ball matrix kernel")
    common(p)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--lambda", type=_finite_float, required=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("bound", help="multiplier-norm bisection")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--f", default="z1", help="coordinate function, e.g. z1")
    p.add_argument("--resolution", type=_positive_float, default=0.01)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("quasi", help="quasi-invariance residual under a Mobius map")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", help="base point of the map (default: seeded random)")
    p.add_argument("--pairs", type=_positive_int, default=20)
    p.set_defaults(func=cmd_quasi)

    p = sub.add_parser("repro", help="run the full certification battery")
    p.set_defaults(func=cmd_repro)
    return top


def _with_config(parser, argv: list[str]) -> list[str]:
    """Insert the flags of a --config file right after the subcommand name.

    Each key becomes `--key=value`, parsed like a flag typed by the user;
    the user's own flags come later and so win.
    """
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path!r}: {exc}")
    if not isinstance(conf, dict):
        parser.error("config file must hold a JSON object")
    return argv[:1] + [f"--{key}={value}" for key, value in conf.items()] + argv[1:]


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except (KernelCalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
