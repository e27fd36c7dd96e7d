"""Command-line front end.

Subcommands: eval, psd, wallach, norm, bound, quasi, repro.  JSON is the
default output format, one compact line per report; `psd --format csv`
emits the Gram spectrum as CSV.  Library records give `to_dict()`, and
`_emit` is the one writer that encodes them as strict JSON.  It writes the
`eval --order` tables in the bytes of `json.dumps`: one `%` of a format
cached per (m, order, k) and pattern of k x k blocks, which writes the keys
too; an exact +0.0 block is not re-encoded, and a non-finite table is refused.
Every flag can also be supplied through a JSON config file (--config): keys
are flag names, validated like flags (a bad value or unknown key exits 2),
and explicit flags win.  Each numeric flag follows a rule of `params.RULES`,
the table the library checks the same parameters with.  Beyond it, --lo
must lie below --hi, --z, --w and `quasi --a` must be points of C^m (m the
kernel's dimension) with finite coordinates, `quasi --a` inside the unit
ball, and `bound --f` a coordinate of C^m.  A bad flag exits 2, as does
an --output path that cannot be written.

Exit codes: 0 success, 2 configuration or parse error, 3 evaluation error,
4 scan bracket failure (no sign change in the scanned interval); `repro`
exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .automorphisms import MobiusMap, check_pair_count, curvature_quasi_check
from .eig import eigenvalues
from .errors import BracketError, DomainError, EvaluationError, KernelCalcError, ParseError
from .geometry import DEFAULT_SAMPLE_RADIUS, graded_lex_tuples, sample_array, sample_pairs
from .geometry import sampling_domain
from .params import RULES
from .parser import parse_kernel
from .positivity import BOUND_RESOLUTION, DEFAULT_TOL, WALLACH_RESOLUTION, check_width, gram
from .positivity import multiplier_bound, psd_check, wallach_scan
from .repro import run_all
from .rkhs import z2_tensor_e1_norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_BRACKET = 4


def _parse_point(text: str, flag: str, m: int) -> tuple[complex, ...]:
    """m comma-separated complex coordinates; a trailing `i` is the imaginary unit."""
    coords = []
    for k, c in enumerate(text.split(","), 1):
        c = c.strip()
        try:
            value = complex(c[:-1] + "j" if c.endswith("i") else c)
        except ValueError as exc:
            raise ParseError(f"bad point {flag} {text!r}: {exc}")
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ParseError(f"bad point {flag} {text!r}: coordinate {k} ({c!r}) "
                             "is not finite")
        coords.append(value)
    if len(coords) != m:
        raise ParseError(f"bad point {flag} {text!r}: expected a point of C^{m}, "
                         f"got dimension {len(coords)}")
    return tuple(coords)


def _provenance(args, kernel: str | None) -> dict:
    out = {"version": __version__}
    if kernel is not None:
        out["kernel"] = kernel
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        out["tol"] = args.tol
    return out


def _emit(args, report: dict, table=None) -> None:
    """Write the report as one line of strict JSON, which has no NaN or
    infinity: a report holding one is refused, naming its key, before
    anything is written.  Reports are fresh trees of dicts and lists, so no
    cycle check is needed.  With an `eval --order` JetTable, report["entries"]
    is an object of its k x k blocks as [re, im] pairs under `"i|j"` keys, in
    the bytes of `json.dumps`: one `%` of the cached format of its (m, order,
    k) and pattern of live blocks, which writes the keys.  A block of +0.0 is
    its cached text (a -0.0 has its sign bit set), so only the others are
    encoded, one `repr` per float."""
    entries = ""
    if table is not None:
        k = table.size
        floats = np.ascontiguousarray(table.derivatives).view(float).reshape(-1, 2 * k * k)
        if not np.isfinite(floats).all():
            raise EvaluationError("the entries of the report is not finite")
        live = floats.view(np.int64).any(axis=1)  # +0.0 is the one float whose bits are all 0
        fmt = _table_format(table.m, table.order, k, live.tobytes())
        entries = ', "entries": ' + fmt % tuple(floats[live].ravel().tolist())
    try:
        text = json.dumps(report, allow_nan=False, check_circular=False)
    except ValueError:
        bad = [key for key, value in report.items() if not _finite_json(value)]
        raise EvaluationError(f"the {', '.join(bad)} of the report is not finite") from None
    _write(args, f"{text[:-1]}{entries}}}")


def _finite_json(value) -> bool:
    try:
        json.dumps(value, allow_nan=False, check_circular=False)
    except ValueError:
        return False
    return True


def _write(args, text: str) -> None:
    """Print `text`, or write it to the --output path; a path that cannot
    be written is a bad flag (exit 2)."""
    if not getattr(args, "output", None):
        print(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write output {args.output!r}: {exc.strerror or exc}") from None


@functools.lru_cache(maxsize=16)
def _table_format(m: int, order: int, k: int, live: bytes) -> str:
    """The `%` format of the k x k blocks of an (m, order) jet table under their
    `"i|j": ` keys: `%r` (a float's JSON text) for each float of a block where
    `live` has a nonzero byte, the text of a block of +0.0 pairs for the others."""
    row = "[" + ", ".join(["[%r, %r]"] * k) + "]"
    fmt = "[" + ", ".join([row] * k) + "]"
    zero = fmt % ((0.0,) * (2 * k * k))
    labels = [f"{list(i)}" for i in graded_lex_tuples(m, order)]
    keys = (f'"{i}|{j}": ' for i in labels for j in labels)
    return "{" + ", ".join(key + (fmt if on else zero) for key, on in zip(keys, live)) + "}"


def cmd_eval(args) -> int:
    expr = parse_kernel(args.kernel)
    z = _parse_point(args.z, "--z", expr.m)
    w = _parse_point(args.w, "--w", expr.m)
    report = _provenance(args, expr.to_dsl())
    if args.order > 0:
        table = expr.eval_jet(z, w, args.order)
        report["order"] = args.order
        _emit(args, report, table)
    else:
        value = expr.eval(z, w)
        report["value"] = np.stack((value.real, value.imag), axis=-1).tolist()
        _emit(args, report)
    return EXIT_OK


def cmd_psd(args) -> int:
    expr = parse_kernel(args.kernel)
    domain = sampling_domain(expr.m, args.radius)
    if args.format == "csv":
        check_width(args.n, expr.size)  # before a point is drawn, as psd_check does
        eigs = eigenvalues(gram(expr, sample_array(domain, args.n, args.seed)))
        lines = ["index,eigenvalue"] + [
            f"{i},{float(v)!r}" for i, v in enumerate(eigs)
        ]
        _write(args, "\n".join(lines))
        return EXIT_OK
    rep = psd_check(expr, domain, args.n, args.seed, args.tol)
    payload = rep.to_dict()
    payload.update(_provenance(args, expr.to_dsl()))
    _emit(args, payload)
    return EXIT_OK


def cmd_wallach(args) -> int:
    if not args.lo < args.hi:
        raise ParseError(f"--lo {args.lo} must be below --hi {args.hi}")
    base = parse_kernel(args.base)
    domain = sampling_domain(base.m, args.radius)
    est = wallach_scan(base, args.lo, args.hi, domain, tol=args.tol,
                       resolution=args.resolution)
    payload = est.to_dict()
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
        raise ParseError(f"--f {args.f!r} names no coordinate of C^{expr.m}")
    domain = sampling_domain(expr.m, args.radius)
    est = multiplier_bound(expr, f, domain, resolution=args.resolution)
    payload = est.to_dict()
    payload.update(_provenance(args, expr.to_dsl()))
    _emit(args, payload)
    return EXIT_OK


def cmd_quasi(args) -> int:
    base = parse_kernel(args.kernel)
    m = base.m
    rng = np.random.default_rng(args.seed)
    if args.a:
        try:
            phi = MobiusMap(_parse_point(args.a, "--a", m))
        except DomainError as exc:
            raise ParseError(f"bad point --a {args.a!r}: {exc}") from None
    else:
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        phi = MobiusMap(0.5 * rng.random() * v / np.linalg.norm(v))
    check_pair_count(args.pairs)  # before a pair is drawn
    pairs = sample_pairs(sampling_domain(m, args.radius), args.pairs, args.seed)
    residual = curvature_quasi_check(base, args.t, phi, pairs)
    payload = _provenance(args, base.to_dsl())
    payload.update({"t": args.t, "map": phi.to_dict(), "pairs": args.pairs, "residual": residual})
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


def _flag(rule: str):
    """The argparse type of a flag that follows `rule` of `params.RULES`."""
    convert, in_range, what = RULES[rule]

    def parse(text: str):
        value = convert(text)
        if not in_range(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kernelcalc",
        description="kernel calculus workbench: evaluate, differentiate, and "
        "certify sesqui-analytic kernels",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, samples=False):
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--output", help="write the report to this path")
        if samples:
            p.add_argument("--radius", type=_flag("radius"), default=DEFAULT_SAMPLE_RADIUS,
                           help="sampling radius inside the domain")

    p = sub.add_parser("eval", help="evaluate a kernel or its jet table")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--order", type=_flag("non_negative_int"), default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("psd", help="finite-sample positivity certificate")
    common(p, samples=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--n", type=_flag("positive_int"), default=20)
    p.add_argument("--seed", type=_flag("seed"), default=0)
    p.add_argument("--tol", type=_flag("positive"), default=DEFAULT_TOL)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("wallach", help="bisect a curvature positivity boundary")
    common(p, samples=True)
    p.add_argument("--base", required=True)
    p.add_argument("--lo", type=_flag("finite"), default=-1.0)
    p.add_argument("--hi", type=_flag("finite"), default=1.0)
    p.add_argument("--resolution", type=_flag("positive"), default=WALLACH_RESOLUTION)
    p.add_argument("--tol", type=_flag("positive"), default=DEFAULT_TOL)
    p.set_defaults(func=cmd_wallach)

    p = sub.add_parser("norm", help="derivative-section norm of the ball matrix kernel")
    common(p)
    p.add_argument("--m", type=_flag("norm_dim"), default=2)
    p.add_argument("--lambda", type=_flag("finite"), required=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("bound", help="multiplier-norm bisection")
    common(p, samples=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--f", default="z1", help="coordinate function, e.g. z1")
    p.add_argument("--resolution", type=_flag("positive"), default=BOUND_RESOLUTION)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("quasi", help="quasi-invariance residual under a Mobius map")
    common(p, samples=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--t", type=_flag("finite"), default=1.0)
    p.add_argument("--seed", type=_flag("seed"), default=0)
    p.add_argument("--a", help="base point of the map (default: seeded random)")
    p.add_argument("--pairs", type=_flag("positive_int"), default=20)
    p.set_defaults(func=cmd_quasi)

    p = sub.add_parser("repro", help="run the full certification battery")
    p.set_defaults(func=cmd_repro)
    return top


@functools.cache
def _config_parser(prog: str) -> argparse.ArgumentParser:
    """The pre-parser that finds --config among the other flags."""
    pre = argparse.ArgumentParser(prog=prog, add_help=False)
    pre.add_argument("--config")
    return pre


def _with_config(parser, argv: list[str]) -> list[str]:
    """Insert the flags of a --config file right after the subcommand name.

    Each key becomes `--key=value`, parsed like a flag typed by the user;
    the user's own flags come later and so win.  argparse finds --config
    only in a token that starts with `--c` (a prefix of it, or `--config=`),
    so without one there is nothing to pre-parse.  The pre-parser alone would
    read `--=path` as --config, so it is not shown such a token: the main
    parser refuses it as ambiguous before any file is opened.
    """
    if not any(token.startswith("--c") for token in argv):
        return argv
    visible = [token for token in argv if not token.startswith("--=")]
    path = _config_parser(parser.prog).parse_known_args(visible)[0].config
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
