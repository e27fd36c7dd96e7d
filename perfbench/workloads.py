"""The four workloads: seeded inputs, the task list of each round, and the
reference check of every task.

A task is one user-level request to kernelcalc.  `run` calls the public API
and returns the raw answer; `check` compares an answer with an independent
reference (see references.py) and returns None or the reason it failed.
Checks run after the timed phase.  References are computed once per task
object, and the pool of rounds is cycled when a run needs more rounds.

Every kernelcalc function is looked up through its module at call time
(`kc.positivity.wallach_scan`, not a name bound at import), so the traced
run sees the wrappers spans.py installs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import references as ref

WORKLOADS = ("scan", "certify", "crosscheck", "sections")

#: distinct rounds of inputs drawn per run; a longer run cycles through them
POOL_ROUNDS = 16

#: wall seconds one round takes at the seed commit on the reference machine
#: (2 vCPU x86_64, Python 3.11, numpy 2.4) at its usual speed, 1.3 times
#: the calibration's nominal (calibrate.py).  A run does round(--seconds /
#: this) rounds, so faster code finishes the same work sooner.
ROUND_SECONDS = {"scan": 1.8, "certify": 1.5, "crosscheck": 1.95, "sections": 1.65}


class Note(str):
    """A finding a check reports without failing the task (see README)."""


@dataclass(eq=False)
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _cached(memo: dict, key, compute):
    """memo[key], computed on first use: each task computes its reference once."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


class _Kc:
    """The kernelcalc modules a workload calls, imported once."""

    def __init__(self):
        import kernelcalc
        import kernelcalc.cli
        import kernelcalc.fd

        self.parser = kernelcalc.parser
        self.geometry = kernelcalc.geometry
        self.positivity = kernelcalc.positivity
        self.rkhs = kernelcalc.rkhs
        self.automorphisms = kernelcalc.automorphisms
        self.fd = kernelcalc.fd
        self.cli = kernelcalc.cli

    def parse(self, text: str):
        return self.parser.parse_kernel(text)

    def domain(self, m: int, radius: float = 0.8):
        g = self.geometry
        return g.unit_disc(radius) if m == 1 else g.unit_ball(m, radius)

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, k)]


def _within(value: float, want: float, tol: float, what: str) -> "str | None":
    if abs(value - want) <= tol:
        return None
    return f"{what} {value!r} not within {tol} of {want!r}"


# ---------------------------------------------------------------------------
# scan: positivity-boundary bisections and multiplier bounds
# ---------------------------------------------------------------------------

SCAN_CASES = (
    # base kernel, domain dimension, scan interval, closed-form boundary
    ("bergman_disc()", 1, (-2.0, 0.0), -1.0),
    ("bergman_ball(2)", 2, (-1.0, 1.0), 0.0),
    ("bergman_ball(3)", 3, (-1.0, 1.0), 0.0),
)
#: kernel -> how far below the closed-form multiplier norm 1 the sampled
#: bound may fall.  Points sampled at radius 0.8 can only show a failing c
#: that is close enough to 1; for the Bergman kernel the bisection settles
#: at 0.969-0.984 on every seed tried, for the Szego kernel at 1.0.
BOUND_KERNELS = {"szego_disc()": 0.01, "bergman_disc()": 0.04}
SCAN_FAMILY_SIZES = (8, 12, 16)
BOUNDARY_TOL = 0.05
BOUND_RESOLUTION = 0.01


def _scan_rounds(kc: _Kc, rng, rounds: int, toy: bool) -> list[list[Task]]:
    cases = SCAN_CASES[:1] if toy else SCAN_CASES
    bases = {text: kc.parse(text) for text, *_ in cases}
    bound_kernels = {text: kc.parse(text) for text in list(BOUND_KERNELS)[: 1 if toy else None]}
    tol = kc.positivity.DEFAULT_TOL
    out = []
    for _ in range(rounds):
        family = tuple(zip(SCAN_FAMILY_SIZES, _seeds(rng, len(SCAN_FAMILY_SIZES))))
        tasks = []
        for text, m, (lo, hi), boundary in cases:
            base, dom = bases[text], kc.domain(m)

            def run(base=base, dom=dom, lo=lo, hi=hi, family=family):
                return kc.positivity.wallach_scan(base, lo, hi, dom, family).boundary

            def check(b, boundary=boundary):
                return _within(b, boundary, BOUNDARY_TOL, "boundary")

            tasks.append(Task(f"scan {text}", run, check))
        for text, kern in bound_kernels.items():
            dom = kc.domain(1)
            points = [kc.geometry.sample_points(dom, n, s) for n, s in family]
            memo: dict = {}

            def run(kern=kern, dom=dom, family=family):
                return kc.rkhs.multiplier_bound(
                    kern, 0, dom, family, resolution=BOUND_RESOLUTION
                ).bound

            def check(b, kern=kern, points=points, short=BOUND_KERNELS[text], memo=memo):
                lapack = _cached(
                    memo,
                    "bound",
                    lambda: ref.multiplier_bisection(
                        kern.to_dsl(), points, tol, BOUND_RESOLUTION
                    ),
                )
                if not 1.0 - short <= b <= 1.0 + BOUND_RESOLUTION:
                    return f"bound {b} outside [{1.0 - short}, {1.0 + BOUND_RESOLUTION}]"
                return _within(b, lapack, BOUND_RESOLUTION, "bound vs LAPACK bisection")

            tasks.append(Task(f"bound z1 {text}", run, check))
        out.append(tasks)
    return out


# ---------------------------------------------------------------------------
# certify: psd reports through the CLI, and a kernel-order check
# ---------------------------------------------------------------------------

#: (kernel, n, format, radius, expected verdict or None)
CERTIFY_VARIANTS = (
    ("szego_disc()", 30, "json", 0.8, True),
    ("bergman_ball(2)", 20, "csv", 0.8, None),
    ("ball_curvature(2,1.5)", 30, "json", 0.8, False),
    ("curvature(bergman_ball(2),1,1)", 20, "json", 0.8, True),
    ("jet(szego_disc(),szego_disc(),1)", 20, "csv", 0.8, None),
    ("curvature(diagonal_series([1,0.1]),0.5,0.5)", 20, "json", 0.1, False),
)
README_EXAMPLES = (
    (["psd", "--kernel", "ball_curvature(2,1.5)", "--n", "30", "--seed", "23"], False),
    (["psd", "--kernel", "szego_disc()", "--n", "20", "--format", "csv"], None),
)
#: the in-repo eigenvalues must match LAPACK to EIG_FAIL * (1 + max
#: diagonal).  A deviation above EIG_NOTE * (1 + max diagonal), the
#: program's own PSD tolerance, is a note, not a failure (README, "Notes").
EIG_FAIL = 1e-7
EIG_NOTE = 1e-9


def _compare_eigs(got, want, maxdiag: float, tol: float, psd=None, expected=None):
    """Sorted eigenvalues `got` (or only the minimum) against LAPACK's `want`,
    and the program's verdict `psd` against LAPACK's and the expected one."""
    scale = 1 + maxdiag
    if abs(got[0] - want[0]) > EIG_FAIL * scale:
        return f"min eig {got[0]:.6e} vs LAPACK {want[0]:.6e}"
    if psd is not None:
        lapack_psd = want[0] >= -tol * scale
        near_tie = abs(want[0] + tol * scale) <= EIG_FAIL * scale
        if psd != lapack_psd and not near_tie:
            return f"verdict {psd} vs LAPACK {lapack_psd}"
        if expected is not None and psd != expected:
            return f"verdict {psd}, expected {expected}"
    err = max(abs(g - w) for g, w in zip(got, want))
    if err > EIG_NOTE * scale:
        return Note(f"an eigenvalue is off by {err / scale:.1e} x (1 + max diagonal)")
    return None


def _psd_check(kc: _Kc, argv: list[str], expected):
    """Check a `kernelcalc psd` answer against LAPACK on the closed-form Gram."""
    memo: dict = {}
    opts = dict(zip(argv[1::2], argv[2::2]))
    expr = kc.parse(opts["--kernel"])
    dsl = expr.to_dsl()
    n = int(opts.get("--n", 20))
    seed = int(opts.get("--seed", 0))
    radius = float(opts.get("--radius", 0.8))
    tol = kc.positivity.DEFAULT_TOL
    csv = opts.get("--format") == "csv"

    def reference(points):
        g = ref.closed_form_gram(dsl, points)
        return np.linalg.eigvalsh(g), float(np.max(np.diag(g).real))

    def check(answer):
        rc, text = answer
        if rc != 0:
            return f"exit code {rc}"
        if csv:
            pts = _cached(
                memo,
                "points",
                lambda: kc.geometry.sample_points(kc.domain(expr.m, radius), n, seed),
            )
            spectrum, maxdiag = _cached(memo, "ref", lambda: reference(pts))
            got = np.sort([float(line.split(",")[1]) for line in text.split()[1:]])
            if got.shape != spectrum.shape:
                return f"spectrum has {got.size} values, want {spectrum.size}"
            return _compare_eigs(got, spectrum, maxdiag, tol)
        rep = json.loads(text)
        if rep["kernel"] != dsl:
            return f"kernel {rep['kernel']!r}, want {dsl!r}"
        pts = [[complex(re, im) for re, im in p] for p in rep["points"]]
        spectrum, maxdiag = _cached(memo, "ref", lambda: reference(pts))
        return _compare_eigs([rep["min_eig"]], spectrum, maxdiag, tol, rep["psd"], expected)

    return check


def _certify_rounds(kc: _Kc, rng, rounds: int, toy: bool) -> list[list[Task]]:
    for text, *_ in CERTIFY_VARIANTS:
        kc.parse(text)
    szego, bergman = kc.parse("szego_disc()"), kc.parse("bergman_disc()")
    tol = kc.positivity.DEFAULT_TOL
    out = []
    for _ in range(rounds):
        tasks = []
        calls = [list(argv) for argv, _ in README_EXAMPLES]
        expects = [e for _, e in README_EXAMPLES]
        for (text, n, fmt, radius, expected), seed in zip(
            CERTIFY_VARIANTS, _seeds(rng, len(CERTIFY_VARIANTS))
        ):
            n = min(n, 6) if toy else n
            calls.append(
                ["psd", "--kernel", text, "--n", str(n), "--seed", str(seed),
                 "--format", fmt, "--radius", str(radius)]
            )
            expects.append(expected)
        if toy:
            for argv in calls[: len(README_EXAMPLES)]:
                argv[argv.index("--n") + 1] = "6"
        for argv, expected in zip(calls, expects):
            tasks.append(
                Task(
                    f"psd {argv[2]} {'csv' if 'csv' in argv else 'json'}",
                    lambda argv=argv: kc.run_cli(argv),
                    _psd_check(kc, argv, expected),
                )
            )
        n_order = 6 if toy else 30
        seed = _seeds(rng, 1)[0]
        dom = kc.domain(1)

        def run(seed=seed, dom=dom):
            return kc.positivity.kernel_order_check(szego, bergman, dom, n_order, seed)

        memo = {}

        def check(rep, memo=memo):
            pts = [p.coords for p in rep.points]
            g = _cached(
                memo,
                "gram",
                lambda: ref.closed_form_gram("ball_power(1, 2.0)", pts)
                - ref.closed_form_gram("szego_disc()", pts),
            )
            return _compare_eigs(
                [rep.min_eigenvalue], np.linalg.eigvalsh(g), float(np.max(np.diag(g).real)),
                tol, rep.psd, True,
            )

        tasks.append(Task("order szego<=bergman", run, check))
        out.append(tasks)
    return out


# ---------------------------------------------------------------------------
# crosscheck: jet engine vs finite differences, Mobius quasi-invariance
# ---------------------------------------------------------------------------

FD_EXPRESSIONS = (
    "szego_disc()",
    "bergman_disc()",
    "ball_power(1, 2.5)",
    "bergman_ball(2)",
    "diagonal_series([1.0, 0.5, 0.25])",
    "pow(szego_disc(), 0.7)",
    "product(szego_disc(), bergman_disc())",
    "sum(szego_disc(), scale(bergman_disc(), 0.5))",
    "scale(szego_disc(), 2.0)",
    "tensor(szego_disc(), szego_disc())",
    "log_hessian(bergman_ball(2))",
    "curvature(ball_power(2, 3.0), 1.0, 1.0)",
    "ball_curvature(2, 3.0)",
    "jet(szego_disc(), szego_disc(), 1)",
    "jet(bergman_ball(2), bergman_ball(2), 1)",
)
FD_RADIUS = 0.35
FD_BOUND = 1e-6
RESIDUAL_BOUND = 1e-8
QUASI_PAIRS = 20
#: (m, t): t None is the det-Jacobian cocycle of the Bergman kernel,
#: otherwise curvature_quasi_check(bergman, t).  Non-integer t at odd m is
#: left out: the principal branch of (det D phi)^t is discontinuous there,
#: because det D phi has the sign of (-1)^m, and the residual is about 2.
QUASI_CASES = ((1, None), (2, None), (3, None), (1, 1.0), (2, 0.5), (3, 1.0))


def _below(bound: float, what: str):
    def check(value):
        if value < bound:
            return None
        return f"{what} {value:.3e} not below {bound:.0e}"

    return check


def _crosscheck_rounds(kc: _Kc, rng, rounds: int, toy: bool) -> list[list[Task]]:
    texts = FD_EXPRESSIONS[:4] if toy else FD_EXPRESSIONS
    exprs = {text: kc.parse(text) for text in texts}
    bases = {1: kc.parse("bergman_disc()"), 2: kc.parse("bergman_ball(2)"),
             3: kc.parse("bergman_ball(3)")}
    a_mod = kc.automorphisms
    det_cocycle = a_mod.CocycleSpec("det_jacobian_power", 1.0)
    n_pairs = 3 if toy else QUASI_PAIRS
    out = []
    for _ in range(rounds):
        tasks = []
        for text, expr in exprs.items():
            dom = kc.domain(expr.m, FD_RADIUS)
            z, w = kc.geometry.sample_points(dom, 2, _seeds(rng, 1)[0])
            tasks.append(
                Task(
                    f"fd {text}",
                    lambda expr=expr, z=z, w=w: kc.fd.fd_relative_error(expr, z, w, 2),
                    _below(FD_BOUND, "fd relative error"),
                )
            )
        for m, t in QUASI_CASES:
            base = bases[m]
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            phi = a_mod.MobiusMap(0.5 * rng.random() * v / np.linalg.norm(v))
            pts = kc.geometry.sample_points(kc.domain(m), 2 * n_pairs, _seeds(rng, 1)[0])
            pairs = list(zip(pts[:n_pairs], pts[n_pairs:]))
            if t is None:
                run = lambda base=base, phi=phi, pairs=pairs: (
                    kc.automorphisms.quasi_invariance_residual(base, det_cocycle, phi, pairs)
                )
            else:
                run = lambda base=base, phi=phi, pairs=pairs, t=t: (
                    kc.automorphisms.curvature_quasi_check(base, t, phi, pairs)
                )
            kind = "det" if t is None else f"curvature t={t}"
            tasks.append(Task(f"quasi {kind} m={m}", run, _below(RESIDUAL_BOUND, "residual")))
        out.append(tasks)
    return out


# ---------------------------------------------------------------------------
# sections: deep single-pair jets, section norms, RKHS inner products
# ---------------------------------------------------------------------------

SECTION_RADIUS = 0.3
NORM_LAMBDAS = (2.5, 3.0, 5.0, 10.0)
JET_TOL = 1e-9
NORM_TOL = 1e-8


def _table_check(kind: str, m: int, lam: float, z, w, order: int):
    """Check a jet table (library JetTable or CLI JSON) against the series."""
    memo: dict = {}

    def want():
        if kind == "ball_curvature":
            return ref.ball_curvature_origin_table(m, lam, order)
        idx = ref.multi_indices(m, order)
        raw = ref.ball_power_table(m, lam, z, w, idx, idx)
        return {k: np.array([[v]]) for k, v in raw.items()}

    def check(answer):
        if isinstance(answer, tuple):  # CLI: (exit code, JSON text)
            rc, text = answer
            if rc != 0:
                return f"exit code {rc}"
            entries = json.loads(text)["entries"]
            got = {}
            for key, mat in entries.items():
                i, j = key.split("|")
                got[(tuple(json.loads(i)), tuple(json.loads(j)))] = np.array(
                    [[complex(re, im) for re, im in row] for row in mat]
                )
        else:
            got = answer.entries
        reference = _cached(memo, "table", want)
        if set(got) != set(reference):
            return f"table has {len(got)} entries, want {len(reference)}"
        err = ref.table_error(got, reference)
        return None if err <= JET_TOL else f"jet table off by {err:.3e}"

    return check


def _point_arg(p) -> str:
    return ",".join(repr(complex(c)).strip("()") for c in p)


def _sections_rounds(kc: _Kc, rng, rounds: int, toy: bool) -> list[list[Task]]:
    deep = 2 if toy else 4
    out = []
    for _ in range(rounds):
        tasks = []
        lam_p, lam_c2, lam_c3 = (float(x) for x in rng.uniform(2.5, 6.0, 3))
        # (kind, m, lam, order, through CLI)
        jets = [
            ("ball_power", 2, lam_p, deep, False),
            ("ball_power", 3, lam_p, deep - 1, False),
            ("ball_power", 3, lam_p, deep, False),
            ("ball_power", 2, lam_p, deep - 1, True),
            ("ball_power", 3, lam_p, deep - 1, True),
            ("ball_power", 3, lam_p, deep, True),
            ("ball_curvature", 2, lam_c2, deep, False),
            ("ball_curvature", 2, lam_c2, deep - 1, True),
            ("ball_curvature", 2, lam_c2, deep, True),
            ("ball_curvature", 3, lam_c3, deep - 1, False),
            ("ball_curvature", 3, lam_c3, deep - 1, True),
        ]
        for kind, m, lam, order, via_cli in jets:
            expr = kc.parse(f"{kind}({m}, {lam!r})")
            if kind == "ball_power":
                z, w = (p.coords for p in kc.geometry.sample_points(
                    kc.domain(m, SECTION_RADIUS), 2, _seeds(rng, 1)[0]))
            else:
                z = w = (0.0,) * m
            if via_cli:
                argv = ["eval", "--kernel", expr.to_dsl(), f"--z={_point_arg(z)}",
                        f"--w={_point_arg(w)}", "--order", str(order)]
                run = lambda argv=argv: kc.run_cli(argv)
            else:
                run = lambda expr=expr, z=z, w=w, order=order: expr.eval_jet(z, w, order)
            tasks.append(
                Task(
                    f"eval_jet {kind}({m}) order {order}{' cli' if via_cli else ''}",
                    run,
                    _table_check(kind, m, lam, z, w, order),
                )
            )
        for m in (2, 3):
            for lam in NORM_LAMBDAS[: 1 if toy else None]:

                def check(v, lam=lam):
                    want = ref.section_norm(lam)
                    return _within(v, want, NORM_TOL * want, "norm")

                tasks.append(
                    Task(
                        f"norm m={m}",
                        lambda m=m, lam=lam: kc.rkhs.z2_tensor_e1_norm(m, lam),
                        check,
                    )
                )
        kern = kc.parse(f"ball_power(2, {lam_p!r})")
        for _ in range(2):
            tasks.append(_inner_product_task(kc, rng, kern, lam_p))
        out.append(tasks)
    return out


def _inner_product_task(kc: _Kc, rng, kern, lam: float) -> Task:
    """<e1, e2> for two 3-term elements of derivative sections, |index| <= 2."""
    pts = kc.geometry.sample_points(kc.domain(2, SECTION_RADIUS), 6, _seeds(rng, 1)[0])
    specs = []
    for p in pts:
        coef = complex(rng.standard_normal(), rng.standard_normal())
        index = tuple(int(x) for x in rng.integers(0, 2, 2))
        specs.append((coef, p.coords, index, (1.0,)))
    e1 = kc.rkhs.element(kern, specs[:3])
    e2 = kc.rkhs.element(kern, specs[3:])

    def want():
        acc = 0j
        for s in e1.terms:
            for t in e2.terms:
                i, j = t.index.entries, s.index.entries
                d = ref.ball_power_table(2, lam, t.base.coords, s.base.coords, [i], [j])
                acc += s.coef * t.coef.conjugate() * d[(i, j)]
        return acc

    memo: dict = {}

    def check(v):
        w = _cached(memo, "ip", want)
        tol = JET_TOL * (1 + abs(w))
        return None if abs(v - w) <= tol else f"inner product {v} vs series {w}"

    return Task("inner_product", lambda: kc.rkhs.inner_product(e1, e2), check)


_BUILDERS = {
    "scan": _scan_rounds,
    "certify": _certify_rounds,
    "crosscheck": _crosscheck_rounds,
    "sections": _sections_rounds,
}


def build(name: str, seed: int, toy: bool = False) -> list[list[Task]]:
    """Import kernelcalc, parse, sample and build every round's tasks."""
    kc = _Kc()
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](kc, rng, 2 if toy else POOL_ROUNDS, toy)
