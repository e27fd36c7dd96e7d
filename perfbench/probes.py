"""Fixed-size layer probes for the traced run.

Each probe times one public operation of one layer on inputs that do not
depend on the workload seed, so the numbers compare across workloads and
commits: jet arithmetic at (m, order) = (2, 2) and (3, 3), one `eval` and
one order-2 `eval_jet` per built-in, Gram assembly at n = 40, and the
Jacobi eigensolver at widths 40, 80 and 120.  Each value is the median of
up to five timings.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_SEED = 0

BUILTINS = {
    "szego_disc": "szego_disc()",
    "bergman_ball2": "bergman_ball(2)",
    "diagonal_series": "diagonal_series([1.0, 0.5, 0.25])",
    "ball_curvature2": "ball_curvature(2, 1.5)",
    "curvature_ball2": "curvature(ball_power(2, 3.0), 1.0, 1.0)",
}
GRAMS = {"ball_curvature2_n40": ("ball_curvature(2, 1.5)", 40), "szego_n40": ("szego_disc()", 40)}
JACOBI_SIZES = (40, 80, 120)


#: a probe stops repeating once its timings add up to this many seconds
PROBE_BUDGET_S = 0.3


def _median_time(fn, reps: int, batch: int = 1) -> float:
    """Median seconds per call over up to `reps` timings of `batch` calls;
    a probe slower than PROBE_BUDGET_S is timed once."""
    times = []
    while len(times) < reps and sum(times) * batch < PROBE_BUDGET_S:
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t) / batch)
    return float(np.median(times))


def _jet_probes(out: dict, reps: int) -> None:
    from kernelcalc.jets import variable_jets

    rng = np.random.default_rng(PROBE_SEED)
    for m, order in ((2, 2), (3, 3)):
        z = 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2 * m)
        w = 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2 * m)
        zv, wv = variable_jets(z, w, m, order, order)
        u = 1.0 - zv[0] * wv[0]
        for k in range(1, m):
            u = u - zv[k] * wv[k]
        dense = u.log()  # every coefficient set, as in Pow and Curvature
        tag = f"m{m}o{order}"
        ops = {
            "mul": lambda: dense * dense,
            "pow": lambda: u ** -2.5,
            "log": lambda: u.log(),
            "exp": lambda: (dense * 0.5).exp(),
        }
        for name, fn in ops.items():
            out[f"probe.jets.{name}_us.{tag}"] = 1e6 * _median_time(fn, reps)


def _expr_probes(out: dict, reps: int) -> None:
    from kernelcalc.geometry import sample_points, unit_ball, unit_disc
    from kernelcalc.parser import parse_kernel

    for name, text in BUILTINS.items():
        expr = parse_kernel(text)
        dom = unit_disc(0.5) if expr.m == 1 else unit_ball(expr.m, 0.5)
        z, w = sample_points(dom, 2, PROBE_SEED + 1)
        out[f"probe.expr.eval_us.{name}"] = 1e6 * _median_time(
            lambda: expr.eval(z, w), reps, batch=20
        )
        out[f"probe.expr.eval_jet2_ms.{name}"] = 1e3 * _median_time(
            lambda: expr.eval_jet(z, w, 2), reps
        )


def _gram_probes(out: dict, reps: int) -> None:
    from kernelcalc.geometry import sample_points, unit_ball, unit_disc
    from kernelcalc.parser import parse_kernel
    from kernelcalc.positivity import gram

    for name, (text, n) in GRAMS.items():
        expr = parse_kernel(text)
        dom = unit_disc() if expr.m == 1 else unit_ball(expr.m)
        pts = sample_points(dom, n, PROBE_SEED + 2)
        out[f"probe.positivity.gram_ms.{name}"] = 1e3 * _median_time(
            lambda: gram(expr, pts), reps
        )


def _eig_probes(out: dict, reps: int) -> None:
    from kernelcalc.eig import jacobi_eigenvalues

    rng = np.random.default_rng(PROBE_SEED + 3)
    for n in JACOBI_SIZES:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a @ a.conj().T / n
        out[f"probe.eig.jacobi_ms.n{n}"] = 1e3 * _median_time(
            lambda: jacobi_eigenvalues(h), reps
        )


def run_all(toy: bool = False) -> dict[str, float]:
    reps = 1 if toy else 5
    out: dict[str, float] = {}
    _jet_probes(out, reps)
    _expr_probes(out, reps)
    _gram_probes(out, reps)
    _eig_probes(out, reps)
    return out
