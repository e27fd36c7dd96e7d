"""The names that the benchmark in `perfbench/` reads from kernelcalc.

`perfbench/spans.py` wraps entry points and methods by name (a missing
method raises `KeyError` on install), and the workloads read `.coords` off
sampled points and report points, and `.base.coords` and `.index.entries`
off the terms of RKHS elements.  This test installs that instrumentation on
the package, makes the same kinds of calls, and checks those names, so it
fails when a rename or deletion would break the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

# the benchmark imports cli and fd as well, and the instrumentation wraps both
import kernelcalc.cli  # noqa: F401
import kernelcalc.fd  # noqa: F401
from kernelcalc import automorphisms, geometry, positivity, rkhs
from kernelcalc.parser import parse_kernel

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def recorder():
    spans = _load_spans()
    inst = spans.Instrumentation(spans.Recorder())
    try:
        inst.install()
        yield inst.rec
    finally:
        inst.uninstall()


def test_benchmark_names_survive_its_instrumentation(recorder):
    pts = geometry.sample_points(geometry.unit_ball(2, 0.3), 4, 5)
    assert [len(p.coords) for p in pts] == [2] * 4

    szego, bergman = parse_kernel("szego_disc()"), parse_kernel("bergman_disc()")
    rep = positivity.kernel_order_check(szego, bergman, geometry.unit_disc(), 4, 3)
    assert [len(p.coords) for p in rep.points] == [1] * 4
    positivity.wallach_scan(bergman, -2.0, 0.0, geometry.unit_disc(), ((4, 1),))

    kern = parse_kernel("ball_power(2, 3.0)")
    e = rkhs.element(
        kern, [(1.0, pts[0].coords, (1, 0), (1.0,)), (0.5, pts[1].coords, (0, 2), (1.0,))]
    )
    assert [t.index.entries for t in e.terms] == [(1, 0), (0, 2)]
    assert [t.base.coords for t in e.terms] == [pts[0].coords, pts[1].coords]
    rkhs.inner_product(e, e)

    phi = automorphisms.MobiusMap(pts[2].coords)
    phi.apply(pts[3])
    phi.derivative(pts[3])
    automorphisms.CocycleSpec("curvature_cocycle", 1.0).matrix(phi, pts[3], 2)

    seen = set(recorder.span_counts())
    assert {
        "geometry.sample_points",
        "eig.jacobi",
        "positivity.verdict",
        "positivity.kernel_order_check",
        "positivity.family",
        "positivity.family.gram_at",
        "rkhs.element",
        "rkhs.inner_product",
        "automorphisms.map",
        "automorphisms.apply",
        "automorphisms.derivative",
        "automorphisms.cocycle",
    } <= seen
