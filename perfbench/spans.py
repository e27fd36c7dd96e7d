"""In-memory span recorder and the instrumentation of kernelcalc's layers.

Nothing here is imported into kernelcalc and no source file is patched.
`Instrumentation.install` replaces each public entry point at every place
where its name is looked up at call time: module globals (modules bind each
other's functions at import, so `kernelcalc.rkhs.gram` is a separate name
from `kernelcalc.positivity.gram`) and class attributes.  `uninstall` puts
the originals back.  A run that never installs pays nothing.

A span is (name, start, end, parent index, task index).  Jet arithmetic is
counted but not spanned: it runs millions of times per round, so its time
stays in the self time of the span that called it (usually `expr.eval`).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


class Recorder:
    """Keeps spans and counters in memory; written out once at the end."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.task = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of direct child spans, summed by name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "task"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _span_wrapper(rec: Recorder, name: str, fn, on_call=None):
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(rec: Recorder, counter: str, fn):
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# (module, function, span name, layer).  Every kernelcalc module global
# that is the same object as the function gets the wrapper too.
_FUNCTIONS = (
    ("parser", "parse_kernel", "parser.parse_kernel", "parser"),
    ("geometry", "sample_points", "geometry.sample_points", "geometry"),
    ("eig", "jacobi_eigenvalues", "eig.jacobi", "eig"),
    ("positivity", "gram", "positivity.gram", "positivity.gram"),
    ("positivity", "_verdict", "positivity.verdict", "positivity.psd"),
    ("positivity", "psd_check", "positivity.psd_check", "positivity.psd"),
    ("positivity", "kernel_order_check", "positivity.kernel_order_check", "positivity.psd"),
    ("positivity", "wallach_scan", "positivity.scan", "positivity.scan"),
    ("rkhs", "element", "rkhs.element", "rkhs"),
    ("rkhs", "inner_product", "rkhs.inner_product", "rkhs"),
    ("rkhs", "norm", "rkhs.norm", "rkhs"),
    ("rkhs", "z2_tensor_e1_norm", "rkhs.z2_tensor_e1_norm", "rkhs"),
    ("rkhs", "multiplier_bound", "rkhs.multiplier_bound", "rkhs"),
    ("automorphisms", "quasi_invariance_residual", "automorphisms.residual", "automorphisms"),
    ("automorphisms", "curvature_quasi_check", "automorphisms.curvature_check", "automorphisms"),
    ("fd", "fd_relative_error", "fd.relative_error", "fd"),
    ("fd", "fd_jet_table", "fd.jet_table", "fd"),
    ("cli", "main", "cli.main", "cli"),
)

# (module, class, method, span name, layer)
_METHODS = (
    ("expr", "KernelExpr", "eval", "expr.eval", "expr.eval"),
    ("expr", "KernelExpr", "eval_jet", "expr.eval_jet", "expr.eval_jet"),
    ("positivity", "_CurvatureFamilyGram", "__init__", "positivity.family", "positivity.family"),
    ("positivity", "_CurvatureFamilyGram", "gram_at", "positivity.family.gram_at", "positivity.scan"),
    ("automorphisms", "MobiusMap", "__init__", "automorphisms.map", "automorphisms"),
    ("automorphisms", "MobiusMap", "apply", "automorphisms.apply", "automorphisms"),
    ("automorphisms", "MobiusMap", "derivative", "automorphisms.derivative", "automorphisms"),
    ("automorphisms", "CocycleSpec", "matrix", "automorphisms.cocycle", "automorphisms"),
)

#: span name -> layer whose self time it counts in
LAYER_OF_SPAN = {span: layer for *_, span, layer in _FUNCTIONS + _METHODS}
LAYERS = sorted(set(LAYER_OF_SPAN.values()))

# Jet operations that are counted, not spanned
_JET_COUNTS = (
    ("__mul__", "jets.mul"),
    ("__rmul__", "jets.mul"),
    ("__pow__", "jets.pow"),
    ("log", "jets.log"),
    ("exp", "jets.exp"),
)


class Instrumentation:
    """Installs span and count wrappers on a loaded kernelcalc package."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []
        self.n3_sum = 0
        self.gram_pairs = 0
        self.gram_calls = 0
        self.gram_repeats = 0
        self._gram_seen: set = set()

    # hooks that compute counts from the arguments of a call
    def _on_eig(self, args, kwargs):
        n = len(args[0])
        self.n3_sum += n**3

    def _on_gram(self, args, kwargs):
        expr, points = args[0], list(args[1])
        n = len(points)
        self.gram_calls += 1
        self.gram_pairs += n * (n + 1) // 2
        key = (
            expr.to_dsl(),
            tuple(tuple(getattr(p, "coords", p)) for p in points),
        )
        if key in self._gram_seen:
            self.gram_repeats += 1
        self._gram_seen.add(key)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import kernelcalc
        from kernelcalc import jets

        modules = [
            m
            for name, m in sys.modules.items()
            if name == "kernelcalc" or name.startswith("kernelcalc.")
        ]
        hooks = {"eig.jacobi": self._on_eig, "positivity.gram": self._on_gram}
        for mod_name, fn_name, span, _ in _FUNCTIONS:
            original = getattr(getattr(kernelcalc, mod_name), fn_name)
            wrapper = _span_wrapper(self.rec, span, original, hooks.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for mod_name, cls_name, meth, span, _ in _METHODS:
            cls = getattr(getattr(kernelcalc, mod_name), cls_name)
            self._set(cls, meth, _span_wrapper(self.rec, span, cls.__dict__[meth]))
        for meth, counter in _JET_COUNTS:
            self._set(
                jets.Jet, meth, _count_wrapper(self.rec, counter, jets.Jet.__dict__[meth])
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(rec: Recorder, inst: Instrumentation) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    by_span = rec.self_times()
    unknown = set(by_span) - set(LAYER_OF_SPAN) - {"task"}
    if unknown:
        raise RuntimeError(f"spans without a layer: {sorted(unknown)}")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, secs in by_span.items():
        if span in LAYER_OF_SPAN:
            self_s[LAYER_OF_SPAN[span]] += secs
    calls = rec.span_counts()
    out = {f"{layer}.self_s": secs for layer, secs in self_s.items()}
    out.update(
        {
            "eig.calls": calls["eig.jacobi"],
            "eig.n3_sum": inst.n3_sum,
            "positivity.verdicts": calls["positivity.verdict"],
            "positivity.gram.pairs": inst.gram_pairs,
            "positivity.gram.repeat_ratio": (
                inst.gram_repeats / inst.gram_calls if inst.gram_calls else 0.0
            ),
            "expr.eval.calls": calls["expr.eval"],
            "expr.eval_jet.calls": calls["expr.eval_jet"],
            "jets.mul.calls": rec.counts["jets.mul"],
            "jets.series.calls": sum(
                rec.counts[c] for c in ("jets.pow", "jets.log", "jets.exp")
            ),
        }
    )
    return out
