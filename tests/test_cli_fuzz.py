"""The CLI's output contract on random argvs.

Every computing subcommand, fed random kernel strings drawn from the node
table, edge numbers and small sizes, must exit 0, 2, 3 or 4 without a
traceback or a floating-point warning, leave stdout empty on failure, and
on success print one strict JSON object (or the `psd --format csv`
spectrum).
"""

import contextlib
import io
import json
import math
import signal
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kernelcalc.cli import main
from kernelcalc.parser import _NODES

EDGE_NUMBERS = ["0", "-0.0", "-1", "1e-300", "1e300", "0.5", "1.5", "2", "3", "-2.5", "400"]
numbers = st.sampled_from(EDGE_NUMBERS)
LEAVES = sorted(name for name, (_, kinds) in _NODES.items()
                if not {"expr", "scalar"} & set(kinds))
NODES = sorted(_NODES)


def _argument(kind, depth):
    if kind in ("expr", "scalar"):
        return kernels(depth - 1)
    if kind == "int":  # a dimension m <= 2, or a jet order <= 1
        return st.sampled_from(["1", "2"])
    if kind == "list":
        return st.lists(numbers, min_size=1, max_size=3).map(lambda v: f"[{', '.join(v)}]")
    return numbers


def kernels(depth=2):
    """A kernel string of the DSL, at most `depth` combinators deep."""
    names = st.sampled_from(NODES if depth > 0 else LEAVES)

    def build(name):
        kinds = _NODES[name][1]
        args = st.tuples(*(_argument(kind, depth) for kind in kinds))
        return args.map(lambda a: f"{name}({','.join(a)})")

    return names.flatmap(build)


points = st.lists(st.sampled_from(["0", "0.5", "-0.3j", "1e-300", "0.2+0.1i", "0.99", "1.5"]),
                  min_size=1, max_size=2).map(",".join)


def _with(flag, values):
    return values.map(lambda v: [flag, v])


argvs = st.one_of(
    st.tuples(st.just(["eval"]), _with("--kernel", kernels()), _with("--z", points),
              _with("--w", points), _with("--order", st.sampled_from(["0", "1"]))),
    st.tuples(st.just(["psd"]), _with("--kernel", kernels()),
              _with("--n", st.sampled_from(["1", "3", "6"])),
              _with("--format", st.sampled_from(["json", "csv"]))),
    st.tuples(st.just(["wallach", "--resolution", "0.5"]), _with("--base", kernels()),
              _with("--lo", numbers), _with("--hi", numbers)),
    st.tuples(st.just(["bound", "--resolution", "0.5"]), _with("--kernel", kernels()),
              _with("--f", st.sampled_from(["z1", "z2"]))),
    st.tuples(st.just(["quasi", "--pairs", "2"]), _with("--kernel", kernels()),
              _with("--t", numbers)),
    st.tuples(st.just(["norm"]), _with("--m", st.sampled_from(["2", "3"])),
              _with("--lambda", st.sampled_from(
                  ["2", "2.0000000000001", "2.01", "3", "1e154", "1e155", "1e300", "1.7e308"]))),
).map(lambda parts: [a for part in parts for a in part])


def _alarm(signum, frame):
    raise TimeoutError("the command ran for more than 5 s")


@contextlib.contextmanager
def _time_limit(seconds):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _check_stdout(argv, out):
    if "csv" in argv:
        header, *rows = out.splitlines()
        assert header == "index,eigenvalue"
        for k, row in enumerate(rows):
            index, value = row.split(",")
            assert int(index) == k and math.isfinite(float(value))
    else:
        assert out.count("\n") == 1
        assert isinstance(json.loads(out, parse_constant=pytest.fail), dict)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs)
@example(argv=["wallach", "--base", "pow(bergman_disc(), 400)", "--lo", "-2", "--hi", "0"])
@example(argv=["quasi", "--kernel", "pow(szego_disc(), 1e300)", "--t", "0"])
def test_every_exit_keeps_the_output_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), _time_limit(5):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        _check_stdout(argv, out)
    else:
        assert out == ""
