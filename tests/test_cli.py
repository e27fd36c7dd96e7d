import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelcalc import cli
from kernelcalc.automorphisms import MobiusMap
from kernelcalc.cli import main
from kernelcalc.expr import BallCurvature
from kernelcalc.geometry import graded_lex_tuples, sample_array, sample_points, unit_ball, unit_disc
from kernelcalc.geometry import unit_index
from kernelcalc.parser import parse_kernel
from kernelcalc.positivity import psd_check, wallach_scan
from kernelcalc.rkhs import element, multiplier_bound, norm


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_at_the_origin(capsys):
    code, out, _ = _run(
        capsys, "eval", "--kernel", "bergman_ball(2)", "--z", "0,0", "--w", "0,0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [[[1.0, 0.0]]]
    assert data["kernel"] == "ball_power(2, 3.0)"
    assert data["version"]


def test_eval_curvature_scalar(capsys):
    code, out, _ = _run(
        capsys, "eval", "--kernel", "curvature(szego_disc(),1,1)",
        "--z", "0", "--w", "0",
    )
    assert code == 0
    assert json.loads(out)["value"] == [[[1.0, 0.0]]]


def test_eval_jet_table(capsys):
    code, out, _ = _run(
        capsys, "eval", "--kernel", "szego_disc()", "--z", "0", "--w", "0",
        "--order", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1
    assert "[1]|[1]" in data["entries"]


def test_reports_are_single_line_json(capsys):
    code, out, _ = _run(
        capsys, "eval", "--kernel", "ball_curvature(2,1.5)", "--z", "0.1,0.2i",
        "--w", "0.3,0", "--order", "2",
    )
    assert code == 0
    assert out.count("\n") == 1
    assert out == json.dumps(json.loads(out)) + "\n"


_BUILTINS = st.one_of(
    st.sampled_from(["szego_disc()", "bergman_disc()", "diagonal_series([0.5, 0.25])",
                     "jet(szego_disc(),bergman_disc(),1)"]),
    st.builds("ball_power({}, {})".format, st.integers(1, 3),
              st.sampled_from(["0.5", "1.5", "4.2"])),
    st.builds("bergman_ball({})".format, st.integers(1, 3)),
    st.builds("ball_curvature({}, {})".format, st.integers(2, 3),
              st.sampled_from(["1.5", "2.5"])),
)


def _bits(pairs) -> np.ndarray:
    """The float64 bit patterns of nested [re, im] lists."""
    return np.array(pairs, dtype=float).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(text=_BUILTINS, order=st.integers(0, 3), seed=st.integers(0, 10**6))
def test_eval_report_equals_the_library_jet_table_bit_for_bit(text, order, seed):
    expr = parse_kernel(text)
    domain = unit_disc(0.5) if expr.m == 1 else unit_ball(expr.m, 0.5)
    z, w = sample_points(domain, 2, seed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--kernel", text, "--z", ",".join(map(repr, z)),
                     "--w", ",".join(map(repr, w)), "--order", str(order)])
    assert code == 0
    data = json.loads(out.getvalue())
    table = expr.eval_jet(z, w, order).entries
    if order == 0:
        got, want = {"value": data["value"]}, {"value": table[next(iter(table))]}
    else:
        got = data["entries"]
        want = {f"{list(i)}|{list(j)}": mat for (i, j), mat in table.items()}
    assert list(got) == list(want)
    for key, mat in want.items():
        pairs = np.stack([mat.real, mat.imag], -1)
        assert np.array_equal(_bits(got[key]), pairs.view(np.uint64)), key


def test_malformed_kernel_exits_2(capsys):
    code, _, err = _run(
        capsys, "eval", "--kernel", "pow(szego_disc()", "--z", "0", "--w", "0"
    )
    assert code == 2
    assert "position" in err


def test_infinite_integer_argument_exits_2(capsys):
    code, _, err = _run(
        capsys, "eval", "--kernel", "ball_power(1e999, 2)", "--z", "0", "--w", "0"
    )
    assert code == 2
    assert "expected an integer argument" in err


def test_psd_reports_failure_certificates(capsys):
    code, out, _ = _run(
        capsys, "psd", "--kernel", "ball_curvature(2,1.5)", "--n", "30",
        "--seed", "23",
    )
    assert code == 0
    data = json.loads(out)
    assert data["psd"] is False
    assert data["min_eig"] < -data["tol"]
    assert data["seed"] == 23


def test_psd_positive_case(capsys):
    code, out, _ = _run(
        capsys, "psd", "--kernel", "curvature(bergman_ball(2),1,1)",
        "--n", "20", "--seed", "7",
    )
    assert code == 0
    assert json.loads(out)["psd"] is True


def test_negative_tolerance_exits_2(capsys):
    code, _, _ = _run(capsys, "psd", "--kernel", "szego_disc()", "--tol", "-1")
    assert code == 2


def test_csv_spectrum_output(capsys):
    code, out, _ = _run(
        capsys, "psd", "--kernel", "szego_disc()", "--n", "5", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 6
    eigs = [float(l.split(",")[1]) for l in lines[1:]]
    assert eigs == sorted(eigs)


def test_wallach_bracket_failure_exits_4(capsys):
    code, _, err = _run(
        capsys, "wallach", "--base", "bergman_disc()", "--lo", "0.5", "--hi", "1",
    )
    assert code == 4
    assert "sign change" in err


@pytest.mark.parametrize("lo,hi", [("0", "-2"), ("-2", "-2")])
def test_wallach_refuses_lo_not_below_hi_before_scanning(capsys, monkeypatch, lo, hi):
    import kernelcalc.cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(kernelcalc.cli, "wallach_scan", no_scan)
    code, out, err = _run(
        capsys, "wallach", "--base", "bergman_disc()", "--lo", lo, "--hi", hi,
    )
    assert code == 2
    assert out == ""
    assert "--lo" in err and "--hi" in err


def test_wallach_disc_boundary(capsys):
    code, out, _ = _run(
        capsys, "wallach", "--base", "bergman_disc()", "--lo", "-2", "--hi", "0",
    )
    assert code == 0
    assert abs(json.loads(out)["boundary"] - (-1.0)) <= 0.05


def test_norm_command(capsys):
    for m in ("2", "16"):  # 16 is the largest m accepted
        code, out, _ = _run(capsys, "norm", "--m", m, "--lambda", "3")
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(0.8164966, abs=1e-7)


def test_bound_command(capsys):
    code, out, _ = _run(capsys, "bound", "--kernel", "szego_disc()", "--f", "z")
    assert code == 0
    assert json.loads(out)["bound"] == pytest.approx(1.0, abs=0.01)


def test_quasi_command_is_seeded_and_small(capsys):
    code, out, _ = _run(
        capsys, "quasi", "--kernel", "bergman_ball(2)", "--t", "1", "--seed", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-8
    code2, out2, _ = _run(
        capsys, "quasi", "--kernel", "bergman_ball(2)", "--t", "1", "--seed", "3"
    )
    assert json.loads(out2) == data


def test_quasi_refuses_too_many_pairs_before_drawing_one(capsys, monkeypatch):
    # 8,388,608 disc pairs pass the sampling budget, and their jets would
    # take about 11.6 GB
    def no_draw(*args):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(cli, "sample_pairs", no_draw)
    for n in (65_537, 8_388_608):
        code, out, err = _run(capsys, "quasi", "--kernel", "bergman_disc()", "--pairs", str(n))
        assert (code, out) == (3, "")
        assert err == (f"error: a quasi-invariance residual of {n} pairs is over the bound "
                       "of 65536\n")
    with pytest.raises(AssertionError, match="a pair was drawn"):  # the bound itself is drawn
        main(["quasi", "--kernel", "bergman_disc()", "--pairs", "65536"])


@pytest.mark.parametrize(
    "record",
    [
        lambda: psd_check(parse_kernel("ball_curvature(2,1.5)"), unit_ball(2, 0.8), 8, 23),
        lambda: wallach_scan(parse_kernel("bergman_disc()"), -2.0, 0.0, unit_disc(0.8)),
        lambda: multiplier_bound(parse_kernel("szego_disc()"), 0, unit_disc(0.8)),
        lambda: MobiusMap((0.3, 0.1j), np.array([[0, 1j], [1, 0]])),
    ],
    ids=["GramReport", "WallachEstimate", "MultiplierBound", "MobiusMap"],
)
def test_record_dicts_encode_to_their_json(record):
    # the CLI is the one JSON writer: each to_dict() must survive strict JSON
    d = record().to_dict()
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_config_file_supplies_flags(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kernel": "szego_disc()", "n": 8, "seed": 5}))
    code, out, _ = _run(capsys, "psd", "--config", str(conf))
    assert code == 0
    data = json.loads(out)
    assert data["kernel"] == "szego_disc()"
    assert len(data["points"]) == 8
    assert data["seed"] == 5


def test_explicit_flags_override_the_config(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kernel": "szego_disc()", "n": 8}))
    code, out, _ = _run(capsys, "psd", "--config", str(conf), "--n", "4")
    assert code == 0
    assert len(json.loads(out)["points"]) == 4


def test_missing_required_flag_exits_2(capsys):
    code, _, err = _run(capsys, "psd")
    assert code == 2
    assert "--kernel" in err


def test_repro_prints_a_pass_fail_table(capsys, monkeypatch):
    from kernelcalc import cli
    from kernelcalc.repro import CheckResult

    monkeypatch.setattr(
        cli,
        "run_all",
        lambda: [CheckResult("first", True, "ok"), CheckResult("second", False, "bad")],
    )
    code = main(["repro"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS  first" in out
    assert "FAIL  second" in out
    assert "1/2 checks passed" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "eval", "--kernel", "szego_disc()", "--z", "0", "--w", "0",
        "--output", str(path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["value"] == [[[1.0, 0.0]]]


@pytest.mark.parametrize("where, reason", [("missing directory", "No such file or directory"),
                                           ("directory", "Is a directory"),
                                           ("/dev/full", "No space left on device")])
def test_an_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys, where, reason):
    if where == "/dev/full" and not os.path.exists(where):
        pytest.skip("no /dev/full here")
    path = {"missing directory": str(tmp_path / "missing" / "report.json"),
            "directory": str(tmp_path)}.get(where, where)
    code, out, err = _run(capsys, "eval", "--kernel", "szego_disc()", "--z", "0", "--w", "0",
                          "--output", path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write output {path!r}: {reason}\n"


@pytest.mark.parametrize("argv", [
    ["wallach", "--base", "bergman_disc()", "--tol", "-1"],
    ["wallach", "--base", "bergman_disc()", "--resolution", "0"],
    ["wallach", "--base", "bergman_disc()", "--resolution", "nan"],
    ["bound", "--kernel", "szego_disc()", "--resolution", "0"],
    ["bound", "--kernel", "szego_disc()", "--resolution", "-1"],
    ["psd", "--kernel", "szego_disc()", "--tol", "0"],
    ["eval", "--kernel", "szego_disc()", "--z", "0.1", "--w", "0.2", "--order", "-1"],
    ["psd", "--kernel", "szego_disc()", "--n", "0"],
    ["psd", "--kernel", "szego_disc()", "--radius", "1.5"],
    ["psd", "--kernel", "szego_disc()", "--radius", "0"],
    ["quasi", "--kernel", "bergman_disc()", "--pairs", "0"],
    ["bound", "--kernel", "szego_disc()", "--f", "z0"],
    ["bound", "--kernel", "bergman_ball(2)", "--f", "z3"],
    ["norm", "--lambda", "inf"],
    ["quasi", "--kernel", "bergman_ball(2)", "--t", "inf"],
    ["wallach", "--base", "bergman_ball(2)", "--hi", "inf"],
    ["wallach", "--base", "bergman_ball(2)", "--lo", "nan"],
    ["psd", "--kernel", "szego_disc()", "--seed", "-1"],
    ["psd", "--kernel", "szego_disc()", "--seed", "18446744073709551616"],
    ["quasi", "--kernel", "bergman_ball(2)", "--seed", "-1"],
    ["norm", "--lambda", "3", "--m", "1"],
    ["norm", "--lambda", "3", "--m", "17"],
])
def test_non_positive_tolerance_or_resolution_exits_2(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert argv[-2] in err


def test_wallach_with_a_matrix_base_exits_3_naming_the_scan(capsys):
    code, out, err = _run(capsys, "wallach", "--base", "ball_curvature(2,3)")
    assert code == 3
    assert out == ""
    assert err == "error: wallach_scan needs a scalar base kernel, got size 2\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--kernel", "ball_power(2,2000)", "--z", "0.6,0.4", "--w", "0.6,0.4"],
    ["quasi", "--kernel", "bergman_ball(2)", "--t", "1e300"],
    # K^t o B overflows in the scan's family Gram at t = -2
    ["wallach", "--base", "pow(bergman_disc(), 400)", "--lo", "-2", "--hi", "0"],
    # the residual's norms overflow although every kernel value is finite
    ["quasi", "--kernel", "pow(szego_disc(), 1e300)", "--t", "0"],
])
def test_overflow_exits_3_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "not finite" in err


def test_radius_is_refused_where_no_point_is_sampled(capsys, tmp_path):
    code, out, err = _run(capsys, "eval", "--kernel", "szego_disc()", "--z", "0", "--w", "0",
                          "--radius", "0.5")
    assert code == 2 and out == "" and "--radius" in err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"radius": 0.5}))
    code, out, err = _run(capsys, "norm", "--lambda", "3", "--config", str(conf))
    assert code == 2 and out == "" and "--radius" in err
    for argv in (["psd", "--kernel", "szego_disc()", "--n", "4"],
                 ["quasi", "--kernel", "szego_disc()", "--pairs", "2"]):
        assert _run(capsys, *argv, "--radius", "0.5")[0] == 0


@pytest.mark.parametrize("flags", [
    ["--m", "2", "--lambda", "1e154"],  # the norm overflows to inf
    ["--m", "2", "--lambda", "1e155"],  # ... and to nan
    ["--m", "3", "--lambda", "1e300"],
])
def test_a_norm_past_the_float_range_exits_3_without_json(capsys, monkeypatch, flags):
    def unscaled_norm(m, lam):
        # the combination without its 1/lam scaling: its self inner product
        # grows like lam^3 and overflows to inf (1e154) or nan (the others)
        origin, e1, e2 = [0.0] * m, unit_index(m, 0), unit_index(m, 1)
        combo = element(BallCurvature(m, lam),
                        [(lam - 1.0, origin, e2, e1), (-1.0, origin, e1, e2)])
        return norm(combo) / (lam * lam - 2 * lam)

    monkeypatch.setattr(cli, "z2_tensor_e1_norm", unscaled_norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "norm", *flags)
    assert code == 3
    assert out == ""
    assert "norm" in err and "not finite" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("m,lam", [
    (2, 1e154), (2, 1e155), (3, 1e300), (16, 1e300), (2, 1.7e308), (3, 1.7e308), (16, 1.7e308),
])
def test_a_norm_near_the_float_range_is_strict_json(capsys, m, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "norm", "--m", str(m), "--lambda", repr(lam))
    assert code == 0 and err == ""
    data = json.loads(out, parse_constant=pytest.fail)
    assert data["norm"] == pytest.approx(math.sqrt((1 - 1 / lam) / (lam - 2)), rel=1e-12)


@pytest.mark.parametrize("bad", ["nan", "inf", "-infi", "1e400"])
@pytest.mark.parametrize("argv,flag", [
    (["eval", "--kernel", "bergman_ball(2)", "--w", "0,0"], "--z"),
    (["eval", "--kernel", "bergman_ball(2)", "--z", "0,0"], "--w"),
    (["quasi", "--kernel", "bergman_ball(2)"], "--a"),
])
def test_non_finite_coordinates_exit_2(capsys, argv, flag, bad):
    code, out, err = _run(capsys, *argv, flag, f"0.1,{bad}")
    assert code == 2
    assert out == ""
    assert f"{flag} '0.1,{bad}': coordinate 2 ('{bad}') is not finite" in err


@pytest.mark.parametrize("argv,flag,value,message", [
    (["quasi", "--kernel", "bergman_ball(2)"], "--a", "0.1",
     "expected a point of C^2, got dimension 1"),
    (["quasi", "--kernel", "bergman_ball(2)"], "--a", "0.1,0,0",
     "expected a point of C^2, got dimension 3"),
    (["quasi", "--kernel", "bergman_ball(2)"], "--a", "0.9,0.9",
     "base point must lie inside the unit ball"),
    (["quasi", "--kernel", "bergman_disc()"], "--a", "1",
     "base point must lie inside the unit ball"),
    (["eval", "--kernel", "szego_disc()", "--w", "0"], "--z", "0.1,0.2",
     "expected a point of C^1, got dimension 2"),
    (["eval", "--kernel", "bergman_ball(2)", "--z", "0,0"], "--w", "0.1",
     "expected a point of C^2, got dimension 1"),
])
def test_a_point_of_the_wrong_dimension_or_outside_the_ball_exits_2(capsys, argv, flag, value,
                                                                     message):
    code, out, err = _run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: bad point {flag} {value!r}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["wallach", "--base", "bergman_disc()", "--lo", "0", "--hi", "-2"],
    ["bound", "--kernel", "bergman_ball(2)", "--f", "z3"],
    ["eval", "--kernel", "bergman_ball(2)", "--z", "0.1,x", "--w", "0,0"],
    ["eval", "--kernel", "bergman_ball(2)", "--z", "0,0", "--w", "0.1,x"],
    ["quasi", "--kernel", "bergman_ball(2)", "--a", "0.1,x"],
])
def test_flag_errors_name_no_position(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "position" not in err


def test_dsl_errors_still_name_their_position(capsys):
    code, _, err = _run(capsys, "psd", "--kernel", "szego_disc(")
    assert code == 2
    assert "(at position 11)" in err


def test_config_string_values_parse_like_flags(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kernel": "szego_disc()", "n": "8"}))
    code, out, _ = _run(capsys, "psd", "--config", str(conf))
    assert code == 0
    assert len(json.loads(out)["points"]) == 8


@pytest.mark.parametrize("conf", [
    {"kernel": "szego_disc()", "n": [8]},
    {"kernel": "szego_disc()", "tol": "x"},
    {"kernel": "szego_disc()", "tol": -1},
    {"kernel": "szego_disc()", "bogus": 1},
])
def test_bad_config_values_and_unknown_keys_exit_2(tmp_path, capsys, conf):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, _, err = _run(capsys, "psd", "--config", str(path))
    assert code == 2
    assert err


def _csv_first_and_min_eig(capsys, *flags):
    code, out, _ = _run(capsys, "psd", *flags, "--format", "csv")
    assert code == 0
    first = float(out.strip().splitlines()[1].split(",")[1])
    code, out, _ = _run(capsys, "psd", *flags)
    assert code == 0
    return first, json.loads(out)["min_eig"]


def test_csv_minimum_equals_the_json_min_eig(capsys):
    first, min_eig = _csv_first_and_min_eig(
        capsys, "--kernel", "bergman_ball(2)", "--n", "7", "--seed", "3"
    )
    assert first == min_eig


@pytest.mark.parametrize("flags", [
    ["--kernel", "ball_curvature(2,1.5)", "--n", "30", "--seed", "23"],
    ["--kernel", "szego_disc()", "--n", "20"],
])
def test_the_readme_psd_examples_give_the_json_min_eig_first_in_csv(capsys, flags):
    first, min_eig = _csv_first_and_min_eig(capsys, *flags)
    assert first == min_eig


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_eigensolver_non_convergence_exits_3(capsys, monkeypatch, fmt):
    from kernelcalc import eig

    monkeypatch.setattr(eig, "_MAX_PASSES", 1)
    code, out, err = _run(
        capsys, "psd", "--kernel", "szego_disc()", "--n", "20", "--format", fmt
    )
    assert code == 3
    assert out == ""
    assert "no convergence" in err


@pytest.mark.parametrize("kernel, n", [("szego_disc()", 16000000), ("ball_curvature(2,1.5)", 1025)])
def test_a_gram_too_wide_is_refused_before_sampling_in_both_formats(capsys, monkeypatch, kernel, n):
    # the csv path used to draw every point (528 MB at 16,000,000) before it refused
    from kernelcalc import geometry

    def no_draw(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(geometry, "sample_array", no_draw)
    monkeypatch.setattr(cli, "sample_array", no_draw)
    k = parse_kernel(kernel).size
    for fmt in ("json", "csv"):
        code, out, err = _run(capsys, "psd", "--kernel", kernel, "--n", str(n), "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"error: a Gram of {n} points with {k} x {k} blocks is {n * k} wide, "
                       "over the bound of 2048\n")


def test_ql_non_convergence_exits_3(capsys, monkeypatch):
    from kernelcalc import eig

    monkeypatch.setattr(eig, "_MAX_SWEEPS", 0)
    code, out, err = _run(
        capsys, "psd", "--kernel", "szego_disc()", "--n", "20", "--format", "csv"
    )
    assert code == 3
    assert out == ""
    assert "no convergence" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_monotone_sturm_counts_exit_3(capsys, monkeypatch, fmt):
    from kernelcalc import eig

    # a JSON report and a CSV spectrum both search for the least eigenvalue
    # with scalar counts; the counts fall
    real = eig._has_negative_pivot
    monkeypatch.setattr(eig, "_has_negative_pivot", lambda *args: not real(*args))
    code, out, err = _run(
        capsys, "psd", "--kernel", "szego_disc()", "--n", "20", "--format", fmt
    )
    assert code == 3
    assert out == ""
    assert "Sturm counts not monotone" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_grams_with_huge_entries_are_solved(capsys, fmt):
    # entries reach ~1e200, so unscaled dot products overflow
    from kernelcalc.geometry import sample_points, unit_disc
    from kernelcalc.parser import parse_kernel
    from kernelcalc.positivity import gram

    text = "ball_power(1,450)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "psd", "--kernel", text, "--n", "20", "--format", fmt)
    assert code == 0
    assert err == ""
    g = gram(parse_kernel(text), sample_points(unit_disc(0.8), 20, 0))
    exponent = np.frexp(np.abs(g.view(float)).max())[1]
    scaled = np.ldexp(g.view(float), -exponent).view(complex)
    want = np.ldexp(np.linalg.eigvalsh(scaled), exponent)
    if fmt == "csv":
        got = np.array([float(line.split(",")[1]) for line in out.split()[1:]])
    else:
        got = np.array([json.loads(out)["min_eig"]])
        assert json.loads(out)["psd"]
    assert np.all(np.isfinite(got))
    assert np.abs(got - want[: len(got)]).max() < 1e-12 * (1 + np.max(np.diag(g).real))


@pytest.mark.parametrize("text,closed_form,z,w", [
    ("pow(log_hessian(szego_disc()),0.5)", "szego_disc()", "0.1", "0.2"),
    ("log_hessian(curvature(szego_disc(),1,1))", "scale(bergman_disc(),4)", "0.1", "0.2"),
    ("product(curvature(szego_disc(),1,1),szego_disc())", "ball_power(1,5)", "0.1", "0.2"),
    ("pow(jet(szego_disc(),szego_disc(),0),2)", "ball_power(1,4)", "0.1", "0.2"),
    ("tensor(curvature(szego_disc(),1,1),szego_disc())",
     "tensor(ball_power(1,4),szego_disc())", "0.1,0.3i", "0.2,-0.1"),
    ("jet(szego_disc(),log_hessian(szego_disc()),1)",
     "jet(szego_disc(),bergman_disc(),1)", "0.1", "0.2"),
])
def test_size_one_derived_kernels_evaluate_through_the_cli(capsys, text, closed_form, z, w):
    values = []
    for kernel in (text, closed_form):
        code, out, _ = _run(capsys, "eval", "--kernel", kernel, "--z", z, "--w", w)
        assert code == 0
        values.append(np.array(json.loads(out)["value"]))
    got, want = values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


_ORIGIN_CURVATURE = ["--kernel", "ball_curvature(3,4.0)", "--z", "0,0,0", "--w", "0,0,0",
                     "--order", "3"]


@pytest.mark.parametrize("argv, to_file", [
    (["--kernel", "ball_curvature(2,3.0)", "--z", "0,0", "--w", "0.1,0.2j", "--order", "2"],
     False),
    (_ORIGIN_CURVATURE, False),  # 7080 of its 7200 floats are +0.0
    (["--kernel", "jet(bergman_ball(2),bergman_ball(2),1)", "--z", "0,0", "--w", "0,0"], False),
    (_ORIGIN_CURVATURE, True),
])
def test_emit_prints_the_bytes_of_a_cycle_checked_dump(capsys, tmp_path, argv, to_file):
    code, out, _ = _run(capsys, "eval", *argv)
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, allow_nan=False) + "\n"
    if to_file:
        path = tmp_path / "report.json"
        code, printed, _ = _run(capsys, "eval", *argv, "--output", str(path))
        assert code == 0 and printed == ""
        assert path.read_bytes() == out.encode()
    with pytest.raises(cli.EvaluationError, match="the norm of the report"):
        cli._emit(None, {"m": 2, "norm": math.nan})


_TABLE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def _jet_tables(draw):
    """m, an order and a (n, k, k) complex stack of the table's size, k in 1..3,
    up to the README's m = 3, order-4 table of 1,225 blocks: each block all
    +0.0 or, mostly, live, its floats drawn from a palette (-0.0, subnormals
    and huge ones among them) and from random bit patterns."""
    k, m, order = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = len(graded_lex_tuples(m, order)) ** 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.lists(_TABLE_FLOATS, min_size=1, max_size=16))
    floats = rng.choice(np.array(palette), size=(n, 2 * k * k))
    bits = rng.integers(0, 2**64, size=floats.shape, dtype=np.uint64).view(float)
    noise = np.isfinite(bits) & (rng.random(floats.shape) < draw(st.sampled_from([0.0, 0.5])))
    floats[noise] = bits[noise]
    floats[rng.random(n) >= draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]))] = 0.0
    return m, order, floats.view(complex).reshape(n, k, k)


@settings(max_examples=150, deadline=None)
@given(table=_jet_tables(), poison=st.none() | st.tuples(
    st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 10**6)))
def test_the_table_writer_writes_the_bytes_of_json_dumps(table, poison):
    m, order, blocks = table
    head = {"version": "0", "kernel": "k", "order": order}
    labels = [f"{list(i)}" for i in graded_lex_tuples(m, order)]
    keys = [f"{i}|{j}" for i in labels for j in labels]
    if poison is not None:
        value, at = poison
        blocks.view(float).reshape(-1)[at % blocks.view(float).size] = value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if poison is not None:
            with pytest.raises(cli.EvaluationError, match="the entries of the report is not"):
                cli._emit(None, head, "entries", blocks, cli._entry_keys(m, order))
        else:
            cli._emit(None, head, "entries", blocks, cli._entry_keys(m, order))
    if poison is not None:
        assert out.getvalue() == ""
        return
    pairs = blocks.view(float).reshape(blocks.shape + (2,)).tolist()
    assert out.getvalue() == json.dumps({**head, "entries": dict(zip(keys, pairs))}) + "\n"


def _drawn_point(m, seed):
    domain = unit_ball(m, 0.9) if m > 1 else unit_disc(0.9)
    return ",".join(f"{c.real!r}{c.imag:+}j" for c in sample_array(domain, 1, seed)[0].tolist())


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([("szego_disc()", 1), ("pow(log_hessian(szego_disc()), 0.5)", 1),
                             ("ball_curvature(2, 3.0)", 2),
                             ("jet(szego_disc(), bergman_disc(), 2)", 1)]),
       seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_an_order_0_value_is_written_as_a_plain_report_field(case, seeds):
    kernel, m = case
    z, w = (_drawn_point(m, seed) for seed in seeds)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--kernel", kernel, f"--z={z}", f"--w={w}"]) == 0
    expr = parse_kernel(kernel)
    value = expr.eval(cli._parse_point(z, "--z", m), cli._parse_point(w, "--w", m))
    assert value.shape in {(1, 1), (2, 2), (3, 3)}
    pairs = [[[v.real, v.imag] for v in row] for row in value.tolist()]
    want = {"version": cli.__version__, "kernel": expr.to_dsl(), "value": pairs}
    assert out.getvalue() == json.dumps(want) + "\n"


def test_the_table_format_cache_keeps_its_bound(capsys):
    keys, rng = cli._entry_keys(2, 2), np.random.default_rng(5)
    bound = cli._table_format.cache_info().maxsize
    misses = cli._table_format.cache_info().misses
    for _ in range(4 * bound):
        blocks = np.where(rng.random((len(keys), 1, 1)) < 0.5, 1.5 - 0.5j, 0j)
        cli._emit(None, {"order": 2}, "entries", blocks, keys)
        assert cli._table_format.cache_info().currsize <= bound
    assert cli._table_format.cache_info().misses - misses == 4 * bound
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["order"] == 2


@pytest.mark.parametrize("flags", [["--conf", "{}"], ["--config={}"], ["--c", "{}"]],
                         ids=["prefix", "equals", "shortest"])
def test_every_spelling_of_the_config_flag_loads_the_file(tmp_path, capsys, flags):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"kernel": "szego_disc()", "n": 4}))
    code, out, _ = _run(capsys, "psd", *[flag.format(conf) for flag in flags])
    assert code == 0 and len(json.loads(out)["points"]) == 4
    # `--=path` is no spelling of --config: the pre-parser does not see it,
    # and the main parser refuses it as ambiguous
    missing = tmp_path / "missing.json"
    for argv in ([f"--={missing}"], ["--c", str(conf), f"--={missing}"]):
        code, _, err = _run(capsys, "psd", *argv)
        assert code == 2 and "ambiguous option" in err and "cannot read config" not in err


def test_a_request_that_cannot_name_the_config_is_not_pre_parsed(capsys, monkeypatch):
    calls = []
    pre_parser = cli._config_parser
    monkeypatch.setattr(cli, "_config_parser", lambda prog: calls.append(prog) or pre_parser(prog))
    code, out, _ = _run(capsys, "psd", "--kernel", "szego_disc()", "--n", "4", "-c")
    assert code == 2 and calls == []
    code, out, _ = _run(capsys, "psd", "--kernel", "szego_disc()", "--n", "4")
    assert code == 0 and len(json.loads(out)["points"]) == 4 and calls == []
    code, out, _ = _run(capsys, "psd", "--=x.json")
    assert code == 2 and calls == []
    code, out, _ = _run(capsys, "psd", "--kernel", "--config=x.json")
    assert code == 2 and calls == ["kernelcalc"]


def test_config_runs_share_one_pre_parser(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kernel": "szego_disc()", "n": 4}))
    _run(capsys, "psd", "--config", str(conf))
    pre = cli._config_parser(cli._build_parser().prog)
    misses = cli._config_parser.cache_info().misses
    code, out, _ = _run(capsys, "psd", "--config", str(conf), "--n", "3")
    assert code == 0 and len(json.loads(out)["points"]) == 3
    assert cli._config_parser.cache_info().misses == misses
    assert cli._config_parser(cli._build_parser().prog) is pre
    for text, message in (("[1, 2]", "config file must hold a JSON object"),
                          ("{", "cannot read config")):
        conf.write_text(text)
        code, _, err = _run(capsys, "psd", "--config", str(conf))
        assert code == 2 and message in err
    code, _, err = _run(capsys, "psd", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config" in err


@pytest.mark.parametrize("depth", [180, 1000])
@pytest.mark.parametrize("command", [["psd", "--n", "4"], ["eval", "--z", "0", "--w", "0"]],
                         ids=["psd", "eval"])
def test_deep_nesting_exits_2_with_one_error_line(capsys, command, depth):
    kernel = "pow(" * depth + "szego_disc()" + ", 0.5)" * depth
    code, out, err = _run(capsys, command[0], "--kernel", kernel, *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: kernel nested deeper than 64 levels (at position 260)\n"
