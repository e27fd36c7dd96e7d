import json
import warnings

import numpy as np
import pytest

from kernelcalc.cli import main


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


def test_wallach_disc_boundary(capsys):
    code, out, _ = _run(
        capsys, "wallach", "--base", "bergman_disc()", "--lo", "-2", "--hi", "0",
    )
    assert code == 0
    assert abs(json.loads(out)["boundary"] - (-1.0)) <= 0.05


def test_norm_command(capsys):
    code, out, _ = _run(capsys, "norm", "--m", "2", "--lambda", "3")
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
])
def test_non_positive_tolerance_or_resolution_exits_2(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert argv[-2] in err


@pytest.mark.parametrize("argv", [
    ["eval", "--kernel", "ball_power(2,2000)", "--z", "0.6,0.4", "--w", "0.6,0.4"],
    ["quasi", "--kernel", "bergman_ball(2)", "--t", "1e300"],
])
def test_overflow_exits_3_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "not finite" in err


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


def test_csv_minimum_equals_the_json_min_eig(capsys):
    flags = ["psd", "--kernel", "bergman_ball(2)", "--n", "7", "--seed", "3"]
    code, out, _ = _run(capsys, *flags, "--format", "csv")
    assert code == 0
    first = float(out.strip().splitlines()[1].split(",")[1])
    code, out, _ = _run(capsys, *flags)
    assert code == 0
    assert first == json.loads(out)["min_eig"]


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


def _decreasing_counts(d, e2, x):
    return np.broadcast_to(np.arange(x.shape[-1], 0, -1), x.shape)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_monotone_sturm_counts_exit_3(capsys, monkeypatch, fmt):
    from kernelcalc import eig

    monkeypatch.setattr(eig, "_sturm_counts", _decreasing_counts)
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
