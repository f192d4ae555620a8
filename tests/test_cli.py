import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mcgehee
from mcgehee.cli import dumps_17, load_spec, run
from mcgehee.critical import _SCAN_GRID
from mcgehee.potentials import BUILTINS, Potential


def call(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- exit codes


def test_certify_exit_codes_cover_the_verdicts(capsys):
    rc, out, _ = call(capsys, "certify", "--builtin", "isosceles", "--set", "alpha=13")
    assert rc == 0
    assert json.loads(out)["conclusion"] == "NonIntegrable"

    rc, out, _ = call(capsys, "certify", "--builtin", "isosceles", "--set", "alpha=14")
    assert rc == 3
    assert json.loads(out)["conclusion"] == "Inconclusive"


@pytest.mark.parametrize("module", ["mcgehee", "mcgehee.cli"])
def test_the_command_line_runs_as_a_module(module):
    src = os.path.dirname(os.path.dirname(mcgehee.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "certify", "--builtin", "isosceles", "--set", "alpha=14"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout)["conclusion"] == "Inconclusive"


def test_importing_the_command_line_loads_no_scipy_and_generates_no_step():
    # the RK tables are inline data and each step is generated on first use,
    # so importing the program does no integrator work and loads no scipy
    src = os.path.dirname(os.path.dirname(mcgehee.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import sys, mcgehee.cli, mcgehee.rk; "
             "print('scipy' in sys.modules, mcgehee.rk._step.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False 0\n", "")


def test_usage_and_io_problems_exit_one(capsys):
    assert call(capsys, "certify", "--file", "does-not-exist.json")[0] == 1
    assert call(capsys, "certify", "--expr", "cos(theta)-2")[0] == 1  # no --beta
    assert call(capsys, "sweep", "--builtin", "isosceles", "--param", "gamma",
                "--range", "1:2")[0] == 1
    assert call(capsys, "sweep", "--builtin", "isosceles", "--set", "alpha=1",
                "--param", "alpha", "--range", "oops:2")[0] == 1
    assert call(capsys, "simulate", "--builtin", "isosceles", "--set", "alpha=1",
                "--init", "1,2,3", "--tau-span", "0:5")[0] == 1
    assert call(capsys, "simulate", "--builtin", "isosceles", "--set", "alpha=bad",
                "--init", "1,0,0,0", "--tau-span", "0:5")[0] == 1
    assert call(capsys, "no-such-subcommand")[0] == 1
    # a parameter the expression does not name is rejected, as for a builtin
    rc, _, err = call(capsys, "certify", "--expr", "cos(2*theta) - a", "--beta", "-1",
                      "--set", "a=2", "--set", "zzz=1")
    assert (rc, err) == (1, "error: params.zzz: not a parameter of the expression\n")
    rc, _, err = call(capsys, "sweep", "--expr", "cos(2*theta) - a", "--beta", "-1",
                      "--set", "a=2", "--param", "b", "--range", "0:1")
    assert (rc, err) == (1, "error: params.b: not a parameter of the expression\n")
    # the swept name is checked even when --set also binds it
    rc, _, err = call(capsys, "sweep", "--builtin", "isosceles", "--set", "alpha=1",
                      "--set", "b=0", "--param", "b", "--range", "0:1")
    assert (rc, err) == (1, "error: params.b: not a parameter of builtin 'isosceles'\n")
    assert call(capsys, "certify", "--builtin", "isosceles", "--set", "alpha=1",
                "--grid-n", "100")[0] == 1


def test_domain_problems_exit_two(capsys):
    rc, _, err = call(capsys, "simulate", "--builtin", "isosceles", "--set", "alpha=1",
                      "--init", "1.0,2.5,0.0,0.3", "--tau-span", "0:5")
    assert rc == 2
    assert "domain" in err
    rc, _, _ = call(capsys, "manifold", "--builtin", "isosceles", "--set", "alpha=1",
                    "--from", "0.4", "--sign", "-", "--branch", "unstable")
    assert rc == 2  # no critical angle near 0.4
    rc, _, _ = call(capsys, "compare-mr", "--expr", "cos(theta)-2", "--beta", "0")
    assert rc == 2
    # at epsilon = 0 yoshida_h has rest points of one sign only
    rc, _, err = call(capsys, "manifold", "--builtin", "yoshida_h", "--set", "epsilon=0",
                      "--from", "0")
    assert rc == 2 and "no rest points with that sign" in err
    # the probe sits at the middle of the range, whatever --set gave alpha
    rc, _, _ = call(capsys, "sweep", "--builtin", "isosceles", "--set", "alpha=1",
                    "--param", "alpha", "--range=-1:0.5")
    assert rc == 2


SIMULATE = ("simulate", "--builtin", "yoshida_g", "--set", "epsilon=4", "--init", "1,0.3,1,1")
MANIFOLD = ("manifold", "--builtin", "yoshida_g", "--set", "epsilon=4")


@pytest.mark.parametrize("argv", [
    (*SIMULATE, "--tau-span", "0:nan"), (*SIMULATE, "--tau-span", "nan:5"),
    (*SIMULATE, "--tau-span", "0:inf"), (*SIMULATE, "--tau-span=0:-inf"),
    (*SIMULATE, "--tau-span", "0:5", "--rtol", "inf"),
    (*SIMULATE, "--tau-span", "0:5", "--atol", "nan"),
    (*SIMULATE, "--tau-span", "0:0"), (*SIMULATE, "--tau-span", "5:5"),
    ("simulate", "--builtin", "yoshida_g", "--set", "epsilon=4", "--init", "1,nan,1,1",
     "--tau-span", "0:5"),
    (*MANIFOLD, "--from=nan"), (*MANIFOLD, "--from", "0", "--max-tau", "inf"),
    (*MANIFOLD, "--from", "0", "--offset", "inf"),
    ("sweep", "--builtin", "isosceles", "--param", "alpha", "--range=0:inf"),
    ("sweep", "--builtin", "isosceles", "--param", "alpha", "--range", "5:5"),
    ("sweep", "--builtin", "isosceles", "--param", "alpha", "--range", "5:1"),
    ("sweep", "--builtin", "isosceles", "--param", "alpha", "--range=1:20",
     "--thresh-tol", "inf"),
    ("certify", "--builtin", "isosceles", "--set", "alpha=1", "--strictness-tol", "inf"),
    ("certify", "--builtin", "isosceles", "--set", "alpha=1", "--strictness-tol", "0"),
    ("sweep", "--builtin", "isosceles", "--param", "alpha", "--range=1:20", "--grid-m", "1"),
    ("certify", "--builtin", "isosceles", "--set", "epsilon"),
    ("simulate", "--builtin", "yoshida_g", "--set", "epsilon=4", "--tau-span", "0:5",
     "--init", "1,a,0,0"),
    ("certify", "--expr", "cos(theta)-2", "--beta", "-1", "--domain", "0.1"),
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_finite_and_empty_flag_values_are_usage_errors(argv, capsys):
    rc, out, err = call(capsys, *argv)
    assert (rc, out) == (1, "") and err.startswith("error: --")


def test_a_start_whose_first_derivative_overflows_ends_on_the_domain(capsys):
    # dt/dtau = r^1.5 overflows the tolerance scale of the first step, so the
    # run starts from the smallest step; each stage sum scales its terms by h
    # before adding them, so t's stage values stay finite and the run
    # advances until t leaves the double range
    rc, out, err = call(capsys, "simulate", "--builtin", "isosceles", "--set", "alpha=1",
                        "--init", "1e205,0.0,4.0,0.0", "--tau-span", "0:5")
    assert rc == 0 and err.startswith("# stopped: left_domain after ")
    rows = out.splitlines()[1:]
    assert len(rows) >= 2 and all(map(math.isfinite, map(float, rows[-1].split(","))))


def test_help_exits_zero_and_lists_subcommands(capsys):
    rc, out, _ = call(capsys, "--help")
    assert rc == 0
    for name in ("certify", "sweep", "equilibria", "simulate",
                 "manifold", "compare-mr", "validate"):
        assert name in out


# ---------------------------------------------------------------- certify


def test_certificate_json_shape(capsys):
    _, out, _ = call(capsys, "certify", "--builtin", "isosceles", "--set", "alpha=13")
    cert = json.loads(out)
    assert cert["kind"] == "direct"
    assert cert["beta"] == -1
    assert len(cert["triple"]) == 3 and cert["triple"][1] == 0
    assert len(cert["assumptions"]) == 6
    assert [a["index"] for a in cert["assumptions"]] == [1, 2, 3, 4, 5, 6]
    assert all(a["satisfied"] for a in cert["assumptions"])
    assert cert["assumptions"][5]["margin"] == pytest.approx(0.375, rel=1e-9)
    assert cert["potential"]["builtin"] == "isosceles"


def test_a_finite_strictness_tol_reaches_the_certificate(capsys):
    # alpha = 1 is NonIntegrable at the default tolerance; margins must
    # clear 1e3 to count, so none does, and the nearest miss is on the band
    rc, out, _ = call(capsys, "certify", "--builtin", "isosceles", "--set", "alpha=1",
                      "--strictness-tol", "1e3")
    cert = json.loads(out)
    assert rc == 3
    assert cert["conclusion"] == "Inconclusive" and cert["boundary"] is True


def test_sign_flip_produces_a_complexified_certificate(capsys):
    rc, out, _ = call(capsys, "certify", "--builtin", "yoshida_h", "--set", "epsilon=4",
                      "--allow-sign-flip")
    assert rc == 0
    cert = json.loads(out)
    assert cert["conclusion"] == "NonIntegrable"
    assert cert["kind"] == "complexified"
    assert cert["complex_analyticity_asserted"] is True


# ---------------------------------------------------------------- sweep


def test_sweep_reports_the_yoshida_threshold(capsys):
    rc, out, _ = call(capsys, "sweep", "--builtin", "yoshida_g", "--param", "epsilon",
                      "--range", "1.1:10", "--grid-m", "60")
    assert rc == 0
    res = json.loads(out)
    assert res["param"] == "epsilon"
    assert len(res["thresholds"]) == 1
    assert res["thresholds"][0] == pytest.approx(25.0 / 7.0, abs=1e-6)
    values = [v for v, _ in res["grid"]]
    assert len(values) == 60 and values[0] == 1.1 and values[-1] == 10
    kinds = {c for _, c in res["grid"]}
    assert kinds == {"NonIntegrable", "Inconclusive"}


# ---------------------------------------------------------------- equilibria


def test_equilibria_report_lists_rest_points_and_skips(capsys):
    rc, out, _ = call(capsys, "equilibria", "--builtin", "isosceles", "--set", "alpha=1")
    rep = json.loads(out)
    assert rc == 0
    assert len(rep["equilibria"]) == 6 and rep["skipped"] == []
    center = [e for e in rep["equilibria"] if e["theta_c"] == 0 and e["sign"] == "-"][0]
    assert center["v_star"] == pytest.approx(-math.sqrt(10.0), rel=1e-12)
    assert center["type"] == "unstable_focus"

    rc, out, _ = call(capsys, "equilibria", "--expr", "cos(theta)+0.5", "--beta", "-1")
    rep = json.loads(out)
    assert len(rep["equilibria"]) == 2  # D+/D- over theta = pi only
    assert len(rep["skipped"]) == 1
    assert rep["skipped"][0]["theta_c"] == 0
    assert ">= 0" in rep["skipped"][0]["reason"]


# ---------------------------------------------------------------- simulate


def test_simulate_writes_trajectory_csv(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    rc, out, err = call(capsys, "simulate", "--builtin", "yoshida_g", "--set", "epsilon=4",
                        "--init", "1.0,0.3,0.1,0.2", "--tau-span", "0:3",
                        "--output", str(out_path))
    assert rc == 0 and out == ""
    assert "stopped: span_end" in err
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "tau,t,r,theta,v,w,z,h"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[2] == 1.0 and first[3] == 0.3
    # h column is conserved to CSV precision
    hs = [float(line.split(",")[7]) for line in lines[1:]]
    assert max(abs(h - hs[0]) for h in hs) <= 1e-10 * abs(hs[0])


def test_simulate_reports_the_accepted_steps_not_the_rows(capsys):
    # a run writes one row per node: the start and one per accepted step
    rc, out, err = call(capsys, "simulate", "--builtin", "isosceles", "--set", "alpha=1",
                        "--init", "1.0,0.0,0.3,0.0", "--tau-span", "0:50")
    pot = mcgehee.compile_potential(mcgehee.spec_from_dict(
        {"builtin": "isosceles", "params": {"alpha": 1.0}}))
    traj = mcgehee.integrate(mcgehee.McGeheeState(1.0, 0.0, 0.3, 0.0), pot, (0.0, 50.0))
    assert rc == 0 and len(out.splitlines()) - 1 == len(traj) == traj.raw.n_accepted + 1
    assert err == f"# stopped: {traj.reason} after {traj.raw.n_accepted} accepted steps\n"


# ---------------------------------------------------------------- manifold


def test_manifold_emits_csv_and_diagnostics(capsys):
    rc, out, err = call(capsys, "manifold", "--builtin", "yoshida_g", "--set", "epsilon=4",
                        "--from", "0", "--sign", "-", "--branch", "stable",
                        "--branch-dir", "+")
    assert rc == 0
    assert out.splitlines()[0] == "tau,t,r,theta,v,w,z,h"
    diag = json.loads(err)
    assert diag["target_theta"] == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert diag["captured"] is True
    assert diag["swept_angle"] > 2.0 * math.pi


def test_manifold_with_output_file_prints_diagnostics_to_stdout(capsys, tmp_path):
    out_path = tmp_path / "sep.csv"
    rc, out, _ = call(capsys, "manifold", "--builtin", "isosceles", "--set", "alpha=1",
                      "--from", "-0.785398163397448", "--sign", "+",
                      "--branch", "unstable", "--branch-dir", "+",
                      "--output", str(out_path))
    assert rc == 0
    assert out_path.read_text().startswith("tau,t,r,theta,v,w,z,h")
    diag = json.loads(out)
    assert diag["captured"] is True and diag["swept_angle"] >= 4.0 * math.pi


def test_manifold_from_is_read_modulo_a_turn(capsys):
    base = ("manifold", "--builtin", "yoshida_g", "--set", "epsilon=4", "--sign", "-",
            "--max-tau", "5")
    # modulo 2 pi, 100 and -50 sit 0.25 and 0.27 from the nearest critical angle
    for start in ("100", "-50"):
        rc, out, err = call(capsys, *base, f"--from={start}")
        assert rc == 2 and out == ""
        assert "no critical angle within 1e-3" in err
    at_zero = call(capsys, *base, "--from=0")
    assert at_zero[0] == 0
    assert call(capsys, *base, "--from=6.283185307179586") == at_zero


@pytest.mark.parametrize("argv", [
    ("equilibria", "--builtin", "isosceles", "--set", "alpha=1"),
    ("manifold", "--builtin", "yoshida_g", "--set", "epsilon=4", "--from", "0",
     "--sign", "-", "--branch", "unstable"),
], ids=["equilibria", "manifold"])
def test_subcommand_scans_the_potential_once(argv, capsys, monkeypatch):
    # both subcommands read the critical points twice; the second read
    # finds the stored scan
    grids = []
    plain = Potential.V

    def counted(self, theta):
        if isinstance(theta, np.ndarray) and theta.size == _SCAN_GRID:
            grids.append(theta.size)
        return plain(self, theta)

    monkeypatch.setattr(Potential, "V", counted)
    assert call(capsys, *argv)[0] == 0
    assert grids == [_SCAN_GRID]


# ---------------------------------------------------------------- compare-mr


def test_compare_mr_report_fields(capsys):
    rc, out, _ = call(capsys, "compare-mr", "--builtin", "isosceles", "--set", "alpha=1")
    assert rc == 0
    rep = json.loads(out)
    assert rep["beta"] == -1
    by_theta = {p["theta_c"]: p for p in rep["points"]}
    center = by_theta[0]
    assert center["lambda"] == pytest.approx(2.4, rel=1e-12)
    assert center["trivial_coefficient"] == -2
    assert center["darboux_scale"] == pytest.approx(5.0 ** (1 / 3), rel=1e-12)
    assert center["necessary_inequality"]["satisfied"] is False
    assert center["necessary_inequality"]["margin"] == pytest.approx(-1.275, rel=1e-12)
    assert center["mr_beta_minus1_member"] is False

    rc, out, _ = call(capsys, "compare-mr", "--builtin", "yoshida_g", "--set", "epsilon=4")
    rep = json.loads(out)
    for p in rep["points"]:
        assert "darboux_scale" not in p            # beta*V < 0 on every ray
        assert "mr_beta_minus1_member" not in p    # only defined at beta = -1


def test_compare_mr_skips_zero_value_rays(capsys):
    rc, out, _ = call(capsys, "compare-mr", "--expr", "cos(theta)-1", "--beta", "-1")
    assert rc == 0
    rep = json.loads(out)
    skipped = [p for p in rep["points"] if "skipped" in p]
    assert len(skipped) == 1 and skipped[0]["theta_c"] == 0


# ---------------------------------------------------------------- spec files


def test_spec_file_with_set_override(capsys, tmp_path):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"beta": -1, "builtin": "isosceles",
                                "params": {"alpha": 14}}))
    assert load_spec(str(path)).params["alpha"] == 14
    rc, out, _ = call(capsys, "certify", "--file", str(path), "--set", "alpha=13")
    assert rc == 0
    cert = json.loads(out)
    assert cert["conclusion"] == "NonIntegrable"
    assert cert["potential"]["params"]["alpha"] == 13


@pytest.mark.parametrize("flag, value", [("--beta", "3"), ("--domain", "0:1")])
def test_a_spec_file_refuses_beta_and_domain_flags(capsys, tmp_path, flag, value):
    # the file sets the degree and the domain; a flag that would be dropped
    # silently is a usage error that names it
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"beta": -1, "builtin": "isosceles",
                                "params": {"alpha": 13}}))
    rc, out, err = call(capsys, "certify", "--file", str(path), f"{flag}={value}")
    assert (rc, out) == (1, "")
    assert err == f"error: {flag}: cannot be combined with --file; set it in the spec\n"


def test_malformed_spec_file_exits_one(capsys, tmp_path):
    path = tmp_path / "pot.json"
    path.write_text('{"beta": -1, "builtin": ')
    rc, out, err = call(capsys, "certify", "--file", str(path))
    assert rc == 1
    assert out == ""
    assert "spec: invalid JSON" in err


def test_expr_spec_matches_the_builtin_on_a_grid(capsys):
    src = "-(cos(theta)^4+sin(theta)^4)/4 - (e/2)*cos(theta)^2*sin(theta)^2"
    rc, out, _ = call(capsys, "certify", "--expr", src, "--beta", "4", "--set", "e=4")
    assert rc == 0
    rc2, out2, _ = call(capsys, "certify", "--builtin", "yoshida_g", "--set", "epsilon=4")
    got = json.loads(out)
    want = json.loads(out2)
    assert got["conclusion"] == want["conclusion"] == "NonIntegrable"
    for a, b in zip(got["assumptions"], want["assumptions"]):
        assert a["margin"] == pytest.approx(b["margin"], abs=1e-12)
    # a builtin's source, degree and domain as an expression give the
    # builtin's certificate; only the echo of the potential differs
    iso = BUILTINS["isosceles"]
    rc, out, _ = call(capsys, "certify", "--expr", iso.source, "--beta", "-1",
                      "--set", "alpha=1", f"--domain={-math.pi / 2!r}:{math.pi / 2!r}")
    rc2, out2, _ = call(capsys, "certify", "--builtin", "isosceles", "--set", "alpha=1")
    got, want = json.loads(out), json.loads(out2)
    assert rc == rc2 == 0
    assert got.pop("potential")["domain"] == [-math.pi / 2, math.pi / 2]
    want.pop("potential")
    assert got == want


# ---------------------------------------------------------------- validate


def test_validate_suite_passes(capsys):
    rc, out, _ = call(capsys, "validate")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)


# ---------------------------------------------------------------- serializer


def test_dumps_17_round_trips_and_shows_17_digits():
    text = dumps_17({"x": 0.1, "v": [13.75, -1.0], "s": "note", "b": True, "n": None})
    assert "0.10000000000000001" in text
    parsed = json.loads(text)
    assert parsed["x"] == 0.1 and parsed["v"] == [13.75, -1.0]
    assert parsed["b"] is True and parsed["n"] is None and parsed["s"] == "note"
