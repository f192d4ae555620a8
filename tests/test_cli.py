import json
import math

import pytest

from mcgehee.cli import dumps_17, load_spec, run


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
