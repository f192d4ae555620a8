"""The benchmark's output checks accept today's correct outputs and reject
wrong ones.  Run from the root of the checkout:

    python3 -m pytest perfbench/test_checks.py
"""
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
from mcgehee.cli import run  # noqa: E402
from workloads import certify_expr_ops, sweep_ops, trace_ops  # noqa: E402


def call(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(list(op.argv))
    return rc, out.getvalue(), err.getvalue()


def test_bump_certificate_is_rejected():
    op = certify_expr_ops(1)[-1]
    assert op.known_fault
    rc, out, err = call(op)
    assert rc == 0 and json.loads(out)["triple"] == [0.0, pytest.approx(1.5707963267948966),
                                                      pytest.approx(3.141592653589793)]
    problems = checks.check(op, out, err)
    assert any("A4 fails" in p for p in problems)


def test_sweep_threshold_shifted_by_1e_5_is_rejected():
    op = sweep_ops(7)[0]                          # isosceles, threshold 55/4
    rc, out, err = call(op)
    assert rc == 0 and checks.check(op, out, err) == []
    res = json.loads(out)
    res["thresholds"][0] += 1e-5
    assert checks.check(op, json.dumps(res), err)


def test_sweep_sample_on_the_wrong_side_is_rejected():
    op = sweep_ops(7)[1]                          # yoshida_g, threshold -1/8
    rc, out, err = call(op)
    res = json.loads(out)
    res["grid"][0][1] = "Inconclusive"
    assert checks.check(op, json.dumps(res), err)


def _perturb_row(csv_text, row, column, delta):
    lines = csv_text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("which", ["simulate isosceles", "simulate yoshida_g",
                                   "manifold yoshida_g stable"])
def test_perturbed_csv_row_is_rejected(which):
    op = next(o for o in trace_ops(3) if o.name == which)
    rc, out, err = call(op)
    assert rc == 0 and checks.check(op, out, err) == []
    middle = len(out.splitlines()) // 2
    assert checks.check(op, _perturb_row(out, middle, 3, 1e-6), err)   # theta
    assert checks.check(op, _perturb_row(out, 1, 5, 1e-6), err)        # w, early


def test_perturbed_a6_margin_is_rejected():
    for op in certify_expr_ops(5)[:8]:
        rc, out, err = call(op)
        assert checks.check(op, out, err) == [], op.name
        cert = json.loads(out)
        if cert["conclusion"] != "NonIntegrable":
            continue
        cert["assumptions"][5]["margin"] *= 1.0 + 1e-6
        assert any("A6 margin" in p for p in checks.check(op, json.dumps(cert), err))
        return
    pytest.fail("no NonIntegrable certificate among the first draws")


def test_verdict_against_the_reference_is_enforced():
    op = next(o for o in certify_expr_ops(5) if "flip" in o.name)
    rc, out, err = call(op)
    cert = json.loads(out)
    flipped = "Inconclusive" if cert["conclusion"] == "NonIntegrable" else "NonIntegrable"
    assert checks.check(op, json.dumps(dict(cert, conclusion=flipped)), err)


def test_reference_finds_the_critical_points_the_scan_misses():
    crit = checks.critical_points(checks.bump(-1.0))
    near = [t for t in crit if 0.79 < t < 0.81]
    assert len(near) == 2
    # the sound triple of the bump satisfies every assumption
    cf = checks.bump(-1.0)
    margins, _ = checks._margins(cf, (3.141592653589793, 4.71238898038469, 6.283185307179586))
    assert all(m > 0 for m in margins)


def test_known_fault_flag_only_on_the_bump():
    ops = certify_expr_ops(11)
    assert [op.known_fault for op in ops] == [False] * (len(ops) - 1) + [True]
    assert all(not op.known_fault for op in sweep_ops(11) + trace_ops(11))
    # same seed, same inputs
    assert certify_expr_ops(11) == ops
