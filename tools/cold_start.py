"""Cold-start cost of two checkouts, each measured in fresh processes.

    python3 tools/cold_start.py A B [--seed 1]

Each of the 10 pairs runs both checkouts, A first in even pairs and B
first in odd ones, counting from 0.  A side of a pair is two fresh processes:

- a probe that times the import of ``mcgehee.cli`` (``import_s``) and then
  the first round of the ``certify_expr`` workload at ``--seed``, every
  operation once through ``mcgehee.cli.run`` (``first_round_s``);
- a one-shot ``python -m mcgehee`` run of the round's first operation,
  timed from outside around the whole process (``oneshot_s``).

Every process imports the package from ``DIR/src`` with
``PYTHONDONTWRITEBYTECODE=1``, so each compiles the package from source,
as the benchmark does in a fresh checkout; a checkout holding a bytecode
cache of the package is refused.  The operations are read from this
checkout's ``perfbench/workloads.py``; nothing else of ``perfbench/`` is
used.  Prints one JSON object: per metric, each side's median, quartiles
(linear interpolation) and runs, and how many pairs B won and lost (a tie
counts for neither).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from output_digest import load_workloads

PAIRS = 10
METRICS = ("import_s", "first_round_s", "oneshot_s")

# run in a fresh interpreter with the argument src, the round's argvs on stdin
PROBE = """
import time
t0 = time.perf_counter()
import mcgehee.cli
t1 = time.perf_counter()
import contextlib, io, json, sys
if not mcgehee.cli.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"mcgehee imported from {mcgehee.cli.__file__}, not {sys.argv[1]}")
ops, codes = json.load(sys.stdin), []
t2 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in ops:
        codes.append(mcgehee.cli.run(argv))
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_round_s": t3 - t2, "codes": codes}))
"""


def side(checkout: str, ops: list[list[str]]) -> dict:
    """The three cold timings of one checkout, from two fresh processes."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, src + os.sep], input=json.dumps(ops),
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    out = json.loads(proc.stdout)
    t = time.perf_counter()
    one = subprocess.run([sys.executable, "-m", "mcgehee", *ops[0]], capture_output=True,
                         text=True, env=env, timeout=600)
    out["oneshot_s"] = time.perf_counter() - t
    if one.returncode not in (0, 3):
        raise SystemExit(f"cold_start.py: one-shot run failed in {checkout}: {one.stderr}")
    return out


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", metavar="A", help="checkout of the first side (the parent)")
    p.add_argument("b", metavar="B", help="checkout of the second side (the change)")
    p.add_argument("--seed", type=int, default=1, help="seed of the certify_expr round")
    args = p.parse_args()
    for checkout in (args.a, args.b):
        cache = os.path.join(checkout, "src", "mcgehee", "__pycache__")
        if os.path.exists(cache):
            raise SystemExit(f"cold_start.py: {cache} would spare the compilation; remove it")
    ops = [list(op.argv) for op in load_workloads().certify_expr_ops(args.seed)]
    runs = {"A": [], "B": []}
    for i in range(PAIRS):
        for name in ("AB" if i % 2 == 0 else "BA"):
            runs[name].append(side(args.a if name == "A" else args.b, ops))
    codes = {name: {tuple(r.pop("codes")) for r in rs} for name, rs in runs.items()}
    if len(codes["A"] | codes["B"]) != 1:
        raise SystemExit(f"cold_start.py: the sides' exit codes differ: {codes}")
    report = {"seed": args.seed, "pairs": PAIRS, "oneshot_argv": ops[0],
              "A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    for metric in METRICS:
        a = [r[metric] for r in runs["A"]]
        b = [r[metric] for r in runs["B"]]
        report[metric] = {"A": summary(a), "B": summary(b),
                          "B_wins": sum(y < x for x, y in zip(a, b)),
                          "B_losses": sum(y > x for x, y in zip(a, b))}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
