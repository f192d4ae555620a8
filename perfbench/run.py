"""Benchmark of the mcgehee command line, run in process through ``mcgehee.cli.run``.

    python3 perfbench/run.py --workload sweep|trace|certify_expr \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The run
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, then checks every output apart from the program (``checks.py``)
and prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics per round and the tracing overhead,
writing its spans under ``.perfbench_out/``.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# one thread: BLAS must see this before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4   # extra fresh processes that only set up, for the median


def setup(workload: str, seed: int):
    """Import the package from this checkout and make the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "mcgehee", "cli.py")):
        raise SystemExit(f"run.py: no mcgehee sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    from mcgehee.cli import run
    import mcgehee

    if not os.path.abspath(mcgehee.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: mcgehee imported from {mcgehee.__file__}, not {SRC}")
    from workloads import WORKLOADS

    return run, WORKLOADS[workload](seed)


def call(run, op):
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(list(op.argv))
        except Exception as exc:  # a crash is a failed operation, not a dead run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return time.perf_counter() - t, (rc, out.getvalue(), err.getvalue())


class Rounds:
    """Whole rounds of the operations; keeps each distinct output of each
    operation and how many rounds gave it."""

    def __init__(self, run, ops):
        self.run, self.ops = run, ops
        self.round_s: list[float] = []
        self.op_s: list[float] = []
        self.outputs: list[list[tuple]] = [[] for _ in ops]
        self.counts: list[list[int]] = [[] for _ in ops]
        self.tracer = None              # set to trace the following rounds
        self.traced: list[tuple[int, int]] = []   # span index range per traced round

    def one(self):
        tr = self.tracer
        if tr is not None:
            first = tr.open("bench.round")
        for i, op in enumerate(self.ops):
            if tr is not None:
                span = tr.open("bench.op")
            dt, result = call(self.run, op)
            if tr is not None:
                tr.close(span)
            self.op_s.append(dt)
            if result in self.outputs[i]:
                self.counts[i][self.outputs[i].index(result)] += 1
            else:
                self.outputs[i].append(result)
                self.counts[i].append(1)
        if tr is not None:
            tr.close(first)
            self.traced.append((first, len(tr.names)))
        self.round_s.append(sum(self.op_s[-len(self.ops):]))

    def until(self, seconds: float):
        start = time.perf_counter()
        while True:
            self.one()
            if time.perf_counter() - start >= seconds:
                return


def expected_rc(op, rc: int) -> bool:
    # certify exits 3 for an Inconclusive verdict, which is a result
    return rc == 0 or (op.argv[0] == "certify" and rc == 3)


def verify(rounds: Rounds):
    """(attempted, failed, correct, problems): every distinct output of every
    operation is checked; identical outputs share one verdict."""
    import checks

    attempted = failed = 0
    correct = True
    problems = []
    for op, outputs, counts in zip(rounds.ops, rounds.outputs, rounds.counts):
        for (rc, out, err), n in zip(outputs, counts):
            attempted += n
            if not expected_rc(op, rc):
                found = [f"exit {rc}: {err.strip()[-300:]}"]
            else:
                try:
                    found = checks.check(op, out, err)
                except Exception as exc:
                    found = [f"output could not be checked: {type(exc).__name__}: {exc}"]
            if found:
                failed += n
                correct = correct and op.known_fault
                problems.append((op.name, op.known_fault, found))
    return attempted, failed, correct, problems


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes that import and generate, nothing more."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, env=os.environ.copy())
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "trace", "certify_expr"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    run, ops = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    rounds = Rounds(run, ops)
    if not args.trace:
        setup_times = [setup_s] + probe_setup(args.workload, args.seed)
        rounds.until(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "run_s": metric(statistics.fmean(rounds.round_s), "s"),
            "op_p50_ms": metric(1e3 * statistics.median(rounds.op_s), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        notes = {"rounds": len(rounds.round_s), "ops_per_round": len(ops),
                 "setup_samples": len(setup_times)}
    else:
        import tracing

        # untraced and traced rounds alternate, so that a drift in the
        # machine's speed falls on both alike; a first round, in neither,
        # takes the one-time costs of first calls
        tracer = tracing.Tracer()
        start, traced_flags = time.perf_counter(), [None]
        rounds.one()
        while len(traced_flags) == 1 or time.perf_counter() - start < args.seconds:
            rounds.one()
            rounds.tracer, uninstall = tracer, tracing.install(tracer)
            rounds.one()
            uninstall()
            rounds.tracer = None
            traced_flags += [False, True]
        untraced = statistics.fmean(r for r, t in zip(rounds.round_s, traced_flags) if t is False)
        traced = statistics.fmean(r for r, t in zip(rounds.round_s, traced_flags) if t)
        layers, unsteady = tracing.layer_metrics(tracer, rounds.traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write(span_file)
        metrics = {name: metric(value, tracing.unit(name)) for name, value in layers.items()}
        metrics["bench.trace_overhead_s"] = metric(traced - untraced, "s")
        notes = {"untraced_rounds": traced_flags.count(False),
                 "traced_rounds": len(rounds.traced),
                 "untraced_run_s": untraced, "traced_run_s": traced,
                 "spans": os.path.relpath(span_file, ROOT), "unsteady_counts": unsteady}

    attempted, failed, correct, problems = verify(rounds)
    if args.trace and notes["unsteady_counts"]:
        correct = False
    for name, known, found in problems:
        tag = "known fault" if known else "WRONG"
        for line in found:
            print(f"# {tag}: {name}: {line}")
    print("# " + json.dumps(notes))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
