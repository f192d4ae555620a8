"""Digest of every output of the benchmark's operations, to compare two checkouts.

    python3 tools/output_digest.py [--checkout DIR] [--seeds 1 2 3] [--dump FILE] > digest.txt

Runs every operation of the ``sweep``, ``trace`` and ``certify_expr``
workloads at each seed, two rounds each, and then ``mcgehee validate``, in
one process through ``mcgehee.cli.run``, with the package imported from
``DIR/src`` (default: the checkout holding this file).  The operations are
read from this checkout's ``perfbench/workloads.py``, and nothing else of
``perfbench/`` is used.  Prints one line per run: the run and the SHA-256 of
its exit code, stdout and stderr.  Two checkouts give the same outputs
exactly when ``diff`` finds their digests equal.  ``--dump FILE`` also
writes each run as one JSON line, ``{"id", "rc", "stdout", "stderr"}``,
for ``tools/compare_outputs.py``.
"""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 2


def load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def call(run, argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one call of ``run``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(list(argv))
        except Exception as exc:  # a crash is an output too
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--checkout", default=ROOT, help="checkout whose src/ is imported")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--dump", metavar="FILE", help="also write every run here, one JSON line each")
    args = p.parse_args()
    src = os.path.join(os.path.abspath(args.checkout), "src")
    sys.path.insert(0, src)
    from mcgehee.cli import run
    import mcgehee

    if not os.path.abspath(mcgehee.__file__).startswith(src + os.sep):
        raise SystemExit(f"output_digest.py: mcgehee imported from {mcgehee.__file__}, not {src}")
    workloads = load_workloads()
    runs = [(f"{name} seed={seed} round={round_} op={i} {op.name}", op.argv)
            for name, ops in workloads.WORKLOADS.items() for seed in args.seeds
            for round_ in range(1, ROUNDS + 1) for i, op in enumerate(ops(seed))]
    runs.append(("validate", ["validate"]))
    with contextlib.ExitStack() as stack:
        dump = stack.enter_context(open(args.dump, "w")) if args.dump else None
        for run_id, argv in runs:
            rc, out, err = call(run, argv)
            text = f"{rc}\0{out}\0{err}"
            print(f"{run_id}: {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
            if dump is not None:
                dump.write(json.dumps({"id": run_id, "rc": rc, "stdout": out, "stderr": err}) + "\n")


if __name__ == "__main__":
    main()
