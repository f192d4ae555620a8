"""Compare two dumps of ``tools/output_digest.py --dump`` run by run.

    python3 tools/compare_outputs.py A.jsonl B.jsonl [--rtol 1e-12]

A run matches when its exit code and stderr are equal, its stdout is equal
once every number is taken out, and each number of its stdout (the JSON and
CSV the commands print) is within ``--rtol`` of the other side's, relative
to the larger magnitude of the two.  Prints each run that does not match
and why, then the largest relative difference of any number and the run it
is in.  Exits 1 when a run is missing on one side or does not match.
"""
import argparse
import json
import re
import sys

# a number that is not the tail of a name such as "A6" or "x1"
NUMBER = re.compile(r"(?<![A-Za-z_\d.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {run["id"]: run for run in map(json.loads, fh)}


def relative(a: float, b: float) -> float:
    """|a - b| over the larger of |a| and |b|; 0 when a == b."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(a: dict, b: dict) -> tuple[list[str], float]:
    """Why two runs differ other than in their numbers, and the largest
    relative difference of their stdout's numbers."""
    why = [what for what in ("rc", "stderr") if a[what] != b[what]]
    if NUMBER.sub("#", a["stdout"]) != NUMBER.sub("#", b["stdout"]):
        why.append("text")
        return why, 0.0
    pairs = zip(NUMBER.findall(a["stdout"]), NUMBER.findall(b["stdout"]))
    return why, max((relative(float(x), float(y)) for x, y in pairs), default=0.0)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rtol", type=float, default=0.0, help="largest relative difference allowed")
    args = p.parse_args()
    a, b = load(args.a), load(args.b)
    bad, worst, where, moved = 0, 0.0, None, 0
    for run_id in sorted(a.keys() | b.keys()):
        if run_id not in a or run_id not in b:
            print(f"{run_id}: only in {args.a if run_id in a else args.b}")
            bad += 1
            continue
        why, rel = compare(a[run_id], b[run_id])
        moved += a[run_id] != b[run_id]
        if rel > worst:
            worst, where = rel, run_id
        if rel > args.rtol:
            why.append(f"numbers differ by {rel:.3g} relative")
        if why:
            print(f"{run_id}: {', '.join(why)}")
            bad += 1
    print(f"{len(a.keys() | b.keys())} runs, {moved} differ, {bad} do not match at "
          f"rtol {args.rtol:g}; largest relative difference {worst:.3g}"
          + (f" ({where})" if where else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
