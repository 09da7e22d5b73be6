"""One pass of the grid or wide workload in a fresh process.

Reads a job (JSON) on stdin, runs `smash_decompose` over its inputs one after
another, checks every result against the reference, and prints one JSON line
with timings, checks and, for a traced pass, the trace summary.  A fresh
process per pass keeps in-process caches from carrying over between passes,
so a grid pair is never repeated within a process.

Set-up time runs from before `import chang` until the inputs are built: the
library imports, table loads and input construction a user pays before the
first op.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _build_inputs(job):
    from chang import complexes
    if job["workload"] == "grid":
        sys.path.insert(0, str(ROOT / "tests"))
        from conftest import classified_pairs
        pairs = classified_pairs()
        if len(pairs) != len(job["reference"]) or len(pairs) != 371:
            raise SystemExit(f"grid has {len(pairs)} pairs, expected 371")
        return [pairs[i] for i in job["order"]]

    def build(spec):
        return getattr(complexes, spec[0])(*spec[1:])
    return [(complexes.wedge(*map(build, xs)), complexes.wedge(*map(build, ys)))
            for xs, ys in job["ops"]]


def _check(job, i: int, x, y, res) -> str | None:
    """Why op i's result is wrong, or None."""
    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}"
    v = res.verification
    if not (v.homology_match and v.mod2_match):
        return "verification mismatch"
    rules = [r for _, r in res.branches]
    if job["workload"] == "grid":
        ref = job["reference"][job["order"][i]]
        if (str(x), str(y)) != (ref["x"], ref["y"]):
            return "grid order differs from the reference"
        ok = str(res.output) == ref["output"] and rules == ref["rules"]
    else:
        ref = job["expect"][i]
        summands = str(res.output).split(" v ") if res.output.summands else []
        ok = sorted(summands) == ref["summands"] and sorted(rules) == ref["rules"]
    return None if ok else f"output differs: {res.output} {rules}"


def _peak_rss_kb() -> int:
    """This process's own peak RSS (VmHWM).  getrusage's ru_maxrss would
    also count the pages of the parent the worker was forked from."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))


def main() -> None:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    from chang import smash
    inputs = _build_inputs(job)
    setup_s = time.perf_counter() - t0

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    decompose = smash.smash_decompose

    lat, cpu, results = [], [], []
    wall, proc = time.perf_counter, time.process_time
    loop0 = wall()
    for x, y in inputs:
        c0, w0 = proc(), wall()
        try:
            res = decompose(x, y)
        except Exception as exc:        # recorded as a failed op
            res = exc
        w1, c1 = wall(), proc()
        lat.append(w1 - w0)
        cpu.append(c1 - c0)
        results.append(res)
    loop_s = wall() - loop0

    fails, iso, branches = [], Counter(), 0
    for i, ((x, y), res) in enumerate(zip(inputs, results)):
        why = _check(job, i, x, y, res)
        if why:
            fails.append(f"{x} ^ {y}: {why}")
            continue
        iso[str(res.verification.sq_iso_found)] += 1
        branches += len(res.branches)
    out = {"setup_s": setup_s, "loop_s": loop_s, "lat": lat, "cpu": cpu,
           "rss_kb": _peak_rss_kb(),
           "fails": fails, "iso": iso, "branches": branches}
    if tracer:
        out["trace"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
