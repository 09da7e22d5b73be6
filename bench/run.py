"""Benchmark of the chang engine: grid, wide and cli workloads.

    python3 bench/run.py --workload {grid,wide,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, measured with no tracing installed; with
--trace 1 they are the per-layer ones, from traced passes interleaved with
untraced ones (their ratio is trace.overhead_frac).  Every op is checked
against bench/reference.json.  See bench/README.md for what each metric means
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing                     # noqa: E402
import workloads as wl             # noqa: E402

PER_OP_COUNTS = {"steenrod.sqmodule_builds": "sqmodule_builds",
                 "smash.branches_per_op": "branches",
                 "complexes.dual_calls": "dual_calls",
                 "homgroups.calls": "homgroup_calls"}
PER_PASS_COUNTS = {"verify.iso_found": "iso_found",
                   "verify.iso_skipped": "iso_skipped",
                   "verify.iso_false": "iso_false"}

CLI_MIN_CALLS = 200       # at least ten calls beyond the p95
CLI_MAX_CYCLES = 200
IMPORT_PROBES = 9
# Runs `chang.cli` as __main__ exactly as `python -m chang.cli` does, then
# prints the process's own peak RSS in kB (VmHWM) as the last line of
# stderr.  getrusage cannot give it: a child's ru_maxrss also counts the
# pages of the parent it was forked from, here the benchmark itself.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("chang.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        print(*[l.split()[1] for l in fh if l.startswith("VmHWM:")],
              file=sys.stderr)
"""
# in-process seconds of the imports a cold call makes before it dispatches
SETUP_PROBE = ("import time; t = time.perf_counter(); import chang.cli; "
               "print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 120
OUT_DIR = ROOT / ".bench_out"


def child_env() -> dict:
    """A fixed environment for every child, so that variables of the calling
    shell (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED, ...) do not change what
    is measured."""
    env = {"PYTHONPATH": "src", "PYTHONIOENCODING": "utf-8"}
    env.update((k, os.environ[k]) for k in ("PATH", "HOME") if k in os.environ)
    return env


def build() -> None:
    """Write the bytecode caches an installed package would have; a no-op
    when they are current."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "tests/conftest.py", "bench"], cwd=ROOT, env=child_env(),
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)


def percentile(xs, q: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.messages) < 5:
            self.messages.append(message)


# --- grid and wide: one worker process per pass ---------------------------

class PassMaker:
    """Seeded jobs for one grid or wide run, with workload descriptors."""

    def __init__(self, workload: str, seed: int, ref: dict):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.ref = ref
        self.shapes = wl.wide_shapes()
        self.repeats = Counter()
        self.tensor = Counter()

    def job(self, traced: bool) -> dict:
        job = {"workload": self.workload, "trace": traced}
        if self.workload == "grid":
            grid = self.ref["grid"]
            job["order"] = wl.grid_pass(self.rng, len(grid))
            job["reference"] = grid
            entries = [grid[i] for i in job["order"]]
            keys = ["|".join(sorted((e["x"], e["y"]))) for e in entries]
            sizes = [sum(e["dims"].values()) for e in entries]
        else:
            pieces, pairs = self.ref["wide"]["pieces"], self.ref["wide"]["pairs"]
            job["ops"] = wl.wide_pass(self.rng, self.shapes)
            job["expect"], keys, sizes = [], [], []
            for xs, ys in job["ops"]:
                refs = [pairs[wl.pair_key(a, b)] for a in xs for b in ys]
                summands = [s for r in refs if r["output"] != "*"
                            for s in r["output"].split(" v ")]
                job["expect"].append({
                    "summands": sorted(summands),
                    "rules": sorted(rule for r in refs for rule in r["rules"])})
                keys += [wl.pair_key(a, b) for a in xs for b in ys]
                sizes.append(sum(wl.tensor_dims(wl.wedge_dims(xs, pieces),
                                                wl.wedge_dims(ys, pieces)).values()))
        rep, total = wl.repeat_share(keys)
        self.repeats.update(repeats=rep, pairs=total)
        self.tensor.update(dims=sum(sizes), ops=len(sizes))
        return job

    def descriptors(self) -> dict:
        return {"workload.repeat_frac":
                    self.repeats["repeats"] / self.repeats["pairs"],
                "workload.tensor_dim_mean":
                    self.tensor["dims"] / self.tensor["ops"]}


def run_worker(job: dict, tally: Tally) -> dict | None:
    n = len(job.get("order") or job.get("ops"))
    tally.attempted += n
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, cwd=ROOT, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        tally.fail(n, "worker timed out")
        return None
    if proc.returncode != 0:
        tally.fail(n, f"worker exited {proc.returncode}: {proc.stderr[-500:]}")
        return None
    res = json.loads(proc.stdout.splitlines()[-1])
    for message in res["fails"]:
        tally.fail(1, message)
    return res


def passes_run(args, ref: dict, tally: Tally):
    """Whole passes until --seconds have elapsed; in a traced run, every
    second pass is traced."""
    maker = PassMaker(args.workload, args.seed, ref)
    done = []
    deadline = time.perf_counter() + args.seconds
    for k in itertools.count():
        if time.perf_counter() >= deadline and k >= 2:
            break
        traced = bool(args.trace) and k % 2 == 1
        res = run_worker(maker.job(traced), tally)
        if res is not None:
            done.append((traced, res))
    if not done:
        raise SystemExit("error: no pass completed")
    return done, maker.descriptors()


def window_stats(windows) -> dict:
    """End-to-end timings from (latencies, cpu times, seconds) per window.

    A window is one pass (grid, wide) or one cycle (cli).  This host's CPU
    runs up to 40% faster in bursts of 5-15 s, so the run-wide median or
    mean moves with the share of the run the bursts happen to cover.  The
    throughput and the p50s are therefore taken per window and reported at
    the slower quartile across windows, which tracks the usual state of the
    machine.  The tail is the p95 of CPU time, pooled over every op so that
    at least ten lie beyond it: the wall-clock tail of a cold process here
    also carries minutes-long spells of waiting outside the process.
    """
    cpu = [t for w in windows for t in w[1]]
    return {"ops_per_s": percentile([len(w[0]) / w[2] for w in windows], 25),
            "op_ms.p50": 1e3 * percentile(
                [statistics.median(w[0]) for w in windows], 75),
            "op_cpu_ms.p50": 1e3 * percentile(
                [statistics.median(w[1]) for w in windows], 75),
            "op_cpu_ms.p95": 1e3 * percentile(cpu, 95)}


def e2e_from_passes(done) -> dict:
    iso = Counter()
    for _, r in done:
        iso.update(r["iso"])
    return {**window_stats([(r["lat"], r["cpu"], r["loop_s"]) for _, r in done]),
            "setup_s": statistics.median(r["setup_s"] for _, r in done),
            "peak_rss_mb": max(r["rss_kb"] for _, r in done) / 1024,
            "iso_witness_frac": iso["True"] / max(1, sum(iso.values()))}


def layers_from_passes(done) -> tuple[dict, int, int, float]:
    """(trace summary, traced ops, traced passes, overhead)."""
    summary, ops, passes = None, 0, 0
    seconds = {False: 0.0, True: 0.0}
    count = {False: 0, True: 0}
    for traced, r in done:
        seconds[traced] += r["loop_s"]
        count[traced] += len(r["lat"])
        if traced:
            summary = tracing.merge(summary, r["trace"])
            ops += len(r["lat"])
            passes += 1
    overhead = (seconds[True] / count[True]) / (seconds[False] / count[False]) - 1
    return summary, ops, passes, overhead


# --- cli: one cold process per call ---------------------------------------

def cli_setup_s() -> float:
    """The program's set-up on cli: the seconds a cold process spends in
    `import chang.cli` (the package and argparse), timed inside the process
    so that interpreter start-up is left out."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          check=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def cli_call(argv, summary_path=None) -> tuple[float, float, int, bytes, int]:
    """(wall s, child cpu s, exit code, stdout, peak RSS kB) of one cold
    call; the RSS is 0 for a traced call."""
    if summary_path is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(summary_path),
               *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    tail = proc.stderr.split()[-1:]         # empty or not a number: traced
    rss = int(tail[0]) if tail and tail[0].isdigit() else 0
    return wall, cpu, proc.returncode, proc.stdout, rss


def cli_check(kind: str, entry: dict, code: int, out: bytes, tally: Tally,
              iso: Counter) -> None:
    tally.attempted += 1
    text = out.decode("utf-8", errors="replace")
    if code != entry["exit"] or wl.cli_digest(entry["argv"], text) != entry["sha"]:
        tally.fail(1, f"{entry['argv']}: exit {code} or stdout differs")
    elif kind.startswith("verify"):
        found = f"{wl.ISO_VERDICT}True" in text.splitlines()
        iso["found" if found else "other"] += 1


def cli_run(args, ref: dict, tally: Tally):
    """Whole cycles until --seconds have elapsed and, for the percentiles
    of an untraced run, CLI_MIN_CALLS ran.  A traced run makes each call
    twice, untraced then traced."""
    min_calls = 0 if args.trace else CLI_MIN_CALLS
    rng = random.Random(f"cli:{args.seed}")
    cycles = [wl.cli_cycle(rng, ref["cli"]) for _ in range(CLI_MAX_CYCLES)]
    setups = []
    OUT_DIR.mkdir(exist_ok=True)
    summary_path = OUT_DIR / f"cli-child-{os.getpid()}.json"
    windows, iso, calls, rss_kb = [], Counter(), 0, 0
    traced_s, untraced_s, summary = 0.0, 0.0, None
    deadline = time.perf_counter() + args.seconds
    try:
        for cycle in cycles:
            if time.perf_counter() >= deadline and calls >= min_calls:
                break
            walls, cpus = [], []
            for kind, entry in cycle:
                wall, cpu, code, out, rss = cli_call(entry["argv"])
                rss_kb = max(rss_kb, rss)
                walls.append(wall)
                cpus.append(cpu)
                cli_check(kind, entry, code, out, tally, iso)
                if args.trace:
                    traced, _, code, out, _ = cli_call(entry["argv"],
                                                       summary_path)
                    traced_s, untraced_s = traced_s + traced, untraced_s + wall
                    cli_check(kind, entry, code, out, tally, Counter())
                    with open(summary_path, encoding="utf-8") as fh:
                        summary = tracing.merge(summary, json.load(fh))
            windows.append((walls, cpus, sum(walls)))
            calls += len(walls)
            # one set-up probe per cycle, so that its median spans the run
            # like the other timings
            setups.append(cli_setup_s())
    finally:
        summary_path.unlink(missing_ok=True)
    e2e = {**window_stats(windows),
           "setup_s": statistics.median(setups),
           "peak_rss_mb": rss_kb / 1024,
           "iso_witness_frac": iso["found"] / max(1, sum(iso.values()))}
    # each call is its own process, so no pair can be seen twice in one
    descriptors = {"workload.repeat_frac": 0.0,
                   "workload.tensor_dim_mean":
                       cli_tensor_mean(cycles[:len(windows)], ref["grid"])}
    layers = None
    if args.trace:
        layers = (summary, calls, len(windows), traced_s / untraced_s - 1)
    return e2e, descriptors, layers


def cli_tensor_mean(cycles, grid) -> float:
    """Mean tensor dimension over the calls that smash two grid pieces."""
    dims = {f"{e['x']}^{e['y']}": sum(e["dims"].values()) for e in grid}
    dims.update({f"{e['x']}|{e['y']}": sum(e["dims"].values()) for e in grid})
    sizes = []
    for kind, entry in (c for cycle in cycles for c in cycle):
        argv = entry["argv"]
        if kind in ("smash", "verify.small", "verify.large"):
            sizes.append(dims[f"{argv[1]}|{argv[2]}"])
        elif kind in ("homology", "cohomology"):
            sizes.append(dims[argv[-1]])
    return sum(sizes) / len(sizes)


# --- per-layer report ------------------------------------------------------

def import_ms() -> float:
    """Cold `import chang.cli` minus a bare interpreter: the median over
    adjacent pairs of probes, so that a change of machine speed between
    probes cancels within a pair."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        pair = []
        for code in ("pass", "import chang.cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
            pair.append(time.perf_counter() - t0)
        diffs.append(pair[1] - pair[0])
    return 1e3 * statistics.median(diffs)


def layer_metrics(layers, descriptors) -> dict:
    summary, ops, passes, overhead = layers
    counts = summary["counts"]
    out = {m: 1e6 * summary["self_s"][m] / ops for m in tracing.TIMED}
    out.update({m: counts[c] / ops for m, c in PER_OP_COUNTS.items()})
    out.update({m: counts[c] / passes for m, c in PER_PASS_COUNTS.items()})
    out["verify.iso_decided_frac"] = (
        (counts["iso_found"] + counts["iso_false"])
        / max(1, counts["iso_attempts"]))
    out["cli.import_ms"] = import_ms()
    out["trace.overhead_frac"] = overhead
    out.update(descriptors)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("grid", "wide", "cli"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "chang").is_dir() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: no chang sources under {ROOT}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    build()

    tally = Tally()
    if args.workload == "cli":
        e2e, descriptors, layers = cli_run(args, ref, tally)
    else:
        done, descriptors = passes_run(args, ref, tally)
        e2e = e2e_from_passes(done)
        layers = layers_from_passes(done) if args.trace else None

    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    values = layer_metrics(layers, descriptors) if args.trace else e2e
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "descriptors": descriptors}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {m["name"]: {"value": values[m["name"]],
                                              "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
