#!/usr/bin/env python3
"""dtmask benchmark: drives the real CLI in-process on seeded inputs.

Run from the repository root:

    python3 benchmark/run.py --workload codec --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

Load shape: closed loop, one client, no threads; each item starts when
the previous one returns.  `--threads` is never passed and
DTMASK_THREADS is removed from the environment.

A run is WORKERS worker processes, one after another, each a fresh
interpreter that
  1. sets up: generates the inputs (in a child process, so generation
     never sets the worker's peak memory), imports dtmask and runs one
     untimed warm-up item of each kind; `setup_s` is the median of the
     workers' set-up times, and their input sets must be byte-identical;
  2. cycles through the item pool, starting at its own offset, for
     `--seconds / WORKERS` and at least its third of the pool, so the
     workers together visit every slot.  Items are timed
     one by one; output checks, digests and deleting the item's outputs
     run between items, off the clock.  Every output goes to a path that
     did not exist before (rewriting a file on ext4 costs tens of ms).
Several short-lived workers rather than one: on a shared host a whole
process can run 20-40% slow, and per-slot medians over three processes
keep one such process from moving the result.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs every
visit twice, untraced and under the outside-in tracer (order
alternating), and prints the per-layer metrics; spans are kept in
memory and written to `.bench_runs/traces/` when a worker ends.  The
last stdout line is always the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import Tracer, layer_metrics, read_jsonl

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".bench_runs"
WORKERS = 3
CHILD_TIMEOUT_S = 170

perf = time.perf_counter


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def child(args: list[str], root: str) -> dict:
    """Run this script with `args`; return the JSON of its last stdout line."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# items


def run_item(cli, wl, slot, inputs, out_dir, tracer=None, item_id=None):
    """Run one item's CLI calls; return (ok, wall s, cpu s, outputs)."""
    src = os.path.join(inputs, slot["dir"])
    calls, outputs = wl.run(slot, src, lambda name: os.path.join(out_dir, name))
    for _, path in outputs:
        if os.path.exists(path):
            raise RuntimeError(f"output path already exists: {path}")
    ok = True
    if tracer is not None:
        tracer.begin_item(item_id)
    c0 = time.process_time()
    t0 = perf()
    for argv in calls:
        # Looked up per call, so an installed tracer wrapper is used.
        if cli.main(argv) != 0:
            ok = False
            break
    t1 = perf()
    c1 = time.process_time()
    if tracer is not None:
        tracer.end_item()
    return ok, t1 - t0, c1 - c0, outputs


def check_item(wl, slot, inputs, outputs) -> tuple[str | None, str | None]:
    """(digest, error) of one item's outputs."""
    try:
        wl.check(slot, os.path.join(inputs, slot["dir"]), outputs)
        return workloads.digest_outputs(outputs), None
    except (workloads.CheckFailed, OSError, ValueError) as exc:
        return None, str(exc)


# --------------------------------------------------------------------------
# worker: set up, then the timed share of the run


def worker(args, root: str) -> int:
    t0 = perf()
    wdir = args.worker
    inputs = os.path.join(wdir, "inputs")
    gen = child(["--generate", inputs, "--workload", args.workload, "--seed", str(args.seed)], root)
    sys.path.insert(0, os.path.join(root, "src"))
    import dtmask.cli as cli

    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(inputs, "manifest.json"), encoding="ascii") as fh:
        slots = json.load(fh)["slots"]
    out_root = os.path.join(wdir, "out")
    os.makedirs(out_root)

    # Untimed warm-up: one item of each kind.
    for i, slot in enumerate(slots):
        if slot["kind"] in [s["kind"] for s in slots[:i]]:
            continue
        d = os.path.join(out_root, f"warm{i:02d}")
        os.makedirs(d)
        ok, _, _, outputs = run_item(cli, wl, slot, inputs, d)
        _, err = check_item(wl, slot, inputs, outputs)
        if not ok or err:
            raise RuntimeError(f"warm-up of slot {i} failed: {err or 'nonzero exit'}")
        shutil.rmtree(d)
    setup_s = perf() - t0

    tracer = Tracer(prefix=f"w{args.offset}.") if args.trace else None
    items, digests, errors = [], {}, []
    offset = args.offset * len(slots) // WORKERS
    visit = 0
    start = perf()
    # Together the workers cover every slot at least once.
    share = -(-len(slots) // WORKERS)
    while visit < share or perf() - start < args.seconds:
        i = (offset + visit) % len(slots)
        slot = slots[i]
        modes = [False]
        if tracer is not None:
            modes = [False, True] if visit % 2 == 0 else [True, False]
        for traced in modes:
            d = os.path.join(out_root, f"v{visit:05d}{'t' if traced else 'u'}")
            os.makedirs(d)
            if traced:
                tracer.install()
            try:
                ok, wall, cpu, outputs = run_item(cli, wl, slot, inputs, d, tracer if traced else None,
                                                  f"w{args.offset}.{visit}")
            finally:
                if traced:
                    tracer.uninstall()
            digest, err = check_item(wl, slot, inputs, outputs) if ok else (None, "nonzero exit")
            if err is None and digests.setdefault(str(i), digest) != digest:
                err = "output differs from an earlier output of the same slot"
            if err is not None:
                errors.append(f"slot {i} ({slot['kind']}): {err}")
            items.append({"slot": i, "kind": slot["kind"], "traced": traced,
                          "wall": wall, "cpu": cpu, "ok": err is None})
            shutil.rmtree(d)
        visit += 1
    Tracer.assert_untouched()
    trace_path = None
    if tracer is not None:
        trace_path = os.path.join(wdir, "trace.jsonl")
        tracer.write_jsonl(trace_path)
    print(json.dumps({
        "setup_s": setup_s,
        "inputs": gen["inputs"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": items,
        "digests": digests,
        "errors": errors,
        "trace": trace_path,
    }))
    return 0


# --------------------------------------------------------------------------
# one workload: WORKERS workers, then the result


def run_workload(args, root: str, spec: dict) -> int:
    wl = workloads.WORKLOADS[args.workload]
    run_name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    run_dir = os.path.join(root, RUNS_DIR, run_name)
    os.makedirs(run_dir)
    results = []
    t_run = perf()
    try:
        for w in range(WORKERS):
            wdir = os.path.join(run_dir, f"w{w}")
            os.makedirs(wdir)
            results.append(child([
                "--worker", wdir, "--offset", str(w), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
                "--trace", str(args.trace)], root))
            if args.trace:
                traces = os.path.join(root, RUNS_DIR, "traces")
                os.makedirs(traces, exist_ok=True)
                kept = os.path.join(traces, f"{run_name}-w{w}.jsonl")
                shutil.move(results[-1]["trace"], kept)
                results[-1]["trace"] = kept
            # Delete each worker's files at once: ext4 frees files that are
            # still unwritten cheaply, older ones one discard at a time.
            shutil.rmtree(wdir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run_s = perf() - t_run

    if len({r["inputs"] for r in results}) != 1:
        raise RuntimeError("the input generator is not reproducible: workers' inputs differ")
    items = [it for r in results for it in r["items"]]
    digests: dict[str, str] = {}
    mismatches = [f"slot {slot}: output differs between workers"
                  for r in results for slot, d in r["digests"].items()
                  if digests.setdefault(slot, d) != d]
    errors = [e for r in results for e in r["errors"]] + mismatches
    n_slots = len(wl.slots())
    data_digest = hashlib.sha256(
        "".join(digests.get(str(i), "missing") for i in range(n_slots)).encode()).hexdigest()
    attempted = len(items)
    failed = sum(not it["ok"] for it in items) + len(mismatches)
    untraced = [it for it in items if not it["traced"]]
    walls = [it["wall"] for it in untraced]
    tail_p = wl.tail_percentile
    tail = percentile(walls, tail_p)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}"
          f"  workers {WORKERS}  filesystem {filesystem_of(os.path.join(root, RUNS_DIR))}"
          f"  wall {run_s:.1f}s")
    print(f"input_digest {results[0]['inputs']}")
    print(f"data_digest {data_digest}")
    kinds = [it["kind"] for it in untraced]
    mix = {k: kinds.count(k) for k in dict.fromkeys(wl.pattern)}
    print(f"items {len(untraced)} {json.dumps(mix)}  tail p{tail_p} with "
          f"{sum(w > tail for w in walls)} items beyond")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for e in errors[:10]:
        print(f"  FAILED {e}")

    if args.trace:
        traced_walls = [it["wall"] for it in items if it["traced"]]
        metrics = layer_metrics(*read_jsonl(r["trace"] for r in results))
        metrics["trace.overhead"] = sum(traced_walls) / sum(walls) - 1.0
        wanted = spec["per_layer"]
        print("traced and untraced data digests agree" if failed == 0 else
              "traced and untraced outputs DIFFER or fail checks")
        print("trace " + " ".join(os.path.relpath(r["trace"], root) for r in results))
    else:
        # Throughput, median latency and CPU per item over one pass of the
        # pool, each slot at its median over the run: a slow process or a
        # host stall moves them little, while a slower program moves every
        # visit.  The tail is taken over all items.
        per_slot: dict[int, list[dict]] = {}
        for it in untraced:
            per_slot.setdefault(it["slot"], []).append(it)
        slot_wall = [statistics.median(it["wall"] for it in v) for v in per_slot.values()]
        slot_cpu = [statistics.median(it["cpu"] for it in v) for v in per_slot.values()]
        metrics = {
            "throughput": len(slot_wall) / sum(slot_wall),
            "item_p50_ms": statistics.median(slot_wall) * 1e3,
            "item_tail_ms": tail * 1e3,
            "cpu_per_item_ms": statistics.mean(slot_cpu) * 1e3,
            "peak_rss_mib": max(r["peak_rss_mib"] for r in results),
            "setup_s": statistics.median(r["setup_s"] for r in results),
        }
        wanted = spec["end_to_end"]
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
    for name, m in wanted.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]["unit"]} for k in wanted},
    }
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "data_digest": data_digest, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, root: str, spec: dict) -> int:
    """Every workload in turn, each in its own process; one table, one JSON."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.save:
            cmd += ["--save", args.save]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {w} exited with {proc.returncode}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    first = results[spec["workloads"][0]]["metrics"]
    print(f"\n{'metric':28s} {'unit':10s}" + "".join(f"{w:>14s}" for w in results))
    for name in first:
        print(f"{name:28s} {first[name]['unit']:10s}" + "".join(
            f"{r['metrics'][name]['value']:14.6g}" for r in results.values()))
    print(f"{'failed_frac':28s} {'frac':10s}" + "".join(
        f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append this run's result as one JSON line to FILE")
    # Internal: the worker and generator processes of a run.
    p.add_argument("--worker", help=argparse.SUPPRESS)
    p.add_argument("--offset", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--generate", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dtmask", "cli.py")):
        return fail("src/dtmask not found; run from the root of a dtmask checkout")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        return fail("BENCHMARK.json not found; run from the root of a dtmask checkout")
    os.environ.pop("DTMASK_THREADS", None)
    spec = load_spec(root)
    if args.workload != "all" and args.workload not in spec["workloads"]:
        return fail(f"unknown workload {args.workload!r}; choose from {spec['workloads']} or all")
    if args.generate:
        workloads.generate(args.workload, args.seed, args.generate)
        print(json.dumps({"inputs": workloads.input_digest(args.generate)}))
        return 0
    if args.worker:
        return worker(args, root)
    if args.workload == "all":
        return run_all(args, root, spec)
    return run_workload(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
