#!/usr/bin/env python3
"""Compare two result sets of the benchmark, or summarise one.

    python3 benchmark/run.py --workload codec --seed 1 --save parent.jsonl   # repeat
    python3 benchmark/compare.py parent.jsonl change.jsonl
    python3 benchmark/compare.py parent.jsonl          # medians and quartiles only

A result set is the JSON-lines file that `run.py --save` appends to.
Only untraced runs (`--trace 0`) are compared.  For each workload and
end-to-end metric it prints both sides' median and quartiles, the pairs
the change won (runs paired by seed, else in order), and a verdict
against the metric's bound in BENCHMARK.json:

  better      the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run
  worse       the change's median is worse than the parent's by more than
              the bound
  within bound  otherwise

It also prints each side's failed_frac and whether the data digests of
runs on the same seed agree (identical output data rows).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_frac(recs: list[dict]) -> float:
    att = sum(r["result"]["attempted"] for r in recs)
    return sum(r["result"]["failed"] for r in recs) / att if att else 0.0


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    if len(by_seed) == len(change) and all(r["seed"] in by_seed for r in parent):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def beats(a: float, b: float, metric: dict) -> bool:
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric: dict, p_vals, c_vals, won: int, n_pairs: int) -> str:
    q1, med_p, q3 = quartiles(p_vals)
    med_c = statistics.median(c_vals)
    worse_by = (med_c - med_p) / med_p * (1 if metric["better"] == "lower" else -1)
    all_better = all(beats(c, p, metric) for c in c_vals for p in p_vals)
    if n_pairs and won >= 0.9 * n_pairs and worse_by < 0 and abs(med_c - med_p) > q3 - q1:
        return "better"
    if (q3 - q1) / med_p > metric["bound"] and not all_better:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    sets = [load(p) for p in argv]
    for w in [x["name"] for x in spec["workloads"]]:
        if not all(w in s for s in sets):
            continue
        parent = sets[0][w]
        change = sets[-1][w]
        head = f"{w}: parent {len(parent)} runs, failed_frac {failed_frac(parent):.4g}"
        if len(sets) == 2:
            head += f"; change {len(change)} runs, failed_frac {failed_frac(change):.4g}"
            same = [p["data_digest"] == c["data_digest"]
                    for p, c in pairs(parent, change) if p["seed"] == c["seed"]]
            if same:
                head += f"; data digests equal on {sum(same)}/{len(same)} seeds"
        print(head)
        for m in metrics:
            name = m["name"]
            p_vals = [r["result"]["metrics"][name]["value"] for r in parent]
            q1, med, q3 = quartiles(p_vals)
            line = (f"  {name:16s} {m['unit']:8s} parent {med:11.5g} [{q1:.5g}, {q3:.5g}]"
                    f" spread {(q3 - q1) / med:6.3f}")
            if len(sets) == 2:
                c_vals = [r["result"]["metrics"][name]["value"] for r in change]
                cq1, cmed, cq3 = quartiles(c_vals)
                ps = pairs(parent, change)
                won = sum(beats(c["result"]["metrics"][name]["value"],
                                p["result"]["metrics"][name]["value"], m) for p, c in ps)
                line += (f"  change {cmed:11.5g} [{cq1:.5g}, {cq3:.5g}]  won {won}/{len(ps)}"
                         f"  bound {m['bound']:.2f}  {verdict(m, p_vals, c_vals, won, len(ps))}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
