#!/usr/bin/env python3
"""Steadiness command: two batches of the same code, made apart in time.

    python3 e2ebench/steady.py

Each batch runs every workload in BENCHMARK.json once per seed (seeds
1-10, workloads interleaved), untraced, for BENCHMARK.json's
run_seconds, through e2ebench/run.sh from the checkout root, and checks
that each run reports exactly BENCHMARK.json's end-to-end metrics with
their units. The second batch starts 120 s after the first ends, on the
same seeds, so only the time differs. For every (workload, end-to-end
metric) pair it prints each batch's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and how much
worse the second median is than the first, against the metric's bound.
Raw results go to .bench_out/steady-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
GAP_S = 120


def run_once(workload, seed, seconds, units):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        raise SystemExit(f"{workload} seed {seed} reported {got}, BENCHMARK.json lists {units}")
    result["wall_s"] = wall
    return result


def batch(name, workloads, seeds, seconds, units):
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, seconds, units)
            results[w].append(r)
            summary = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"[{name}] {w} seed {seed} ({r['wall_s']:.0f} s, {r['failed']}/{r['attempted']} failed): {summary}",
                  flush=True)
    return results


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(bench, batches):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    header = f"{'workload':<10} {'metric':<15} {'bound':>5}"
    for _ in batches:
        header += f" | {'median':>9} {'Q1':>9} {'Q3':>9} {'spread':>6}"
    print(header + f" | {'worse':>6} verdict")
    for w in batches[0]:
        for name, m in metrics.items():
            row = f"{w:<10} {name:<15} {m['bound']:>5.2f}"
            meds = []
            worst_spread = 0.0
            for b in batches:
                values = [r["metrics"][name]["value"] for r in b[w]]
                med, q1, q3, spread = stats(values)
                meds.append(med)
                worst_spread = max(worst_spread, spread)
                row += f" | {med:>9.4g} {q1:>9.4g} {q3:>9.4g} {100 * spread:>5.1f}%"
            verdict = []
            if name != "setup_s" and worst_spread > m["bound"]:
                verdict.append("SPREAD OVER BOUND")
                ok = False
            elif name != "setup_s" and worst_spread > m["bound"] / 3:
                verdict.append("spread over bound/3")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            row += f" | {100 * worse:>+5.1f}%"
            if worse > m["bound"]:
                verdict.append("WORSE THAN BOUND")
                ok = False
            print(row + " " + (", ".join(verdict) or "ok"))
    for w in batches[0]:
        shares = {sum(r["failed"] for r in b[w]) / sum(r["attempted"] for r in b[w]) for b in batches}
        print(f"{w}: failed share per batch {sorted(shares)}")
        if len(shares) > 1:
            ok = False
    return ok


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    first = batch("A", workloads, SEEDS, seconds, units)
    print(f"waiting {GAP_S} s before the next batch", flush=True)
    time.sleep(GAP_S)
    batches = [first, batch("B", workloads, SEEDS, seconds, units)]
    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "seeds": SEEDS, "batches": batches}, indent=1))
    print(f"raw results: {out}")
    ok = report(bench, batches)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
