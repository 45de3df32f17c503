#!/usr/bin/env python3
"""Alternating parent/change runs of e2ebench, summarised as BENCH_<pr>.json.

Runs `bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0`
in two checkouts, the parent and the change, one pair per seed. The side
that runs first alternates from pair to pair, so that a drift of the
host over the session does not favour one side. Every run is appended
to a log as soon as it ends: its result line, which side ran first in
its pair, and the host's steal ticks (the `steal` column of the `cpu`
line of /proc/stat, in 1/100 s) over the run. A second invocation with
the same log skips the runs it already holds, so a long session can be
resumed or split by workload.

The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles over the seeds and the number of pairs
the change won; held-out seeds are counted apart. With `--traced-seed`
one `--trace 1` run per side per workload adds its `search.*` and
`prepare.*` figures.

    python3 scripts/bench_pairs.py --pr 17 --parent ../parent --change . \\
        --workloads deep_16k wire_6k --seeds 1-10 --held-out 11-12 \\
        --traced-seed 1 --log .bench_out/pairs.jsonl --out BENCH_17.json

Build each checkout once (`bash e2ebench/run.sh` does it on its first
run) before timing anything; `--summarize-only` writes the summary from
the log without running.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text):
    """'1-10' or '3' or '1,4,7' as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def steal_ticks():
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] == "cpu":
                return int(fields[8]) if len(fields) > 8 else 0
    return 0


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = steal_ticks()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    steal = steal_ticks() - before
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    sums = [l for l in proc.stderr.splitlines() if l.startswith("sum check")]
    return {"exit": proc.returncode, "steal_ticks": steal, "result": result,
            "sum_checks": sums, "stderr_tail": [] if result else proc.stderr.splitlines()[-5:]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metric(run, name):
    return run["result"]["metrics"][name]["value"]


def summarize(runs, metrics, workload, seeds, held_out):
    ok = [r for r in runs if r["workload"] == workload and r["trace"] == 0 and r["result"]]
    by = {(r["seed"], r["side"]): r for r in ok}
    out = {"seeds": seeds, "held_out": held_out, "metrics": {}}
    for m in metrics:
        name, better = m["name"], m["better"]
        won = lambda c, p: c < p if better == "lower" else c > p
        entry = {"unit": m["unit"], "better": better}
        for label, group in (("pairs", seeds), ("held_out", held_out)):
            pairs = [(metric(by[s, "parent"], name), metric(by[s, "change"], name))
                     for s in group if (s, "parent") in by and (s, "change") in by]
            if not pairs:
                continue
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            entry[label] = {
                "parent": quartiles(parent) if len(parent) > 1 else {"values": parent},
                "change": quartiles(change) if len(change) > 1 else {"values": change},
                "change_won": sum(won(c, p) for p, c in pairs),
                "of": len(pairs),
            }
        if "pairs" in entry and "median" in entry["pairs"]["parent"]:
            p, c = entry["pairs"]["parent"]["median"], entry["pairs"]["change"]["median"]
            entry["median_change_pct"] = round(100.0 * (c - p) / p, 1)
        out["metrics"][name] = entry
    out["all_correct"] = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in ok)
    out["runs"] = sorted(
        ({k: r[k] for k in ("seed", "side", "first", "steal_ticks")} | {
            "correct": r["result"]["correct"], "failed": r["result"]["failed"],
            "metrics": {n: v["value"] for n, v in r["result"]["metrics"].items()}}
         for r in ok),
        key=lambda r: (r["seed"], r["side"]))
    traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1 and r["result"]]
    if traced:
        out["traced"] = {r["side"]: {
            "seed": r["seed"], "sum_checks": r["sum_checks"],
            "metrics": {n: v["value"] for n, v in r["result"]["metrics"].items()
                        if n.startswith(("search.", "prepare."))}} for r in traced}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", default=["deep_16k", "wire_6k"])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--held-out", type=seed_range, default=[])
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--log", type=Path, required=True, help="JSON-lines log of every run")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--summarize-only", action="store_true")
    args = ap.parse_args()

    runs = [json.loads(l) for l in args.log.read_text().splitlines()] if args.log.exists() else []
    done = {(r["workload"], r["seed"], r["side"], r["trace"]) for r in runs if r["result"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    plan = []
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds + args.held_out):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            plan += [(workload, seed, side, order[0], 0) for side in order]
        if args.traced_seed is not None:
            plan += [(workload, args.traced_seed, side, "parent", 1) for side in ("parent", "change")]
    args.log.parent.mkdir(parents=True, exist_ok=True)
    for workload, seed, side, first, trace in [] if args.summarize_only else plan:
        if (workload, seed, side, trace) in done:
            continue
        record = {"workload": workload, "seed": seed, "side": side, "first": first,
                  "trace": trace} | run_once(checkouts[side], workload, seed, args.seconds, trace)
        runs.append(record)
        with args.log.open("a") as f:
            f.write(json.dumps(record) + "\n")
        value = record["result"] and record["result"]["metrics"].get("cpu_us_per_req", {}).get("value")
        print(f"{workload} seed {seed} {side} trace {trace}: exit {record['exit']} "
              f"cpu_us_per_req {value} steal {record['steal_ticks']}", file=sys.stderr, flush=True)

    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    summary = {
        "pr": args.pr,
        "command": f"bash e2ebench/run.sh --workload W --seed N --seconds {args.seconds} --trace 0",
        "order": "pairs alternate which side runs first, parent first on the first pair",
        "steal": "steal_ticks: /proc/stat cpu steal over the run, in 1/100 s",
        "workloads": {w: summarize(runs, metrics, w, args.seeds, args.held_out)
                      for w in args.workloads},
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
