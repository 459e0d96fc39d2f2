#!/usr/bin/env python3
"""Steadiness self-check for the perfbench benchmark.

Runs one workload several times and prints, for every metric, the median,
the quartiles, and the spread: the distance between the first and third
quartile as a share of the median (statistics.quantiles(values, n=4)). Each
spread is compared with the metric's bound in BENCHMARK.json; the target is
a third of the bound. Runs that share a seed must print the same decision
digest. A saved set can be compared with another: the second median may not
be worse than the first by more than the bound.

Run it from the repository root:

    python3 perfbench/steady.py run --workload feed-gt-1k --seeds 1-10 --out /tmp/a.json
    python3 perfbench/steady.py run --workload feed-gt-1k --seeds 1042x9,7 --trace 1
    python3 perfbench/steady.py compare /tmp/a.json /tmp/b.json

--seeds takes comma-separated items: N, A-B (every seed from A to B), or NxK
(seed N, K times).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(spec):
    seeds = []
    for item in spec.split(","):
        if "x" in item:
            seed, times = item.split("x")
            seeds += [int(seed)] * int(times)
        elif "-" in item[1:]:
            lo, hi = item.split("-")
            seeds += list(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(item))
    return seeds


def steal_jiffies():
    """Total CPU time stolen from this VM by its host, or 0 off Linux."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    steal, start = steal_jiffies(), time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    steal = steal_jiffies() - steal
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d):\n%s\n%s" % (proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    digests = [l.split(": ", 1)[1].split(" ")[0] for l in lines if l.startswith("digest ")]
    parts = [l.split(":", 1)[1].split() for l in lines if l.startswith("parts ")]
    return {"seed": seed, "result": result, "digests": digests, "parts": parts,
            "steal_jiffies": steal, "elapsed_s": elapsed}


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(bench, runs):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    names = sorted(runs[0]["result"]["metrics"])
    print("%-36s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(vals)
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, ok = "OVER BOUND", False
            elif spread > bound / 3:
                flag = "over bound/3"
        print("%-36s %14.6g %14.6g %14.6g %8.4f %8s %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, flag))
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    for r in bad:
        ok = False
        print("seed %d: correct=%s failed=%d" % (r["seed"], r["result"]["correct"], r["result"]["failed"]))
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(tuple(r["digests"]))
    for seed, ds in sorted(by_seed.items()):
        if len(ds) > 1:
            ok = False
            print("seed %d: decision digests differ between runs: %s" % (seed, ds))
    repeated = [s for s in by_seed if sum(r["seed"] == s for r in runs) > 1]
    if repeated and all(len(by_seed[s]) == 1 for s in repeated):
        print("decision digests repeat across the runs of seeds %s" % sorted(repeated))
    print("steady" if ok else "NOT STEADY")
    return ok


def compare(bench, a, b):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for name, m in sorted(metrics.items()):
        va = [r["result"]["metrics"][name]["value"] for r in a["runs"]]
        vb = [r["result"]["metrics"][name]["value"] for r in b["runs"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = "OVER BOUND" if worse > m["bound"] else ""
        ok = ok and not flag
        print("%-20s first %12.6g second %12.6g worse by %+.4f (bound %.2f) %s" % (name, ma, mb, worse, m["bound"], flag))
    print("sets agree" if ok else "SETS DISAGREE")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1042x9,7", help="seeds to run (default: the fixed default seed 9 times, then a second seed)")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--seconds", type=int)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    bench = load_bench()
    if args.cmd == "compare":
        with open(args.first) as f1, open(args.second) as f2:
            sys.exit(0 if compare(bench, json.load(f1), json.load(f2)) else 1)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(bench, args.workload, seed, seconds, args.trace))
        res = runs[-1]["result"]
        print("seed %d: correct=%s attempted=%d failed=%d steal=%d jiffies, %.1f s" % (
            seed, res["correct"], res["attempted"], res["failed"], runs[-1]["steal_jiffies"],
            runs[-1]["elapsed_s"]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    sys.exit(0 if report(bench, runs) else 1)


if __name__ == "__main__":
    main()
