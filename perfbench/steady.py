#!/usr/bin/env python3
"""Steadiness report: run the benchmark over several seeds and show how
much each metric moves from run to run.

    python3 perfbench/steady.py --workloads fleet,serve --seeds 1-10 \
        [--seconds 20] [--save perfbench/_out/set1.json] \
        [--against perfbench/_out/set0.json]

For every metric it prints the median and quartiles across the runs and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, each run's steal share and nproc, and a host line.
--against compares each median with a saved earlier set, as a second set
of runs of the same code must agree within the bound.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, host, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json")) if os.path.exists("BENCHMARK.json") else {}
    seconds = a.seconds or bench.get("run_seconds", 20)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    earlier = json.load(open(a.against)) if a.against else {}
    print("host: %s %s, nproc %d, python %s; %d s per run" % (
        platform.machine(), platform.release(), bl.nproc(), platform.python_version(), seconds))
    saved, worst = {}, 0
    for w in a.workloads.split(","):
        values = {}
        for seed in seeds_of(a.seeds):
            code, host, res = run_one(w, seed, seconds)
            ok = res is not None and res["correct"] and res["failed"] == 0 and code == 0
            print("%-10s seed %-4d exit %d %-7s steal %5.2f%% nproc %s attempted %s failed %s" % (
                w, seed, code, "ok" if ok else "FAILED", 100 * host.get("steal_share", 0),
                host.get("nproc", "?"), res and res["attempted"], res and res["failed"]))
            if not ok:
                worst = max(worst, 2)
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = values
        print("%-10s %-30s %12s %12s %12s %8s %6s" % (w, "metric", "q1", "median", "q3",
                                                       "spread", "bound"))
        for name, xs in values.items():
            q1, q2, q3 = bl.quartiles(xs)
            bound = bounds.get(name)
            sp = bl.spread(xs)
            flag = ""
            if bound is not None:
                flag = "steady" if sp < bound / 3 else ("within" if sp <= bound else "NOISY")
                worst = max(worst, 1 if flag == "NOISY" else 0)
            drift = ""
            if name in earlier.get(w, {}):
                m0 = bl.median(earlier[w][name])
                d = (q2 - m0) / m0 if m0 else 0.0
                drift = " drift %+.1f%%" % (100 * d)
            print("%-10s %-30s %12.4f %12.4f %12.4f %7.1f%% %6s %s%s" % (
                w, name, q1, q2, q3, 100 * sp, "-" if bound is None else "%g" % bound,
                flag, drift))
    if a.save:
        with open(a.save, "w") as f:
            json.dump(saved, f)
    return worst


if __name__ == "__main__":
    sys.exit(main())
