#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py [--out FILE]

Each set runs every workload of BENCHMARK.json ten times, one seed per
run (set one seeds 1..10, set two seeds 11..20), interleaving workloads
so that a slow phase of the host falls on all of them.  For each
end-to-end metric it prints the median and quartiles of each set, the
spread (quartile distance over median) and the change of the second
median over the first, and whether the spreads and the change, in
either direction, stay within the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["run_s"] = time.monotonic() - start
    return res


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for s in range(2):
        runs = {w: [] for w in workloads}
        for i in range(RUNS):
            for w in workloads:
                res = one_run(spec, w, 1 + s * RUNS + i)
                runs[w].append(res)
                print(f"set {s + 1} run {i + 1} {w}: " + ", ".join(
                    f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                    + f" failed={res['failed']}/{res['attempted']} run_s={res['run_s']:.1f}",
                    file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    report = {}
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        share = {x["failed"] / x["attempted"] for x in a + b}
        correct = all(x["correct"] for x in a + b)
        print(f"\n{w}: failed share {sorted(share)}, correct {correct}, "
              f"run length median {statistics.median(x['run_s'] for x in a + b):.1f} s")
        ok &= len(share) == 1 and correct
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = stats([x["metrics"][name]["value"] for x in a])
            sb = stats([x["metrics"][name]["value"] for x in b])
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if m["better"] == "higher":
                worse = -worse
            fits = abs(worse) <= bound and max(sa["spread"], sb["spread"]) <= bound
            ok &= fits
            print(f"  {name:12s} bound {bound:.2f}  "
                  + "  ".join(f"set{i + 1} median {st['median']:.4f} "
                              f"[{st['q1']:.4f}, {st['q3']:.4f}] spread {st['spread']:.3f}"
                              for i, st in enumerate((sa, sb)))
                  + f"  change {worse:+.3f}  {'ok' if fits else 'OUTSIDE BOUND'}")
            report.setdefault(w, {})[name] = {"set1": sa, "set2": sb, "change": worse}
    print(f"\nsteady: {'yes' if ok else 'no'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"summary": report, "runs": sets}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
