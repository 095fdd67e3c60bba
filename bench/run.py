#!/usr/bin/env python3
"""The phcover benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each execution of a workload is a fresh
process (``worker.py``) with one thread, so that no cache of the package
carries work from one execution into the next.  A run repeats whole rounds
of executions with the same inputs until ``--seconds`` are used up, checks
every report, and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics ``wall_s`` (median timed phase of
  a round), ``setup_s`` (median set-up of an execution) and
  ``peak_rss_mb`` (median over rounds of the largest resident set);
* ``--trace 1``: each round runs once untraced and once traced, and the
  per-layer metrics come from the traced executions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# the executions that make one round of each workload
WORKLOADS = {
    "sampled-cycles": ("all",),
    "enumerated-tables": ("all",),
    "verify-all": ("2", "4", "8", "16"),
}
# a run ends within 180 s: no worker may outlive this share of it
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def execute(workload: str, part: str, seed: int, traced: bool, deadline: float) -> dict:
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", workload, "--part", part,
           "--seed", str(seed), "--trace", str(int(traced))]
    t_spawn = time.monotonic()
    # run() kills the worker on timeout and waits for it either way
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        raise BenchError(f"worker {workload}/{part} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["t_first_call"] - t_spawn
    return res


def run_rounds(workload: str, seed: int, seconds: float, traced: bool) -> list:
    """Whole rounds until the next one would end past `seconds`; at least one.
    A round is a list of (untraced, traced-or-None) execution pairs."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append([(execute(workload, part, seed, False, deadline),
                        execute(workload, part, seed, True, deadline) if traced else None)
                       for part in WORKLOADS[workload]])
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - t0) > seconds:
            return rounds


def merge_layers(summaries: list) -> dict:
    total: dict = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = total.setdefault(name, {"by_parent": {}})
            for key, value in rec.items():
                if key == "by_parent":
                    for parent, n in value.items():
                        acc["by_parent"][parent] = acc["by_parent"].get(parent, 0) + n
                else:
                    acc[key] = acc.get(key, 0) + value
    return total


CHECKS = ("verify_triangles", "verify_quadrangles", "verify_pentagons", "verify_long_cycles",
          "cycle_span_report", "reductivity_report", "equivariance_report",
          "fiber_coset_report", "build_cover", "cover_report", "export_cover", "load_cover",
          "nonsplit_check", "brute_force_splitting_gf4", "order2_report", "cocycle_report",
          "phi_table_report")
CYCLE_SAMPLERS = ("graphs.sample_triangle", "graphs.sample_quadrangle",
                  "graphs.sample_pentagon", "graphs.sample_closed_walk")


def layer_metrics(layers: dict, rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics of one round.  `.s` is self time (span duration
    minus child spans), `.us_per_call`/`.ns_per_call` the whole span per
    call, `cli.main.qN.s` the whole command for field N."""

    def get(name, key="calls"):
        return layers.get(name, {}).get(key, {} if key == "by_parent" else 0)

    def per(name, num_key, den, scale):
        return get(name, num_key) / den * scale if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def self_s(name):
        put(f"{name}.s", get(name, "self_s") / rounds, "s")

    def calls(name):
        put(f"{name}.calls", get(name) // rounds, "count")

    def per_call(name, unit, scale):
        put(f"{name}.{unit}_per_call", per(name, "incl_s", get(name), scale), unit)

    for name in ("graphs.build_projective_graph", "graphs.build_affine_graph", "graphs.diameter"):
        self_s(name)
    for name in CYCLE_SAMPLERS:
        per_call(name, "us", 1e6)
    draws = sum(n for parent, n in get("graphs.random_affine_vertex", "by_parent").items()
                if parent in CYCLE_SAMPLERS)
    cycles = sum(get(name) for name in CYCLE_SAMPLERS)
    put("graphs.random_affine_vertex.per_cycle", draws / cycles if cycles else 0.0, "draws/cycle")
    put("graphs.sample_common_neighbor.accept_ratio",
        per("graphs.sample_common_neighbor", "accepted", get("graphs.sample_common_neighbor"), 1),
        "ratio")
    calls("linalg.kernel")
    per_call("linalg.kernel", "us", 1e6)
    self_s("linalg.solve_affine_f2")
    self_s("multilinear.action")
    calls("multilinear.in_w2_plus_u")
    calls("construction.dart_voltage")
    per_call("construction.dart_voltage", "us", 1e6)
    bulk = "construction.bulk_dart_voltage"
    put(f"{bulk}.darts", get(bulk, "darts") // rounds, "count")
    put(f"{bulk}.ns_per_dart", per(bulk, "incl_s", get(bulk, "darts"), 1e9), "ns")
    self_s("construction.voltage_table")
    put("construction.export_cover.bytes", get("construction.export_cover", "bytes") // rounds,
        "bytes")
    for check in CHECKS:
        self_s(f"construction.{check}")
    calls("voltage.path_voltage")
    per_call("voltage.path_voltage", "us", 1e6)
    calls("voltage.DartTable.dart")
    per_call("voltage.DartTable.dart", "ns", 1e9)
    for name in ("voltage.DartTable.from_scalar", "voltage.spanning_tree_potentials",
                 "voltage.fundamental_cycle_span"):
        self_s(name)
    put("voltage.fundamental_cycle_span.distinct_voltages",
        get("voltage.fundamental_cycle_span", "distinct_voltages") // rounds, "count")
    self_s("voltage.component_of")
    put("voltage.component_of.lift_vertices",
        get("voltage.component_of", "lift_vertices") // rounds, "count")
    for name in ("voltage.verify_local_isomorphism", "voltage.check_reductive",
                 "voltage.check_equivariance"):
        self_s(name)
    for q in (2, 4, 8, 16):
        put(f"cli.main.q{q}.s", get(f"cli.main.q{q}", "incl_s") / rounds, "s")
    put("trace.overhead_s", overhead_s, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "phcover")):
        print(f"error: no phcover sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    execs = [e for rnd in rounds for pair in rnd for e in pair if e is not None]
    attempted = sum(e["attempted"] for e in execs)
    failed = sum(e["failed"] for e in execs)
    problems = [p for e in execs for p in e["problems"]]
    # every round of a run has the same inputs, so the same reports
    for part_execs in zip(*rounds):
        digests = {json.dumps(e["digests"], sort_keys=True)
                   for pair in part_execs for e in pair if e is not None}
        if len(digests) > 1:
            problems.append("reports differ between executions with the same inputs")
    for e in execs:
        for err in e["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    for p, n in Counter(problems).items():
        print(f"check: {p} (x{n})", file=sys.stderr)

    if args.trace:
        walls = [(sum(u["wall_s"] for u, _ in rnd), sum(t["wall_s"] for _, t in rnd))
                 for rnd in rounds]
        overhead = statistics.median(t - u for u, t in walls)
        traced = []
        for rnd in rounds:
            for (_, t), part in zip(rnd, WORKLOADS[args.workload]):
                layers = dict(t["layers"])
                if args.workload == "verify-all":
                    layers[f"cli.main.q{part}"] = layers.get(f"op.verify-all.q{part}", {})
                traced.append(layers)
        metrics = layer_metrics(merge_layers(traced), len(rounds), overhead)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(sum(u["wall_s"] for u, _ in rnd)
                                                  for rnd in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(e["setup_s"] for e in execs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(max(u["peak_rss_mb"] for u, _ in rnd)
                                                       for rnd in rounds), "unit": "MB"},
        }
    print(f"rounds: {len(rounds)}, executions: {len(execs)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
