"""One execution of one benchmark workload, in a fresh process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON line
with the set-up end, the timed phase, the operations and their failures,
the peak resident set, per-operation report digests and, when traced,
the per-layer summary.  Layout of one execution:

1. set-up: imports, field tables and, for ``enumerated-tables``, the
   graphs and dart tables that the checks read;
2. the timed phase: every operation of the workload, that is the
   program's work alone;
3. untimed checks: each report against closed forms and requested
   counts, the independent oracle, the non-split certificates, a second
   run of each `verify all` command, and the call counts of a traced
   execution.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import time
from contextlib import redirect_stderr, redirect_stdout, nullcontext

import oracle
from tracing import Tracer

# Sample counts per field of the sampled-cycles workload, each a whole
# number of checks; one execution takes about 4 s on the host described in
# README.md.
SAMPLED = {"fields": (4, 8, 16), "triangles": 1500, "quadrangles": 1000,
           "pentagons": 700, "long_cycles": 100, "reductive": 1500,
           "equiv_matrices": 20, "equiv_per_matrix": 60}
ORACLE = {"triangles": 100, "quadrangles": 60, "pentagons": 60, "table_darts": 2000}
VERIFY_ALL_SAMPLES = 1000
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
COVER_FILE = os.path.join(OUT, "cover.json")


def derive(seed: int, *labels) -> int:
    """A program seed derived from the workload seed and a label."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def digest(obj) -> str:
    data = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def require(problems: list, cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def check_report(rep: dict, mode: str | None = None, samples: int | None = None) -> list:
    problems = []
    require(problems, rep.get("passed") is True and rep.get("violations", 0) == 0,
            f"{rep.get('check')}: not passed")
    if mode is not None:
        require(problems, rep.get("mode") == mode, f"{rep.get('check')}: mode {rep.get('mode')}")
    if samples is not None:
        require(problems, rep.get("samples") == samples,
                f"{rep.get('check')}: samples {rep.get('samples')} != {samples}")
    return problems


def projective_size(q: int) -> tuple[int, int]:
    """Vertex count and degree of the projective point-hyperplane graph."""
    return (q ** 3 + q ** 2 + q + 1) * q ** 3, q ** 2 * (q ** 2 + q + 1)


# ----------------------------------------------------------------------
# sampled-cycles
# ----------------------------------------------------------------------

def sampled_setup(seed: int, part: str) -> dict:
    from phcover import construction, graphs
    from phcover.field import field_of_order

    return {"cons": construction, "graphs": graphs,
            "fields": {q: field_of_order(q) for q in SAMPLED["fields"]}}


def sampled_ops(state: dict, seed: int):
    cons, c = state["cons"], SAMPLED
    for q, gf in state["fields"].items():
        def s(label, q=q):
            return derive(seed, label, q)
        yield (f"triangles.q{q}", lambda gf=gf, s=s: cons.verify_triangles(
            gf, samples=c["triangles"], seed=s("triangles")),
            lambda r: check_report(r, "sample", c["triangles"]))
        yield (f"quadrangles.q{q}", lambda gf=gf, s=s: cons.verify_quadrangles(
            gf, samples=c["quadrangles"], seed=s("quadrangles")),
            lambda r: check_report(r, "sample", c["quadrangles"]))
        yield (f"pentagons.q{q}", lambda gf=gf, s=s: cons.verify_pentagons(
            gf, samples=c["pentagons"], seed=s("pentagons")),
            lambda r: check_report(r, "sample", c["pentagons"]))
        yield (f"long-cycles.q{q}", lambda gf=gf, s=s: cons.verify_long_cycles(
            gf, samples=c["long_cycles"], seed=s("long-cycles")),
            lambda r: check_report(r, "sample", 3 * c["long_cycles"]))
        yield (f"reductive.q{q}", lambda gf=gf, s=s: cons.reductivity_report(
            gf, samples=c["reductive"], seed=s("reductive")),
            lambda r: check_report(r, "sample", c["reductive"]))
        yield (f"equivariance.q{q}", lambda gf=gf, s=s: cons.equivariance_report(
            gf, n_matrices=c["equiv_matrices"], samples=c["equiv_per_matrix"],
            seed=s("equivariance")),
            lambda r: check_report(r, "sample", c["equiv_matrices"] * c["equiv_per_matrix"]))


def sampled_post(state: dict, seed: int, reports: dict) -> list:
    """The oracle recomputes seeded cycles drawn with the program's samplers."""
    cons, graphs = state["cons"], state["graphs"]
    problems = []
    for q, gf in state["fields"].items():
        f = oracle.Field(q)
        rng = random.Random(derive(seed, "oracle", q))
        draws = [(graphs.sample_triangle, oracle.is_u, ORACLE["triangles"]),
                 (graphs.sample_quadrangle, oracle.in_squares_plus_u, ORACLE["quadrangles"]),
                 (graphs.sample_pentagon, oracle.in_squares_plus_u, ORACLE["pentagons"])]
        for sampler, predicate, count in draws:
            for _ in range(count):
                cyc = list(sampler(gf, rng))
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    require(problems, oracle.voltage(f, a, b) == cons.dart_voltage(gf, a, b),
                            f"oracle: dart voltage differs over GF({q})")
                require(problems, predicate(oracle.cycle_voltage(f, cyc)),
                        f"oracle: {sampler.__name__} voltage over GF({q})")
    return problems


def sampled_trace_counts(state: dict, summary: dict, reports: dict) -> list:
    """Call counts of the traced execution against the requested samples."""
    c, nf = SAMPLED, len(SAMPLED["fields"])
    tri, quad, pent = c["triangles"] * nf, c["quadrangles"] * nf, c["pentagons"] * nf
    walks = 3 * c["long_cycles"] * nf
    walk_darts = sum((6, 7, 8)) * c["long_cycles"] * nf
    red = sum(r["samples"] for k, r in reports.items() if k.startswith("reductive"))
    equiv = sum(r["samples"] for k, r in reports.items() if k.startswith("equivariance"))
    want = {
        "graphs.sample_triangle": tri,
        "graphs.sample_quadrangle": quad,
        "graphs.sample_pentagon": pent,
        "graphs.sample_closed_walk": walks,
        "voltage.path_voltage": tri + quad + pent + walks,
        "multilinear.in_w2_plus_u": quad + pent + walks,
        "construction.dart_voltage": 3 * tri + 4 * quad + 5 * pent + walk_darts
                                      + 2 * red + 2 * equiv,
        "voltage.check_reductive": nf,
        "voltage.check_equivariance": nf,
        "multilinear.action": c["equiv_matrices"] * nf,
        "linalg.kernel": 2 * summary["graphs.sample_common_neighbor"]["calls"],
    }
    return [f"trace: {name} calls {summary.get(name, {}).get('calls', 0)} != {n}"
            for name, n in want.items() if summary.get(name, {}).get("calls", 0) != n]


# ----------------------------------------------------------------------
# enumerated-tables
# ----------------------------------------------------------------------

def enumerated_setup(seed: int, part: str) -> dict:
    from phcover import construction, graphs
    from phcover.field import field_of_order

    gf2, gf4 = field_of_order(2), field_of_order(4)
    g4 = graphs.build_projective_graph(gf4)
    g2 = graphs.build_affine_graph(gf2)
    return {"cons": construction, "gf2": gf2, "gf4": gf4, "g4": g4, "g2": g2,
            "t4": construction.voltage_table(g4), "t2": construction.voltage_table(g2)}


def enumerated_ops(state: dict, seed: int):
    cons, gf2, gf4 = state["cons"], state["gf2"], state["gf4"]
    counts = oracle.gf2_cycle_counts  # called by the checks, after the timed phase
    n4, deg4 = projective_size(4)

    def span(r):
        return check_report(r, "exhaustive", n4 * deg4 // 2 - (n4 - 1)) + (
            [] if r["dim_mod_u"] == 6 * gf4.k and r["contains_u"] else ["cycle-span: dimension"])

    def cover(r):
        return check_report(r, "exhaustive") + (
            [] if (r["vertices"], r["edges"], r["fiber_sizes"], r["connected"])
            == (counts()["vertices"] * 64, counts()["edges"] * 64, [64], True) else ["cover: counts"])

    def roundtrip(loaded):
        built = cons.cover_data()
        fibers = {}
        for b, _ in loaded["vertices"]:
            fibers[b] = fibers.get(b, 0) + 1
        ok = (loaded["vertices"] == [tuple(v) for v in built["vertices"]]
              and loaded["edges"] == [tuple(e) for e in built["edges"]]
              and len(loaded["edges"]) == counts()["edges"] * 64
              and sorted(fibers) == list(range(counts()["vertices"]))
              and set(fibers.values()) == {64})
        return [] if ok else ["cover round trip differs"]

    yield ("cycle-span.q4", lambda: cons.cycle_span_report(gf4, seed=derive(seed, "span")), span)
    yield ("diameter.q4", lambda: cons.diameter_report(gf4),
           lambda r: check_report(r, "exhaustive", n4) + ([] if r["diameter"] == 2 else ["diameter"]))
    yield ("fiber-cosets.q4", lambda: cons.fiber_coset_report(gf4, seed=derive(seed, "fibers")),
           lambda r: check_report(r, "sample", 100))
    yield ("cover.q2", cons.cover_report, cover)
    yield ("export-cover.q2", lambda: cons.export_cover(COVER_FILE),
           lambda r: [] if os.path.getsize(COVER_FILE) > 0 else ["export: empty file"])
    yield ("load-cover.q2", lambda: cons.load_cover(COVER_FILE), roundtrip)
    yield ("triangles.q2", lambda: cons.verify_triangles(gf2, "exhaustive"),
           lambda r: check_report(r, "exhaustive", counts()["triangles"]))
    yield ("quadrangles.q2", lambda: cons.verify_quadrangles(gf2, "exhaustive"),
           lambda r: check_report(r, "exhaustive", counts()["quadrangles"]))
    yield ("equivariance.q2", lambda: cons.equivariance_report(gf2, seed=derive(seed, "equivariance")),
           lambda r: check_report(r, "exhaustive", 100 * counts()["edges"]))


def enumerated_post(state: dict, seed: int, reports: dict) -> list:
    """Closed-form sizes of the enumerated graphs, and seeded darts of both
    dart tables against the oracle."""
    problems = []
    n4, deg4 = projective_size(4)
    g4, g2 = state["g4"], state["g2"]
    counts = oracle.gf2_cycle_counts()
    require(problems, g4.n == n4 and g4.edge_count() == n4 * deg4 // 2
            and all(g4.degree(i) == deg4 for i in range(g4.n)), "GF(4) graph size")
    require(problems, (g2.n, g2.edge_count()) == (counts["vertices"], counts["edges"])
            == (projective_size(2)[0], projective_size(2)[0] * projective_size(2)[1] // 2),
            "GF(2) graph size")
    require(problems, counts["triangles"] == 120 * 28 * 2 * 3 // 6, "GF(2) triangle count")
    rng = random.Random(derive(seed, "oracle"))
    for q, table in ((4, state["t4"]), (2, state["t2"])):
        f, g = oracle.Field(q), table.graph
        for _ in range(ORACLE["table_darts"]):
            i = rng.randrange(g.n)
            lo, hi = int(table.indptr[i]), int(table.indptr[i + 1])
            pos = rng.randrange(lo, hi)
            j = int(table.indices[pos])
            want = oracle.pack(f, oracle.voltage(f, g.vertices[i], g.vertices[j]))
            require(problems, int(table.volts[pos]) == want == table.dart(i, j),
                    f"oracle: dart table over GF({q})")
    return problems


def enumerated_trace_counts(state: dict, summary: dict, reports: dict) -> list:
    n4, deg4 = projective_size(4)
    dart = summary.get("voltage.DartTable.dart", {}).get("by_parent", {})
    want = {
        "construction.bulk_dart_voltage.darts": (
            summary["construction.bulk_dart_voltage"].get("darts"), n4 * deg4 + 2 * 1680),
        "voltage.component_of.lift_vertices": (
            summary["voltage.component_of"].get("lift_vertices"), 120 * 64),
        "DartTable.dart under verify_triangles": (
            dart.get("construction.verify_triangles"), 3 * reports["triangles.q2"]["samples"]),
        "DartTable.dart under verify_quadrangles": (
            dart.get("construction.verify_quadrangles"), 4 * reports["quadrangles.q2"]["samples"]),
        "DartTable.dart under check_equivariance": (
            dart.get("voltage.check_equivariance"), reports["equivariance.q2"]["samples"]),
    }
    return [f"trace: {k} {have} != {n}" for k, (have, n) in want.items() if have != n]


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------

def verify_all_setup(seed: int, part: str) -> dict:
    from phcover import cli, construction
    from phcover.field import field_of_order

    gf = field_of_order(int(part))
    _ = gf.mul_table, gf.inv_table  # the numpy field tables are built lazily
    return {"cli": cli, "cons": construction, "gf": gf}


def expected_verify_all(q: int, check: str, mode: str):
    """Sample counts of `verify all --samples S` reports, from the flags and
    closed forms; None where the report carries no count to compare."""
    s = VERIFY_ALL_SAMPLES
    n, deg = projective_size(q)
    if mode == "sample":
        return {"reductive": s, "triangles": s, "quadrangles": s, "pentagons": s,
                "long-cycles": 3 * (s // 100), "equivariance": 20 * (s // 10),
                "main-theorem": s // 10, "u-invariance": 120}.get(check)
    if mode != "exhaustive":
        return None
    if q == 2:
        counts = oracle.gf2_cycle_counts()
        gf2 = {"triangles": counts["triangles"], "quadrangles": counts["quadrangles"],
               "equivariance": 100 * counts["edges"],
               # reduct classes over GF(2) are singletons: no pairs to compare
               "reductive": 0}
        if check in gf2:
            return gf2[check]
    return {"cycle-span": n * deg // 2 - (n - 1), "nonsplit-bruteforce": 4096 ** 2,
            "cocycle": 16, "dart-lambda": 8, "diameter": n, "order2-space": 3}.get(check)


def verify_all_command(state: dict, seed: int) -> dict:
    """One `verify all` command for the execution's field, output captured."""
    argv = ["verify", "all", "--field", str(state["gf"].order),
            "--samples", str(VERIFY_ALL_SAMPLES), "--seed", str(derive(seed, "verify-all"))]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = state["cli"].main(argv)
    return {"code": code, "text": out.getvalue()}


def verify_all_ops(state: dict, seed: int):
    gf = state["gf"]
    q, k = gf.order, gf.k

    def check(res):
        if res["code"] != 0:
            return [f"exit code {res['code']}"]
        doc = json.loads(res["text"])
        problems = [] if doc["passed"] else ["report not passed"]
        for r in doc["results"]:
            if r.get("status") == "not-applicable":
                require(problems, q == 2 and r["passed"], f"{r['check']}: not applicable")
                continue
            problems += check_report(r, samples=expected_verify_all(q, r["check"], r.get("mode")))
            if r["check"] == "cycle-span":
                require(problems, r["dim_mod_u"] == 6 * k and r["contains_u"],
                        "cycle-span: dimension")
                require(problems, r["sampled_walks"] == (2000 if q > 4 else 0),
                        "cycle-span: sampled walks")
            if r["check"] == "order2-space":
                require(problems, all(p["solution_dim"] == 4 * k for p in r["parts"]),
                        "order2-space: dimension")
            if r["check"] == "diameter":
                require(problems, r["diameter"] == 2, "diameter")
            if r["check"] == "nonsplit-bruteforce":
                require(problems, r["subgroup_lifts"] == 0, "brute force found a lift")
            if r["check"] == "main-theorem" and q == 2:
                c = r["parts"]["cover"]
                require(problems, (c["vertices"], c["edges"], c["fiber_sizes"])
                        == (120 * 64, 1680 * 64, [64]), "cover counts")
        return problems

    yield (f"verify-all.q{q}", lambda: verify_all_command(state, seed), check)


def verify_all_post(state: dict, seed: int, reports: dict) -> list:
    """A second run of the command gives the same bytes, and every
    non-split certificate y satisfies yA = 0 and y.b = 1 over F2."""
    import numpy as np

    gf = state["gf"]
    problems = []
    for res in reports.values():
        if res is None or res["code"] != 0:
            continue
        require(problems, verify_all_command(state, seed) == res,
                f"verify all over GF({gf.order}): a second run differs")
        for r in json.loads(res["text"])["results"]:
            if r["check"] != "nonsplit" or r.get("status") == "not-applicable":
                continue
            a, b = state["cons"].splitting_system(gf)
            y = np.zeros(a.shape[0], dtype=np.int64)
            y[r["certificate"]] = 1
            require(problems, not ((y @ a) % 2).any() and int(y @ b) % 2 == 1,
                    f"nonsplit certificate over GF({gf.order})")
    return problems


def verify_all_trace_counts(state: dict, summary: dict, reports: dict) -> list:
    q = state["gf"].order
    calls = {name: rec["calls"] for name, rec in summary.items()}
    s = VERIFY_ALL_SAMPLES
    want = {"construction.nonsplit_check": 1,
            "construction.brute_force_splitting_gf4": 1 if q == 4 else 0,
            # cycle_span_report runs twice (cycles suite and main theorem), and
            # over GF(16) each run builds its subgraph's table dart by dart
            "voltage.DartTable.from_scalar": 2 if q == 16 else 0,
            "linalg.solve_affine_f2": 4 if q > 2 else 0,
            "graphs.sample_triangle": s + s // 10 if q > 2 else 0,
            "graphs.sample_pentagon": s}
    return [f"trace: {name} calls {calls.get(name, 0)} != {n}"
            for name, n in want.items() if calls.get(name, 0) != n]


WORKLOADS = {
    "sampled-cycles": (sampled_setup, sampled_ops, sampled_post, sampled_trace_counts),
    "enumerated-tables": (enumerated_setup, enumerated_ops, enumerated_post,
                          enumerated_trace_counts),
    "verify-all": (verify_all_setup, verify_all_ops, verify_all_post, verify_all_trace_counts),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--part", default="all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    setup, ops, post, trace_counts = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = setup(args.seed, args.part)

    t_first = time.monotonic()
    done = []
    for name, call, check in ops(state, args.seed):
        span = tracer.span(f"op.{name}") if tracer else nullcontext()
        try:
            with span:
                done.append((name, call(), check, None))
        except Exception as exc:  # an operation that raises counts as failed
            done.append((name, None, check, f"{type(exc).__name__}: {exc}"))
    wall = time.monotonic() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, errors, reports = 0, [], {}
    for name, rep, check, error in done:
        try:
            problems = [error] if error else check(rep)
        except Exception as exc:  # a report the check cannot read
            problems = [f"check: {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            errors.append(f"{name}: {problems[:3]}")
        reports[name] = rep

    digests = {name: digest(rep["text"] if args.workload == "verify-all" else rep)
               for name, rep in reports.items() if rep is not None}

    summary = None
    problems = []
    if tracer:
        tracer.uninstall()
        summary = tracer.summary()
        if not failed:  # the expected counts assume every operation ran to its end
            problems += trace_counts(state, summary, reports)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.part}.tsv.gz"))
    problems += post(state, args.seed, reports)
    print(json.dumps({
        "t_first_call": t_first, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
        "attempted": len(reports), "failed": failed, "errors": errors,
        "problems": problems, "digests": digests, "layers": summary,
    }))


if __name__ == "__main__":
    main()
