"""Command-line entry point.

Two subcommands:

* ``phcover verify SUITE``  runs a verification suite and writes a JSON
  report; exit code 0 when every check passes, 1 on a verification
  failure, 2 on usage errors.
* ``phcover export WHAT``   writes the base graph or the 64-fold GF(2)
  cover as deterministic JSON or an edge list, to ``--out`` or stdout.

All randomness is seeded, so reports and exports are byte-identical
across runs with the same flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import construction as cons
from ._lazy import np
from .field import field_of_order
from .graphs import build_projective_graph, edge_blocks
from .voltage import CapExceeded

# each suite's reports from (field, samples, seed), in the order
# `verify all` runs the suites
SUITE_REPORTS = {
    "reductive": lambda gf, n, seed: [cons.reductivity_report(gf, samples=n, seed=seed)],
    "triangles": lambda gf, n, seed: [cons.verify_triangles(gf, samples=n, seed=seed)],
    "quadrangles": lambda gf, n, seed: [cons.verify_quadrangles(gf, samples=n, seed=seed)],
    "pentagons": lambda gf, n, seed: [cons.verify_pentagons(gf, samples=n, seed=seed)],
    "cycles": lambda gf, n, seed: [cons.cycle_span_report(gf, seed=seed)] + (
        [cons.verify_long_cycles(gf, samples=max(1, n // 100), seed=seed),
         cons.diameter_report(gf)] if gf.order <= 4 else []),
    "equivariance": lambda gf, n, seed: [
        cons.equivariance_report(gf, samples=max(1, n // 10), seed=seed),
        cons.u_invariance_report(gf, seed=seed), cons.phi_table_report(gf)],
    "main-theorem": lambda gf, n, seed: [
        cons.verify_main_theorem(gf, seed=seed, samples=max(1, n // 10))],
    "cocycle": lambda gf, n, seed: [cons.dart_lambda_report(gf), cons.cocycle_report(gf)],
    "nonsplit": lambda gf, n, seed: [cons.nonsplit_check(gf), cons.order2_report(gf)] + (
        [cons.brute_force_splitting_gf4()] if gf.order == 4 else []),
}
SUITES = (*SUITE_REPORTS, "all")


def cmd_verify(cfg) -> int:
    gf = field_of_order(cfg.field)
    with _output(cfg.out) as fh:
        reports = [r for name in (SUITE_REPORTS if cfg.suite == "all" else [cfg.suite])
                   for r in SUITE_REPORTS[name](gf, cfg.samples, cfg.seed)]
        passed = all(r["passed"] for r in reports)
        doc = {
            "suite": cfg.suite,
            "config": {"field": cfg.field, "samples": cfg.samples, "seed": cfg.seed},
            "results": reports,
            "passed": passed,
        }
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        extra = f" [{r['status']}: {r['reason']}]" if "status" in r else ""
        print(f"{status} {r['check']} field={r['field']}{extra}", file=sys.stderr)
    return 0 if passed else 1


def _write_graph(fh, graph, fmt: str) -> None:
    """Write the projective base graph as an edge list, or as the compact
    JSON document with sorted keys that json.dumps gives, the edges a block
    at a time."""
    q, n, m = graph.gf.order, graph.n, graph.edge_count()
    edges = (np.stack([i, j], axis=1) for i, j, _ in edge_blocks(graph))
    if fmt == "edgelist":
        fh.write(f"# projective field={q} vertices={n} edges={m}\n")
        cons._write_rows(fh, edges, "e %d %d\n")
        return
    fh.write(f'{{"edge_count":{m},"edges":[')
    cons._write_rows(fh, edges, "[%d,%d]", ",")
    # the vertices' (vector, covector) tuples encode as JSON arrays
    fh.write(f'],"field":{q},"kind":"projective","vertex_count":{n},'
             f'"vertices":{json.dumps(graph.vertices, separators=(",", ":"))}}}\n')


def cmd_export(cfg) -> int:
    if cfg.what == "cover" and cfg.field != 2:
        print("error: the full cover export is limited to GF(2)", file=sys.stderr)
        return 2
    if cfg.what == "base-graph" and cfg.field > 4:
        print("error: base-graph export is limited to GF(2) and GF(4)", file=sys.stderr)
        return 2
    with _output(cfg.out) as fh:
        if cfg.what == "cover":
            cons._write_cover(fh, cfg.format)
        else:
            _write_graph(fh, build_projective_graph(field_of_order(cfg.field)), cfg.format)
    return 0


def _output(path):
    """The --out file, opened before any work so that an unwritable path
    fails first, or stdout."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phcover",
                                     description="verification suites for the "
                                                 "point-hyperplane graph cover")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", type=int, choices=(2, 4, 8, 16), default=2)
    common.add_argument("--out", default=None)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--samples", type=int, default=10 ** 5)
    pv.add_argument("--seed", type=int, default=12345)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("export", parents=[common], help="export the base graph or the cover")
    pe.add_argument("what", choices=("base-graph", "cover"))
    pe.add_argument("--format", choices=("json", "edgelist"), default="json")
    pe.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if cfg.command == "verify" and cfg.samples <= 0:
        print("error: --samples must be positive", file=sys.stderr)
        return 2
    try:
        return cfg.func(cfg)
    except (ValueError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
