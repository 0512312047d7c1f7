"""Command-line surface for scripting and CI.

JSON goes to stdout (or --output); --table renders a plain-text view for
humans. Exit codes: 0 success, 2 property failure (violations found, failed
certificates), 1 usage or argument errors. Budgets can be overridden through
INDUNIV_WALK_BUDGET and INDUNIV_SEARCH_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ArgumentError, ArtifactError, CodecError
from .gamma import (
    DeskConfig,
    Profile,
    count_log10,
    decode_label,
    gamma_vertex_count,
    make_gamma_params,
)
from .graphs import Graph, dump_edge_list, format_edge_list, load_edge_list
from .harness import FamilySpec, size_report, universality_sweep
from .embedder import EmbedCertificate, EmbeddingResult, embed, verify_induced
from .lps import LpsParams, build_lps_graph, certify_expander
from .thin import DecomposeStrategy, layout_thin, thin_decompose


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _pq(text: str) -> tuple[int, int]:
    try:
        p, q = (int(x) for x in text.split(","))
        return p, q
    except ValueError as exc:
        raise UsageError(f"expected 'p,q', got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="induniv", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write JSON here instead of stdout")
    common.add_argument("--table", action="store_true", help="human-readable table")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("build-expander", help="build and optionally certify an LPS graph")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--graph-output", help="write the edge list to this file")

    p = add_parser("decompose", help="thin decomposition of an edge-list graph")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--strategy", default="auto",
                   choices=[s.value for s in DecomposeStrategy])

    p = add_parser("layout", help="stretch-4 path layout of a thin graph")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=None)

    p = add_parser("gamma-params", help="product-graph parameters")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", default="desk", choices=["paper", "desk"])
    p.add_argument("--rm", type=_pq, default=None, help="R_m primes as 'p,q'")
    p.add_argument("--rz", type=_pq, default=None, help="R_z primes as 'p,q'")

    p = add_parser("embed", help="induced embedding of an edge-list graph")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--profile", default="desk", choices=["paper", "desk"])
    p.add_argument("--rm", type=_pq, default=None)
    p.add_argument("--rz", type=_pq, default=None)
    p.add_argument("--emit-labels", action="store_true")

    p = add_parser("verify", help="re-verify an emitted embedding file")
    p.add_argument("--embedding", required=True)
    p.add_argument("--input", required=True)

    p = add_parser("sweep", help="embed every bounded-degree graph on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--rm", type=_pq, default=None)
    p.add_argument("--rz", type=_pq, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = add_parser("size-report", help="formula-level scaling table")
    p.add_argument("--delta", type=_int_list, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    return parser


def _desk_config(args) -> DeskConfig:
    kwargs = {}
    if getattr(args, "rm", None):
        kwargs["rm_pq"] = args.rm
        kwargs["rz_pq"] = args.rm
    if getattr(args, "rz", None):
        kwargs["rz_pq"] = args.rz
    env_budget = os.environ.get("INDUNIV_WALK_BUDGET")
    if env_budget:
        kwargs["walk_budget"] = int(env_budget)
    return DeskConfig(**kwargs)


def _search_budget() -> int:
    return int(os.environ.get("INDUNIV_SEARCH_BUDGET", 2_000_000))


def _cmd_build_expander(args) -> tuple[int, dict]:
    params = LpsParams(args.p, args.q)
    g = build_lps_graph(params)
    payload = {
        "schema": "induniv/expander-v1",
        "p": args.p,
        "q": args.q,
        "vertices": g.vertex_count,
        "degree": g.degree(0),
    }
    code = 0
    if args.certify:
        cert = certify_expander(g, params)
        payload.update(cert.to_json())
        if not cert.all_ok:
            code = 2
    if args.graph_output:
        dump_edge_list(g, args.graph_output)
        payload["graph_file"] = args.graph_output
    else:
        payload["edge_list"] = format_edge_list(g)
    return code, payload


def _cmd_decompose(args) -> tuple[int, dict]:
    h = load_edge_list(args.input)
    dec = thin_decompose(h, args.delta, DecomposeStrategy(args.strategy),
                         search_budget=_search_budget())
    payload = {"schema": "induniv/decomposition-v1", "delta": args.delta}
    payload.update(dec.to_json())
    return 0, payload


def _cmd_layout(args) -> tuple[int, dict]:
    g = load_edge_list(args.input)
    n = args.n if args.n is not None else g.vertex_count
    layout = layout_thin(g, n)
    payload = {"schema": "induniv/layout-v1"}
    payload.update(layout.to_json())
    return 0, payload


def _cmd_gamma_params(args) -> tuple[int, dict]:
    if args.profile == "paper":
        params = make_gamma_params(args.delta, args.n, Profile.PAPER)
    else:
        params = make_gamma_params(
            args.delta, args.n, Profile.DESK, _desk_config(args))
    payload = params.to_json()
    count = gamma_vertex_count(params)
    payload["vertex_count_log10"] = count_log10(count)
    if isinstance(count, int):
        payload["vertex_count"] = str(count)
    return 0, payload


def _embedding_payload(result: EmbeddingResult, params, h: Graph, args) -> dict:
    payload = result.to_json(params)
    if not args.emit_labels:
        payload.pop("gamma")
    payload["input_vertices"] = h.vertex_count
    payload["input_edges"] = h.edge_count
    payload["params"] = {"delta": params.delta, "n": params.n, **params.desk.to_json()}
    return payload


def _cmd_embed(args) -> tuple[int, dict]:
    h = load_edge_list(args.input)
    if args.profile == "paper":
        raise ArgumentError(
            "paper-profile parameters are formula-only; embedding needs --profile desk")
    params = make_gamma_params(
        args.delta, max(h.vertex_count, 1), Profile.DESK, _desk_config(args))
    result = embed(h, args.delta, params)
    return 0, _embedding_payload(result, params, h, args)


def _cmd_verify(args) -> tuple[int, dict]:
    with open(args.embedding, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    h = load_edge_list(args.input)
    meta = doc["params"]
    params = make_gamma_params(
        meta["delta"], meta["n"], Profile.DESK, DeskConfig.from_json(meta))
    if params.digest() != doc["params_digest"]:
        raise CodecError(
            "embedding parameters do not match their recorded digest",
            recorded=doc["params_digest"], rebuilt=params.digest())
    labels = doc["gamma"]
    if len(labels) != h.vertex_count:
        raise ArgumentError(
            f"embedding has {len(labels)} labels for {h.vertex_count} vertices")
    result = EmbeddingResult(
        gamma=tuple(decode_label(lab, params) for lab in labels),
        certificate=EmbedCertificate(), homs=None,
        params_digest=doc["params_digest"])
    report = verify_induced(h, result, params)
    payload = {
        "schema": "induniv/verify-v1",
        "pairs_checked": report.pairs_checked,
        "violations": list(report.violations),
        "ok": report.ok,
    }
    return (0 if report.ok else 2), payload


def _cmd_sweep(args) -> tuple[int, dict]:
    if args.jobs < 1:
        raise ArgumentError("--jobs must be >= 1")
    params = make_gamma_params(args.delta, args.n, Profile.DESK, _desk_config(args))
    spec = FamilySpec(n=args.n, delta=args.delta)
    if args.jobs == 1:
        report = universality_sweep(spec, params)
    else:
        report = _parallel_sweep(spec, params, args)
    return (0 if report.ok else 2), report.to_json()


def _parallel_sweep(spec, params, args):
    from concurrent.futures import ProcessPoolExecutor

    from .harness import SweepReport, enumerate_family

    graphs = [(i, sorted(g.edges()), g.vertex_count) for i, g in
              enumerate(enumerate_family(spec))]
    desk = params.desk.to_json()
    jobs = [(idx, edges, nv, params.delta, params.n, desk)
            for idx, edges, nv in graphs]
    report = SweepReport(total=len(graphs), embedded=0)
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for ok, failure in pool.map(_sweep_worker, jobs, chunksize=8):
            if ok:
                report.embedded += 1
            else:
                report.failures.append(failure)
    return report


def _sweep_worker(job):
    idx, edges, nv, delta, n, desk = job
    try:
        params = _worker_params(delta, n, json.dumps(desk, sort_keys=True))
        h = Graph(nv, edges)
        result = embed(h, delta, params)
        rep = verify_induced(h, result, params)
        if rep.ok and result.certificate.ok:
            return True, None
        return False, {"index": idx, "edges": edges,
                       "violations": list(rep.violations)}
    except ArtifactError as exc:
        return False, {"index": idx, "edges": edges, "error": exc.to_json()}


_WORKER_PARAMS = {}


def _worker_params(delta, n, desk_json):
    key = (delta, n, desk_json)
    if key not in _WORKER_PARAMS:
        cfg = DeskConfig.from_json(json.loads(desk_json))
        _WORKER_PARAMS[key] = make_gamma_params(delta, n, Profile.DESK, cfg)
    return _WORKER_PARAMS[key]


def _cmd_size_report(args) -> tuple[int, dict]:
    return 0, size_report(args.delta, args.n_list)


_HANDLERS = {
    "build-expander": _cmd_build_expander,
    "decompose": _cmd_decompose,
    "layout": _cmd_layout,
    "gamma-params": _cmd_gamma_params,
    "embed": _cmd_embed,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "size-report": _cmd_size_report,
}


def _render_table(payload: dict) -> str:
    rows = payload.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        cols = list(rows[0])
        widths = [max(len(c), *(len(_cell(r[c])) for r in rows)) for c in cols]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        lines.extend(
            "  ".join(_cell(r[c]).ljust(w) for c, w in zip(cols, widths))
            for r in rows)
        return "\n".join(lines)
    return "\n".join(f"{k}: {_cell(v)}" for k, v in payload.items())


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(json.dumps({"error": {"type": "UsageError", "message": str(exc)}}),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": {"type": "OSError", "message": str(exc)}}),
              file=sys.stderr)
        return 1
    except ArgumentError as exc:
        print(json.dumps({"error": exc.to_json()}), file=sys.stderr)
        return 1
    except ArtifactError as exc:
        print(json.dumps({"error": exc.to_json()}), file=sys.stderr)
        return 2
    text = _render_table(payload) if args.table else json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def main() -> None:  # console entry point
    raise SystemExit(run())
