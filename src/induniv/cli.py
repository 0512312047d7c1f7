"""Command-line surface for scripting and CI.

JSON goes to stdout (or --output); --table renders a plain-text view for
humans. Exit codes: 0 success, 2 property failure (violations found, failed
certificates), 1 usage or argument errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .errors import ArgumentError, ArtifactError, CodecError
from .gamma import DeskConfig, decode_label, gamma_vertex_count, make_gamma_params, paper_sizes
from .graphs import Graph, dump_edge_list, format_edge_list, load_edge_list
from .harness import FamilySpec, size_report, universality_sweep
from .embedder import EmbedCertificate, EmbeddingResult, embed, verify_induced
from .lps import LpsParams, build_lps_graph, certify_expander
from .thin import layout_thin, thin_decompose


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

    p = add_parser("layout", help="stretch-4 path layout of a thin graph")
    p.add_argument("--input", required=True)

    p = add_parser("gamma-params", help="product-graph parameters")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", default="desk", choices=["paper", "desk"],
                   help="desk: the built hosts; paper: the paper's constants, a formula")
    p.add_argument("--rm", type=_pq, default=None, help="R_m primes as 'p,q'")
    p.add_argument("--rz", type=_pq, default=None, help="R_z primes as 'p,q'")

    p = add_parser("embed", help="induced embedding of an edge-list graph")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=int, required=True)
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
    return DeskConfig(**kwargs)


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
    dec = thin_decompose(h, args.delta)
    payload = {"schema": "induniv/decomposition-v1", "delta": args.delta}
    payload.update(dec.to_json())
    return 0, payload


def _cmd_layout(args) -> tuple[int, dict]:
    phi = layout_thin(load_edge_list(args.input))
    return 0, {"schema": "induniv/layout-v1", "phi": list(phi)}


def _cmd_gamma_params(args) -> tuple[int, dict]:
    if args.profile == "paper":
        for option in ("rm", "rz"):
            if getattr(args, option) is not None:
                raise UsageError(f"--{option} names a desk host; --profile paper builds none")
        sizes = paper_sizes(args.delta, args.n)
        payload = {**sizes.to_json(), "desk": None, "certificates": {}}
    else:
        sizes = make_gamma_params(args.delta, args.n, _desk_config(args))
        payload = sizes.to_json()
    count = gamma_vertex_count(sizes)
    payload.update(profile=args.profile, vertex_count_log10=count.log10(),
                   vertex_count_mantissa_hex=format(count.mantissa, "x"),
                   vertex_count_exp2=count.exp2)
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
    params = make_gamma_params(args.delta, max(h.vertex_count, 1), _desk_config(args))
    result = embed(h, args.delta, params)
    return 0, _embedding_payload(result, params, h, args)


def _cmd_verify(args) -> tuple[int, dict]:
    try:
        with open(args.embedding, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        meta = doc["params"]
        params = make_gamma_params(meta["delta"], meta["n"], DeskConfig.from_json(meta))
        recorded, labels = doc["params_digest"], doc["gamma"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            ArgumentError) as exc:
        raise CodecError(f"malformed embedding file: {type(exc).__name__}: {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise CodecError("embedding labels must be a list of strings")
    h = load_edge_list(args.input)
    if params.digest() != recorded:
        raise CodecError(
            "embedding parameters do not match their recorded digest",
            recorded=recorded, rebuilt=params.digest())
    if len(labels) != h.vertex_count:
        raise ArgumentError(
            f"embedding has {len(labels)} labels for {h.vertex_count} vertices")
    result = EmbeddingResult(
        gamma=tuple(decode_label(lab, params) for lab in labels),
        certificate=EmbedCertificate(), homs=None,
        params_digest=recorded)
    report = verify_induced(h, result, params)
    payload = {
        "schema": "induniv/verify-v1",
        "pairs_checked": report.pairs_checked,
        "violations": list(report.violations),
        "ok": report.ok,
    }
    return (0 if report.ok else 2), payload


def _cmd_sweep(args) -> tuple[int, dict]:
    params = make_gamma_params(args.delta, args.n, _desk_config(args))
    report = universality_sweep(FamilySpec(n=args.n, delta=args.delta), params)
    return (0 if report.ok else 2), report.to_json()


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


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built on first use and reused for every later ``run`` in
    the process: building it costs far more than one parse."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe early (``induniv verify ... | head``):
            # send what is left, and the flush at exit, to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


def main() -> None:  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
