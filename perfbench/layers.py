"""Which program names the traced run wraps, and how spans become metrics.

Each entry names an attribute that the pipeline resolves at call time, so
replacing it on its module (or class) sees every call. A name that no longer
exists stops the traced run with an error naming it.

The per-layer sums cover the inputs that embedded. An input that failed or
missed its time budget is left out, except for the failure counters below:
the alarm that ends a timed-out input would otherwise hand the whole budget
to whichever span happened to be open.
"""

from __future__ import annotations

from spans import Tracer

# span name -> per-layer metric that takes the span's self time
SELF_TIME = {
    "lps.build": "lps.build_s",
    "lps.certify": "lps.certify_s",
    "lps.eigen": "lps.eigen_s",
    "graphs.girth": "graphs.girth_s",
    "gamma.metric_build": "gamma.metric_build_s",
    "thin.decompose": "thin.decompose_s",
    "thin.layout": "thin.layout_s",
    "walks.verify": "walks.verify_s",
    "embedder.sigma": "embedder.sigma_s",
    "embedder.badsets": "embedder.badsets_s",
    "embedder.induced": "embedder.induced_s",
    "embedder.witness": "embedder.witness_s",
    "embedder.labelsets": "embedder.labelsets_s",
    "embedder.assemble": "embedder.assemble_s",
    "embedder.shield": "embedder.shield_s",
    "embedder.f1": "embedder.coordcheck_s",
    "embedder.fi": "embedder.coordcheck_s",
    "embedder.embed": "embedder.self_s",
    "cli.run": "cli.verify_s",
}
# build_walk_map self time is keyed by the stage span that called it
WALK_PARENT = {"embedder.f1": "walks.build_s.f1", "embedder.fi": "walks.build_s.fi",
               "embedder.shield": "walks.build_s.ri"}

# counters that only failing inputs move; they count every input
FAILURE_COUNTS = ("thin.fail", "walks.stuck", "embedder.sigma_overflow")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "lps.build_s": "s", "lps.certify_s": "s", "lps.eigen_s": "s", "graphs.girth_s": "s",
    "gamma.metric_build_s": "s", "gamma.metric_rows": "rows",
    "gamma.close_calls": "count", "gamma.oracle_calls": "count", "gamma.oracle_s": "s",
    "gamma.encode_s": "s", "gamma.decode_s": "s", "gamma.codec_calls": "count",
    "cli.verify_s": "s",
    "thin.decompose_s": "s", "thin.layout_s": "s", "thin.fail": "count",
    "walks.build_s.f1": "s", "walks.build_s.fi": "s", "walks.build_s.ri": "s",
    "walks.verify_s": "s", "walks.calls": "count", "walks.stuck": "count",
    "graphs.bfs_calls": "count",
    "embedder.sigma_s": "s", "embedder.sigma_max": "entries",
    "embedder.sigma_overflow": "count",
    "embedder.badsets_s": "s", "embedder.badsets_calls": "count",
    "embedder.conflict_max": "members",
    "embedder.induced_s": "s", "embedder.induced_pairs": "pairs",
    "embedder.witness_s": "s", "embedder.labelsets_s": "s", "embedder.assemble_s": "s",
    "embedder.shield_s": "s", "embedder.coordcheck_s": "s",
    "embedder.attempts": "count", "embedder.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _sigma_result(tr: Tracer, schedule) -> None:
    sizes = [len(s) for s in getattr(schedule, "sigma", {}).values()]
    tr.peak("embedder.sigma_max", max(sizes, default=0))


def _sigma_error(tr: Tracer, exc) -> None:
    if type(exc).__name__ == "ScheduleOverflowError":
        tr.bump("embedder.sigma_overflow")
        tr.peak("embedder.sigma_max", getattr(exc, "payload", {}).get("size", 0))


def _badsets_result(tr: Tracer, conflicts) -> None:
    tr.bump("embedder.badsets_calls")
    tr.peak("embedder.conflict_max", max((len(s) for s in conflicts.values()), default=0))


def _induced_result(tr: Tracer, report) -> None:
    tr.bump("embedder.induced_pairs", getattr(report, "pairs_checked", 0))


def _walk_error(tr: Tracer, exc) -> None:
    if type(exc).__name__ == "WalkStuckError":
        tr.bump("walks.stuck")


def _thin_error(tr: Tracer, exc) -> None:
    tr.bump("thin.fail")


def install(tr: Tracer) -> None:
    """Wrap the pipeline's layer boundaries; ``tr.restore()`` undoes it."""
    from induniv import cli, embedder, gamma, graphs, lps, walks

    def span(owner, attr, name, **kw):
        tr.patch(owner, attr, lambda fn: tr.span(name, fn, **kw))

    def count(owner, attr, key, time_key=None):
        tr.patch(owner, attr, lambda fn: tr.counter(key, fn, time_key))

    span(lps, "build_lps_graph", "lps.build")
    span(lps, "certify_expander", "lps.certify")
    span(lps, "second_eigenvalue", "lps.eigen")
    span(graphs.Graph, "girth", "graphs.girth")
    span(gamma, "make_gamma_params", "gamma.params")
    span(gamma, "shared_power_neighborhoods", "gamma.metric_build")
    span(embedder, "embed", "embedder.embed")
    span(embedder, "thin_decompose", "thin.decompose", on_error=_thin_error)
    span(embedder, "layout_thin", "thin.layout")
    span(embedder, "build_f1", "embedder.f1")
    span(embedder, "build_fi", "embedder.fi")
    span(embedder, "build_ri", "embedder.shield", on_error=_sigma_error)
    span(embedder, "build_walk_map", "walks.build", on_error=_walk_error)
    span(walks, "verify_walk_map", "walks.verify")
    span(embedder, "compute_sigma_i", "embedder.sigma",
         on_result=_sigma_result, on_error=_sigma_error)
    span(embedder, "compute_bad_sets", "embedder.badsets", on_result=_badsets_result)
    span(embedder, "verify_induced", "embedder.induced", on_result=_induced_result)
    span(embedder, "check_edge_witnesses", "embedder.witness")
    span(embedder, "build_label_sets", "embedder.labelsets")
    span(embedder, "assemble_gamma", "embedder.assemble")
    span(cli, "run", "cli.run")
    count(embedder, "_attempt", "embedder.attempts")
    count(gamma.PowerNeighborhoods, "contains", "gamma.close_calls")
    count(gamma.PowerNeighborhoods, "rank", "gamma.close_calls")
    for mod in (gamma, embedder):
        count(mod, "gamma_adjacent_witness", "gamma.oracle_calls", "gamma.oracle_s")
        count(mod, "encode_label", "gamma.codec_calls", "gamma.encode_s")
    for mod in (gamma, cli):
        count(mod, "decode_label", "gamma.codec_calls", "gamma.decode_s")
    count(graphs.Graph, "bfs_distances", "graphs.bfs_calls")
    count(graphs.Graph, "distance", "graphs.bfs_calls")
    tr.on = True


def metric_rows(params_list) -> int:
    """Rows of the radius-4 metric held in memory, materialized or cached."""
    seen = set()
    rows = 0
    for p in params_list:
        for pow_nbhd in (getattr(p, "rm_pow", None), getattr(p, "rz_pow", None)):
            if pow_nbhd is None or id(pow_nbhd) in seen:
                continue
            seen.add(id(pow_nbhd))
            rows += len(getattr(pow_nbhd, "_rows", None) or ())
            rows += len(getattr(pow_nbhd, "_cache", None) or ())
    return rows


def self_times_by_stream(tr: Tracer) -> dict:
    """Self time by span name for each stream of the run (set-up, desk,
    ladder, labels). The inputs left out of ``summarize`` come under
    ``failed``: where they were when they failed or timed out."""
    out: dict[str, dict[str, float]] = {}
    for rec, self_s in zip(tr.spans, tr.self_times()):
        group = "failed" if rec[4] in tr.failed else tr.stream_of[rec[4]]
        names = out.setdefault(group, {})
        names[rec[0]] = round(names.get(rec[0], 0.0) + self_s, 6)
    return out


def summarize(tr: Tracer) -> dict:
    """Per-layer values of one traced process (overhead and rows excluded),
    leaving out the inputs in ``tr.failed``."""
    out = {name: 0.0 for name in PER_LAYER}
    selfs = tr.self_times()
    for i, rec in enumerate(tr.spans):
        name = rec[0]
        if rec[4] in tr.failed:
            continue
        if name == "walks.build":
            parent = rec[3]
            key = WALK_PARENT.get(tr.spans[parent][0]) if parent >= 0 else None
            if key:
                out[key] += selfs[i]
            out["walks.calls"] += 1
        elif name in SELF_TIME:
            out[SELF_TIME[name]] += selfs[i]
    for input_id, counts in tr.by_input.items():
        for key, value in counts.items():
            if key in out and (input_id not in tr.failed or key in FAILURE_COUNTS):
                out[key] += value
    for key, value in tr.maxima.items():
        if key in out:
            out[key] = max(out[key], value)
    return out
