"""Tests of the benchmark's own code: generators, tracing and self time.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def _max_degree(inp):
    deg = [0] * inp["n"]
    for u, v in inp["edges"]:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_desk_set_is_deterministic_per_seed(delta):
    assert gen.desk_set(delta, 7) == gen.desk_set(delta, 7)
    assert gen.desk_set(delta, 7, per_size=2) == gen.desk_set(delta, 7, per_size=2)
    assert gen.digest(gen.desk_set(delta, 7)) != gen.digest(gen.desk_set(delta, 8))


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_desk_set_shape_and_validity(delta):
    a, b = gen.desk_set(delta, 1, per_size=2), gen.desk_set(delta, 2, per_size=2)
    assert [(x["family"], x["n"]) for x in a] == [(x["family"], x["n"]) for x in b]
    for inp in a:
        assert 8 <= inp["n"] <= max(gen.DESK_SIZES) + 1
        assert _max_degree(inp) <= delta
        assert all(0 <= u < v < inp["n"] for u, v in inp["edges"])
        assert len(set(map(tuple, inp["edges"]))) == len(inp["edges"])


def test_ladder_is_geometric_and_fixed():
    rungs = gen.ladder_rungs()
    assert rungs[0] == 16 and rungs[-1] >= 2048
    assert all(1.2 < b / a < 1.32 for a, b in zip(rungs, rungs[1:]))
    lad = gen.ladder(3)
    assert lad == gen.ladder(3)
    for rung in lad:
        assert len(rung) >= 3
        assert len({inp["n"] for inp in rung}) == 1
        assert all(_max_degree(inp) <= 3 for inp in rung)


def test_label_pairs_are_deterministic_and_valid():
    graphs = [(6, [(0, 1), (1, 2)]), (4, [])]
    pairs = gen.label_pairs(graphs, 200, 3)
    assert pairs == gen.label_pairs(graphs, 200, 3)
    assert pairs != gen.label_pairs(graphs, 200, 4)
    for k, a, b in pairs:
        assert a != b and 0 <= a < graphs[k][0] and 0 <= b < graphs[k][0]
    edges = sum(1 for k, a, b in pairs if (min(a, b), max(a, b)) in graphs[k][1])
    assert edges >= len(pairs) // 4


def test_generators_do_not_import_the_program():
    code = "import sys, gen; gen.desk_set(3, 1); gen.ladder(2); print('induniv' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_self_time_never_exceeds_span():
    tr = Tracer()

    class Box:
        @staticmethod
        def leaf():
            time.sleep(0.002)

        @staticmethod
        def mid():
            Box.leaf()
            time.sleep(0.001)
            Box.leaf()

        @staticmethod
        def root():
            Box.mid()
            Box.leaf()

    for attr, name in (("leaf", "leaf"), ("mid", "mid"), ("root", "root")):
        tr.patch(Box, attr, lambda fn, name=name: staticmethod(tr.span(name, fn.__func__)))
    tr.on = True
    Box.root()
    tr.restore()
    selfs = tr.self_times()
    assert len(selfs) == 5
    for (name, start, end, _parent, _id), s in zip(tr.spans, selfs):
        assert 0 <= s <= end - start
    root = tr.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1], rel=1e-6, abs=1e-9)


def test_wrappers_restore_the_originals():
    from induniv import cli, embedder, gamma, graphs, walks

    owners = [(embedder, "build_walk_map"), (embedder, "compute_bad_sets"),
              (walks, "verify_walk_map"), (cli, "run"), (gamma, "decode_label"),
              (graphs.Graph, "bfs_distances"), (gamma.PowerNeighborhoods, "contains")]
    before = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in owners]
    tr = Tracer()
    layers.install(tr)
    for o, a in owners:
        assert getattr(getattr(o, a), "__wrapped_by_tracer__", False)
    tr.restore()
    after = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in owners]
    assert all(x is y for x, y in zip(before, after))
    assert not tr.on


def test_patch_refuses_a_missing_name():
    tr = Tracer()

    class Box:
        pass

    with pytest.raises(AttributeError, match="Box.gone"):
        tr.patch(Box, "gone", lambda fn: fn)


def test_failed_inputs_are_left_out_of_layer_sums():
    tr = Tracer()

    class Box:
        @staticmethod
        def decompose():
            time.sleep(0.002)

    tr.patch(Box, "decompose", lambda fn: staticmethod(tr.span("thin.decompose", fn.__func__)))
    tr.on = True
    tr.begin(0, "desk")
    Box.decompose()
    tr.bump("gamma.close_calls", 5)
    tr.begin(1, "ladder")
    Box.decompose()
    Box.decompose()
    tr.bump("gamma.close_calls", 7)
    tr.bump("thin.fail")
    tr.failed.add(1)
    tr.restore()
    m = layers.summarize(tr)
    first = tr.spans[0]
    assert m["thin.decompose_s"] == pytest.approx(first[2] - first[1])
    assert m["gamma.close_calls"] == 5
    assert m["thin.fail"] == 1
    by_stream = layers.self_times_by_stream(tr)
    assert set(by_stream) == {"desk", "failed"}
    assert by_stream["desk"]["thin.decompose"] == pytest.approx(first[2] - first[1], abs=1e-6)


def test_traced_embed_reports_layers():
    from induniv import embedder, graphs, make_gamma_params

    params = make_gamma_params(2, 12)
    h = graphs.cycle_graph(12)
    tr = Tracer()
    layers.install(tr)
    try:
        result = embedder.embed(h, 2, params)
    finally:
        tr.restore()
    assert result.certificate.ok
    selfs = tr.self_times()
    assert all(0 <= s <= end - start + 1e-9
               for (_n, start, end, _p, _i), s in zip(tr.spans, selfs))
    m = layers.summarize(tr)
    assert m["embedder.attempts"] == 1
    assert m["walks.calls"] >= 2 and m["walks.build_s.f1"] > 0 and m["walks.build_s.ri"] > 0
    assert m["embedder.induced_pairs"] == 12 * 11 // 2
    assert m["gamma.oracle_calls"] >= 66 and m["gamma.close_calls"] > 0
    assert m["embedder.self_s"] > 0


def test_label_rates_use_scaled_medians_and_read_zero_without_batches():
    import types

    import worker

    ctx = types.SimpleNamespace(gamma=None, problems=[], tracer=None)
    ops = worker.LabelOps(ctx, [], [], 1, ".")
    assert not ops.start() and ctx.problems
    summary = ops.summary(worker.unscaled)
    assert summary["oracle_pairs_per_s"] == summary["verify_pairs_per_s"] == 0.0
    for t0, t1 in ((1.0, 1.5), (2.0, 2.25), (3.0, 3.25)):
        ops._record("codec", 0, 10, t0, t1)
    assert ops.rate("codec", worker.unscaled) == pytest.approx(10 / 0.25)
    assert ops.rate("codec", lambda t: 2.0) == pytest.approx(10 / 0.5)


def test_reference_work_is_fixed():
    import worker

    a, b = worker.Reference(), worker.Reference()
    assert a.adj == b.adj and a.sources == b.sources
    assert all(a.search(s) == a.VERTICES for s in a.sources)
    for _ in range(3):
        a.step()
    assert a.middles == sorted(a.middles) and all(0 < s < 1.0 for s in a.seconds)
    assert a.scale(a.middles[1]) == pytest.approx(a.NOMINAL_S / sorted(a.seconds)[1])


def test_budgets_turn_hangs_and_errors_into_counted_failures():
    # in a child process: the memory budget is a limit on the whole process
    code = """
import json, sys, time
import gen, worker
ctx = worker.Context(sys.argv[1], None)
def slow(*args):
    while True:
        time.sleep(0.01)
def hog(*args):
    return bytearray(8 << 30)
inp = gen.desk_set(3, 1)[3]
out = [ctx.embed(inp, 20.0, "desk")[2]]
real = ctx.embedder.embed
ctx.embedder.embed = slow
out.append(ctx.embed(inp, 0.2, "desk")[2])
ctx.embedder.embed = hog
out.append(ctx.embed(inp, 20.0, "desk")[2])
ctx.embedder.embed = real
out.append(ctx.embed(dict(inp, delta=2), 20.0, "desk")[2])
print(json.dumps([out, ctx.fail_reasons]))
"""
    proc = subprocess.run([sys.executable, "-c", code, ROOT], cwd=BENCH, capture_output=True,
                          text=True, timeout=120, check=True)
    reasons, counts = json.loads(proc.stdout.splitlines()[-1])
    assert reasons == [None, "Timeout", "MemoryError", "ArgumentError"]
    assert counts == {"fail.Timeout": 1, "fail.MemoryError": 1, "fail.ArgumentError": 1}
