import json

import pytest

from induniv.cli import _worker_params, run
from induniv.gamma import (
    DeskConfig, GammaVertex, decode_label, encode_label, make_gamma_params)
from induniv.graphs import cycle_graph, dump_edge_list, parse_edge_list


@pytest.fixture()
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    dump_edge_list(cycle_graph(6), path)
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_build_expander_with_certificate(capsys, tmp_path):
    graph_file = str(tmp_path / "x.txt")
    code, doc = invoke(capsys, [
        "build-expander", "--p", "13", "--q", "17", "--certify",
        "--graph-output", graph_file])
    assert code == 0
    assert doc["vertices"] == 2448 and doc["degree"] == 14
    assert doc["girth"] == 6 and doc["non_bipartite"] and doc["connected"]
    assert doc["all_ok"]
    g = parse_edge_list(open(graph_file).read())
    assert g.vertex_count == 2448


def test_build_expander_rejects_bad_primes(capsys):
    code, _ = invoke(capsys, ["build-expander", "--p", "5", "--q", "13"])
    assert code == 1  # residue test fails: argument error


def test_decompose_and_layout(capsys, c6_file):
    code, doc = invoke(capsys, ["decompose", "--input", c6_file, "--delta", "2"])
    assert code == 0
    assert len(doc["parts"]) == 2
    assert sorted(tuple(x) for x in doc["multiplicity"]) == \
        sorted((u, v, 0, 1) for u, v in cycle_graph(6).edges())

    code, doc = invoke(capsys, ["layout", "--input", c6_file])
    assert code == 0
    assert sorted(doc["phi"]) == list(range(6))


def test_gamma_params_paper(capsys):
    code, doc = invoke(capsys, [
        "gamma-params", "--delta", "3", "--n", "1000000", "--profile", "paper"])
    assert code == 0
    assert doc["profile"] == "paper"
    assert doc["m"] == 5 * 160 * 3 * 734**8 * 1000
    assert doc["vertex_count_log10"] > 10**9  # astronomically large, by design


def test_gamma_params_desk(capsys, rm_desk):
    code, doc = invoke(capsys, [
        "gamma-params", "--delta", "2", "--n", "30", "--profile", "desk"])
    assert code == 0
    assert doc["d"] == 6 and doc["ell_m"] == 12180
    assert doc["certificates"]["r_m"]["all_ok"]
    assert int(doc["vertex_count"]) == 12180**2 * 2**5185 * 12180


def test_embed_verify_round_trip(capsys, c6_file, tmp_path, rm_desk):
    emb = str(tmp_path / "emb.json")
    code, _ = invoke(capsys, [
        "embed", "--input", c6_file, "--delta", "2", "--emit-labels",
        "--output", emb])
    assert code == 0
    doc = json.load(open(emb))
    assert doc["schema"] == "induniv/embedding-v1"
    assert len(doc["gamma"]) == 6

    code, vdoc = invoke(capsys, ["verify", "--embedding", emb, "--input", c6_file])
    assert code == 0 and vdoc["ok"]


def test_verify_detects_tamper(capsys, c6_file, tmp_path, rm_desk):
    emb = str(tmp_path / "emb.json")
    invoke(capsys, ["embed", "--input", c6_file, "--delta", "2",
                    "--emit-labels", "--output", emb])
    doc = json.load(open(emb))
    params = make_gamma_params(doc["params"]["delta"], doc["params"]["n"], "desk")
    v0 = decode_label(doc["gamma"][0], params)
    x, mask, u = v0.blocks[0]
    low = mask & -mask
    doc["gamma"][0] = encode_label(
        GammaVertex(x1=v0.x1, blocks=((x, mask & ~low, u),)), params)
    bad = str(tmp_path / "bad.json")
    json.dump(doc, open(bad, "w"))

    code, vdoc = invoke(capsys, ["verify", "--embedding", bad, "--input", c6_file])
    assert code == 2
    assert vdoc["violations"]


def test_sweep_command(capsys, rm_desk):
    code, doc = invoke(capsys, ["sweep", "--n", "3", "--delta", "2"])
    assert code == 0
    assert doc["embedded"] == doc["total"] == 4


def test_sweep_parallel(capsys, rm_desk):
    code, doc = invoke(capsys, ["sweep", "--n", "3", "--delta", "2", "--jobs", "2"])
    assert code == 0
    assert doc["embedded"] == doc["total"] == 4


def test_size_report_command(capsys):
    code, doc = invoke(capsys, [
        "size-report", "--delta", "2,3", "--n-list", "100,10000"])
    assert code == 0
    assert len(doc["rows"]) == 4


def test_size_report_table(capsys):
    code = run(["size-report", "--delta", "2", "--n-list", "100,10000", "--table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "count_log10" in out and "{" not in out.splitlines()[0]


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["embed", "--input", "/nonexistent", "--delta", "2"]) == 1


def test_output_file(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    code = run(["size-report", "--delta", "2", "--n-list", "100", "--output", out])
    assert code == 0
    assert json.load(open(out))["rows"]


def test_verify_rejects_tampered_digest(capsys, c6_file, tmp_path, rm_desk):
    emb = str(tmp_path / "emb.json")
    invoke(capsys, ["embed", "--input", c6_file, "--delta", "2",
                    "--emit-labels", "--output", emb])
    doc = json.load(open(emb))
    doc["params_digest"] = "0" * 16
    bad = str(tmp_path / "bad.json")
    json.dump(doc, open(bad, "w"))

    assert run(["verify", "--embedding", bad, "--input", c6_file]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["recorded"] == "0" * 16


def test_verify_accepts_params_without_desk_fields(capsys, c6_file, tmp_path, rm_desk):
    emb = str(tmp_path / "emb.json")
    invoke(capsys, ["embed", "--input", c6_file, "--delta", "2",
                    "--emit-labels", "--output", emb])
    doc = json.load(open(emb))
    doc["params"] = {k: doc["params"][k] for k in ("delta", "n", "rm_pq", "rz_pq")}
    old = str(tmp_path / "old.json")
    json.dump(doc, open(old, "w"))

    code, vdoc = invoke(capsys, ["verify", "--embedding", old, "--input", c6_file])
    assert code == 0 and vdoc["ok"] and vdoc["pairs_checked"] == 15


def test_worker_params_keep_every_desk_field(rm_desk):
    cfg = DeskConfig(walk_budget=123_456, usage_cap_factor=30, sigma_cap=12,
                     conflict_gap=5, eigen_tolerance=2e-4,
                     retry_budget_scale=(1, 2))
    assert DeskConfig.from_json(cfg.to_json()) == cfg
    assert _worker_params(2, 5, json.dumps(cfg.to_json())).desk == cfg
