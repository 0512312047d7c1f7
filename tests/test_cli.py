import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import induniv
from induniv import harness, walks
from induniv.cli import run
from induniv.embedder import embed
from induniv.gamma import DeskConfig, GammaVertex, decode_label, encode_label, make_gamma_params
from induniv.graphs import circulant_graph, cycle_graph, dump_edge_list, parse_edge_list


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
    assert doc["vertex_transitive"] is True  # the girth came from one BFS
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
    assert sorted(doc) == ["phi", "schema"]  # no slot count: it is len(phi)
    assert sorted(doc["phi"]) == list(range(6))
    assert invoke(capsys, ["layout", "--input", c6_file, "--n", "6"])[0] == 1


def test_decompose_a_long_cubic_ring(capsys, tmp_path):
    # 1,050 edges, one search level each: deeper than the recursion limit
    path = tmp_path / "ring.txt"
    dump_edge_list(circulant_graph(700, (1, 350)), path)
    code, doc = invoke(capsys, ["decompose", "--input", str(path), "--delta", "3"])
    assert code == 0
    assert doc["schema"] == "induniv/decomposition-v1" and len(doc["parts"]) == 3
    assert len(doc["multiplicity"]) == 1050


# what gamma-params printed for the paper's constants at delta 3, n = 10^6
# while they were a parameter profile
PAPER_D3_N1E6 = {
    "schema": "induniv/gamma-params-v1", "delta": 3, "n": 1000000, "profile": "paper",
    "d": 734, "z": 34087902753827840, "m": 202199334117814402155110400000,
    "ell_m": 808816012647616448236169299320, "ell_z": 136352081674210080,
    "label_bits": 2322064220704, "desk": None, "certificates": {},
    "vertex_count_log10": 699010982289.3774}


def test_gamma_params_paper(capsys):
    code, doc = invoke(capsys, [
        "gamma-params", "--delta", "3", "--n", "1000000", "--profile", "paper"])
    assert code == 0
    assert doc["profile"] == "paper"
    assert doc["m"] == 5 * 160 * 3 * 734**8 * 1000
    assert doc["vertex_count_log10"] > 10**9  # astronomically large, by design
    assert {k: doc[k] for k in PAPER_D3_N1E6} == PAPER_D3_N1E6
    count = int(doc["vertex_count_mantissa_hex"], 16), doc["vertex_count_exp2"]
    assert count == (doc["ell_m"] ** 3 * doc["ell_z"] ** 2, 2 * (4 * 734**4 + 1))


@pytest.mark.parametrize("option", ["--rm", "--rz"])
def test_paper_profile_takes_no_host(capsys, option):
    # the paper's sizes are a formula, so a desk host is never read
    assert run(["gamma-params", "--profile", "paper", "--delta", "2", "--n", "10",
                option, "5,61"]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "UsageError" and option in err["message"] and not captured.out


@pytest.mark.parametrize("argv", [
    ["gamma-params", "--profile", "paper", "--delta", "2", "--n", str(10**600)],
    ["size-report", "--delta", "2", "--n-list", str(10**600)],
], ids=["gamma-params", "size-report"])
def test_paper_sizes_past_the_float_range_fail_as_json(capsys, argv):
    # the host search is sized by an integer cube root of 8m, which must
    # neither overflow a float nor step one at a time to its answer
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "ExhaustedSearchError"
    assert not captured.out


def test_gamma_params_desk(capsys, rm_desk):
    code, doc = invoke(capsys, [
        "gamma-params", "--delta", "2", "--n", "30", "--profile", "desk"])
    assert code == 0
    assert doc["d"] == 6 and doc["ell_m"] == 12180
    assert doc["certificates"]["r_m"]["all_ok"]
    assert int(doc["vertex_count_mantissa_hex"], 16) << doc["vertex_count_exp2"] == \
        12180**2 * 2**936 * 12180


@pytest.mark.parametrize("argv", [
    *(["--delta", str(delta), "--n", "30"] for delta in range(2, 7)),
    ["--delta", "3", "--n", "1000000", "--profile", "paper"],
], ids=["desk-2", "desk-3", "desk-4", "desk-5", "desk-6", "paper"])
def test_gamma_params_prints_the_exact_count(capsys, rm_desk, argv):
    # the count is printed factored, its mantissa in hex: written out in
    # decimal, the paper's passes the 4,300 digits Python converts by
    # default, and so does the desk's from delta 16 on
    code, doc = invoke(capsys, ["gamma-params", *argv])
    assert code == 0 and isinstance(doc, dict)
    delta, ell_m, ell_z = doc["delta"], doc["ell_m"], doc["ell_z"]
    mantissa = int(doc["vertex_count_mantissa_hex"], 16)
    assert mantissa == ell_m * (ell_m * ell_z) ** (delta - 1)
    # a desk subset field has |B_4| = 936 bits, the paper's 4 d^4 + 1
    subset_bits = 4 * doc["d"] ** 4 + 1 if "paper" in argv else 936
    assert doc["vertex_count_exp2"] == (delta - 1) * subset_bits
    assert doc["vertex_count_log10"] == pytest.approx(
        math.log10(mantissa) + doc["vertex_count_exp2"] * math.log10(2))


def test_hosts_of_different_degrees_are_a_usage_error(capsys):
    # both certificates would pass; the two hosts just cannot share a d
    assert run(["gamma-params", "--delta", "2", "--n", "10",
                "--rm", "5,29", "--rz", "13,17"]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert captured.out == "" and error["type"] == "ArgumentError"
    assert "rm_pq" in error["message"] and "rz_pq" in error["message"]


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
    params = make_gamma_params(doc["params"]["delta"], doc["params"]["n"])
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


def test_sweep_has_no_jobs_option(capsys):
    # the sweep runs in this process; the package starts no other
    assert run(["sweep", "--n", "3", "--delta", "2", "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "UsageError" and "--jobs" in err["message"] and not captured.out


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


@pytest.mark.parametrize("delta, n_list", [("2", ""), ("2", ","), ("", "100")],
                         ids=["no-n", "comma", "no-delta"])
def test_size_report_with_an_empty_list_is_an_argument_error(capsys, delta, n_list):
    # a report needs a row, and its spreads a max over each delta's rows
    assert run(["size-report", "--delta", delta, "--n-list", n_list]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "ArgumentError"
    assert not captured.out


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["embed", "--input", "/nonexistent", "--delta", "2"]) == 1


def test_embed_takes_no_profile(capsys, c6_file):
    # paper-profile parameters are formula-only, so embed has no such option
    assert run(["embed", "--input", c6_file, "--delta", "2", "--profile", "paper"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "UsageError" and "--profile" in err["message"]


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


# the params block and digest of an embedding of C6 written while the desk
# config had nine fields; its labels are those of today's embedding
NINE_FIELD_PARAMS = {
    "delta": 2, "n": 6, "rm_pq": [5, 29], "rz_pq": [5, 29], "eigen_tolerance": 0.0001,
    "eigen_slack": 0.0, "walk_budget": 200000, "usage_cap_factor": 40, "sigma_cap": None,
    "conflict_gap": 4, "retry_budget_scale": [1]}
NINE_FIELD_DIGEST = "5eeedbac05d39977"


def test_verify_rejects_files_written_with_the_nine_field_config(
        capsys, c6_file, tmp_path, rm_desk):
    emb = tmp_path / "emb.json"
    assert run(["embed", "--input", c6_file, "--delta", "2", "--emit-labels",
                "--output", str(emb)]) == 0
    doc = json.loads(emb.read_text())
    assert doc["params_digest"] != NINE_FIELD_DIGEST
    emb.write_text(json.dumps(
        {**doc, "params": NINE_FIELD_PARAMS, "params_digest": NINE_FIELD_DIGEST}))
    assert run(["verify", "--embedding", str(emb), "--input", c6_file]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "CodecError" and "digest" in error["message"]
    assert error["recorded"] == NINE_FIELD_DIGEST and error["rebuilt"] == doc["params_digest"]


# the params digest of an embedding of C6 at delta 2 written while a rank was
# a position in a sorted BFS row; its masks would now fail pair by pair
ROW_RANK_DIGEST = "eee9c14b94e9715d"


# the params block and digest of an embedding of C6 at delta 2 written while
# the desk config also held the walk search budget
WALK_BUDGET_PARAMS = {
    "delta": 2, "n": 6, "rm_pq": [5, 29], "rz_pq": [5, 29], "walk_budget": 200000}
WALK_BUDGET_DIGEST = "15ed09f966632079"


def _assert_verify_rejects_the_digest(capsys, c6_file, tmp_path, digest, **fields):
    """An embedding of C6 whose file records ``digest`` (and ``fields``)
    fails ``verify`` by digest, naming the recorded and the rebuilt one."""
    emb = tmp_path / "emb.json"
    assert run(["embed", "--input", c6_file, "--delta", "2", "--emit-labels",
                "--output", str(emb)]) == 0
    doc = json.loads(emb.read_text())
    assert doc["params_digest"] != digest
    emb.write_text(json.dumps({**doc, **fields, "params_digest": digest}))
    assert run(["verify", "--embedding", str(emb), "--input", c6_file]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "CodecError" and "digest" in error["message"]
    assert error["recorded"] == digest and error["rebuilt"] == doc["params_digest"]


def test_verify_rejects_files_written_with_a_walk_budget(capsys, c6_file, tmp_path, rm_desk):
    _assert_verify_rejects_the_digest(
        capsys, c6_file, tmp_path, WALK_BUDGET_DIGEST, params=WALK_BUDGET_PARAMS)


def test_verify_rejects_files_written_with_row_ranks(capsys, c6_file, tmp_path, rm_desk):
    _assert_verify_rejects_the_digest(capsys, c6_file, tmp_path, ROW_RANK_DIGEST)


# the params digest of an embedding of C6 at delta 2 written while every
# subset field was 4 d^4 + 1 = 5185 bits wide; its labels would now fail
# their parse by width
FULL_WIDTH_DIGEST = "450a8db72971a85c"


def test_verify_rejects_files_written_at_the_full_subset_width(
        capsys, c6_file, tmp_path, rm_desk):
    _assert_verify_rejects_the_digest(capsys, c6_file, tmp_path, FULL_WIDTH_DIGEST)


# the params digest of an embedding of C6 at delta 2 written while labels
# packed their fields bit by bit, x_1 then x_i, X_i, u_i per block, with pad
# bits on top; its labels would now fail their parse by width
PACKED_LAYOUT_DIGEST = "a6971dc75bc0eb94"


def test_verify_rejects_files_written_in_the_packed_layout(capsys, c6_file, tmp_path, rm_desk):
    _assert_verify_rejects_the_digest(capsys, c6_file, tmp_path, PACKED_LAYOUT_DIGEST)


# a sweep in a fresh process, whose hosts are built afresh and whose metric
# is asked about before the parameters are made; it prints the labels of
# each embedding the sweep makes
_FRESH_SWEEP = """
import json
from induniv import harness, lps
from induniv.gamma import encode_label, make_gamma_params, shared_power_neighborhoods

shared_power_neighborhoods(lps.cached_lps_graph(5, 29)).rank(0, 1)
params = make_gamma_params(2, 4)
labels, embed = [], harness.embed

def recording_embed(h, delta, params):
    result = embed(h, delta, params)
    labels.append([encode_label(v, params) for v in result.gamma])
    return result

harness.embed = recording_embed
assert harness.universality_sweep(harness.FamilySpec(4, 2), params).ok
print(json.dumps(labels))
"""


def test_a_fresh_process_sweeps_to_the_labels_of_this_one(monkeypatch, rm_desk):
    env = dict(os.environ, PYTHONPATH=str(Path(induniv.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _FRESH_SWEEP],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    labels = []

    def recording_embed(h, delta, params):
        result = embed(h, delta, params)
        labels.append([encode_label(v, params) for v in result.gamma])
        return result

    monkeypatch.setattr(harness, "embed", recording_embed)
    assert harness.universality_sweep(harness.FamilySpec(4, 2), make_gamma_params(2, 4)).ok
    assert len(labels) > 4 and json.loads(done.stdout) == labels


def test_desk_config_round_trips_through_json():
    cfg = DeskConfig(rz_pq=(5, 61))
    assert DeskConfig.from_json(cfg.to_json()) == cfg


def test_embed_failure_reports_its_retry_trail(capsys, tmp_path, monkeypatch, rm_desk):
    # a walk budget too small for the 100-step anchor walk of C100 fails fast,
    # in the one attempt that embed makes
    path = tmp_path / "c100.txt"
    dump_edge_list(cycle_graph(100), path)
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 60)
    assert run(["embed", "--input", str(path), "--delta", "2"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "EmbeddingFailureError"
    assert len(err["trail"]) == 1
    for entry in err["trail"]:
        assert entry["budget"] == 60 and entry["params_digest"]
    stuck = err["trail"][-1]["error"]
    assert stuck["type"] == "WalkStuckError" and stuck["stage"] == "f1"
    assert 0 <= stuck["position"] < 100 and stuck["budget"] == 60


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(induniv.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "induniv", "size-report", "--delta", "2", "--n-list", "100"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["rows"]


def test_python_dash_m_prints_a_count_past_the_decimal_digit_limit():
    env = dict(os.environ, PYTHONPATH=str(Path(induniv.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "induniv", "gamma-params", "--profile", "paper",
         "--delta", "120", "--n", "30"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    mantissa, ell_m, ell_z = int(doc["vertex_count_mantissa_hex"], 16), doc["ell_m"], doc["ell_z"]
    assert mantissa == ell_m * (ell_m * ell_z) ** 119 and mantissa > 10**4300


@pytest.mark.parametrize("table", [False, True], ids=["json", "table"])
def test_run_writes_a_count_past_the_decimal_digit_limit(tmp_path, table):
    # called in-process, as a library caller would, not through main
    out = tmp_path / "paper.txt"
    argv = ["gamma-params", "--profile", "paper", "--delta", "120", "--n", "30",
            "--output", str(out)]
    assert run(argv + ["--table"] * table) == 0
    text = out.read_text()
    if table:
        doc = dict(line.split(": ", 1) for line in text.splitlines())
    else:
        doc = json.loads(text)
    mantissa = int(doc["vertex_count_mantissa_hex"], 16)
    ell_m, ell_z = int(doc["ell_m"]), int(doc["ell_z"])
    assert mantissa == ell_m * (ell_m * ell_z) ** 119 and mantissa > 10**4300


def test_an_embed_leaves_numpy_ma_unimported(c6_file, tmp_path):
    # numpy imports numpy.ma lazily, at a cost of some 10 ms per process, and
    # numpy.random, at some 6 MB of resident memory; and numpy is the only
    # run-time dependency, so neither embed nor verify may import scipy or
    # networkx, which only the tests use
    env = dict(os.environ, PYTHONPATH=str(Path(induniv.__file__).parents[1]))
    emb = str(tmp_path / "emb.json")
    embed_argv = ["embed", "--input", str(c6_file), "--delta", "2",
                  "--output", emb, "--emit-labels"]
    verify_argv = ["verify", "--embedding", emb, "--input", str(c6_file),
                   "--output", str(tmp_path / "verify.json")]
    code = ("import sys; from induniv.cli import run; "
            f"print(run({embed_argv!r}), run({verify_argv!r}), "
            "*(m in sys.modules for m in ('numpy.ma', 'numpy.random', 'scipy', 'networkx')))")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-6:] == ["0", "0", "False", "False", "False", "False"]


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_closed_stdout_ends_the_command_quietly(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert run(["size-report", "--delta", "2", "--n-list", "100"]) == 0
        # the descriptor now points at devnull, for the flush at exit
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(induniv.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "induniv", "size-report", "--delta", "2", "--n-list", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the command writes anything
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


def _with_params(doc, **fields):
    return json.dumps({**doc, "params": {**doc["params"], **fields}})


@pytest.mark.parametrize("field, value", [("delta", 2.5), ("n", "6")])
def test_a_parameter_of_the_wrong_type_is_named(capsys, tmp_path, c6_file, rm_desk, field, value):
    emb = tmp_path / "emb.json"
    assert run(["embed", "--input", c6_file, "--delta", "2", "--emit-labels",
                "--output", str(emb)]) == 0
    emb.write_text(_with_params(json.loads(emb.read_text()), **{field: value}))
    assert run(["verify", "--embedding", str(emb), "--input", c6_file]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "CodecError"
    assert field in error["message"] and "digest" not in error["message"]


@pytest.mark.parametrize("command, edge_list, edit, code, kind", [
    ("decompose", "2 1\n1 x\n", None, 1, "ArgumentError"),
    ("verify", None, lambda doc: json.dumps(doc)[:-1], 2, "CodecError"),
    ("verify", None, lambda doc: json.dumps(
        {**doc, "params": {k: v for k, v in doc["params"].items() if k != "delta"}}),
     2, "CodecError"),
    ("verify", None, lambda doc: json.dumps({**doc, "gamma": [7] + doc["gamma"][1:]}),
     2, "CodecError"),
    ("verify", None, lambda doc: _with_params(doc, rm_pq=5), 2, "CodecError"),
    ("verify", None, lambda doc: _with_params(doc, rm_pq=[5]), 2, "CodecError"),
], ids=["edge-line", "not-json", "no-delta", "label-not-a-string", "rm-pq-int",
        "rm-pq-single"])
def test_malformed_input_ends_in_a_json_error(
        capsys, tmp_path, c6_file, rm_desk, command, edge_list, edit, code, kind):
    graph = c6_file
    if edge_list is not None:
        graph = str(tmp_path / "bad.txt")
        Path(graph).write_text(edge_list)
    argv = [command, "--input", graph, "--delta", "2"]
    if edit is not None:
        emb = tmp_path / "emb.json"
        assert run(["embed", "--input", c6_file, "--delta", "2", "--emit-labels",
                    "--output", str(emb)]) == 0
        emb.write_text(edit(json.loads(emb.read_text())))
        argv = ["verify", "--embedding", str(emb), "--input", c6_file]
    assert run(argv) == code
    assert json.loads(capsys.readouterr().err)["error"]["type"] == kind
