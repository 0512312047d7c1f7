"""Benchmark of the induniv pipeline: embed latency, scale frontier and label
throughput, with a traced run for per-layer time.

    python3 perfbench/run.py --workload embed-even --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. The work runs in fresh worker processes (``worker.py``), one after
another, so each pays the cold set-up an ``induniv`` command pays: a
set-up-only process, the workload process (desk-set embeds, label
operations and the frontier ladders, interleaved), and a second set-up-only
process. BLAS and OpenMP are pinned to one thread. Timed metrics are scaled
to the speed of a fixed reference workload timed in the same run (README,
"Scaled to the reference speed"). Prints a short report, then as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Exits 1 when any output was wrong and 2 when it could not measure.
A JSON report (and with ``--trace 1`` the spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from worker import Reference, percentile  # noqa: E402

# the deltas whose frontier ladders belong to each workload; a traced run
# climbs only these, so its per-layer numbers describe the workload
WORKLOADS = {"embed-even": (2, 4), "embed-odd": (3,)}
LADDER_DELTAS = (2, 3, 4)
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "embed_s.p50": "s",
    "embed_s.p90": "s",
    "embed_vertices_per_s": "vertices/s",
    "ok_frac": "ratio",
    "frontier_n.d2": "vertices",
    "frontier_n.d3": "vertices",
    "frontier_n.d4": "vertices",
    "oracle_pairs_per_s": "pairs/s",
    "codec_labels_per_s": "labels/s",
    "verify_pairs_per_s": "pairs/s",
}


class RunError(Exception):
    """A worker died or timed out, so the run measured nothing usable."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: dict, deadline: float) -> tuple[dict | None, list[dict], str]:
    """(result or None, progress lines, how it ended)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(),
                              timeout=timeout, text=True, cwd=ROOT)
        out, ended = proc.stdout, f"exit {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        ended = "timeout"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    result = next((ln["result"] for ln in lines if "result" in ln), None)
    return result, [ln for ln in lines if "rung" in ln], ended


def program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "induniv", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(main: dict, ladders: dict[int, dict], workers: list[dict],
               scaled: bool = True) -> dict:
    """The end-to-end metrics, timed ones scaled to the reference speed
    (``worker.Reference``) unless ``scaled`` is false."""
    emb, lab = main["embed"], main["labels"]
    per_input = emb["per_input_s" if scaled else "unscaled_per_input_s"]
    ok_seconds = sum(per_input[k] for k in emb["ok"])
    values = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "embed_s.p50": percentile(per_input, 0.5),
        "embed_s.p90": percentile(per_input, 0.9),
        "embed_vertices_per_s": emb["ok_vertices"] / ok_seconds if ok_seconds else 0.0,
        "ok_frac": (emb["attempted"] - emb["failed"]) / emb["attempted"],
    }
    rates = lab if scaled else lab.get("unscaled", {})
    for name in ("oracle_pairs_per_s", "codec_labels_per_s", "verify_pairs_per_s"):
        values[name] = rates.get(name, 0.0)
    for d in LADDER_DELTAS:
        values[f"frontier_n.d{d}"] = ladders[d]["frontier"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(main: dict) -> dict:
    values = dict(main["layers"])
    values["trace.overhead_frac"] = main["embed"]["overhead_frac"] or 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()}


def measure(args, tmp: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"root": ROOT, "seed": args.seed, "trace": traced, "tmp": tmp}
    deltas = WORKLOADS[args.workload] if traced else LADDER_DELTAS
    job = {**base, "role": "workload", "workload": args.workload, "seconds": args.seconds,
           "ladders": list(deltas), "spans_path": os.path.join(OUT, f"spans-{tag}.json")}
    # untraced runs take two more set-up samples, one before and one after
    setup_job = {**base, "role": "setup", "trace": False}
    setups = [] if traced else [run_worker(setup_job, deadline)[0]]
    main, rungs, ended = run_worker(job, deadline)
    if not traced:
        setups.append(run_worker(setup_job, deadline)[0])
    if main is None:
        passed = [f"d{r['delta']}:{r['rung']}" for r in rungs if r["ok"]]
        raise RunError(f"workload worker ended with {ended} and no result; "
                       f"ladder rungs passed: {passed}")
    if any(s is None for s in setups):
        raise RunError("a set-up worker ended without a result")
    ladders = {int(d): v for d, v in main["ladders"].items()}
    workers = [main, *setups]
    problems = [p for w in workers for p in w["problems"]]
    metrics = per_layer(main) if traced else end_to_end(main, ladders, workers)
    emb, lab = main["embed"], main["labels"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "program_digest": program_digest(),
        "versions": main["versions"], "nproc": os.cpu_count(),
        "threads": {v: "1" for v in THREAD_VARS},
        "inputs_digest": main["inputs_digest"],
        "setup_samples_s": [w["setup_s"] for w in workers],
        "import_s": [w["import_s"] for w in workers],
        "reference_s": main["reference_s"],
        "unscaled_metrics": None if traced else end_to_end(main, ladders, workers, scaled=False),
        "embed": emb,
        "frontier": {f"d{d}": {"n": lad["frontier"], "stop": lad["stop"],
                               "rung_s": lad["rung_s"]} for d, lad in ladders.items()},
        "fail_reasons": main["fail_reasons"],
        "problems": problems,
        "labels": lab,
        "failed_inputs": main.get("failed_inputs"),
        "self_s_by_stream": main.get("self_s_by_stream"),
        "metrics": metrics,
    }
    line = {
        "correct": not problems,
        "attempted": emb["attempted"] + lab.get("attempted", 0),
        "failed": emb["failed"],
        "metrics": metrics,
    }
    return report, line


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "induniv", "__init__.py")):
        print("perfbench: no program source at src/induniv", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        report, line = measure(args, tmp)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs {report['inputs_digest']} program {report['program_digest']} "
          f"commit {report['commit']}")
    print(f"versions {report['versions']} nproc {report['nproc']}")
    if report["reference_s"]:
        print(f"reference step {report['reference_s'] * 1000:.3f} ms median, "
              f"{Reference.NOMINAL_S * 1000:.3f} ms nominal; timed metrics scaled to nominal")
    for d, fr in report["frontier"].items():
        print(f"frontier {d}: n={fr['n']} stop={fr['stop']}")
    if report["fail_reasons"]:
        print(f"failures {report['fail_reasons']}")
    for stream, selfs in (report["self_s_by_stream"] or {}).items():
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
        print(f"self time, {stream}: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    for p in report["problems"]:
        print(f"INCORRECT {p}")
    for name, m in line["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
