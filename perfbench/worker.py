"""One fresh benchmark process: a cold set-up, then (role ``workload``) the
workload's desk-set embeds, its label operations and the frontier ladders,
interleaved over the whole ``--seconds`` so that every timed figure samples
the whole run.

Usage: ``python3 worker.py '<job json>'`` (``run.py`` starts it). Writes JSON
lines to stdout: one per finished ladder rung, then one result line. Every
input runs under a time budget (SIGALRM) and the process under a memory
budget (RLIMIT_AS), so a hang, an allocation failure or a program error is
recorded as a failure of that input and the process carries on.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

perf = time.perf_counter

DESK_BUDGET_S = 20.0          # per desk-set embed
LADDER_BUDGET_S = 3.0         # per ladder embed: the frontier's time budget
MEMORY_BUDGET = 1 << 30       # address space allowed beyond the set-up's
LADDER_CAP_S = 80.0           # ladder time per run; a ladder still climbing then stops
DESK_PASSES = 3               # at least
ORACLE_PAIRS = 1024           # label pairs per run
ORACLE_BATCH, CODEC_BATCH = 256, 512    # about 12 and 20 ms
EMITTED = 2                   # embeddings written through ``induniv embed``
TRACED_ROUNDS = 3             # times a traced run runs each label batch
# shares of the run's time; desk and labels fill whatever the ladders leave
WEIGHTS = {"desk": 0.37, "labels": 0.10, "ladder": 0.50, "reference": 0.03}


class BudgetTimeout(BaseException):
    """Raised by SIGALRM inside an input that ran past its time budget."""


def _on_alarm(signum, frame):
    raise BudgetTimeout()


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def _vm_bytes() -> int | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


class Context:
    """The imported program, its parameters and this process's bookkeeping."""

    def __init__(self, root: str, tracer: Tracer | None):
        t0 = perf()
        sys.path.insert(0, os.path.join(root, "src"))
        from induniv import cli, embedder, errors, gamma, graphs
        self.import_s = perf() - t0
        self.cli, self.embedder, self.gamma, self.graphs = cli, embedder, gamma, graphs
        self.errors = errors
        self.tracer = tracer
        self._params: dict = {}
        self.problems: list[str] = []
        self.fail_reasons: dict[str, int] = {}
        self._input_id = 0
        if tracer is not None:
            layers.install(tracer)
        t0 = perf()
        self.params(3, 1)  # the first make_gamma_params builds and certifies the expanders
        self.setup_s = perf() - t0
        vm = _vm_bytes()
        if vm is not None:
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (vm + MEMORY_BUDGET, hard))
        signal.signal(signal.SIGALRM, _on_alarm)

    def params(self, delta: int, n: int):
        key = (delta, n)
        if key not in self._params:
            self._params[key] = self.gamma.make_gamma_params(delta, n)
        return self._params[key]

    @contextlib.contextmanager
    def untraced(self):
        """Pause span recording, e.g. around correctness checks."""
        was_on = self.tracer is not None and self.tracer.on
        if was_on:
            self.tracer.on = False
        try:
            yield
        finally:
            if was_on:
                self.tracer.on = True

    def graph(self, inp: dict):
        return self.graphs.Graph(inp["n"], [tuple(e) for e in inp["edges"]])

    def embed(self, inp: dict, budget_s: float, stream: str):
        """(seconds, result or None, failure reason or None)."""
        h = self.graph(inp)
        params = self.params(inp["delta"], max(h.vertex_count, 1))
        reason = None
        result = None
        if self.tracer is not None:
            self.tracer.begin(self._input_id, stream)
        self._input_id += 1
        t0 = perf()
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                result = self.embedder.embed(h, inp["delta"], params)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetTimeout:
            reason = "Timeout"
        except MemoryError:
            reason = "MemoryError"
        except self.errors.ArtifactError as exc:
            reason = failure_reason(exc)
        dt = perf() - t0
        if reason is not None:
            self.failed(reason)
        return dt, result, reason

    def failed(self, reason: str) -> None:
        """Count a failure of the input that ran last."""
        key = "fail." + reason
        self.fail_reasons[key] = self.fail_reasons.get(key, 0) + 1
        if self.tracer is not None:
            self.tracer.failed.add(self.tracer.input_id)

    def check(self, inp: dict, result) -> None:
        """Correctness gate, outside every timed interval."""
        with self.untraced():
            try:
                self._check(inp, result)
            except self.errors.ArtifactError as exc:
                self.problems.append(f"{inp['family']} n={inp['n']}: check raised {exc!r}")

    def _check(self, inp: dict, result) -> None:
        h = self.graph(inp)
        params = self.params(inp["delta"], max(h.vertex_count, 1))
        n = h.vertex_count
        where = f"{inp['family']} n={n} delta={inp['delta']}"
        if not result.certificate.ok:
            self.problems.append(f"{where}: certificate not ok")
        report = self.embedder.verify_induced(h, result, params)
        if not report.ok or report.pairs_checked != n * (n - 1) // 2:
            self.problems.append(
                f"{where}: induced check ok={report.ok} pairs={report.pairs_checked}")
        if len(result.gamma) != n:
            self.problems.append(f"{where}: {len(result.gamma)} images for {n} vertices")
        for v in result.gamma:
            if self.gamma.decode_label(self.gamma.encode_label(v, params), params) != v:
                self.problems.append(f"{where}: label round trip changed a vertex")
                break


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def failure_reason(exc) -> str:
    """Error type of the last retry round, else of the exception itself."""
    trail = getattr(exc, "trail", None)
    if trail:
        return trail[-1].get("error", {}).get("type", type(exc).__name__)
    return exc.to_json().get("type", type(exc).__name__)


# -- the three streams of a run ---------------------------------------------------


class Ladder:
    """Frontier ladders, one input per step: each climbs its rungs until one
    has an input that fails or misses its budget. Should the ladders together
    take over ``LADDER_CAP_S``, the one climbing stops there, with reason
    ``cap``, and the others are not climbed."""

    weight = WEIGHTS["ladder"]

    def __init__(self, ctx: Context, deltas):
        self.ctx = ctx
        self.todo = [(d, gen.ladder(d)) for d in deltas]
        self.out: dict[int, dict] = {d: {"frontier": 0, "stop": None, "rung_s": {}}
                                     for d in deltas}
        self.rung = self.item = 0
        self.rung_t = 0.0
        self.busy = 0.0
        self.digest = gen.digest([rungs for _, rungs in self.todo])

    def done(self, time_up: bool) -> bool:
        if self.todo and self.busy > LADDER_CAP_S:
            for delta, _ in self.todo:
                self.out[delta]["stop"] = {"reason": "cap", "seconds": round(self.busy, 3)}
            self.todo = []
        return not self.todo

    def step(self) -> None:
        delta, rungs = self.todo[0]
        res = self.out[delta]
        rung = rungs[self.rung]
        inp = rung[self.item]
        n = inp["n"]
        t0 = perf()
        dt, result, reason = self.ctx.embed(inp, LADDER_BUDGET_S, "ladder")
        if result is not None:
            known = len(self.ctx.problems)
            self.ctx.check(inp, result)
            if len(self.ctx.problems) > known:
                reason = "IncorrectOutput"
                self.ctx.failed(reason)
        self.rung_t += perf() - t0
        self.item += 1
        if reason is not None:
            res["stop"] = {"n": n, "family": inp["family"], "reason": "fail." + reason,
                           "seconds": round(dt, 3)}
        elif self.item < len(rung):
            return
        else:
            res["frontier"] = n
        res["rung_s"][n] = round(self.rung_t, 3)
        emit({"delta": delta, "rung": n, "ok": reason is None})
        self.rung_t = 0.0
        self.item = 0
        self.rung += 1
        if reason is not None or self.rung == len(rungs):
            self.todo.pop(0)
            self.rung = 0


class Desk:
    """Closed loop over the workload's inputs, one input per step, in whole
    passes spread over the whole run. An input's latency is the median over
    the passes of its time, each scaled to the reference speed at the moment
    it ran (see ``Reference``). An input that failed in any pass counts as
    the full budget.

    In a traced run there is one pass and each input runs twice in a row,
    first with the wrappers removed and then installed, so the two sums give
    the tracing overhead on identical work."""

    weight = WEIGHTS["desk"]

    def __init__(self, ctx: Context, inputs: list[dict], traced: bool):
        self.ctx, self.inputs, self.traced = ctx, inputs, traced
        self.times: list[list[tuple[float, float]]] = [[] for _ in inputs]  # (middle, s)
        self.results: list = [None] * len(inputs)
        self.bad: set[int] = set()      # inputs that failed in some pass
        self.failed = 0
        self.k = 0
        self.passes = 0
        self.busy = 0.0
        self.plain_s = self.traced_s = 0.0

    def done(self, time_up: bool) -> bool:
        if self.traced:
            return self.passes >= 1
        return time_up and self.passes >= DESK_PASSES

    def step(self) -> None:
        ctx, k = self.ctx, self.k
        inp = self.inputs[k]
        if self.traced:
            ctx.tracer.restore()
            dt0, _, _ = ctx.embed(inp, DESK_BUDGET_S, "desk")
            layers.install(ctx.tracer)
        t0 = perf()
        dt, result, reason = ctx.embed(inp, DESK_BUDGET_S, "desk")
        self.times[k].append((t0 + dt / 2, dt))
        if self.traced:
            self.plain_s += dt0
            self.traced_s += dt
        if reason is not None:
            self.failed += 1
            self.bad.add(k)
        else:
            if self.results[k] is None:
                ctx.check(inp, result)
                self.results[k] = result
            elif self.results[k].gamma != result.gamma:
                ctx.problems.append(f"input {k}: embedding differs between passes")
        self.k = (k + 1) % len(self.inputs)
        if self.k == 0:
            self.passes += 1

    def per_input(self, scale) -> list[float]:
        return [DESK_BUDGET_S if k in self.bad else
                statistics.median(dt * scale(t) for t, dt in ts)
                for k, ts in enumerate(self.times)]

    def summary(self, scale) -> dict:
        ok = [k for k in range(len(self.inputs)) if k not in self.bad]
        return {
            "per_input_s": self.per_input(scale),
            "unscaled_per_input_s": self.per_input(unscaled),
            "times": self.times,
            "passes": self.passes,
            "ok": ok,
            "ok_vertices": sum(self.inputs[k]["n"] for k in ok),
            "attempted": sum(len(ts) for ts in self.times),
            "failed": self.failed,
            "overhead_frac": (self.traced_s / self.plain_s - 1)
            if self.traced and self.plain_s else None,
        }


def workload_inputs(workload: str, seed: int) -> list[dict]:
    if workload == "embed-odd":
        return gen.desk_set(3, seed)
    sets = [gen.desk_set(d, seed) for d in (2, 4)]
    return [inp for group in zip(*sets) for inp in group]


def _write_edge_list(path: str, inp: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{inp['n']} {len(inp['edges'])}\n")
        fh.writelines(f"{u} {v}\n" for u, v in inp["edges"])


class LabelOps:
    """Oracle, codec and ``induniv verify`` operations over the embeddings of
    one run. Each operation has a fixed list of batches of some 10 to 20 ms,
    run in turn over and over across the whole run; every batch is timed
    alone and checked after its timed interval. A rate is the work of all of
    an operation's batches over the sum of their median times, each time
    scaled to the reference speed as ``Desk`` does."""

    OPS = ("oracle", "codec", "verify")
    weight = WEIGHTS["labels"]

    def __init__(self, ctx: Context, inputs, results, seed: int, tmp: str):
        self.ctx, self.tmp = ctx, tmp
        self.busy = 0.0
        gamma = ctx.gamma
        self.pool = []      # (input, graph, params, labels)
        vertices = []       # (params, vertex) over the whole pool
        for inp, res in zip(inputs, results):
            if res is None:
                continue
            h = ctx.graph(inp)
            params = ctx.params(inp["delta"], max(h.vertex_count, 1))
            self.pool.append((inp, h, params, [gamma.encode_label(v, params) for v in res.gamma]))
            vertices.extend((params, v) for v in res.gamma)
        self.pairs = gen.label_pairs(
            [(p[0]["n"], p[0]["edges"]) for p in self.pool], ORACLE_PAIRS, seed) if self.pool else []
        self.batches = {
            "oracle": _chunks(self.pairs, ORACLE_BATCH),
            "codec": _chunks(vertices, CODEC_BATCH),
            "verify": [],   # (input path, embedding path, n), filled by start()
        }
        self.turn = dict.fromkeys(self.OPS, 0)
        self.op_busy = dict.fromkeys(self.OPS, 0.0)
        # op -> batch -> [(middle, seconds)] of each time it ran
        self.times: dict[str, dict[int, list]] = {op: {} for op in self.OPS}
        self.work: dict[str, dict[int, int]] = {op: {} for op in self.OPS}
        self.done_count = dict.fromkeys((*self.OPS, "verify_calls"), 0)

    def _next(self, op: str) -> tuple[int, list]:
        batches = self.batches[op]
        i = self.turn[op] % len(batches)
        self.turn[op] += 1
        return i, batches[i]

    def _record(self, op: str, i: int, count: int, t0: float, t1: float) -> None:
        self.op_busy[op] += t1 - t0
        self.done_count[op] += count
        self.times[op].setdefault(i, []).append(((t0 + t1) / 2, t1 - t0))
        self.work[op][i] = count

    def rate(self, op: str, scale) -> float:
        """Work of the batches that ran over the sum of their median times."""
        times = self.times[op]
        if not times:
            return 0.0
        return sum(self.work[op].values()) / sum(
            statistics.median(dt * scale(t) for t, dt in ts) for ts in times.values())

    def emit_embeddings(self) -> bool:
        """Write the largest embeddings through ``induniv embed --emit-labels``."""
        largest = sorted(self.pool, key=lambda p: -p[0]["n"])[:EMITTED]
        for j, (inp, *_rest) in enumerate(largest):
            hpath = os.path.join(self.tmp, f"h{j}.txt")
            epath = os.path.join(self.tmp, f"emb{j}.json")
            _write_edge_list(hpath, inp)
            code = self.ctx.cli.run(["embed", "--input", hpath, "--delta", str(inp["delta"]),
                                     "--emit-labels", "--output", epath])
            if code != 0:
                self.ctx.problems.append(
                    f"induniv embed exited {code} on {inp['family']} n={inp['n']}")
                return False
            self.batches["verify"].append((hpath, epath, inp["n"]))
        return True

    def oracle(self) -> None:
        ctx, pool = self.ctx, self.pool
        adjacent = ctx.gamma.adjacency_from_labels
        i, batch = self._next("oracle")
        t0 = perf()
        got = [adjacent(pool[k][3][a], pool[k][3][b], pool[k][2]) for k, a, b in batch]
        self._record("oracle", i, len(batch), t0, perf())
        with ctx.untraced():
            for (k, a, b), g in zip(batch, got):
                if g != pool[k][1].has_edge(a, b):
                    ctx.problems.append(f"oracle: labels {a},{b} of input {k} say {g}")
            k, a, b = batch[0]
            if adjacent(pool[k][3][b], pool[k][3][a], pool[k][2]) != got[0]:
                ctx.problems.append(f"oracle: asymmetric on {a},{b} of input {k}")
            if adjacent(pool[k][3][a], pool[k][3][a], pool[k][2]):
                ctx.problems.append(f"oracle: self-loop at {a} of input {k}")

    def codec(self) -> None:
        gamma = self.ctx.gamma
        i, chunk = self._next("codec")
        t0 = perf()
        back = [gamma.decode_label(gamma.encode_label(v, p), p) for p, v in chunk]
        self._record("codec", i, len(chunk), t0, perf())
        if back != [v for _, v in chunk]:
            self.ctx.problems.append("codec: a label round trip changed its vertex")

    def verify(self) -> None:
        i, (hpath, epath, n) = self._next("verify")
        out = os.path.join(self.tmp, "verify.json")
        if os.path.exists(out):
            os.remove(out)
        t0 = perf()
        code = self.ctx.cli.run(["verify", "--embedding", epath, "--input", hpath,
                                 "--output", out])
        t1 = perf()
        self.done_count["verify_calls"] += 1
        payload = {}
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
        if code != 0 or not payload.get("ok") or payload.get("pairs_checked") != n * (n - 1) // 2:
            self.ctx.problems.append(f"induniv verify exited {code} on an emitted embedding")
            self.op_busy["verify"] += t1 - t0
            return
        self._record("verify", i, n * (n - 1) // 2, t0, t1)

    def start(self) -> bool:
        if not self.pool:
            self.ctx.problems.append("no embedding to run label operations on")
            return False
        with self.ctx.untraced():
            return self.emit_embeddings()

    def _todo(self) -> list[str]:
        """Operations still to run; a traced run makes a fixed number of
        rounds, so its per-layer counts do not depend on the machine's speed."""
        if self.ctx.tracer is None:
            return list(self.OPS)
        return [op for op in self.OPS if self.turn[op] < TRACED_ROUNDS * len(self.batches[op])]

    def done(self, time_up: bool) -> bool:
        return not self._todo() if self.ctx.tracer is not None else time_up

    def step(self) -> None:
        """Run whichever operation has had the least time so far. The labels
        come from the program's own embeddings, so an error is a wrong answer."""
        if self.ctx.tracer is not None:
            self.ctx.tracer.begin(-2, "labels")
        op = min(self._todo(), key=self.op_busy.__getitem__)
        try:
            {"oracle": self.oracle, "codec": self.codec, "verify": self.verify}[op]()
        except self.ctx.errors.ArtifactError as exc:
            self.op_busy[op] += 1.0  # keep the other operations going
            self.ctx.problems.append(f"{op} raised {exc!r}")

    @property
    def digest(self) -> str:
        return gen.digest(self.pairs)

    def summary(self, scale) -> dict:
        """Rates read 0 for an operation with no good batch; the run is then
        already marked incorrect, and the result line still gets written."""
        names = {"oracle": "oracle_pairs_per_s", "codec": "codec_labels_per_s",
                 "verify": "verify_pairs_per_s"}
        return {
            **{names[op]: self.rate(op, scale) for op in self.OPS},
            "unscaled": {names[op]: self.rate(op, unscaled) for op in self.OPS},
            "batches": {op: len(b) for op, b in self.batches.items()},
            "busy_s": self.op_busy,
            "done": self.done_count,
            "attempted": self.done_count["oracle"] + self.done_count["codec"]
            + self.done_count["verify_calls"],
        }


class Reference:
    """A fixed pure-Python workload that never touches the program: full
    breadth-first searches over a small random graph built from a constant
    seed, the kind of work the pipeline's walk building and checks do. It is
    the same work in every run of every commit, so its time says how fast
    the shared machine is at each moment. ``scale(t)`` is the factor that
    brings a time measured at ``t`` to the speed at which one reference step
    takes ``NOMINAL_S``: the nominal over the median reference step within
    ``WINDOW_S`` of ``t``."""

    weight = WEIGHTS["reference"]
    VERTICES, SOURCES = 2000, 8
    NOMINAL_S = 0.006
    WINDOW_S = 1.5

    def __init__(self):
        rng = random.Random("perfbench reference")
        n = self.VERTICES
        order = list(range(n))
        rng.shuffle(order)
        # a cycle through every vertex in random order, plus as many chords
        edges = list(zip(order, order[1:] + order[:1]))
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.sources = [rng.randrange(n) for _ in range(self.SOURCES)]
        self.middles: list[float] = []   # in time order
        self.seconds: list[float] = []
        self.busy = 0.0

    def done(self, time_up: bool) -> bool:
        return time_up

    def search(self, source: int) -> int:
        adj, seen, frontier = self.adj, {source}, [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return len(seen)

    def step(self) -> None:
        t0 = perf()
        for source in self.sources:
            self.search(source)
        t1 = perf()
        self.middles.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def scale(self, t: float) -> float:
        i = bisect.bisect_left(self.middles, t - self.WINDOW_S)
        j = bisect.bisect_right(self.middles, t + self.WINDOW_S)
        near = self.seconds[i:j] or self.seconds[max(i - 1, 0):i + 1]
        return self.NOMINAL_S / statistics.median(near)


def unscaled(t: float) -> float:
    return 1.0


def _chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def run_workload(ctx: Context, job: dict) -> dict:
    """Interleave the streams for ``seconds``, each step going to the one
    furthest behind its share of time, until every stream is done: the
    ladders when they have stopped, the desk when the time is up and it has
    made its passes, the label operations when the time is up."""
    workload, seed = job["workload"], job["seed"]
    inputs = workload_inputs(workload, seed)
    desk = Desk(ctx, inputs, ctx.tracer is not None)
    ladder = Ladder(ctx, job["ladders"])
    reference = Reference()
    labels = None
    # a traced run reports no timed end-to-end metric, so needs no reference
    traced = ctx.tracer is not None
    streams = [desk, ladder] + ([] if traced else [reference])
    end = perf() + job["seconds"]
    while True:
        if labels is None and desk.passes >= 1:
            labels = LabelOps(ctx, inputs, desk.results, seed, job["tmp"])
            if not labels.start():
                break
            labels.busy = desk.busy / desk.weight * labels.weight   # join in step
            streams.append(labels)
        time_up = perf() >= end
        todo = [s for s in streams if not s.done(time_up)]
        if not todo:
            break
        stream = min(todo, key=lambda s: s.busy / s.weight)
        t0 = perf()
        stream.step()
        stream.busy += perf() - t0
    scale = unscaled if traced else reference.scale
    return {
        "embed": desk.summary(scale),
        "labels": labels.summary(scale) if labels is not None else {},
        "ladders": ladder.out,
        "reference_s": statistics.median(reference.seconds) if reference.seconds else None,
        "inputs_digest": gen.digest([gen.digest(inputs), ladder.digest,
                                     labels.digest if labels is not None else None]),
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    tracer = Tracer() if job.get("trace") else None
    ctx = Context(job["root"], tracer)
    out = run_workload(ctx, job) if job["role"] == "workload" else {}
    import numpy
    import scipy
    out.update({
        "role": job["role"],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "setup_s": ctx.setup_s,
        "import_s": ctx.import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": ctx.problems[:20],
        "fail_reasons": ctx.fail_reasons,
    })
    if tracer is not None:
        tracer.on = False
        out["layers"] = layers.summarize(tracer)
        out["layers"]["gamma.metric_rows"] = layers.metric_rows(ctx._params.values())
        out["failed_inputs"] = len(tracer.failed)
        out["self_s_by_stream"] = layers.self_times_by_stream(tracer)
        tracer.restore()
        tracer.dump(job["spans_path"])
    emit({"result": out})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
