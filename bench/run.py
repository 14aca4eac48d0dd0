#!/usr/bin/env python3
"""The repo benchmark: one workload against the whole stack, end to end.

    python3 bench/run.py --workload head_cache --seed 1 --seconds 12 --trace 0

One run: offline prep (inputs from the seed, index build, segment save,
oracle, twin) -> cold starts of ``bench/server.py`` (gateway -> scheduler
-> cache -> hybrid model -> sharded engine over two worker processes) ->
serial pre-check against the twin -> warm-up -> measured stretch ->
drain.  Every reply is checked.  The last line printed is the result:
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's context (host, versions, phases, per-tenth
throughput).  ``--trace 0`` prints the end-to-end metrics with no
wrappers installed; ``--trace 1`` measures an untraced reference stretch
and then a traced one and prints the per-layer metrics.  ``--aa N`` runs
two interleaved sets of N runs per workload and compares their medians.

See ``bench/README.md`` for the definitions.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

#: one BLAS thread per process, set before numpy loads and inherited by
#: the server and its workers: the bundled OpenBLAS otherwise runs two
#: threads in each of four processes on the two cores
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import collections  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.data.catalog import Catalog  # noqa: E402
from repro.search import ShardedSearchEngine  # noqa: E402

import loadgen  # noqa: E402
import stack  # noqa: E402
import workloads  # noqa: E402

#: the contract: metric names, units and bounds live in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: a run whose generator ran later than this (p95) is flagged
GENERATOR_LATE_LIMIT_MS = 25.0
#: the measured stretch is cut into slices this long
SLICE_SECONDS = 0.5


# -- /proc -------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """CPU time the process's threads have run, from the scheduler's
    nanosecond counters (``/proc/<pid>/task/*/schedstat``); the ticks of
    ``/proc/<pid>/stat`` are too coarse for half-second slices."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as handle:
            total += int(handle.read().split()[0])
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM`` of ``/proc/<pid>/status``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- offline prep ------------------------------------------------------------
def prepare(seed: int, scale: stack.Scale, workdir: Path) -> dict:
    """Everything a cold start consumes, plus the oracle and the twin."""
    inputs = workloads.generate_inputs(seed, scale)
    segments_root = workdir / "segments"
    started = time.monotonic()
    engine = ShardedSearchEngine(
        Catalog(products=list(inputs.products)),
        stack.SEARCH,
        num_shards=stack.NUM_SHARDS,
        parallel=False,
    )
    built = time.monotonic()
    engine.save(segments_root)
    saved = time.monotonic()
    engine.close()
    with open(workdir / "inputs.pkl", "wb") as handle:
        pickle.dump(
            {
                "products": inputs.products,
                "vocab": inputs.vocab,
                "heads": inputs.heads,
                "churn_products": inputs.churn_products,
                "segments_root": str(segments_root),
            },
            handle,
            pickle.HIGHEST_PROTOCOL,
        )
    oracle = workloads.build_oracle(inputs)
    rewriter, cache = stack.build_rewrite_tier(inputs.vocab, inputs.heads)
    return {
        "inputs": inputs,
        "oracle": oracle,
        "source": workloads.ItemSource(
            inputs, workloads.searchable_heads(inputs, oracle)
        ),
        "twin_dump": {head: cache.get(head) for head in inputs.heads},
        "twin": stack.build_pipeline(rewriter, cache),
        "layer": {
            "search.index_build_s": built - started,
            "store.segments_save_s": saved - built,
            "store.segments_bytes": sum(
                path.stat().st_size for path in segments_root.iterdir()
            ),
        },
    }


# -- the launcher child ------------------------------------------------------
class Server:
    """One cold start of ``bench/server.py``."""

    def __init__(self, workdir: Path, tag: str, *, trace: bool, churn: bool):
        self.report_path = workdir / f"report-{tag}.json"
        dump_path = workdir / f"dump-{tag}.json"
        #: server first, then its shard workers (known once it is ready)
        self.pids: list = []
        launched = time.monotonic()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "server.py"),
                "--inputs", str(workdir / "inputs.pkl"),
                "--report", str(self.report_path),
                "--dump", str(dump_path),
                "--spans", str(workdir / "spans.jsonl"),
                "--trace", str(int(trace)),
                "--churn", str(int(churn)),
                "--t0", repr(launched),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )  # fmt: skip
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("the server exited before it was ready")
            self.ready = json.loads(line)
            self.pids = [self.ready["pid"], *self.ready["worker_pids"]]
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.ready["port"], timeout=30
            )
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            response.read()
            connection.close()
            if response.status != 200:
                raise RuntimeError(f"/v1/health answered {response.status}")
            #: launcher start -> first /v1/health 200
            self.setup_s = time.monotonic() - launched
            self.dump = json.loads(dump_path.read_text(encoding="utf-8"))
        except BaseException:
            self.kill()
            raise
        self.port = self.ready["port"]

    def mark(self, name: str) -> None:
        """Ask the server to snapshot its counters now."""
        self.process.stdin.write(f"mark {name}\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        """Stop the server, wait for it, and return its report."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            if self.process.wait(timeout=90) != 0:
                raise RuntimeError(f"the server exited with {self.process.returncode}")
        finally:
            self.kill()
        return json.loads(self.report_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        """Make sure the process is gone (no-op after a clean stop)."""
        if self.process.poll() is None:
            self.process.kill()
            # a killed server cannot join its workers; they exit on the
            # closed pipe, but do not leave that to chance
            for pid in self.pids[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


# -- one measured stretch ----------------------------------------------------
async def precheck(server: Server, prep: dict, checker, log, count: int) -> bool:
    """``count`` tails, one per call, on one connection: the served
    stack must answer each exactly as the in-process twin does."""
    client = loadgen.Client(server.port)
    same = server.dump == prep["twin_dump"]
    try:
        for _ in range(count):
            item = prep["source"].next("tail_rewrite")
            reply = await loadgen.send_call(client, [item], checker, log)
            twin = prep["twin"].serve_batch([item[1]])[0]
            same = same and reply.get("rewrites") == twin.rewrites
    finally:
        await client.close()
    return same


async def drive(server, workload, prep, scale, seconds: float, check_twin: bool) -> dict:
    """Pre-check, warm-up, measured stretch and drain against ``server``."""
    source = prep["source"]
    checker = workloads.Checker(prep["inputs"], server.dump, prep["oracle"])
    log = loadgen.CallLog()
    twin_ok = True
    if check_twin:
        twin_ok = await precheck(server, prep, checker, log, scale.precheck_tails)
    precheck_calls = len(log.calls)

    started = time.monotonic()
    begin = started + scale.warmup_seconds
    slices = max(1, round(seconds / SLICE_SECONDS))
    end = begin + slices * SLICE_SECONDS
    #: per slice boundary: time, CPU seconds of the workers and of every
    #: process, VmHWM of every process
    edges: list = []

    async def mark_slices():
        for boundary in range(slices + 1):
            await asyncio.sleep(begin + boundary * SLICE_SECONDS - time.monotonic())
            cpu = [cpu_seconds(pid) for pid in server.pids]
            edges.append(
                (
                    time.monotonic(),
                    sum(cpu[1:]),
                    sum(cpu),
                    sum(peak_rss_mb(pid) for pid in server.pids),
                )
            )
            if boundary in (0, slices):
                server.mark("begin" if boundary == 0 else "end")

    marker = asyncio.create_task(mark_slices())
    if workload.loop == "closed":
        item_class = workload.mix[0][0]
        await loadgen.closed_loop(
            server.port,
            lambda: [source.next(item_class) for _ in range(workload.batch)],
            checker,
            log,
            until=end,
        )
    else:
        rng = np.random.default_rng([prep["inputs"].seed, 4])
        offsets = np.concatenate(
            [
                workloads.open_schedule(scale.warmup_seconds, rng),
                scale.warmup_seconds + workloads.open_schedule(end - begin, rng),
            ]
        )
        classes = workloads.class_sequence(workload, len(offsets), rng)
        schedule = [
            (started + offset, source.next(item_class))
            for offset, item_class in zip(offsets.tolist(), classes)
        ]
        await loadgen.open_loop(server.port, schedule, checker, log)
    await marker

    client = loadgen.Client(server.port)
    try:
        _, receipt = await client.request("POST", "/v1/drain", {})
    finally:
        await client.close()
    report = server.stop()
    log.fail_items(checker.settle_churn(report["writes"]))

    outcome = summarize(workload, log, precheck_calls, np.array(edges))
    outcome.update(
        report=report,
        twin_ok=twin_ok,
        receipt=receipt,
        failure_reasons=checker.reasons,
        churn_products_seen=len({pid for _, pid, _, _ in checker.sightings}),
        correct=(
            twin_ok
            and all(phase["failed"] == 0 for phase in outcome["phases"].values())
            and receipt["admitted"] == receipt["completed"] + receipt["shed"]
            and receipt["shed"] == 0
        ),
    )
    return outcome


def summarize(workload, log, precheck_calls: int, edges) -> dict:
    """Phases and end-to-end metrics of one driven stretch.

    The host's speed moves by a fifth for seconds at a time, so the
    timings are taken over the calm third of the stretch: the slices in
    which the fastest quarter of calls was fastest.  A slice's quarter
    sits inside the cheapest item class, so the choice does not follow
    how many expensive items a slice happened to hold.
    """
    calls = np.array(log.calls, dtype=np.float64)
    sent, received, due, items, ok = calls[:, :5].T
    times, worker_cpu, cpu, rss = edges.T
    begin, end = times[0], times[-1]
    phase_of_call = received if workload.loop == "closed" else due
    in_stretch = (phase_of_call >= begin) & (phase_of_call < end)
    in_precheck = np.arange(len(calls)) < precheck_calls
    phases = {}
    for name, mask in (
        ("precheck", in_precheck),
        ("warmup", ~in_precheck & (phase_of_call < begin)),
        ("stretch", in_stretch),
        ("drain", ~in_precheck & (phase_of_call >= end)),
    ):
        phases[name] = {
            "sent": int(items[mask].sum()),
            "ok": int(ok[mask].sum()),
            "failed": int((items[mask] - ok[mask]).sum()),
        }

    latency_ms = (received - due) * 1000.0
    slice_of_call = np.searchsorted(times, received, side="right") - 1
    slice_of_call[~in_stretch | (received >= end)] = -1
    slices = len(times) - 1
    quarter_ms = np.array(
        [
            np.percentile(latency_ms[slice_of_call == k], 25)
            if (slice_of_call == k).any()
            else np.inf
            for k in range(slices)
        ]
    )
    calm = np.sort(np.argsort(quarter_ms, kind="stable")[: max(1, slices // 3)])
    in_calm = np.isin(slice_of_call, calm)
    calm_seconds = np.diff(times)[calm].sum()
    calm_ok = ok[in_calm].sum()

    if workload.loop == "closed":
        throughput = calm_ok / calm_seconds
    else:
        # pinned by the schedule unless items fail or the server lags
        throughput = phases["stretch"]["ok"] / (received[in_stretch].max() - begin)
    item_latency_ms = np.repeat(latency_ms[in_calm], items[in_calm].astype(int))
    within = ok[in_calm][latency_ms[in_calm] <= workload.slo_ms].sum()
    # memory grows with the items served, so it is read at a fixed amount
    # of work since the server started, not at whatever the host's speed
    # let the warm-up and the stretch reach
    sliced = slice_of_call >= 0
    served = ok[received < begin].sum() + np.concatenate(
        [
            [0.0],
            np.cumsum(
                np.bincount(slice_of_call[sliced], weights=ok[sliced], minlength=slices)
            ),
        ]
    )
    late_ms = (sent[in_stretch] - due[in_stretch]) * 1000.0
    return {
        "phases": phases,
        "latency_samples": int(item_latency_ms.size),
        "calm_slices": calm.tolist(),
        "throughput_by_slice": (
            np.diff(served) / np.diff(times)
        ).round(1).tolist(),
        "rss_read_at_items": float(np.clip(workload.rss_items, served[0], served[-1])),
        "client_call_ms_mean": float((received[in_stretch] - sent[in_stretch]).mean() * 1e3),
        "worker_cpu_s": float(worker_cpu[-1] - worker_cpu[0]),
        "generator.late_ms_p95": (
            float(np.percentile(late_ms, 95)) if workload.loop == "open" else 0.0
        ),
        "throughput_rps": float(throughput),
        "latency_p50_ms": float(np.percentile(item_latency_ms, 50)),
        "latency_p95_ms": float(np.percentile(item_latency_ms, 95)),
        "slo_share": float(within) / items[in_calm].sum(),
        "cpu_ms_per_req": float(np.diff(cpu)[calm].sum()) * 1000.0 / calm_ok,
        "peak_rss_mb": float(np.interp(workload.rss_items, served, rss)),
    }


# -- per-layer metrics -------------------------------------------------------
def layer_metrics(traced: dict, reference: dict, phases: dict, prep: dict) -> dict:
    """Every per-layer metric of the traced stretch, by name."""
    report = traced["report"]
    begin, end = report["marks"]["begin"], report["marks"]["end"]

    def delta(group: str, key: str) -> float:
        return end[group][key] - begin[group][key]

    def per(amount: float, count: float, scale: float = 1.0) -> float:
        return amount * scale / count if count else 0.0

    span = collections.defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}, report["trace"]
    )
    items = delta("scheduler", "completed")
    calls = delta("gateway", "http_requests")
    batches = delta("scheduler", "batches")
    searches = delta("serving", "search_requests")
    lookups = delta("cache", "hits") + delta("cache", "misses")
    counters = {
        name: end["trace_counters"].get(name, 0) - begin["trace_counters"].get(name, 0)
        for name in ("cluster.rpc_calls", "cluster.request_bytes", "cluster.reply_bytes")
    }
    decode = span["decode.rewrite_batch"]
    bridge = report["bridge"]
    values = {
        "gateway.schema_parse_us_per_item": per(
            span["gateway.schema_parse"]["total_s"], items, 1e6
        ),
        "gateway.response_encode_us_per_item": per(
            span["gateway.response_encode"]["total_s"], items, 1e6
        ),
        "gateway.ratelimit_us_per_call": per(
            span["gateway.ratelimit"]["total_s"], calls, 1e6
        ),
        "gateway.overhead_ms_per_call": traced["client_call_ms_mean"]
        - per(bridge["wait_s"], bridge["calls"], 1e3),
        "gateway.http_requests": calls,
        "gateway.responses_non_200": delta("gateway", "responses_non_200"),
        "scheduler.queue_wait_ms_p50": report["queue_wait_ms_p50_p95"][0],
        "scheduler.queue_wait_ms_p95": report["queue_wait_ms_p50_p95"][1],
        "scheduler.batch_size_mean": per(items, batches),
        "scheduler.size_triggered_share": per(
            delta("scheduler", "size_triggered"), batches
        ),
        "scheduler.batches": batches,
        "scheduler.shed": delta("scheduler", "shed"),
        "scheduler.self_us_per_item": per(
            span["scheduler.submit"]["self_s"] + span["scheduler.advance_to"]["self_s"],
            items,
            1e6,
        ),
        "cache.get_us_per_lookup": per(
            span["cache.get"]["total_s"], span["cache.get"]["count"], 1e6
        ),
        "cache.put_us_per_write": per(
            span["cache.put"]["total_s"], span["cache.put"]["count"], 1e6
        ),
        "cache.hit_ratio": per(delta("cache", "hits"), lookups),
        "cache.evictions": delta("cache", "evictions"),
        "cache.fill_ratio": end["cache"]["fill_ratio"],
        "serving.serve_batch_self_us_per_item": per(
            span["serving.serve_batch"]["self_s"], span["serving.serve_batch"]["n"], 1e6
        ),
        "serving.search_batch_self_us_per_item": per(
            span["serving.search_batch"]["self_s"], span["serving.search_batch"]["n"], 1e6
        ),
        "decode.rewrite_batch_ms_per_batch": per(decode["total_s"], decode["count"], 1e3),
        "decode.ms_per_query": per(decode["total_s"], decode["n"], 1e3),
        "decode.batch_queries_mean": per(decode["n"], decode["count"]),
        "decode.rows_per_query": per(delta("decode", "rows"), decode["n"]),
        "decode.steps_per_batch": per(delta("decode", "steps"), decode["count"]),
        "models.start_ms_per_batch": per(
            span["models.start"]["total_s"], span["models.start"]["count"], 1e3
        ),
        "models.step_ms_per_step": per(
            span["models.step"]["total_s"], span["models.step"]["count"], 1e3
        ),
        "search.engine_search_ms_per_query": per(
            span["search.engine_search"]["total_s"], searches, 1e3
        ),
        "search.postings_per_query": per(
            delta("serving", "search_postings_accessed"), searches
        ),
        "search.tree_build_us_per_query": per(
            span["search.tree_build"]["total_s"], searches, 1e6
        ),
        "search.merge_topk_us_per_query": per(
            span["search.merge_topk"]["total_s"], searches, 1e6
        ),
        "search.write_ms_per_write": per(
            span["search.write"]["total_s"], span["search.write"]["count"], 1e3
        ),
        "cluster.fanout_ms_per_query": per(
            span["cluster.fanout"]["total_s"], searches, 1e3
        ),
        "cluster.rpc_calls_per_query": per(counters["cluster.rpc_calls"], searches),
        "cluster.request_bytes_per_query": per(
            counters["cluster.request_bytes"], searches
        ),
        "cluster.reply_bytes_per_query": per(counters["cluster.reply_bytes"], searches),
        "cluster.worker_cpu_ms_per_query": per(traced["worker_cpu_s"], searches, 1e3),
        "latency_p95_ms": reference["latency_p95_ms"],
        "trace.overhead_share": 1.0
        - traced["throughput_rps"] / reference["throughput_rps"],
        "generator.late_ms_p95": traced["generator.late_ms_p95"],
        **phases,
        **prep["layer"],
    }
    return {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in SPEC["per_layer"]
    }


# -- one run -----------------------------------------------------------------
def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(args) -> int:
    """One run of one workload; prints the context and result lines."""
    workload = workloads.WORKLOADS[args.workload]
    scale = stack.SCALES[args.scale]
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "slo_ms": workload.slo_ms,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "blas_env": BLAS_ENV,
    }
    if args.workdir is not None:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    server = None
    try:
        prep = prepare(args.seed, scale, workdir)
        if args.trace:
            # An untraced reference stretch, then the traced one; each
            # takes half the time so the run is as long as an untraced run.
            server = Server(workdir, "reference", trace=False, churn=workload.churn)
            phases = server.ready["phases"]
            reference = asyncio.run(
                drive(server, workload, prep, scale, args.seconds / 2, False)
            )
            server = Server(workdir, "traced", trace=True, churn=workload.churn)
            outcome = asyncio.run(
                drive(server, workload, prep, scale, args.seconds / 2, True)
            )
            runs = [reference, outcome]
            context["throughput_rps_untraced_then_traced"] = [
                reference["throughput_rps"],
                outcome["throughput_rps"],
            ]
            metrics = layer_metrics(outcome, reference, phases, prep)
        else:
            setups = []
            for start in range(scale.cold_starts):
                if start:
                    server.stop()
                server = Server(workdir, f"start{start}", trace=False, churn=workload.churn)
                setups.append(server.setup_s)
            outcome = asyncio.run(
                drive(server, workload, prep, scale, args.seconds, True)
            )
            runs = [outcome]
            context["setup_s_all"] = setups
            outcome["setup_s"] = min(setups)
            metrics = {
                metric["name"]: {
                    "value": float(outcome[metric["name"]]),
                    "unit": metric["unit"],
                }
                for metric in SPEC["end_to_end"]
            }
    finally:
        if server is not None:
            server.kill()
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    late = outcome["generator.late_ms_p95"]
    context.update(
        phases=outcome["phases"],
        receipt=outcome["receipt"],
        twin_ok=outcome["twin_ok"],
        failure_reasons=outcome["failure_reasons"],
        churn_products_seen=outcome["churn_products_seen"],
        catalog_writes=len(outcome["report"]["writes"]),
        latency_samples=outcome["latency_samples"],
        throughput_by_slice=outcome["throughput_by_slice"],
        calm_slices=outcome["calm_slices"],
        rss_read_at_items=outcome["rss_read_at_items"],
        generator_late_ms_p95=late,
        generator_saturated=late > GENERATOR_LATE_LIMIT_MS,
    )
    correct = all(run["correct"] for run in runs)
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(
                    phase["sent"] for run in runs for phase in run["phases"].values()
                ),
                "failed": sum(
                    phase["failed"] for run in runs for phase in run["phases"].values()
                ),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- A/A ---------------------------------------------------------------------
def quartile_spread(values: list) -> float:
    """Distance between the first and third quartile over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_aa(args) -> int:
    """Two interleaved sets of ``--aa`` runs per workload of this tree.

    Set A takes seeds ``seed .. seed+N-1``, set B the next N, so the
    comparison includes what changing the inputs does.  Prints, per
    workload and metric, both medians, both quartile spreads and the
    spread of the 2N runs together, how far the medians disagree, and
    the bound; exits 1 when a disagreement exceeds its bound.
    """
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    exceeded = False
    print(
        f"{'workload':<15}{'metric':<16}{'median A':>11}{'median B':>11}"
        f"{'spread A':>9}{'spread B':>9}{'spread AB':>10}{'disagree':>9}{'bound':>7}"
    )
    for name in names:
        sets: tuple = ({}, {})
        for index in range(args.aa):
            for which, samples in enumerate(sets):
                command = [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed + which * args.aa + index),
                    "--seconds", str(args.seconds),
                    "--scale", args.scale,
                ]  # fmt: skip
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    return 1
                result = json.loads(done.stdout.splitlines()[-1])
                for metric, entry in result["metrics"].items():
                    samples.setdefault(metric, []).append(entry["value"])
        for spec in SPEC["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a, b = sets[0][metric], sets[1][metric]
            median_a, median_b = statistics.median(a), statistics.median(b)
            disagreement = abs(median_b - median_a) / median_a
            over = disagreement > bound
            exceeded = exceeded or over
            spreads = [quartile_spread(a), quartile_spread(b)] if args.aa > 1 else [0.0, 0.0]
            print(
                f"{name:<15}{metric:<16}{median_a:>11.4f}{median_b:>11.4f}"
                f"{spreads[0]:>9.4f}{spreads[1]:>9.4f}{quartile_spread(a + b):>10.4f}"
                f"{disagreement:>9.4f}{bound:>7.2f}"
                f"{'  EXCEEDED' if over else ''}",
                flush=True,
            )
    return 1 if exceeded else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0, help="measured stretch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(stack.SCALES), default="full",
        help="'smoke' is the reduced stack of the smoke test",
    )  # fmt: skip
    parser.add_argument(
        "--workdir", default=None,
        help="keep the run's files (inputs, segments, reports, spans.jsonl) here",
    )  # fmt: skip
    parser.add_argument(
        "--aa", type=int, default=0, metavar="N",
        help="two interleaved sets of N runs per workload (all four without --workload)",
    )  # fmt: skip
    args = parser.parse_args()
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
