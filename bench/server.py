"""Launcher child: stands the whole stack up behind one gateway.

``run.py`` starts this file once per cold start.  It receives only the
pickled inputs; it cold-starts the two shard workers from the prepared
segments, builds the model, warms the cache, binds the gateway and
prints one ``ready`` line.  After that it obeys lines on its stdin:

* ``mark <name>`` — snapshot the counters the program already exposes
  (and, on ``begin`` / ``end``, switch span recording on / off);
* ``stop`` — close the gateway, write the report (marks, catalog-write
  log, span aggregates) and ``spans.jsonl``, and exit.

With ``--churn 1`` (``mixed_open``) a background task applies one catalog
write per ``SEARCHES_PER_WRITE`` searches served.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import pickle
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.gateway import Gateway  # noqa: E402

import stack  # noqa: E402
import tracing  # noqa: E402


def snapshot(pipeline, gateway, tracer, writes: int) -> dict:
    """The program's own counters, read at one instant."""
    report = gateway.bridges["default"].scheduler.report
    cache = pipeline.cache
    model = pipeline.fallback.model
    return {
        "t": time.monotonic(),
        "cache": {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "evictions": cache.stats.evictions,
            "fill_ratio": cache.fill_ratio,
        },
        "serving": {
            "search_requests": pipeline.stats.search_requests,
            "search_postings_accessed": pipeline.stats.search_postings_accessed,
        },
        "decode": {"steps": model.decode_steps, "rows": model.decode_rows},
        "scheduler": {
            "completed": report.completed,
            "shed": report.shed,
            "batches": report.batches,
            "size_triggered": report.size_triggered,
            "queue_delays": len(report.queue_delays_seconds),
        },
        "gateway": {
            "http_requests": gateway.stats.http_requests,
            "responses_non_200": sum(
                count
                for status, count in gateway.stats.responses_by_status.items()
                if status != 200
            ),
        },
        "writes": writes,
        "trace_counters": dict(tracer.counters) if tracer is not None else {},
    }


async def churn(engine, pipeline, products, log: list) -> None:
    """One catalog write per ``SEARCHES_PER_WRITE`` searches served.

    Every third write (and every write at the live cap) removes the
    oldest live churn product; the others add the next one.
    """
    live: deque = deque()
    pending = iter(products)
    while True:
        await asyncio.sleep(0.002)
        while pipeline.stats.search_requests // stack.SEARCHES_PER_WRITE > len(log):
            remove = len(live) >= stack.MAX_LIVE_CHURN or (live and len(log) % 3 == 2)
            started = time.monotonic()
            if remove:
                operation = "remove"
                product_id = live.popleft()
                engine.remove_product(product_id)
            else:
                operation = "add"
                product = next(pending, None)
                if product is None:
                    return
                product_id = product.product_id
                engine.add_product(product)
                live.append(product_id)
            log.append((operation, product_id, started, time.monotonic()))


async def serve(args, pipeline, engine, inputs, tracer, phases: dict) -> dict:
    """Run the gateway until ``stop``; returns the report."""
    started = time.monotonic()
    marks: dict = {}
    writes: list = []
    async with Gateway({"default": pipeline}, stack.GATEWAY) as gateway:
        phases["gateway.start_s"] = time.monotonic() - started
        churn_task = None
        if args.churn:
            churn_task = asyncio.create_task(
                churn(engine, pipeline, inputs["churn_products"], writes)
            )
        print(
            json.dumps(
                {
                    "event": "ready",
                    "port": gateway.port,
                    "pid": os.getpid(),
                    "worker_pids": [
                        child.pid for child in multiprocessing.active_children()
                    ],
                    "phases": phases,
                }
            ),
            flush=True,
        )
        reader = asyncio.StreamReader()
        await asyncio.get_running_loop().connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        while True:
            line = (await reader.readline()).decode().strip()
            if not line or line == "stop":
                break
            _, name = line.split(" ", 1)
            if tracer is not None and name == "end":
                tracer.recording = False
            marks[name] = snapshot(pipeline, gateway, tracer, len(writes))
            if tracer is not None and name == "begin":
                tracer.recording = True
        if churn_task is not None:
            churn_task.cancel()
            try:
                await churn_task
            except asyncio.CancelledError:
                pass
        delays = gateway.bridges["default"].scheduler.report.queue_delays_seconds
    queue_wait_ms = [0.0, 0.0]
    if "begin" in marks and "end" in marks:
        window = delays[
            marks["begin"]["scheduler"]["queue_delays"] : marks["end"]["scheduler"][
                "queue_delays"
            ]
        ]
        if window:
            queue_wait_ms = (np.percentile(window, [50, 95]) * 1000.0).tolist()
    return {"marks": marks, "writes": writes, "queue_wait_ms_p50_p95": queue_wait_ms}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True, help="pickled inputs from run.py")
    parser.add_argument("--report", required=True, help="where to write the report")
    parser.add_argument("--dump", required=True, help="where to write the head dump")
    parser.add_argument("--spans", default=None, help="where to write spans.jsonl")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--churn", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="launch time, monotonic")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    phases = {"setup.import_s": time.monotonic() - args.t0}

    started = time.monotonic()
    with open(args.inputs, "rb") as handle:
        inputs = pickle.load(handle)
    engine = stack.load_engine(inputs["products"], inputs["segments_root"])
    phases["cluster.workers_boot_s"] = time.monotonic() - started
    rewriter, cache = stack.build_rewrite_tier(inputs["vocab"], inputs["heads"], phases)
    pipeline = stack.build_pipeline(rewriter, cache, engine)
    with open(args.dump, "w", encoding="utf-8") as handle:
        json.dump({head: cache.get(head) for head in inputs["heads"]}, handle)

    report = asyncio.run(serve(args, pipeline, engine, inputs, tracer, phases))
    if tracer is not None:
        report["trace"] = tracer.aggregate()
        report["bridge"] = tracer.bridge_summary()
        tracer.write_spans(args.spans)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
