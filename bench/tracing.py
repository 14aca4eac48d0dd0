"""Outside-in tracing: spans around the public boundaries of each layer.

The traced run of the benchmark installs these wrappers from the
launcher before the stack is built; nothing under ``src/`` knows about
them.  A span is ``(id, name, start, end, parent, call, n)``: ``parent``
is the span that was open on the same task when this one started (0 for
none), ``call`` identifies the HTTP request whose task ran it (0 for the
scheduler pump), and ``n`` is the work it covered (items, queries) where
the boundary says.  Spans are kept in memory while ``recording`` is on —
the launcher turns it on for the measured stretch only — and written out
at stop.

A layer's *self time* is its span minus the part its children cover.
The wrappers' own cost lands in the parent's self time, so self times
read a little high in proportion to how many children a span has; the
traced run's ``trace.overhead_share`` says how much tracing cost overall.
"""

from __future__ import annotations

import contextvars
import functools
import pickle
import time


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.recording = False
        #: finished spans, in end order
        self.spans: list[tuple] = []
        #: plain sums the wrappers keep beside the spans (bytes, RPCs)
        self.counters: dict[str, int] = {}
        #: call id -> [first bridge submit, last future resolved]
        self.bridge: dict[int, list[float]] = {}
        self._span = contextvars.ContextVar("bench_span", default=0)
        self._call = contextvars.ContextVar("bench_call", default=0)
        self._next_span = 0
        self._next_call = 0

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn, *, size=None, after=None):
        """``fn`` recorded as a span called ``name``.

        ``size(args, kwargs, result)`` gives the span's ``n``; ``after``
        (same signature) runs once the span has ended, outside its time.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._next_span += 1
            span_id = self._next_span
            parent = self._span.get()
            token = self._span.set(span_id)
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                self._span.reset(token)
                n = size(args, kwargs, result) if size is not None else 0
                self.spans.append(
                    (span_id, name, start, end, parent, self._call.get(), n)
                )
                if after is not None:
                    after(args, kwargs, result)

        return wrapper

    def wrap_request_reader(self, fn):
        """``read_request`` wrapped so each request it returns starts a
        new call id on the connection's task.  Its span includes the wait
        for the client's next request, so it is not a busy time."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.monotonic()
            request = await fn(*args, **kwargs)
            if request is None:
                return None
            self._next_call += 1
            self._call.set(self._next_call)
            if self.recording:
                self._next_span += 1
                self.spans.append(
                    (
                        self._next_span,
                        "gateway.read_request",
                        start,
                        time.monotonic(),
                        0,
                        self._next_call,
                        0,
                    )
                )
            return request

        return wrapper

    def count(self, name: str, amount: int) -> None:
        """Add to a plain counter (only while recording)."""
        if self.recording:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap_bridge_submit(self, fn):
        """``SchedulerBridge.submit`` as a span, and the call's bridge
        interval stretched from its first submit to the moment the loop
        runs the returned future's done-callbacks (which is when the
        awaiting handler resumes)."""
        spanned = self.wrap("gateway.bridge_submit", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            started = time.monotonic()
            future = spanned(*args, **kwargs)
            entry = self.bridge.setdefault(self._call.get(), [started, 0.0])

            def resolved(_future):
                entry[1] = time.monotonic()

            if future.done():
                resolved(future)
            else:
                future.add_done_callback(resolved)
            return future

        return wrapper

    # -- reporting -----------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: ``count``, ``total_s``, ``self_s`` and ``n``."""
        child_time: dict[int, float] = {}
        for _id, _name, start, end, parent, _call, _n in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        by_name: dict[str, dict] = {}
        for span_id, name, start, end, _parent, _call, n in self.spans:
            row = by_name.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
            )
            duration = end - start
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span_id, 0.0)
            row["n"] += n
        return by_name

    def bridge_summary(self) -> dict:
        """Calls whose futures all resolved: count and summed wait."""
        waits = [done - first for first, done in self.bridge.values() if done]
        return {"calls": len(waits), "wait_s": sum(waits)}

    def write_spans(self, path) -> None:
        """One JSON object per span, in end order."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, call, n in self.spans:
                out.write(
                    f'{{"id":{span_id},"name":"{name}","start":{start!r},'
                    f'"end":{end!r},"parent":{parent},"call":{call},"n":{n}}}\n'
                )


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries.  Call once, before the stack is built."""
    import repro.gateway.app as gateway_app
    import repro.gateway.http as gateway_http
    import repro.search.sharded as sharded
    from repro.cluster import ProcessBackend
    from repro.core import RewriteCache, ServingPipeline
    from repro.core.rewriter import DirectRewriter
    from repro.gateway import RateLimiter, SchedulerBridge, schemas
    from repro.models import HybridNMT
    from repro.online.scheduler import MicroBatchScheduler

    def method(cls, attr, name, **options):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **options))

    def first_arg_len(args, kwargs, result):
        return len(args[1])

    # gateway
    gateway_app.read_request = tracer.wrap_request_reader(gateway_app.read_request)
    parse = schemas.WireModel.parse.__func__
    for model in (schemas.BatchRequest, schemas.RewriteRequest, schemas.SearchRequest):
        model.parse = classmethod(tracer.wrap("gateway.schema_parse", parse))
    for model in (schemas.RewriteResponse, schemas.SearchResponse, schemas.BatchResponse):
        method(model, "to_wire", "gateway.response_encode")
    gateway_http.render_response = tracer.wrap(
        "gateway.response_encode", gateway_http.render_response
    )
    method(RateLimiter, "check", "gateway.ratelimit")
    SchedulerBridge.submit = tracer.wrap_bridge_submit(SchedulerBridge.submit)

    # online.scheduler
    method(MicroBatchScheduler, "submit", "scheduler.submit")
    method(MicroBatchScheduler, "advance_to", "scheduler.advance_to")
    method(MicroBatchScheduler, "drain", "scheduler.drain")

    # core.serving, core.cache
    method(ServingPipeline, "serve_batch", "serving.serve_batch", size=first_arg_len)
    method(ServingPipeline, "search_batch", "serving.search_batch", size=first_arg_len)
    method(RewriteCache, "get", "cache.get")
    method(RewriteCache, "put", "cache.put")

    # decode: core.rewriter + models (decoding sits between the two)
    method(DirectRewriter, "rewrite_batch", "decode.rewrite_batch", size=first_arg_len)
    method(HybridNMT, "start", "models.start")
    method(HybridNMT, "step", "models.step")

    # search
    method(sharded.ShardedSearchEngine, "search", "search.engine_search")
    method(sharded.ShardedSearchEngine, "add_product", "search.write")
    method(sharded.ShardedSearchEngine, "remove_product", "search.write")
    sharded.merge_queries = tracer.wrap("search.tree_build", sharded.merge_queries)
    sharded.merge_topk = tracer.wrap("search.merge_topk", sharded.merge_topk)

    # cluster: the bytes are computed here, by pickling the same request
    # and replies the backend pickles, after the span has ended
    def fanout_bytes(args, kwargs, results):
        backend, op = args[0], args[1]
        request = pickle.dumps((op, args[2:]), pickle.HIGHEST_PROTOCOL)
        tracer.count("cluster.rpc_calls", backend.num_shards)
        tracer.count("cluster.request_bytes", len(request) * backend.num_shards)
        if results is not None:
            tracer.count(
                "cluster.reply_bytes",
                sum(
                    len(pickle.dumps(("ok", reply), pickle.HIGHEST_PROTOCOL))
                    for reply in results
                ),
            )

    def call_bytes(args, kwargs, result):
        tracer.count("cluster.rpc_calls", 1)

    method(ProcessBackend, "fanout", "cluster.fanout", after=fanout_bytes)
    method(ProcessBackend, "call", "cluster.call", after=call_bytes)
