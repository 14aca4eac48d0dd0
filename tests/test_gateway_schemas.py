"""Schema fuzz suite for the gateway wire models (``repro.gateway.schemas``).

The contract under test: **malformed input never surfaces as anything
but a typed :class:`SchemaError`** — never a bare ``TypeError``, never a
500 off the socket.  Three layers pin it:

* golden wire forms — ``tests/data/golden_gateway_schemas.json`` holds
  the exact compact-JSON rendering of every model and the stable
  ``error.code``/``field`` for a canon of malformed payloads, so a
  refactor cannot silently change the wire format or an error code;
* a seeded mutation fuzzer plus a hypothesis sweep over arbitrary JSON
  values, asserting every parse failure is a SchemaError with a
  registered code mapping to a 4xx;
* a live-socket fuzz: the same payloads POSTed at a running gateway all
  come back as parseable 4xx envelopes, zero 500s, zero hangs.
"""

from __future__ import annotations

import asyncio
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.core.rewriter import RewriteResult
from repro.gateway import schemas
from repro.gateway.schemas import (
    STATUS_BY_CODE,
    BatchItem,
    BatchRequest,
    DrainResponse,
    ErrorEnvelope,
    HealthResponse,
    RewriteRequest,
    RewriteResponse,
    SchemaError,
    SearchRequest,
    SearchResponse,
)
from repro.search.engine import SearchOutcome

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_gateway_schemas.json"

REQUEST_MODELS = {
    "RewriteRequest": RewriteRequest,
    "SearchRequest": SearchRequest,
    "BatchRequest": BatchRequest,
}

#: a well-formed payload per request model, the fuzzer's mutation base
VALID_PAYLOADS = {
    "RewriteRequest": {"query": "red shoes", "tenant": "acme", "lane": 1},
    "SearchRequest": {
        "query": "red shoes", "tenant": "acme", "lane": 0, "mode": "lexical",
    },
    "BatchRequest": {
        "items": [
            {"kind": "rewrite", "query": "red shoes"},
            {"kind": "search", "query": "usb hub", "lane": 1, "mode": "lexical"},
        ],
        "tenant": "acme",
    },
}


def golden_instances() -> dict:
    """Name -> model instance; the constructions the golden fixture pins."""
    return {
        "rewrite_request": RewriteRequest(
            query="red shoes", tenant="acme", lane=1
        ),
        "search_request": SearchRequest(
            query="red shoes", tenant="acme", lane=0, mode="lexical"
        ),
        "batch_request": BatchRequest(
            items=[
                BatchItem(kind="rewrite", query="red shoes"),
                BatchItem(kind="search", query="usb hub", lane=1, mode="hybrid"),
            ],
            tenant="acme",
        ),
        "rewrite_response": RewriteResponse(
            query="red shoes",
            rewrites=["crimson shoes", "red sneakers"],
            source="cache",
            latency_ms=0.125,
        ),
        "search_response": SearchResponse(
            query="red shoes",
            rewrites=["crimson shoes"],
            source="model",
            mode="lexical",
            doc_ids=[3, 1, 7],
            postings_accessed=42,
            latency_ms=1.5,
        ),
        "health_response": HealthResponse(
            status="ok",
            draining=False,
            uptime_seconds=1.25,
            queue_depth=0,
            in_flight=1,
            tenants=["acme", "globex"],
        ),
        "drain_response": DrainResponse(
            draining=True, admitted=10, completed=9, shed=1, drain_seconds=0.004
        ),
        "error_envelope": ErrorEnvelope(
            code="invalid_type",
            message="query must be a string, got number",
            field="query",
        ),
        "error_envelope_rate_limited": ErrorEnvelope(
            code="rate_limited",
            message="tenant 'acme' is over its admission rate",
            field="tenant",
            retry_after_seconds=0.05,
        ),
    }


#: canonical malformed payloads: (model name, payload) -> stable code/field
MALFORMED_CANON = {
    "not_an_object": ("RewriteRequest", [1, 2, 3]),
    "null_payload": ("RewriteRequest", None),
    "missing_query": ("RewriteRequest", {"tenant": "acme"}),
    "unknown_field": ("RewriteRequest", {"query": "q", "shoes": True}),
    "query_wrong_type": ("RewriteRequest", {"query": 7}),
    "query_bool": ("RewriteRequest", {"query": True}),
    "query_null": ("RewriteRequest", {"query": None}),
    "query_empty": ("RewriteRequest", {"query": "   "}),
    "query_too_long": ("RewriteRequest", {"query": "x" * 513}),
    "tenant_too_long": ("RewriteRequest", {"query": "q", "tenant": "t" * 65}),
    "lane_negative": ("RewriteRequest", {"query": "q", "lane": -1}),
    "lane_too_high": ("RewriteRequest", {"query": "q", "lane": 8}),
    "lane_float": ("RewriteRequest", {"query": "q", "lane": 1.5}),
    "lane_bool": ("RewriteRequest", {"query": "q", "lane": True}),
    "mode_unknown": ("SearchRequest", {"query": "q", "mode": "psychic"}),
    "mode_wrong_type": ("SearchRequest", {"query": "q", "mode": 3}),
    "items_missing": ("BatchRequest", {"tenant": "acme"}),
    "items_not_array": ("BatchRequest", {"items": "nope"}),
    "items_empty": ("BatchRequest", {"items": []}),
    "items_too_many": (
        "BatchRequest",
        {"items": [{"kind": "rewrite", "query": "q"}] * 65},
    ),
    "item_not_object": ("BatchRequest", {"items": [17]}),
    "item_bad_kind": ("BatchRequest", {"items": [{"kind": "dance", "query": "q"}]}),
    "item_missing_query": ("BatchRequest", {"items": [{"kind": "rewrite"}]}),
    "item_unknown_field": (
        "BatchRequest",
        {"items": [{"kind": "rewrite", "query": "q", "tenant": "acme"}]},
    ),
}


def compact(payload: dict) -> str:
    """The gateway's byte-stable JSON rendering (same separators)."""
    return json.dumps(payload, separators=(",", ":"))


class TestGoldenWireForms:
    """The fixture pins the exact bytes every model puts on the wire."""

    def test_fixture_exists(self):
        assert GOLDEN_PATH.exists(), "golden fixture missing"

    def test_wire_forms_match_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())["wire"]
        instances = golden_instances()
        assert set(golden) == set(instances)
        for name, instance in instances.items():
            assert compact(instance.to_wire()) == golden[name], name

    def test_malformed_canon_matches_golden(self):
        """Every canonical fault maps to its pinned code/field, forever."""
        golden = json.loads(GOLDEN_PATH.read_text())["errors"]
        assert set(golden) == set(MALFORMED_CANON)
        for name, (model_name, payload) in MALFORMED_CANON.items():
            with pytest.raises(SchemaError) as excinfo:
                REQUEST_MODELS[model_name].parse(payload)
            assert excinfo.value.code == golden[name]["code"], name
            assert excinfo.value.field == golden[name]["field"], name
            # every code is registered and maps to a 4xx, never a 5xx
            assert 400 <= STATUS_BY_CODE[excinfo.value.code] < 500, name

    def test_error_envelope_round_trips(self):
        envelope = golden_instances()["error_envelope_rate_limited"]
        assert ErrorEnvelope.parse(envelope.to_wire()) == envelope
        assert envelope.status == 429

    def test_error_envelope_omits_null_optionals(self):
        wire = ErrorEnvelope(code="not_found", message="no route").to_wire()
        assert wire == {"error": {"code": "not_found", "message": "no route"}}

    def test_error_envelope_rejects_other_shapes(self):
        for bad in ({}, {"oops": {}}, {"error": {}, "x": 1}, [1], "err"):
            with pytest.raises(SchemaError):
                ErrorEnvelope.parse(bad)


class TestFieldValidation:
    """The scalar/constraint semantics the fuzzers rely on."""

    def test_defaults_fill_optional_fields(self):
        model = RewriteRequest.parse({"query": "q"})
        assert model == RewriteRequest(query="q", tenant="default", lane=0)

    def test_int_accepted_where_float_expected_not_reverse(self):
        envelope = ErrorEnvelope.parse(
            {"error": {"code": "rate_limited", "message": "m",
                       "retry_after_seconds": 2}}
        )
        assert envelope.retry_after_seconds == 2.0
        with pytest.raises(SchemaError) as excinfo:
            RewriteRequest.parse({"query": "q", "lane": 0.0})
        assert excinfo.value.code == schemas.INVALID_TYPE

    def test_optional_mode_accepts_null(self):
        assert SearchRequest.parse({"query": "q", "mode": None}).mode is None

    def test_nested_item_error_carries_item_field(self):
        with pytest.raises(SchemaError) as excinfo:
            BatchRequest.parse({"items": [{"kind": "rewrite", "query": 9}]})
        assert excinfo.value.code == schemas.INVALID_TYPE
        assert excinfo.value.field == "query"

    def test_non_string_keys_are_unknown_fields(self):
        with pytest.raises(SchemaError) as excinfo:
            RewriteRequest.parse({"query": "q", 3: "x"})
        assert excinfo.value.code == schemas.UNKNOWN_FIELD

    def test_status_by_code_is_total_over_module_codes(self):
        for code in (
            schemas.INVALID_JSON, schemas.INVALID_TYPE, schemas.MISSING_FIELD,
            schemas.UNKNOWN_FIELD, schemas.INVALID_VALUE, schemas.BAD_REQUEST,
            schemas.NOT_FOUND, schemas.METHOD_NOT_ALLOWED,
            schemas.LENGTH_REQUIRED, schemas.BODY_TOO_LARGE,
            schemas.UNSUPPORTED_MEDIA_TYPE, schemas.RATE_LIMITED,
            schemas.QUEUE_FULL, schemas.DRAINING, schemas.INTERNAL,
        ):
            assert code in STATUS_BY_CODE


# -- seeded mutation fuzzer ---------------------------------------------------
_JUNK_VALUES = (
    None, True, False, 0, -1, 1.5, float("inf"), "", "   ", "x" * 600,
    [], [None], {}, {"nested": {}}, "\x00", 2**63,
)


def _mutations(rng: random.Random, base: dict) -> list:
    """Seeded malformed variants of one valid payload."""
    variants: list = [
        rng.choice(_JUNK_VALUES),  # not an object at all
        {rng.choice("abcxyz") * rng.randint(1, 8): rng.choice(_JUNK_VALUES)},
    ]
    keys = list(base)
    for key in keys:
        dropped = dict(base)
        del dropped[key]
        variants.append(dropped)  # missing (or defaulted) field
        for junk in rng.sample(_JUNK_VALUES, 4):
            mutated = dict(base)
            mutated[key] = junk
            variants.append(mutated)
    extra = dict(base)
    extra["".join(rng.choice("qwerty") for _ in range(6))] = 1
    variants.append(extra)
    return variants


@pytest.mark.parametrize("model_name", sorted(REQUEST_MODELS))
def test_seeded_fuzz_every_fault_is_typed(model_name):
    """200+ seeded mutations: SchemaError (4xx) or a valid instance, only."""
    model = REQUEST_MODELS[model_name]
    rng = random.Random(1234)
    payloads = []
    for _ in range(16):
        payloads.extend(_mutations(rng, VALID_PAYLOADS[model_name]))
    assert len(payloads) >= 200
    for payload in payloads:
        try:
            parsed = model.parse(payload)
        except SchemaError as error:
            assert error.code in STATUS_BY_CODE
            assert 400 <= STATUS_BY_CODE[error.code] < 500
        else:  # a mutation that stayed valid must round-trip cleanly
            json.dumps(parsed.to_wire())


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(payload=_json_values)
def test_hypothesis_arbitrary_json_never_escapes_schema_error(payload):
    for model in REQUEST_MODELS.values():
        try:
            model.parse(payload)
        except SchemaError:
            pass  # the only exception type the contract allows


# -- live-socket fuzz ---------------------------------------------------------
class _EchoRewriter:
    """Deterministic single-rewrite model tier (fast; no real model)."""

    def rewrite(self, query, k=3):
        """Every query rewrites to itself plus a marker token."""
        return [RewriteResult(tokens=(query, "fuzzed"), log_prob=-1.0)][:k]


class _TinyEngine:
    """Two fixed hits per query; supports only the default lexical mode."""

    def search(self, query, rewrites=None):
        """Fixed outcome, so the socket fuzz never does real retrieval."""
        return SearchOutcome(
            query=query,
            rewrites=list(rewrites or []),
            doc_ids=[1, 2],
            postings_accessed=3,
            tree_nodes=1,
            num_trees=1,
        )


def _fuzz_bodies() -> list[bytes]:
    """Raw request bodies: mutation-fuzz payloads + non-JSON garbage."""
    rng = random.Random(99)
    bodies = [
        b"", b"{", b"not json", b'"just a string"', b"[1,2,3]",
        b"\xff\xfe\x00garbage", b"null", b"true",
        compact({"query": ""}).encode(),
    ]
    for name, base in VALID_PAYLOADS.items():
        for payload in _mutations(rng, base)[:20]:
            try:
                bodies.append(json.dumps(payload).encode())
            except (TypeError, ValueError):
                continue  # inf and friends: not representable, skip
    return bodies


def test_socket_fuzz_maps_every_fault_to_a_typed_4xx():
    """POST every fuzz body at a live gateway: 4xx envelopes, zero 500s."""
    from repro.gateway import Gateway, GatewayConfig
    from repro.gateway.soak import MiniClient
    from repro.gateway.ratelimit import RateLimitConfig
    from repro.online.clock import WallClock

    async def fuzz() -> tuple[int, dict]:
        clock = WallClock()
        pipeline = ServingPipeline(
            RewriteCache(ttl_seconds=1e9, clock=clock.now),
            _EchoRewriter(),
            ServingConfig(),
            search_engine=_TinyEngine(),
            tenant="acme",
        )
        config = GatewayConfig(
            rate_limit=RateLimitConfig(rate_per_second=1e6, burst=1_000_000)
        )
        five_hundreds = 0
        codes: dict[str, int] = {}
        async with Gateway({"acme": pipeline}, config, clock=clock) as gateway:
            client = MiniClient(gateway.config.host, gateway.port)
            try:
                for path in ("/v1/rewrite", "/v1/search", "/v1/batch"):
                    for body in _fuzz_bodies():
                        status, _, payload = await asyncio.wait_for(
                            client.raw("POST", path, body),
                            timeout=10.0,  # the no-hang half of the contract
                        )
                        if status >= 500:
                            five_hundreds += 1
                        if status != 200:
                            envelope = ErrorEnvelope.parse(payload)
                            assert envelope.status == status
                            codes[envelope.code] = codes.get(envelope.code, 0) + 1
            finally:
                await client.close()
        return five_hundreds, codes

    five_hundreds, codes = asyncio.run(fuzz())
    assert five_hundreds == 0
    # the sweep exercised a broad surface, not one failure shape
    assert {"invalid_json", "invalid_type", "unknown_field"} <= set(codes)
