"""Builder of ``tests/data/golden_gateway_errors.json`` — the parse pin.

``tests/data/golden_gateway_schemas.json`` pins the ``code`` and
``field`` of two dozen canonical faults; the fuzz suite only asserts
that *some* typed error comes back.  Neither would notice a refactor of
``WireModel.parse`` that reworded a message, reported the second fault
of a payload instead of the first, or let a mutation through that used
to be refused.  This fixture freezes, for the fuzz suite's seeded
mutations of every request model and a set of hand-written cases, what
``parse`` did at one commit: the exact ``(code, field, message)`` of the
error, or the compact JSON of the parsed instance's ``to_wire()``.  It
was written *before* the parse path was compiled into per-class plans,
and ``tests/test_gateway_plan.py`` asserts the current code reproduces
it byte for byte.  Regenerate (only when a wire change is intended)
with::

    PYTHONPATH=src python -m tests.golden_gateway_errors
"""

from __future__ import annotations

import json
import pathlib
import random

from repro.gateway import schemas
from repro.gateway.schemas import SchemaError
from tests.test_gateway_schemas import (
    REQUEST_MODELS,
    VALID_PAYLOADS,
    _mutations,
    compact,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_gateway_errors.json"

#: rounds of ``_mutations`` per model, and the fuzz suite's own seed
ROUNDS = 16
SEED = 1234

_ITEM = {"kind": "rewrite", "query": "q"}

#: hand cases: name -> (model name, payload).  Each pins one rule the
#: seeded mutations reach only by luck: which fault of several wins,
#: how JSON's number type maps onto int/float/bool, where null may go,
#: and how list items and nested models name the offending field.
HAND_CASES = {
    # precedence: the first unknown key (payload order), then the first
    # field in *declared* order that is missing or invalid — whatever
    # order the payload lists its keys in
    "unknown_beats_missing_and_bad_item": (
        "BatchRequest", {"tenant": 5, "bogus": 1, "items": [{"kind": "dance"}]}
    ),
    "first_unknown_key_in_payload_order": (
        "RewriteRequest", {"zeta": 1, "query": "q", "alpha": 2}
    ),
    "missing_beats_bad_value_of_a_later_field": ("RewriteRequest", {"lane": "x"}),
    "bad_value_of_an_earlier_field_beats_missing": (
        "BatchItem", {"kind": "dance", "lane": 1}
    ),
    "declared_order_not_payload_order": (
        "SearchRequest", {"mode": 3, "lane": -1, "tenant": "", "query": "q"}
    ),
    "bad_nested_item_beats_bad_tenant": (
        "BatchRequest", {"tenant": 5, "items": [_ITEM, {"kind": "rewrite", "query": 9}]}
    ),
    "second_item_unknown_field": (
        "BatchRequest", {"items": [_ITEM, {"kind": "rewrite", "query": "q", "x": 1}]}
    ),
    "type_before_value_within_a_field": ("RewriteRequest", {"query": "q", "lane": "9"}),
    "length_before_emptiness": ("RewriteRequest", {"query": " " * 513}),
    # JSON number mapping
    "bool_where_int": ("RewriteRequest", {"query": "q", "lane": False}),
    "bool_where_str": ("RewriteRequest", {"query": True}),
    "int_where_bool": ("HealthResponse", {
        "status": "ok", "draining": 0, "uptime_seconds": 1.0, "queue_depth": 0,
        "in_flight": 0, "tenants": [],
    }),
    "float_where_int": ("RewriteRequest", {"query": "q", "lane": 1.0}),
    "int_where_float": ("DrainResponse", {
        "draining": True, "admitted": 2, "completed": 2, "shed": 0, "drain_seconds": 3,
    }),
    "bool_where_float": ("DrainResponse", {
        "draining": True, "admitted": 2, "completed": 2, "shed": 0,
        "drain_seconds": True,
    }),
    "str_where_float": ("RewriteResponse", {
        "query": "q", "rewrites": [], "source": "none", "latency_ms": "fast",
    }),
    "huge_int_lane": ("RewriteRequest", {"query": "q", "lane": 2**63}),
    "lane_at_ceiling": ("RewriteRequest", {"query": "q", "lane": schemas.MAX_LANE}),
    # null
    "null_in_optional": ("SearchRequest", {"query": "q", "mode": None}),
    "null_in_required": ("SearchRequest", {"query": None}),
    "null_in_defaulted": ("SearchRequest", {"query": "q", "tenant": None}),
    "null_items": ("BatchRequest", {"items": None}),
    "null_item": ("BatchRequest", {"items": [None]}),
    "null_in_optional_float": ("ErrorEnvelope", {
        "error": {"code": "c", "message": "m", "retry_after_seconds": None},
    }),
    # lists
    "over_long_list": ("BatchRequest", {"items": [_ITEM] * (schemas.MAX_BATCH_ITEMS + 1)}),
    "over_long_list_of_junk": ("BatchRequest", {"items": [7] * (schemas.MAX_BATCH_ITEMS + 1)}),
    "list_at_ceiling": ("BatchRequest", {"items": [_ITEM] * schemas.MAX_BATCH_ITEMS}),
    "empty_items": ("BatchRequest", {"items": []}),
    "empty_items_and_bad_tenant": ("BatchRequest", {"items": [], "tenant": 5}),
    "items_is_an_object": ("BatchRequest", {"items": {"kind": "rewrite"}}),
    "str_list_item_names_its_position": ("RewriteResponse", {
        "query": "q", "rewrites": ["a", 2, None], "source": "cache", "latency_ms": 0.5,
    }),
    "int_list_item_bool": ("SearchResponse", {
        "query": "q", "rewrites": [], "source": "cache", "mode": "lexical",
        "doc_ids": [1, True], "postings_accessed": 0, "latency_ms": 0.5,
    }),
    "dict_list_item_not_a_dict": ("BatchResponse", {"results": [{"kind": "rewrite"}, 4]}),
    "dict_list_round_trips": ("BatchResponse", {
        "results": [{"kind": "rewrite", "rewrites": ["a"], "nested": {"k": [1, 2]}}],
    }),
    # non-dict payloads and dict-typed fields
    "payload_is_a_list": ("BatchRequest", [_ITEM]),
    "payload_is_a_string": ("SearchRequest", "query"),
    "payload_is_a_number": ("BatchItem", 3),
    "payload_is_null": ("BatchRequest", None),
    "payload_is_true": ("RewriteRequest", True),
    "dict_field_given_a_list": ("StatsResponse", {
        "serving": [], "totals": {}, "scheduler": {}, "gateway": {},
    }),
    "dict_fields_round_trip": ("StatsResponse", {
        "serving": {"acme": {"requests": 3}}, "totals": {"requests": 3},
        "scheduler": {"acme": {"admitted": 3}}, "gateway": {"drains": 0},
    }),
    "envelope_inner_unknown_field": ("ErrorEnvelope", {
        "error": {"code": "c", "message": "m", "status": 400},
    }),
    "envelope_round_trips": ("ErrorEnvelope", {
        "error": {"code": "rate_limited", "message": "m", "field": "tenant",
                  "retry_after_seconds": 2},
    }),
    # values that stay valid
    "defaults_filled": ("SearchRequest", {"query": "q"}),
    "whitespace_kept_verbatim": ("RewriteRequest", {"query": "  red  shoes "}),
    "query_at_ceiling": ("RewriteRequest", {"query": "x" * schemas.MAX_QUERY_CHARS}),
    "full_batch_item": ("BatchItem", {
        "kind": "search", "query": "usb hub", "lane": 1, "mode": "hybrid",
    }),
}


def outcome(model, payload) -> dict:
    """What ``model.parse(payload)`` did: the error triple or the wire bytes."""
    try:
        parsed = model.parse(payload)
    except SchemaError as error:
        return {"error": [error.code, error.field, error.message]}
    return {"ok": compact(parsed.to_wire())}


def seeded_payloads(model_name: str) -> list:
    """The fuzz suite's mutations of one request model, duplicates dropped."""
    rng = random.Random(SEED)
    seen, payloads = set(), []
    for _ in range(ROUNDS):
        for payload in _mutations(rng, VALID_PAYLOADS[model_name]):
            key = repr(payload)
            if key not in seen:
                seen.add(key)
                payloads.append(payload)
    return payloads


def compute() -> dict:
    """The full fixture, recomputed from the current code.

    Payloads are stored as their ``repr`` (the corpus holds ``inf`` and
    non-string values JSON has no form for), next to the outcome.
    """
    return {
        "seeded": {
            name: [[repr(p), outcome(model, p)] for p in seeded_payloads(name)]
            for name, model in sorted(REQUEST_MODELS.items())
        },
        "hand": {
            name: {"model": model_name, **outcome(getattr(schemas, model_name), payload)}
            for name, (model_name, payload) in HAND_CASES.items()
        },
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
