"""The compiled wire plans: same bytes as the reflective walk, none of its work.

``WireModel.parse`` / ``to_wire`` run off a per-class plan compiled on
first use.  Two gates pin the rework:

* **byte identity** — ``tests/data/golden_gateway_errors.json`` was
  written by ``tests/golden_gateway_errors.py`` while ``parse`` still
  walked ``dataclasses.fields`` and ``typing`` per call; every seeded
  mutation and hand case must still produce the identical ``(code,
  field, message)`` or the identical wire bytes;
* **work** — once a model's plan exists, parsing and rendering make no
  call into ``dataclasses`` / ``typing`` introspection at all, and
  ``_wire_value`` runs only for a field that can hold nested models.
  Counted, not timed, so the gate is deterministic.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest

from repro.gateway import schemas
from repro.gateway.schemas import (
    BatchRequest,
    BatchResponse,
    RewriteRequest,
    RewriteResponse,
    SearchRequest,
    SearchResponse,
    WireModel,
)
from tests import golden_gateway_errors


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(golden_gateway_errors.GOLDEN_PATH.read_text())


class TestGoldenErrorCorpus:
    def test_corpus_is_broad(self, golden):
        assert set(golden["seeded"]) == set(golden_gateway_errors.REQUEST_MODELS)
        outcomes = [o for rows in golden["seeded"].values() for _, o in rows]
        outcomes += list(golden["hand"].values())
        assert len(outcomes) >= 300
        codes = {o["error"][0] for o in outcomes if "error" in o}
        assert codes == {
            "invalid_type", "invalid_value", "missing_field", "unknown_field"
        }
        assert sum("ok" in o for o in outcomes) >= 20

    @pytest.mark.parametrize("model_name", sorted(golden_gateway_errors.REQUEST_MODELS))
    def test_seeded_mutations_match_golden(self, golden, model_name):
        model = golden_gateway_errors.REQUEST_MODELS[model_name]
        payloads = golden_gateway_errors.seeded_payloads(model_name)
        expected = golden["seeded"][model_name]
        assert [repr(p) for p in payloads] == [key for key, _ in expected]
        for payload, (key, outcome) in zip(payloads, expected):
            assert golden_gateway_errors.outcome(model, payload) == outcome, key

    def test_hand_cases_match_golden(self, golden):
        assert set(golden["hand"]) == set(golden_gateway_errors.HAND_CASES)
        for name, (model_name, payload) in golden_gateway_errors.HAND_CASES.items():
            model = getattr(schemas, model_name)
            actual = {
                "model": model_name, **golden_gateway_errors.outcome(model, payload)
            }
            assert actual == golden["hand"][name], name


class TestPlan:
    def test_plan_is_compiled_once_per_class(self):
        first = BatchRequest._plan()
        assert BatchRequest._plan() is first
        # cached on the class itself, never inherited from a base
        assert "_compiled_plan" in vars(BatchRequest)
        assert "_compiled_plan" not in vars(WireModel)
        assert RewriteRequest._plan() is not SearchRequest._plan()

    def test_plan_lists_fields_in_declared_order_with_required_flags(self):
        known, fields = SearchRequest._plan()
        assert known == {"query", "tenant", "lane", "mode"}
        assert [(name, required) for name, required, _, _ in fields] == [
            ("query", True), ("tenant", False), ("lane", False), ("mode", False)
        ]

    def test_only_model_holding_fields_are_nested(self):
        nested = {
            model.__name__: [name for name, _, _, is_nested in model._plan()[1] if is_nested]
            for model in (
                BatchRequest, BatchResponse, RewriteResponse, SearchResponse,
                schemas.StatsResponse, schemas.HealthResponse,
            )
        }
        assert nested.pop("BatchRequest") == ["items"]
        assert not any(nested.values())

    def test_to_wire_hands_plain_values_over_uncopied(self):
        results = [{"kind": "rewrite", "rewrites": ["a"]}]
        wire = BatchResponse(results=results).to_wire()
        assert wire == {"results": results}
        assert wire["results"] is results
        request = BatchRequest.parse({"items": [{"kind": "rewrite", "query": "q"}]})
        rendered = request.to_wire()
        assert rendered["items"] == [
            {"kind": "rewrite", "query": "q", "lane": 0, "mode": None}
        ]
        assert rendered["items"] is not request.items


class TestNoReflectionPerRequest:
    """1 000 parses and renders after warm-up: zero introspection calls."""

    PAYLOAD = {
        "items": [
            {"kind": "rewrite", "query": "red shoes"},
            {"kind": "search", "query": "usb hub", "lane": 1, "mode": "lexical"},
        ],
        "tenant": "acme",
    }

    @staticmethod
    def _round(payload):
        """One request's schema work: parse, per-item renders, the envelope."""
        request = BatchRequest.parse(payload)
        outcomes = [
            RewriteResponse(
                query=request.items[0].query, rewrites=["a", "b"], source="cache",
                latency_ms=0.125,
            ).to_wire(),
            SearchResponse(
                query=request.items[1].query, rewrites=["a"], source="cache",
                mode="lexical", doc_ids=[3, 1, 7], postings_accessed=42,
                latency_ms=1.5,
            ).to_wire(),
        ]
        return request, BatchResponse.from_outcomes(request.items, outcomes).to_wire()

    def test_no_introspection_and_no_wire_walk_after_warm_up(self, monkeypatch):
        self._round(self.PAYLOAD)[0].to_wire()  # compiles every plan involved
        calls = {}

        def counted(module, attr):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                calls[attr] = calls.get(attr, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)

        counted(dataclasses, "fields")
        counted(typing, "get_type_hints")
        counted(typing, "get_origin")
        counted(typing, "get_args")
        counted(schemas, "_wire_value")
        for _ in range(1000):
            request, wire = self._round(self.PAYLOAD)
        assert calls == {}
        assert json.dumps(wire, separators=(",", ":")) == (
            '{"results":[{"kind":"rewrite","query":"red shoes","rewrites":["a","b"],'
            '"source":"cache","latency_ms":0.125},{"kind":"search","query":"usb hub",'
            '"rewrites":["a"],"source":"cache","mode":"lexical","doc_ids":[3,1,7],'
            '"postings_accessed":42,"latency_ms":1.5}]}'
        )
        # the one field that can hold models costs one entry per render
        for _ in range(10):
            request.to_wire()
        assert calls == {"_wire_value": 10}

    def test_a_fresh_subclass_compiles_exactly_once(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Probe(WireModel):
            name: str
            tags: list[str]
            inner: RewriteRequest | None = None

        compiled = []
        original = typing.get_type_hints
        monkeypatch.setattr(
            typing, "get_type_hints",
            lambda cls: compiled.append(cls) or original(cls),
        )
        for _ in range(5):
            probe = Probe.parse(
                {"name": "n", "tags": ["a"], "inner": {"query": "q"}}
            )
            assert probe.to_wire() == {
                "name": "n", "tags": ["a"],
                "inner": {"query": "q", "tenant": "default", "lane": 0},
            }
        assert compiled.count(Probe) == 1
        assert Probe.parse({"name": "n", "tags": []}).to_wire()["inner"] is None
