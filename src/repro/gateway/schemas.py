"""Typed wire schemas for the gateway: dataclass models + field validation.

Every byte that crosses the gateway's socket is described by a model in
this module.  Request models (:class:`RewriteRequest`,
:class:`SearchRequest`, :class:`BatchRequest`) are parsed from untrusted
JSON with **field-level validation** — missing/unknown fields, wrong
types, out-of-range values and oversized strings each raise a
:class:`SchemaError` carrying a stable machine-readable ``code`` — and
response models (:class:`RewriteResponse`, :class:`SearchResponse`,
:class:`StatsResponse`, ...) render themselves to JSON-able dicts with a
pinned key order (``tests/data/golden_gateway_schemas.json`` holds the
golden wire forms).

The contract the fuzz suite (``tests/test_gateway_schemas.py``) pins:
**malformed input can never surface as a 500** — every parse failure is
a typed :class:`SchemaError`, which the HTTP layer maps to a 4xx
:class:`ErrorEnvelope` with the same ``code``.

The style follows the pydantic request/response models of production
categorization services (``ItemInput`` / ``CategorizationResponse``),
rebuilt on stdlib dataclasses so the gateway stays dependency-free.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass

#: hard ceilings of the wire format (validated per field)
MAX_QUERY_CHARS = 512
MAX_TENANT_CHARS = 64
MAX_BATCH_ITEMS = 64
MAX_LANE = 7

#: retrieval modes a search request may ask for (engine support is
#: re-checked at serve time; an unsupported-but-well-formed mode is a
#: 400 ``invalid_value``, never a 500)
SEARCH_MODES = ("lexical", "semantic", "hybrid")

# -- stable error codes ------------------------------------------------------
#: request body is not parseable JSON (or not a JSON object)
INVALID_JSON = "invalid_json"
#: a field holds the wrong JSON type
INVALID_TYPE = "invalid_type"
#: a required field is absent
MISSING_FIELD = "missing_field"
#: a field this model does not define
UNKNOWN_FIELD = "unknown_field"
#: right type, unacceptable value (range, choices, length, charset)
INVALID_VALUE = "invalid_value"
#: request body exceeds the gateway's size limit
BODY_TOO_LARGE = "body_too_large"
#: POST without a JSON content type
UNSUPPORTED_MEDIA_TYPE = "unsupported_media_type"
#: no route at this path
NOT_FOUND = "not_found"
#: route exists, method does not
METHOD_NOT_ALLOWED = "method_not_allowed"
#: POST without a Content-Length header
LENGTH_REQUIRED = "length_required"
#: malformed request line / headers
BAD_REQUEST = "bad_request"
#: per-tenant token bucket is empty
RATE_LIMITED = "rate_limited"
#: admission control shed the request (queue full)
QUEUE_FULL = "queue_full"
#: the gateway is draining; no new work is admitted
DRAINING = "draining"
#: unexpected server-side failure (the fuzz suite pins this to zero)
INTERNAL = "internal"

#: HTTP status for each error code — the full 4xx/5xx surface of the API
STATUS_BY_CODE = {
    INVALID_JSON: 400,
    INVALID_TYPE: 400,
    MISSING_FIELD: 400,
    UNKNOWN_FIELD: 400,
    INVALID_VALUE: 400,
    BAD_REQUEST: 400,
    NOT_FOUND: 404,
    METHOD_NOT_ALLOWED: 405,
    LENGTH_REQUIRED: 411,
    BODY_TOO_LARGE: 413,
    UNSUPPORTED_MEDIA_TYPE: 415,
    RATE_LIMITED: 429,
    QUEUE_FULL: 429,
    DRAINING: 503,
    INTERNAL: 500,
}


class SchemaError(ValueError):
    """A payload failed schema validation.

    Carries the stable machine-readable ``code`` (one of the module
    constants above), a human-readable ``message``, and optionally the
    offending ``field`` name — everything the HTTP layer needs to build
    the typed 4xx :class:`ErrorEnvelope`.
    """

    def __init__(self, code: str, message: str, field: str | None = None):
        """``code`` must be one of the module-level error-code constants."""
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field


def constrained(
    *,
    default=dataclasses.MISSING,
    max_len: int | None = None,
    min_value: float | None = None,
    max_value: float | None = None,
    choices: tuple | None = None,
):
    """A dataclass field with wire-validation constraints attached.

    ``max_len`` bounds string length (and list length for list fields);
    ``min_value``/``max_value`` bound numbers; ``choices`` enumerates the
    accepted values.  Violations surface as ``invalid_value`` errors.
    """
    metadata = {
        "max_len": max_len,
        "min_value": min_value,
        "max_value": max_value,
        "choices": choices,
    }
    if default is dataclasses.MISSING:
        return dataclasses.field(metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def _type_name(value) -> str:
    """JSON-ish name of a Python value's type (for error messages)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


def _scalar_validator(expected: type, metadata, name: str):
    """Closure checking one JSON scalar against ``expected`` and its bounds.

    JSON's number type maps onto both int and float: ints are accepted
    where floats are expected (never the reverse), and bool — a subclass
    of int in Python — is accepted *only* where bool is expected.  Which
    ``constrained()`` bounds can apply is settled here, from the type, so
    a call runs only the checks its field actually has.  List validators
    pass the item's own name (``rewrites[2]``) as the second argument.
    """
    accepted = (int, float) if expected is float else expected
    kind = {bool: "boolean", float: "number", int: "integer"}.get(
        expected, expected.__name__
    )
    max_len = metadata.get("max_len") if expected is str else None
    non_empty = expected is str and metadata.get("min_value") == 1
    numeric = expected in (int, float)
    min_value = metadata.get("min_value") if numeric else None
    max_value = metadata.get("max_value") if numeric else None
    choices = metadata.get("choices")

    def validate(value, name=name):
        if isinstance(value, bool) and expected is not bool:
            raise SchemaError(
                INVALID_TYPE, f"{name} must be a {expected.__name__}, got boolean", name
            )
        if not isinstance(value, accepted):
            raise SchemaError(
                INVALID_TYPE, f"{name} must be a {kind}, got {_type_name(value)}", name
            )
        if expected is float:
            value = float(value)
        if max_len is not None and len(value) > max_len:
            raise SchemaError(
                INVALID_VALUE, f"{name} exceeds the maximum length of {max_len}", name
            )
        if non_empty and not value.strip():
            raise SchemaError(INVALID_VALUE, f"{name} must not be empty", name)
        if min_value is not None and value < min_value:
            raise SchemaError(INVALID_VALUE, f"{name} must be >= {min_value}", name)
        if max_value is not None and value > max_value:
            raise SchemaError(INVALID_VALUE, f"{name} must be <= {max_value}", name)
        if choices is not None and value not in choices:
            raise SchemaError(
                INVALID_VALUE,
                f"{name} must be one of {', '.join(map(str, choices))}",
                name,
            )
        return value

    return validate


def _is_model(annotation) -> bool:
    return isinstance(annotation, type) and issubclass(annotation, WireModel)


def _list_validator(item_type, metadata, name: str) -> tuple:
    """Closure checking a JSON array — its length, then every item in
    order — and whether the items are models: ``(validate, nested)``."""
    max_len = metadata.get("max_len")
    nested = _is_model(item_type)
    check_item = item_type.parse if nested else _scalar_validator(item_type, {}, name)

    def validate(value):
        if not isinstance(value, list):
            raise SchemaError(
                INVALID_TYPE, f"{name} must be an array, got {_type_name(value)}", name
            )
        if max_len is not None and len(value) > max_len:
            raise SchemaError(
                INVALID_VALUE, f"{name} exceeds the maximum length of {max_len}", name
            )
        if nested:
            return [check_item(item) for item in value]
        return [
            check_item(item, f"{name}[{position}]")
            for position, item in enumerate(value)
        ]

    return validate, nested


def _object_validator(name: str):
    """Closure accepting any JSON object as is (``dict``-typed fields)."""

    def validate(value):
        if not isinstance(value, dict):
            raise SchemaError(
                INVALID_TYPE, f"{name} must be an object, got {_type_name(value)}", name
            )
        return value

    return validate


def _field_validator(annotation, metadata, name: str) -> tuple:
    """``(validate, nested)`` for one field, resolved once per class.

    ``validate`` is the closure :meth:`WireModel.parse` calls with the
    field's JSON value; ``nested`` says whether the field can hold models
    (a model, or a list of them), which is all ``to_wire`` needs to know.
    """
    origin = typing.get_origin(annotation)
    # Optional[T] resolves to typing.Union; the PEP 604 spelling
    # ``T | None`` resolves to types.UnionType — accept both.
    optional = origin is typing.Union or isinstance(annotation, types.UnionType)
    if optional:
        annotation = next(
            a for a in typing.get_args(annotation) if a is not type(None)
        )
        origin = typing.get_origin(annotation)
    if origin in (list, tuple):
        (item_type,) = typing.get_args(annotation)[:1] or (str,)
        check, nested = _list_validator(item_type, metadata, name)
    elif annotation is dict:
        nested = False
        check = _object_validator(name)
    else:
        nested = _is_model(annotation)
        check = annotation.parse if nested else _scalar_validator(
            annotation, metadata, name
        )

    def validate(value):
        if value is None:
            if optional:
                return None
            raise SchemaError(INVALID_TYPE, f"{name} must not be null", name)
        return check(value)

    return validate, nested


class WireModel:
    """Base of every request/response model: parse + render + validate.

    Subclasses are plain frozen dataclasses.  The first :meth:`parse` or
    :meth:`to_wire` of a class compiles its **plan** from the dataclass
    fields — the set of known names, and per field, in declared order,
    whether it is required, one validator closure resolved from its
    annotation and ``constrained()`` metadata, and whether it can hold
    nested models — and caches it on the class; every later call walks
    the plan, so no request pays for ``dataclasses.fields`` or ``typing``
    introspection.  :meth:`parse` validates an untrusted JSON object
    (rejection of unknown keys, presence, JSON type, bounds) and
    :meth:`to_wire` renders the instance back to a JSON-able dict in
    declared field order — the byte-stable wire form the golden fixture
    pins.
    """

    @classmethod
    def _plan(cls) -> tuple:
        """``(known names, ((name, required, validate, nested), ...))``."""
        plan = cls.__dict__.get("_compiled_plan")
        if plan is None:
            hints = typing.get_type_hints(cls)
            fields = tuple(
                (
                    spec.name,
                    spec.default is dataclasses.MISSING
                    and spec.default_factory is dataclasses.MISSING,
                    *_field_validator(hints[spec.name], spec.metadata, spec.name),
                )
                for spec in dataclasses.fields(cls)
            )
            plan = cls._compiled_plan = (frozenset(f[0] for f in fields), fields)
        return plan

    @classmethod
    def parse(cls, data):
        """Validate ``data`` (a decoded JSON value) into an instance.

        Raises :class:`SchemaError` with a stable ``code`` on any
        violation; never raises anything else for any JSON input.  The
        first fault wins, in a fixed order: the first key of the payload
        the model does not define, then the first field *in declared
        order* that is missing or fails its own checks (type before
        length before value).
        """
        if not isinstance(data, dict):
            raise SchemaError(
                INVALID_TYPE,
                f"{cls.__name__} payload must be a JSON object, "
                f"got {_type_name(data)}",
            )
        known, fields = cls._plan()
        for key in data:
            if key not in known:
                raise SchemaError(
                    UNKNOWN_FIELD,
                    f"{cls.__name__} does not define a field {key!r}",
                    str(key),
                )
        kwargs = {}
        for name, required, validate, _ in fields:
            if name in data:
                kwargs[name] = validate(data[name])
            elif required:
                raise SchemaError(
                    MISSING_FIELD,
                    f"{cls.__name__} requires the field {name!r}",
                    name,
                )
        return cls(**kwargs)

    def to_wire(self) -> dict:
        """JSON-able dict in declared field order.

        The dict is new; its values are not copies.  Scalars, lists of
        scalars and ``dict`` fields are handed over as the instance holds
        them (they are JSON-able already, and the instance is frozen);
        only a field that holds models is rendered, by :func:`_wire_value`.
        """
        wire = {}
        for name, _, _, nested in self._plan()[1]:
            value = getattr(self, name)
            wire[name] = _wire_value(value) if nested else value
        return wire


def _wire_value(value):
    """Render a field that holds models: one model, a list of them, or null."""
    if isinstance(value, WireModel):
        return value.to_wire()
    return value if value is None else [item.to_wire() for item in value]


# -- request models ----------------------------------------------------------
@dataclass(frozen=True)
class RewriteRequest(WireModel):
    """``POST /v1/rewrite`` — one query through the rewrite tiers."""

    #: the user query to rewrite (required, non-empty)
    query: str = constrained(max_len=MAX_QUERY_CHARS, min_value=1)
    #: marketplace the request belongs to (routes pipeline + rate bucket)
    tenant: str = constrained(default="default", max_len=MAX_TENANT_CHARS, min_value=1)
    #: scheduler priority lane, 0 (highest) .. MAX_LANE
    lane: int = constrained(default=0, min_value=0, max_value=MAX_LANE)


@dataclass(frozen=True)
class SearchRequest(WireModel):
    """``POST /v1/search`` — one query end to end: rewrite then retrieve."""

    #: the user query to rewrite-and-retrieve (required, non-empty)
    query: str = constrained(max_len=MAX_QUERY_CHARS, min_value=1)
    #: marketplace the request belongs to
    tenant: str = constrained(default="default", max_len=MAX_TENANT_CHARS, min_value=1)
    #: scheduler priority lane
    lane: int = constrained(default=0, min_value=0, max_value=MAX_LANE)
    #: retrieval mode; null selects the engine's default
    mode: str | None = constrained(default=None, choices=SEARCH_MODES)


@dataclass(frozen=True)
class BatchItem(WireModel):
    """One entry of a ``/v1/batch`` request: a tagged rewrite or search."""

    #: "rewrite" or "search"
    kind: str = constrained(choices=("rewrite", "search"))
    #: the user query (required, non-empty)
    query: str = constrained(max_len=MAX_QUERY_CHARS, min_value=1)
    #: scheduler priority lane
    lane: int = constrained(default=0, min_value=0, max_value=MAX_LANE)
    #: retrieval mode for search items; must be null for rewrite items
    mode: str | None = constrained(default=None, choices=SEARCH_MODES)


@dataclass(frozen=True)
class BatchRequest(WireModel):
    """``POST /v1/batch`` — several requests admitted as one submission.

    Items still ride the scheduler individually (lanes and admission are
    per item); the batch is a transport envelope, and the response
    preserves item order.
    """

    #: entries to serve, in order (1 .. MAX_BATCH_ITEMS)
    items: list[BatchItem] = constrained(max_len=MAX_BATCH_ITEMS)
    #: marketplace every item belongs to
    tenant: str = constrained(default="default", max_len=MAX_TENANT_CHARS, min_value=1)

    def __post_init__(self):
        """A batch with nothing to do is a caller bug, not an empty 200."""
        if not self.items:
            raise SchemaError(INVALID_VALUE, "items must not be empty", "items")


# -- response models ---------------------------------------------------------
@dataclass(frozen=True)
class RewriteResponse(WireModel):
    """Wire form of one served rewrite request."""

    query: str
    rewrites: list[str]
    #: which tier answered: "cache" | "model" | "none"
    source: str
    #: wall-clock serving latency (cache lookup + amortized decode)
    latency_ms: float


@dataclass(frozen=True)
class SearchResponse(WireModel):
    """Wire form of one served end-to-end (rewrite + retrieve) request."""

    query: str
    rewrites: list[str]
    #: which rewrite tier answered: "cache" | "model" | "none"
    source: str
    #: retrieval mode that actually served the request
    mode: str
    #: ranked result document ids
    doc_ids: list[int]
    #: postings touched by the retrieval (the paper's CPU-cost proxy)
    postings_accessed: int
    #: wall-clock end-to-end latency
    latency_ms: float


@dataclass(frozen=True)
class BatchResponse(WireModel):
    """Wire form of a served batch: tagged per-item results, in order."""

    #: per-item wire dicts, each tagged with its ``kind``
    results: list[dict]

    @classmethod
    def from_outcomes(cls, items, outcomes) -> "BatchResponse":
        """Assemble from parallel lists of :class:`BatchItem` and wire dicts."""
        return cls(
            results=[
                {"kind": item.kind, **outcome}
                for item, outcome in zip(items, outcomes)
            ]
        )


@dataclass(frozen=True)
class HealthResponse(WireModel):
    """Wire form of ``GET /v1/health``."""

    #: "ok" while admitting, "draining" after /v1/drain
    status: str
    draining: bool
    #: wall-clock seconds since the gateway started serving
    uptime_seconds: float
    #: pending requests across every tenant's scheduler
    queue_depth: int
    #: HTTP requests currently being handled
    in_flight: int
    #: tenants this gateway serves, sorted
    tenants: list[str]


@dataclass(frozen=True)
class StatsResponse(WireModel):
    """Wire form of ``GET /v1/stats``: serving + scheduler + HTTP telemetry."""

    #: tenant -> deterministic ServingPipeline.counters() projection
    serving: dict
    #: additive counters summed over tenants (sum_counters)
    totals: dict
    #: tenant -> scheduler accounting (admitted/shed/completed/batches/...)
    scheduler: dict
    #: the gateway's own HTTP-layer counters
    gateway: dict


@dataclass(frozen=True)
class DrainResponse(WireModel):
    """Wire form of ``POST /v1/drain`` — the conservation receipt.

    Sent only after every in-flight request completed; ``admitted ==
    completed + shed`` is the zero-loss invariant the soak suite pins.
    """

    draining: bool
    #: requests admitted into the schedulers over the gateway's lifetime
    admitted: int
    #: requests completed (served a 200)
    completed: int
    #: admitted requests not served: shed by admission control (a 429
    #: each) or riding a batch whose pipeline call raised (a 500 each)
    shed: int
    #: wall-clock seconds the drain spent flushing in-flight work
    drain_seconds: float


@dataclass(frozen=True)
class ErrorEnvelope(WireModel):
    """The typed error wrapper every non-2xx response carries."""

    #: stable machine-readable code (one of the module constants)
    code: str
    #: human-readable explanation
    message: str
    #: offending field, when the error is a validation failure
    field: str | None = None
    #: seconds after which a 429 caller may retry
    retry_after_seconds: float | None = None

    def to_wire(self) -> dict:
        """``{"error": {...}}`` with null optionals omitted."""
        inner = {"code": self.code, "message": self.message}
        if self.field is not None:
            inner["field"] = self.field
        if self.retry_after_seconds is not None:
            inner["retry_after_seconds"] = self.retry_after_seconds
        return {"error": inner}

    @classmethod
    def parse(cls, data):
        """Validate the ``{"error": {...}}`` wire shape back to a model."""
        if not isinstance(data, dict) or set(data) != {"error"}:
            raise SchemaError(
                INVALID_TYPE, "error envelope must be {'error': {...}}"
            )
        return super(ErrorEnvelope, cls).parse(data["error"])

    @property
    def status(self) -> int:
        """The HTTP status this envelope travels with."""
        return STATUS_BY_CODE.get(self.code, 400)
