"""Public API surface: every package imports and every __all__ resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.autograd",
    "repro.nn",
    "repro.optim",
    "repro.text",
    "repro.data",
    "repro.data.marketplace",
    "repro.models",
    "repro.decoding",
    "repro.training",
    "repro.core",
    "repro.baselines",
    "repro.search",
    "repro.embedding",
    "repro.evaluation",
    "repro.experiments",
    "repro.online",
    "repro.store",
    "repro.cluster",
    "repro.gateway",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_every_module_importable():
    """Walk the whole package tree — no module may fail at import time."""
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except Exception as error:  # pragma: no cover - report which module
            failures.append((info.name, repr(error)))
    assert not failures, failures


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_readme_quickstart_symbols_exist():
    """The README's quickstart snippet must reference real names."""
    from repro.core import CyclicRewriter, RewriterConfig  # noqa: F401
    from repro.data import MarketplaceConfig, generate_marketplace  # noqa: F401
    from repro.models import ModelConfig, TransformerNMT  # noqa: F401
    from repro.training import CyclicConfig, CyclicTrainer  # noqa: F401


def test_one_figure4_sampler_surface():
    """The training-side and LM-side sampler copies are gone, not
    deprecated: ``repro.decoding`` is the only place that samples."""
    from repro import decoding, training
    from repro.core import LMRewriter
    from repro.models.lm import DecoderOnlyLM

    assert "batched_top_n_sampling" not in training.__all__
    assert not hasattr(training, "batched_top_n_sampling")
    assert not hasattr(DecoderOnlyLM, "generate_batch")
    assert not hasattr(LMRewriter, "rewrite_batch")
    assert "sample_top_n_pools" in decoding.__all__


def test_scenario_library_surface():
    """The scenario library is part of repro.online's public contract."""
    from repro import online

    for symbol in (
        "Scenario",
        "ScenarioConfig",
        "ScenarioRunner",
        "ScenarioOutcome",
        "InvariantResult",
        "SCENARIOS",
        "get_scenario",
        "run_scenario",
    ):
        assert symbol in online.__all__, symbol
        assert hasattr(online, symbol), symbol


def test_cluster_surface():
    """The shard-backend tier is part of repro.cluster's public contract."""
    from repro import cluster

    for symbol in (
        "ShardBackend",
        "InprocBackend",
        "ProcessBackend",
        "ReplicaRouter",
        "LazyExecutor",
        "clamp_workers",
        "OPS",
        "MUTATING_OPS",
        "ClusterError",
        "ShardUnavailableError",
        "ShardTimeoutError",
        "ShardWorkerError",
        "NoHealthyReplicaError",
    ):
        assert symbol in cluster.__all__, symbol
        assert hasattr(cluster, symbol), symbol

    # The typed failure taxonomy the failover contract promises: only
    # the unavailable family (timeouts included) triggers rerouting.
    assert issubclass(cluster.ShardUnavailableError, cluster.ClusterError)
    assert issubclass(cluster.ShardTimeoutError, cluster.ShardUnavailableError)
    assert issubclass(cluster.ShardWorkerError, cluster.ClusterError)
    assert not issubclass(cluster.ShardWorkerError, cluster.ShardUnavailableError)
    assert issubclass(cluster.NoHealthyReplicaError, cluster.ClusterError)

    # Both deployment backends satisfy the backend contract.
    for cls in (cluster.InprocBackend, cluster.ProcessBackend):
        assert issubclass(cls, cluster.ShardBackend)
        for verb in ("call", "fanout", "quiesce", "close", "kill", "describe"):
            assert callable(getattr(cls, verb)), (cls.__name__, verb)


def test_gateway_surface():
    """The HTTP front door is part of repro.gateway's public contract."""
    from repro import gateway

    for symbol in (
        "Gateway",
        "GatewayConfig",
        "GatewayStats",
        "SchedulerBridge",
        "RequestShed",
        "RateLimiter",
        "RateLimitConfig",
        "TokenBucket",
        "SchemaError",
        "ErrorEnvelope",
        "RewriteRequest",
        "SearchRequest",
        "BatchRequest",
        "RewriteResponse",
        "SearchResponse",
        "BatchResponse",
        "HealthResponse",
        "DrainResponse",
        "MiniClient",
        "run_soak",
    ):
        assert symbol in gateway.__all__, symbol
        assert hasattr(gateway, symbol), symbol
    # The soak is shaped by the arm's ScenarioConfig and judged into its
    # ScenarioOutcome; it keeps no config or outcome type of its own.
    for symbol in ("SoakConfig", "SoakOutcome"):
        assert symbol not in gateway.__all__, symbol
        assert not hasattr(gateway, symbol), symbol

    # Every wire model exposes the parse/wire round trip the typed
    # schema contract promises, and schema faults carry stable codes.
    for cls in (
        gateway.RewriteRequest,
        gateway.SearchRequest,
        gateway.BatchRequest,
        gateway.RewriteResponse,
        gateway.SearchResponse,
        gateway.BatchResponse,
        gateway.HealthResponse,
        gateway.DrainResponse,
        gateway.ErrorEnvelope,
    ):
        assert callable(getattr(cls, "parse")), cls.__name__
        assert callable(getattr(cls, "to_wire")), cls.__name__
    fault = gateway.SchemaError("invalid_type", "boom", field="query")
    assert fault.code == "invalid_type"
    envelope = gateway.ErrorEnvelope(
        code=fault.code, message=fault.message, field=fault.field
    )
    assert envelope.status == 400


def test_decoding_surface():
    """The decode loop is part of repro.decoding's public contract."""
    from repro import decoding

    for symbol in (
        "Hypothesis",
        "greedy_decode",
        "greedy_decode_batch",
        "top_n_sampling",
        "top_n_sampling_batch",
        "sample_top_n_pools",
        "beam_search",
        "beam_search_batch",
        "diverse_beam_search",
    ):
        assert symbol in decoding.__all__, symbol
        assert hasattr(decoding, symbol), symbol

    # The frozen seed implementations stay importable: they are the
    # equivalence oracle and the benchmark baseline, not dead code.
    from repro.decoding import reference

    for symbol in (
        "start_uncached",
        "greedy_decode_batch_reference",
        "top_n_sampling_reference",
        "top_n_sampling_batch_reference",
        "beam_search_reference",
        "beam_search_batch_reference",
    ):
        assert callable(getattr(reference, symbol)), symbol

    # Models expose the decode-work gauges (``decode_steps`` /
    # ``decode_rows``) the compaction contract reports.
    from repro.models import HybridNMT, RecurrentNMT, TransformerNMT
    from repro.models.base import Seq2SeqModel

    for cls in (TransformerNMT, HybridNMT, RecurrentNMT):
        assert issubclass(cls, Seq2SeqModel)
        assert callable(getattr(cls, "reset_decode_counters")), cls.__name__


def test_store_surface():
    """The persistence layer is part of repro.store's public contract."""
    from repro import store

    for symbol in (
        "SegmentStore",
        "Manifest",
        "SegmentRef",
        "StoreError",
        "SegmentCorruptError",
        "SegmentVersionError",
        "ManifestError",
        "ManifestVersionError",
        "FORMAT_NAME",
        "FORMAT_VERSION",
        "MANIFEST_NAME",
        "read_segment_file",
    ):
        assert symbol in store.__all__, symbol
        assert hasattr(store, symbol), symbol

    # The typed hierarchy the corruption contract promises.
    assert issubclass(store.SegmentCorruptError, store.StoreError)
    assert issubclass(store.SegmentVersionError, store.SegmentCorruptError)
    assert issubclass(store.ManifestError, store.StoreError)
    assert issubclass(store.ManifestVersionError, store.ManifestError)

    # The search tier actually exposes the wired persistence methods.
    from repro.search import (
        HybridSearchEngine,
        ShardedSearchEngine,
        ShardedVectorIndex,
        VectorIndex,
    )
    from repro.search.inverted_index import InvertedIndex
    from repro.search.sharded import ShardedIndex

    for cls in (
        InvertedIndex,
        VectorIndex,
        ShardedIndex,
        ShardedVectorIndex,
        ShardedSearchEngine,
        HybridSearchEngine,
    ):
        assert callable(getattr(cls, "save")), cls.__name__
        assert callable(getattr(cls, "load")), cls.__name__
