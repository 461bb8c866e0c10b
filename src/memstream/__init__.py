"""Streaming testbed for external memory pipelines.

The lifecycle of a memory system is split into five swappable operator
groups: how records are written (normalize), reorganized after writes
(consolidate), how queries are phrased (formulate), and how retrieved
candidates become model context (integrate), all on top of interchangeable
storage backends. An orchestrator replays interleaved insert/retrieve
streams against a chosen combination under a strictly blocking protocol
and attributes token F1 and latency to each stage.
"""

from .config import (
    CheckpointSchedule,
    ConfigError,
    ConsolidateConfig,
    ExperimentConfig,
    FormulateConfig,
    GatewayConfig,
    IntegrateConfig,
    NormalizeConfig,
    OperatorConfig,
    StoreConfig,
    config_from_dict,
    config_to_dict,
    expand_ablation,
    load_config_file,
)
from .errors import (
    GatewayError,
    MemstreamError,
    MissingFiles,
    SchemaError,
    SinkExists,
    StoreError,
    StreamError,
)
from .gateway import Gateway, MockGateway, RemoteGateway, TokenBucket
from .metrics import latency_aggregate, token_f1
from .orchestrator import ExperimentResult, experiment_sink, run_experiment
from .stores import BACKENDS, build_store
from .stream import (
    StreamManifest,
    read_stream_file,
    serialize_stream,
    validate_stream,
    write_stream_file,
)
from .workloads import SyntheticSpec, load_generic, load_locomo, synth_workload

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "CheckpointSchedule",
    "ConfigError",
    "ConsolidateConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "FormulateConfig",
    "Gateway",
    "GatewayConfig",
    "GatewayError",
    "IntegrateConfig",
    "MemstreamError",
    "MissingFiles",
    "MockGateway",
    "NormalizeConfig",
    "OperatorConfig",
    "RemoteGateway",
    "SchemaError",
    "SinkExists",
    "StoreConfig",
    "StoreError",
    "StreamError",
    "StreamManifest",
    "SyntheticSpec",
    "TokenBucket",
    "build_store",
    "config_from_dict",
    "config_to_dict",
    "expand_ablation",
    "experiment_sink",
    "latency_aggregate",
    "load_config_file",
    "load_generic",
    "load_locomo",
    "read_stream_file",
    "run_experiment",
    "serialize_stream",
    "synth_workload",
    "token_f1",
    "validate_stream",
    "write_stream_file",
    "__version__",
]
