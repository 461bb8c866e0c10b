"""Experiment configuration: typed dataclasses plus the YAML file format.

A config file has sections ``store``, ``operators``, ``checkpoint``,
``gateway`` and run-level keys (seed, dataset, output_dir).
An optional ``ablate`` section maps dotted keys to value lists; the grid is
the cross product. Dotted ``--set key=value`` overrides apply on top of the
file before expansion. Every value must fit its field's annotation (an int
fits a float field), or ConfigError names the key.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

import yaml

from .ingest import NORMALIZERS, POLICIES
from .records import DEFAULT_STRENGTH_S, TIER_NAMES
from .retrieve import FORMULATORS, INTEGRATORS

# each axis's strategy names, in the order of its table
NORMALIZE_STRATEGIES = tuple(NORMALIZERS)
CONSOLIDATE_STRATEGIES = tuple(POLICIES)
FORMULATE_STRATEGIES = tuple(FORMULATORS)
INTEGRATE_STRATEGIES = tuple(INTEGRATORS)

DAY_S = 86_400.0


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration values."""


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


@dataclass
class NormalizeConfig:
    strategy: str = "none"
    max_triplets: int = 5
    summary_max_sentences: int = 2

    def validate(self):
        _require(self.strategy in NORMALIZE_STRATEGIES,
                 f"normalize.strategy must be one of {NORMALIZE_STRATEGIES}, got {self.strategy!r}")
        _require(self.max_triplets >= 1, "normalize.max_triplets must be >= 1")
        _require(self.summary_max_sentences >= 1,
                 "normalize.summary_max_sentences must be >= 1")


@dataclass
class ConsolidateConfig:
    strategy: str = "none"
    retention_threshold: float = 0.3
    initial_strength_s: float = DEFAULT_STRENGTH_S
    strength_gain: float = 2.0
    heat_alpha: float = 1.0
    heat_beta: float = 1.0
    heat_tau_s: float = DAY_S
    hot_heat: float = 2.0
    cold_heat: float = 0.5
    link_top_m: int = 3
    link_threshold: float = 0.5
    dedup_threshold: float = 0.95
    every_n: int = 1

    def validate(self):
        _require(self.strategy in CONSOLIDATE_STRATEGIES,
                 f"consolidate.strategy must be one of {CONSOLIDATE_STRATEGIES}, got {self.strategy!r}")
        for name in ("retention_threshold", "link_threshold", "dedup_threshold"):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0, f"consolidate.{name} must be in [0,1], got {value}")
        _require(self.initial_strength_s > 0, "consolidate.initial_strength_s must be > 0")
        _require(self.strength_gain >= 1.0, "consolidate.strength_gain must be >= 1")
        _require(self.heat_tau_s > 0, "consolidate.heat_tau_s must be > 0")
        _require(self.link_top_m >= 0, "consolidate.link_top_m must be >= 0")
        _require(self.every_n >= 1, "consolidate.every_n must be >= 1")


@dataclass
class FormulateConfig:
    strategy: str = "none"
    max_keywords: int = 5
    max_subqueries: int = 3
    keyword_augments: bool = False  # False: keywords replace the raw lexical signal

    def validate(self):
        _require(self.strategy in FORMULATE_STRATEGIES,
                 f"formulate.strategy must be one of {FORMULATE_STRATEGIES}, got {self.strategy!r}")
        _require(self.max_keywords >= 1, "formulate.max_keywords must be >= 1")
        _require(self.max_subqueries >= 1, "formulate.max_subqueries must be >= 1")


@dataclass
class IntegrateConfig:
    strategy: str = "none"
    decay_lambda: float = 0.1
    score_threshold: float = 0.5
    augment_window: int = 1
    multi_query_count: int = 3
    budget_tokens: int = 2048
    tier_quotas: Optional[dict[str, int]] = None  # None: top-k quota per tier

    def validate(self):
        _require(self.strategy in INTEGRATE_STRATEGIES,
                 f"integrate.strategy must be one of {INTEGRATE_STRATEGIES}, got {self.strategy!r}")
        _require(self.decay_lambda >= 0.0, "integrate.decay_lambda must be >= 0")
        _require(0.0 <= self.score_threshold <= 1.0,
                 f"integrate.score_threshold must be in [0,1], got {self.score_threshold}")
        _require(self.augment_window >= 0, "integrate.augment_window must be >= 0")
        _require(self.multi_query_count >= 1, "integrate.multi_query_count must be >= 1")
        _require(self.budget_tokens >= 1, "integrate.budget_tokens must be >= 1")
        if self.tier_quotas is not None:
            for tier, quota in self.tier_quotas.items():
                _require(tier in TIER_NAMES, f"integrate.tier_quotas key {tier!r} names "
                         f"no tier; valid tiers are {TIER_NAMES}")
                _require(quota >= 0, f"integrate.tier_quotas[{tier!r}] must be >= 0")


@dataclass
class OperatorConfig:
    normalize: NormalizeConfig = field(default_factory=NormalizeConfig)
    consolidate: ConsolidateConfig = field(default_factory=ConsolidateConfig)
    formulate: FormulateConfig = field(default_factory=FormulateConfig)
    integrate: IntegrateConfig = field(default_factory=IntegrateConfig)
    k: int = 5

    def validate(self):
        _require(self.k >= 1, f"operators.k must be >= 1, got {self.k}")
        self.normalize.validate()
        self.consolidate.validate()
        self.formulate.validate()
        self.integrate.validate()


@dataclass
class StoreConfig:
    backend: str = "inverted_vector"
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self):
        _require(bool(self.backend), "store.backend must be set")
        _require(isinstance(self.params, dict), "store.params must be a mapping")


@dataclass
class GatewayConfig:
    kind: str = "mock"  # mock | remote
    embed_dim: int = 256
    rate_limit: Optional[float] = None  # requests/second, None = unlimited
    chat_model: str = "neuromem-chat"
    embed_model: str = "neuromem-embed"

    def validate(self):
        _require(self.kind in ("mock", "remote"),
                 f"gateway.kind must be mock or remote, got {self.kind!r}")
        _require(self.embed_dim >= 8, "gateway.embed_dim must be >= 8")
        if self.rate_limit is not None:
            _require(self.rate_limit > 0, "gateway.rate_limit must be > 0 when set")


@dataclass
class CheckpointSchedule:
    """Exactly one of fraction / every_n / per_round."""

    fraction: Optional[float] = None
    every_n: Optional[int] = None
    per_round: bool = False

    def validate(self):
        kinds = sum([self.fraction is not None, self.every_n is not None, self.per_round])
        _require(kinds == 1,
                 "checkpoint must set exactly one of fraction, every_n, per_round")
        if self.fraction is not None:
            _require(0.0 < self.fraction <= 1.0,
                     f"checkpoint.fraction must be in (0,1], got {self.fraction}")
        if self.every_n is not None:
            _require(self.every_n >= 1, "checkpoint.every_n must be >= 1")


@dataclass
class ExperimentConfig:
    store: StoreConfig = field(default_factory=StoreConfig)
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    checkpoint: CheckpointSchedule = field(default_factory=lambda: CheckpointSchedule(fraction=0.2))
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    seed: int = 0
    dataset: str = ""
    output_dir: str = ""

    def validate(self):
        self.store.validate()
        self.operators.validate()
        self.checkpoint.validate()
        self.gateway.validate()


# ----------------------------------------------------------------------
# dict <-> dataclass plumbing
# ----------------------------------------------------------------------

def _matches(value: Any, hint: Any) -> bool:
    """Whether ``value`` fits the field annotation ``hint``; an int fits a float."""
    origin = get_origin(hint)
    if origin is Union:
        return any(_matches(value, arg) for arg in get_args(hint))
    if origin is dict:
        key_hint, value_hint = get_args(hint)
        return isinstance(value, dict) and all(
            _matches(k, key_hint) and _matches(v, value_hint) for k, v in value.items())
    if hint is Any:
        return True
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


# resolving string annotations costs more than building the config
_field_types = functools.lru_cache(maxsize=None)(get_type_hints)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping, got {type(data).__name__}")
    hints = _field_types(cls)
    declared = {f.name: f.type for f in dc_fields(cls)}
    obj = cls()
    for key, value in data.items():
        dotted = f"{path + '.' if path else ''}{key}"
        if key not in declared:
            raise ConfigError(f"unknown config key {dotted}")
        current = getattr(obj, key)
        if hasattr(current, "validate") and hasattr(current, "__dataclass_fields__"):
            value = _build(type(current), value, dotted)
        elif not _matches(value, hints[key]):
            raise ConfigError(f"{dotted} must be {declared[key]}, "
                              f"got {type(value).__name__} {value!r}")
        setattr(obj, key, value)
    return obj


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data or {})
    data.pop("ablate", None)
    cfg = _build(ExperimentConfig, data, "")
    cfg.validate()
    return cfg


def _plain(obj):
    """``obj`` with every dataclass in it turned into a dict, recursively."""
    if hasattr(obj, "__dataclass_fields__"):
        return {f.name: _plain(getattr(obj, f.name)) for f in dc_fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def config_to_dict(cfg: ExperimentConfig) -> dict:
    # a module-level walker: a nested recursive function is a reference
    # cycle (function -> closure cell -> function), which a run must not make
    return _plain(cfg)


def load_config_file(path: str | Path) -> dict:
    """Raw YAML mapping (with any ablate section intact)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return data


def apply_override(data: dict, dotted_key: str, value: Any):
    """Set a nested key ('store.backend', 'operators.formulate.strategy')."""
    parts = dotted_key.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        elif not isinstance(nxt, dict):
            raise ConfigError(f"override {dotted_key!r}: {part!r} is not a section")
        node = nxt
    node[parts[-1]] = value


def parse_set_option(option: str) -> tuple[str, Any]:
    """'a.b.c=value' with the value parsed as YAML (so 3, 0.5, true, text)."""
    if "=" not in option:
        raise ConfigError(f"--set expects key=value, got {option!r}")
    key, raw = option.split("=", 1)
    key = key.strip()
    _require(bool(key), f"--set has empty key in {option!r}")
    return key, yaml.safe_load(raw) if raw != "" else ""


def expand_ablation(data: dict) -> list[tuple[str, ExperimentConfig]]:
    """Cross product over the ablate section.

    Returns (variant_name, config) pairs; one pair named "base" when there is
    no ablate section. Variant names join 'lastkeypart-value' fragments in
    declaration order, with each '/' of a value written as '_', and double
    as sink sub-directory names, so two variants of one name raise
    ConfigError.
    """
    ablate = data.get("ablate") or {}
    if not isinstance(ablate, dict):
        raise ConfigError("ablate must map dotted config keys to value lists")
    if not ablate:
        return [("base", config_from_dict(data))]
    keys = list(ablate.keys())
    value_lists = []
    for key in keys:
        if not isinstance(key, str):
            raise ConfigError(f"ablate key {key!r} must be a dotted config key")
        values = ablate[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"ablate.{key} must be a non-empty list")
        value_lists.append(values)
    variants = []
    for combo in itertools.product(*value_lists):
        working = copy.deepcopy({k: v for k, v in data.items() if k != "ablate"})
        name_parts = []
        for key, value in zip(keys, combo):
            apply_override(working, key, value)
            # one path component, so a dataset path names no nested directory
            name_parts.append(f"{key.rsplit('.', 1)[-1]}-{value}".replace("/", "_"))
        name = "_".join(name_parts)
        # two variants of one name would share, and overwrite, one sink directory
        _require(all(name != other for other, _ in variants),
                 f"ablate yields two variants named {name!r}")
        variants.append((name, config_from_dict(working)))
    return variants
