"""Storage backends and the name -> class registry."""

from __future__ import annotations

from typing import Optional

from ..errors import StoreError
from .base import MemoryStore, fold_cosine
from .fifo import FifoQueueStore
from .inverted_vector import InvertedVectorStore
from .lsh import LshStore, lsh_signature
from .property_graph import PropertyGraphStore
from .queue_segment import QueueSegmentStore
from .summary_vector import SummaryVectorStore

BACKENDS: dict[str, type] = {
    "fifo_queue": FifoQueueStore,
    "queue_segment": QueueSegmentStore,
    "lsh_hash": LshStore,
    "inverted_vector": InvertedVectorStore,
    "property_graph": PropertyGraphStore,
    "summary_vector": SummaryVectorStore,
}


def build_store(backend: str, *, embed_dim: Optional[int] = None, seed: int = 0,
                params: Optional[dict] = None) -> MemoryStore:
    """Instantiate a backend by registry name.

    ``params`` carries backend-specific knobs (capacity, bits, rrf_k, ...),
    checked by the backend as it is built. Every backend receives the run's
    ``embed_dim``, and lsh_hash the run's ``seed`` for its projection planes;
    a param naming either is a bad parameter like any unknown key.
    """
    cls = BACKENDS.get(backend)
    if cls is None:
        known = ", ".join(sorted(BACKENDS))
        raise StoreError(f"unknown backend {backend!r} (known: {known})")
    run = {"embed_dim": embed_dim}
    if cls is LshStore:
        run["seed"] = seed
    try:
        return cls(**(params or {}), **run)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"bad parameters for backend {backend!r}: {exc}") from exc


__all__ = [
    "BACKENDS",
    "FifoQueueStore",
    "InvertedVectorStore",
    "LshStore",
    "MemoryStore",
    "PropertyGraphStore",
    "QueueSegmentStore",
    "SummaryVectorStore",
    "build_store",
    "fold_cosine",
    "lsh_signature",
]
