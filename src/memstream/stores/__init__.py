"""Storage backends and the name -> class registry."""

from __future__ import annotations

from typing import Optional

from ..errors import StoreError
from .base import MemoryStore, fold_cosine, rank_candidates
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

    ``params`` carries backend-specific knobs (capacity, bits, rrf_k, ...).
    The lsh_hash backend additionally receives the run seed for its
    projection planes unless params pins one.
    """
    cls = BACKENDS.get(backend)
    if cls is None:
        known = ", ".join(sorted(BACKENDS))
        raise StoreError(f"unknown backend {backend!r} (known: {known})")
    kwargs = dict(params or {})
    if backend == "lsh_hash":
        kwargs.setdefault("seed", seed)
        if embed_dim is not None:
            kwargs.setdefault("dim", embed_dim)
    elif embed_dim is not None:
        kwargs.setdefault("embed_dim", embed_dim)
    try:
        return cls(**kwargs)
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
    "rank_candidates",
]
