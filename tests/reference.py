"""Reference helpers the tests score and count against.

Each reads only record, trace and request fields, never a store's indexes,
so a fault in an index or a fast path cannot hide in its own reference.
"""

from collections import Counter

from memstream.stream import KIND_INSERT
from memstream.text import index_tokens


def visible_records(store, now):
    """Live records strictly older than ``now`` (all when None), in insertion order."""
    return [r for r in store.all_records() if now is None or r.ts < now]


def lexical_scores(records, signal, token_counts: dict[str, Counter]):
    """Term-frequency scores over pre-tokenized records; positive scores only."""
    query_tokens = set(index_tokens(signal.lexical_text()))
    if not query_tokens:
        return []
    scored = []
    for record in records:
        counts = token_counts.get(record.record_id)
        if not counts:
            continue
        score = float(sum(counts[t] for t in query_tokens if t in counts))
        if score > 0:
            scored.append((record, score))
    return scored


def chat_ns_by_stage(trace) -> dict[str, int]:
    """Chat wall time of one request trace, summed per stage it was billed to."""
    out: dict[str, int] = {}
    for timing in trace.gateway_calls:
        if timing.call_kind == "chat":
            out[timing.stage] = out.get(timing.stage, 0) + timing.wall_ns
    return out


def insert_count(manifest) -> int:
    """Insert requests in a stream manifest."""
    return sum(1 for r in manifest.requests if r.kind == KIND_INSERT)
