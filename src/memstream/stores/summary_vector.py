"""Vector backend that maintains one rolling summary record per session.

Every raw turn is stored with its embedding; alongside, the store keeps a
session-level summary record whose text is the first sentence of each member
turn (capped) and whose embedding is the L2-normalized mean of the member
embeddings. The summary is rebuilt in place on every raw insert for that
session, keeping its record_id stable, so retrieval sees the session gist
and the raw turns side by side under plain cosine ranking.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..records import (
    KIND_RAW,
    KIND_SUMMARY,
    Candidate,
    MemoryRecord,
    RetrievalSignal,
)
from ..text import split_sentences
from .base import MemoryStore


def mean_embedding(vectors: list[np.ndarray]) -> Optional[np.ndarray]:
    """L2-normalized mean; None when no vectors or the mean is zero."""
    if not vectors:
        return None
    mean = np.mean(np.stack(vectors), axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return None
    return (mean / norm).astype(np.float64)


class SummaryVectorStore(MemoryStore):
    name = "summary_vector"

    def __init__(self, summary_max_sentences: int = 12, **kwargs):
        super().__init__(**kwargs)
        self.summary_max_sentences = summary_max_sentences
        self._session_summary: dict[str, str] = {}  # session_id -> summary record_id
        self._session_members: dict[str, list[str]] = {}

    def _after_add(self, record: MemoryRecord):
        if record.kind != KIND_RAW or not record.session_id:
            return
        members = self._session_members.setdefault(record.session_id, [])
        members.append(record.record_id)
        self._refresh_summary(record.session_id)

    def _summary_text(self, members: list[MemoryRecord]) -> str:
        leads = []
        for member in members:
            sentences = split_sentences(member.text)
            if sentences:
                leads.append(sentences[0])
            if len(leads) >= self.summary_max_sentences:
                break
        return " ".join(leads)

    def _refresh_summary(self, session_id: str):
        # _after_remove drops removed members and an evicted summary's
        # mapping, so every id here is live; an evicted summary is rebuilt
        # under a fresh id
        members = [self._records[mid] for mid in self._session_members.get(session_id, [])]
        summary_id = self._session_summary.get(session_id)
        if not members:
            if summary_id is not None:
                # _after_remove drops the session mapping
                self.remove(summary_id)
            return
        text = self._summary_text(members)
        embedding = mean_embedding([m.embedding for m in members if m.embedding is not None])
        newest_ts = max(m.ts for m in members)
        if summary_id is None:
            (self._session_summary[session_id],) = self.insert([MemoryRecord(
                record_id="", text=text, ts=newest_ts, session_id=session_id,
                kind=KIND_SUMMARY, embedding=embedding, strength=self.initial_strength_s,
            )])
        else:
            summary = self._records[summary_id]
            summary.text = text
            summary.embedding = embedding
            summary.ts = newest_ts
            if summary.last_access < newest_ts:
                summary.last_access = newest_ts
            self.reindex(summary)

    def _after_remove(self, record: MemoryRecord):
        session_id = record.session_id
        if record.kind == KIND_RAW and session_id in self._session_members:
            self._session_members[session_id] = [
                mid for mid in self._session_members[session_id] if mid != record.record_id
            ]
            self._refresh_summary(session_id)
        elif self._session_summary.get(session_id) == record.record_id:
            # matched by id: enrich normalization inserts summaries of its own
            del self._session_summary[session_id]

    def _index_keys(self, record: MemoryRecord) -> tuple:
        # retrieval ranks by cosine alone, so nothing is keyed
        return ()

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        if signal.embedding is None:
            return []
        return self._vector_search(signal, k, now)

    def _index_sizes(self) -> dict[str, int]:
        return {"sessions": len(self._session_summary)}
