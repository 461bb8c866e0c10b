"""Vector backend that maintains one rolling summary record per session.

Every raw turn is stored with its embedding; alongside, the store keeps a
session-level summary record whose text is the first sentence of each member
turn (capped) and whose embedding is the L2-normalized mean of the member
embeddings. The summary is rewritten in place on every raw insert for that
session, keeping its record_id stable, so retrieval sees the session gist
and the raw turns side by side under plain cosine ranking.

Each session keeps its summary as running state: its member ids in insert
order, the lead sentences up to ``summary_max_sentences``, the float64 sum
of the embedded members' embeddings added in insert order, and the newest
member ts. A raw insert folds the new member into that state, so a refresh
after it reads no other member. numpy's ``np.mean(np.stack(vectors),
axis=0)`` adds the rows of a 2-D stack in order, so the running sum divided
by the count has its bits; a 1-dim stack is one column, which numpy sums
pairwise, so a 1-dim store rebuilds instead. A member's ``remove`` or
``reindex`` (a merge rewrites the older record's text, ts and embedding,
even across sessions) marks its session stale, and the session's next
refresh rebuilds the state from its live members.
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
    vector_norm,
)
from ..stream import TS_MIN
from ..text import split_sentences
from .base import MemoryStore, int_at_least


def unit_mean(total: np.ndarray, count: int) -> Optional[np.ndarray]:
    """``total / count`` L2-normalized; None when that mean is zero."""
    mean = total / count
    norm = vector_norm(mean)
    if norm == 0.0:
        return None
    return (mean / norm).astype(np.float64)


class _Session:
    """One session's running summary state (see module docstring)."""

    __slots__ = ("members", "leads", "total", "embedded", "newest_ts", "stale")

    def __init__(self):
        self.members: dict[str, None] = {}  # member ids in insert order
        self.leads: list[str] = []
        self.total: Optional[np.ndarray] = None  # float64 sum of the embedded members'
        self.embedded = 0
        self.newest_ts = TS_MIN
        self.stale = False  # a member was removed or rewritten: rebuild at the next refresh


class SummaryVectorStore(MemoryStore):
    name = "summary_vector"

    def __init__(self, summary_max_sentences: int = 12, **kwargs):
        super().__init__(**kwargs)
        self.summary_max_sentences = int_at_least("summary_max_sentences", summary_max_sentences)
        self._session_summary: dict[str, str] = {}  # session_id -> summary record_id
        self._sessions: dict[str, _Session] = {}

    def _after_add(self, record: MemoryRecord):
        if record.kind != KIND_RAW or not record.session_id:
            return
        state = self._sessions.setdefault(record.session_id, _Session())
        self._fold(state, record)
        embedding = record.embedding
        if embedding is not None and not state.stale:
            if embedding.shape[0] == 1:
                state.stale = True
            elif state.total is None:
                state.total, state.embedded = embedding.astype(np.float64), 1
            else:
                state.total += embedding
                state.embedded += 1
        self._refresh_summary(record.session_id)

    def _fold(self, state: _Session, member: MemoryRecord):
        """Add the newest member's id, lead sentence and ts to the session's state."""
        # the leads stop after the first member that brings them to the cap
        if not (state.members and len(state.leads) >= self.summary_max_sentences):
            sentences = split_sentences(member.text)
            if sentences:
                state.leads.append(sentences[0])
        state.members[member.record_id] = None
        state.newest_ts = max(state.newest_ts, member.ts)

    def _rebuild(self, state: _Session):
        """Recompute the session's state from its live members."""
        members = [self._records[mid] for mid in state.members]
        state.members, state.leads, state.newest_ts = {}, [], TS_MIN
        for member in members:
            self._fold(state, member)
        vectors = [m.embedding for m in members if m.embedding is not None]
        # np.mean's own sum: add.reduce over the stack's first axis
        state.total = np.add.reduce(np.stack(vectors)) if vectors else None
        state.embedded = len(vectors)
        state.stale = False

    def _refresh_summary(self, session_id: str):
        # _after_remove drops removed members and an evicted summary's
        # mapping, so every id here is live; an evicted summary is rebuilt
        # under a fresh id
        state = self._sessions.get(session_id)
        summary_id = self._session_summary.get(session_id)
        if state is None or not state.members:
            self._sessions.pop(session_id, None)
            if summary_id is not None:
                # _after_remove drops the session mapping
                self.remove(summary_id)
            return
        if state.stale:
            self._rebuild(state)
        text = " ".join(state.leads)
        embedding = unit_mean(state.total, state.embedded) if state.embedded else None
        newest_ts = state.newest_ts
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
        state = self._sessions.get(session_id)
        if state is not None and record.record_id in state.members:
            del state.members[record.record_id]
            state.stale = True
            self._refresh_summary(session_id)
        elif self._session_summary.get(session_id) == record.record_id:
            # matched by id: enrich normalization inserts summaries of its own
            del self._session_summary[session_id]

    def reindex(self, record: MemoryRecord):
        super().reindex(record)
        state = self._sessions.get(record.session_id)
        if state is not None and record.record_id in state.members:
            state.stale = True

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
