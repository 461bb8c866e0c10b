"""Graph-flavored backend: entity postings over triplet records plus cosine.

Triplet records index their subject and object entities; a query earns one
bonus point per distinct matched entity on top of the folded cosine, so
entity-anchored facts outrank near-duplicates in embedding space. Records
without a triplet (raw turns, summaries) still participate through the
cosine term alone. Two exact scans find the top ``k``: every matched record,
and the ``k`` best of the others by cosine. Positive scores are divided by
the best one, then ranked. Link maintenance is supported so the
link-evolution consolidation pass can attach neighbors.
"""

from __future__ import annotations

from typing import Optional

from ..records import Candidate, MemoryRecord, RetrievalSignal
from ..text import index_tokens
from .base import MemoryStore, fold_cosine, rank_ids


def entity_keys(record: MemoryRecord) -> set[str]:
    """Index tokens of the triplet's subject and object, empty for non-triplets."""
    if record.triplet is None:
        return set()
    keys = set(index_tokens(record.triplet.subject))
    keys.update(index_tokens(record.triplet.object))
    return keys


class PropertyGraphStore(MemoryStore):
    name = "property_graph"
    supports_links = True

    def _index_keys(self, record: MemoryRecord) -> set[str]:
        return entity_keys(record)

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        # one point per distinct query entity the record's triplet mentions
        ranked, totals = self._lexical_ranking(signal, now)
        points = {rec_id: float(totals[rec_id]) for rec_id in ranked}
        scores = dict(points)
        if signal.embedding is not None:
            # an unmatched record outside the k best ranks below k others
            for rec, sim in (self.nearest(signal.embedding, now, rows=points)
                             + self.nearest(signal.embedding, now, top=k, exclude=points)):
                scores[rec.record_id] = points.get(rec.record_id, 0.0) + fold_cosine(sim)
        top = max(scores.values(), default=0.0)
        if top <= 0.0:
            return []
        # divided before ranking: a tie the division makes goes to the id
        ratios = {rec_id: score / top for rec_id, score in scores.items() if score > 0.0}
        records = self._records
        return [Candidate(record=records[rec_id], score=ratios[rec_id])
                for rec_id in rank_ids(ratios)[:k]]

    def _index_sizes(self) -> dict[str, int]:
        return {
            "entities": len(self._postings.postings),
            "linked_records": sum(1 for r in self.all_records() if r.links),
        }
