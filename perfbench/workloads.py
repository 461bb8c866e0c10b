"""The three replay workloads: a synthetic stream spec plus an experiment config.

Every workload uses the mock gateway (64-dim embeddings), five query rounds,
k=5 and checkpoints every fifth of the inserts, so each checkpoint falls on a
query-round boundary and scores that round against its own store state.
Sizes are half those first proposed for them, so that a replay takes one to
three seconds and a run holds ten or more replays to take medians over; the
stage that dominates each workload is the same at both sizes.
Queries pin ``needle_depths`` so the texts within a round are distinct, bar
an updated fact and its original that both fall on a depth: the default
8-rung ladder repeats identical texts at identical timestamps, which
would let a query cache show a gain real traffic would not give.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict      # SyntheticSpec keyword arguments, without the seed
    store: dict     # the config's ``store`` section
    operators: dict  # the config's ``operators`` section, without ``k``

    def config(self, seed: int) -> dict:
        """Config mapping for ``memstream.config.config_from_dict``."""
        return {
            "store": self.store,
            "operators": {**self.operators, "k": 5},
            "checkpoint": {"fraction": 0.2},
            "gateway": {"kind": "mock", "embed_dim": 64},
            "seed": seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # Read path: 250 fused lexical+vector retrieves over a store that
        # grows to 1100 records; the per-record cosine scan in
        # stores.retrieve dominates and consolidation does no work.
        Workload(
            name="search_heavy",
            spec=dict(n_facts=1000, update_rate=0.1, n_sessions=4, rounds=5,
                      queries_per_round=50,
                      needle_depths=tuple(range(0, 200, 4))),
            store={"backend": "inverted_vector"},
            operators={},
        ),
        # Write path: every insert scans the store for its nearest
        # neighbour. At 0.85 about one insert in fourteen merges, so
        # reindex and remove run; at the default 0.95 nothing merges.
        Workload(
            name="consolidate_heavy",
            spec=dict(n_facts=600, update_rate=0.2, rounds=5,
                      queries_per_round=20,
                      needle_depths=tuple(range(0, 140, 7))),
            store={"backend": "inverted_vector"},
            operators={"consolidate": {"strategy": "semantic_consolidation",
                                       "dedup_threshold": 0.85}},
        ),
        # Bounded store with no vector path: gateway chat/embed and the
        # lexical scans of 256 records dominate, FIFO eviction removes a
        # record per insert, and a vector-index change should leave this
        # workload unchanged.
        Workload(
            name="rewrite_bounded",
            spec=dict(n_facts=4000, update_rate=0.2, rounds=5,
                      queries_per_round=100, paraphrase_rate=0.3,
                      needle_depths=tuple(range(0, 500, 5))),
            store={"backend": "fifo_queue", "params": {"capacity": 256}},
            operators={"normalize": {"strategy": "rewrite"},
                       "formulate": {"strategy": "keyword"},
                       "integrate": {"strategy": "multi_query"}},
        ),
    )
}
