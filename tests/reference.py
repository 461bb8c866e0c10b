"""Reference helpers the tests score and count against.

Each reads only record, trace and request fields, never a store's indexes,
so a fault in an index or a fast path cannot hide in its own reference.
The last section builds the operator grid the run-level tests replay, and
the digests ``tests/data/golden_digests.json`` holds for it.
"""

import hashlib
import itertools
import json
import math
import zlib
from collections import Counter

import numpy as np

from memstream import ingest
from memstream.config import (
    CONSOLIDATE_STRATEGIES,
    FORMULATE_STRATEGIES,
    INTEGRATE_STRATEGIES,
    NORMALIZE_STRATEGIES,
    CheckpointSchedule,
    ConsolidateConfig,
    ExperimentConfig,
    FormulateConfig,
    GatewayConfig,
    IntegrateConfig,
    NormalizeConfig,
    OperatorConfig,
    StoreConfig,
)
from memstream.errors import SchemaError, UnsupportedBackend
from memstream.orchestrator import run_experiment
from memstream.records import KIND_RAW, KIND_SUMMARY, TIER_ORDER, Candidate, MemoryRecord
from memstream.stores import BACKENDS
from memstream.stores.base import MemoryStore
from memstream.stores.inverted_vector import InvertedVectorStore
from memstream.stores.queue_segment import QueueSegmentStore
from memstream.stores.summary_vector import SummaryVectorStore
from memstream.stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    InsertPayload,
    Payload,
    Request,
    RetrievePayload,
)
from memstream.text import (
    SYNONYMS_BIDIRECTIONAL,
    apply_synonyms,
    index_tokens,
    metric_tokens,
    split_sentences,
)
from memstream.workloads import SyntheticSpec, synth_workload

DEFAULT_RRF_K = 60


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


def ref_cosine(a, b) -> float:
    """Cosine similarity from ``np.linalg.norm``; 0.0 when either vector is zero.

    The per-pair cosine the stores' batched ``nearest`` rescore matches bit
    for bit.
    """
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0:
        return 0.0
    return float(np.dot(a, b)) / denom


def ranked(scored):
    """``(item, score)`` pairs fully sorted: descending score, then record id."""
    return sorted(scored, key=lambda item: (-item[1], item[0].record_id))


def divided_by_top(scored):
    """Each score divided by the largest one."""
    if not scored:
        return []
    top = max(score for _, score in scored)
    return [(record, score / top) for record, score in scored]


def as_candidates(scored):
    return [Candidate(record=record, score=score) for record, score in scored]


def fuse_scores(rankings, k_rrf=DEFAULT_RRF_K):
    """Reciprocal-rank fusion over any number of ranked id lists.

    score = sum over lists of 1 / (k_rrf + rank), ranks 1-based, added in
    list order. Returns (id, fused_score) sorted by descending score then id.
    """
    if k_rrf < 0:
        raise ValueError(f"k_rrf must be >= 0, got {k_rrf}")
    fused = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (k_rrf + rank)
    return sorted(fused.items(), key=lambda item: (-item[1], item[0]))


def ref_fused(rankings, record_of, limit, k_rrf=DEFAULT_RRF_K):
    """The ``limit`` best fused ids as candidates, scores divided by the best one."""
    fused = [(record_of(doc_id), score) for doc_id, score in fuse_scores(rankings, k_rrf)]
    return as_candidates(divided_by_top(fused)[:limit])


def ref_lexical_ranked(store, signal, now):
    """Visible records by term frequency from their current text, best first."""
    counts = {r.record_id: Counter(index_tokens(r.text)) for r in store.all_records()}
    return ranked(lexical_scores(visible_records(store, now), signal, counts))


def ref_cosine_ranked(store, signal, now):
    """Visible embedded records by cosine to the signal's embedding, best first."""
    return ranked([(r, ref_cosine(signal.embedding, r.embedding))
                   for r in visible_records(store, now) if r.embedding is not None])


def ref_lexical_search(store, signal, k, now):
    return as_candidates(divided_by_top(ref_lexical_ranked(store, signal, now))[:k])


def ref_vector_search(store, signal, k, now):
    folded = [(r, (1.0 + sim) / 2.0) for r, sim in ref_cosine_ranked(store, signal, now)]
    return as_candidates(ranked(folded)[:k])


def ref_retrieve(store, signal, k, now):
    """What fifo_queue, queue_segment and inverted_vector retrieve, from a full scan."""
    if isinstance(store, InvertedVectorStore):
        if store.mode == "lexical":
            return ref_lexical_search(store, signal, k, now)
        if signal.embedding is None:
            if store.mode == "vector":
                return []
            vector = []
        else:
            if store.mode == "vector":
                return ref_vector_search(store, signal, k, now)
            vector = [r.record_id for r, _ in ref_cosine_ranked(store, signal, now)]
        pool = max(k * store.POOL_FACTOR, store.POOL_MIN)
        lexical = [r.record_id for r, _ in ref_lexical_ranked(store, signal, now)]
        return ref_fused([lexical[:pool], vector[:pool]], store.get, k, store.rrf_k)
    if isinstance(store, QueueSegmentStore) and signal.embedding is not None:
        return ref_vector_search(store, signal, k, now)
    return ref_lexical_search(store, signal, k, now)  # fifo_queue


def ref_nearest_existing(store, record, exclude, limit):
    """Top ``limit`` records by cosine, or by index-token overlap without an embedding."""
    pool = [r for r in store.all_records() if r.record_id not in exclude]
    if record.embedding is not None:
        scored = [(r, ref_cosine(record.embedding, r.embedding))
                  for r in pool if r.embedding is not None]
    else:
        tokens = set(index_tokens(record.text))
        scored = []
        for r in pool:
            overlap = len(tokens & set(index_tokens(r.text)))
            if overlap:
                scored.append((r, float(overlap)))
    scored.sort(key=lambda item: (-item[1], item[0].record_id))
    return [r for r, _ in scored[:limit]]


def ref_link_evolution(store, new_ids, link_top_m, link_threshold):
    """Link each new record to its ``link_top_m`` nearest at or above the threshold."""
    if not store.supports_links:
        raise UnsupportedBackend(store.name)
    created = []
    exclude = set(new_ids)
    for new_id in new_ids:
        record = store.get(new_id)
        if record.embedding is None:
            continue
        scored = [(other, ref_cosine(record.embedding, other.embedding))
                  for other in store.all_records()
                  if other.record_id not in exclude and other.embedding is not None]
        scored = [(other, sim) for other, sim in scored if sim >= link_threshold]
        scored.sort(key=lambda item: (-item[1], item[0].record_id))
        for other, _sim in scored[:link_top_m]:
            record.links.add(other.record_id)
            other.links.add(new_id)
            created.append(f"LINK {new_id}<->{other.record_id}")
    return created


def ref_semantic_consolidation(store, new_ids, dedup_threshold):
    """Merge each new record into its nearest older one at or above the threshold."""
    merged = []
    exclude = set(new_ids)
    for new_id in new_ids:
        newer = store.get(new_id)
        if newer.embedding is None:
            continue
        best, best_sim = None, -2.0
        for older in store.all_records():
            if older.record_id in exclude or older.embedding is None:
                continue
            sim = ref_cosine(newer.embedding, older.embedding)
            if sim > best_sim or (sim == best_sim and best is not None
                                  and older.record_id < best.record_id):
                best, best_sim = older, sim
        if best is not None and best_sim >= dedup_threshold:
            ingest.merge_records(store, best, newer)
            merged.append(f"MERGE {new_id}->{best.record_id}")
    return merged


def forgetting_pass(store, now, retention_threshold):
    """The ids one pass of the live forgetting_curve policy evicts. The policy
    is built on the store as it stands, so every live record is new to it and
    a test may have set any record's fields by hand."""
    cfg = ConsolidateConfig(strategy="forgetting_curve", retention_threshold=retention_threshold)
    actions, _ = ingest.build_policy(store, cfg).consolidate([], now)
    return [action.removeprefix("EVICT ") for action in actions]


def ref_forgetting_curve(store, now, retention_threshold):
    """Evict every record whose retention fell below the threshold, in store order."""
    victims = [record.record_id for record in store.all_records()
               if ingest.retention(record, now) < retention_threshold]
    evicted = []
    for record_id in victims:
        if store.is_live(record_id):  # a summary its last member took along
            store.remove(record_id)
            evicted.append(record_id)
    return evicted


def ref_heat_migration(store, now, cfg):
    """Move each tiered record one tier up when hot or one down when cold, in store order."""
    if not store.supports_tiers:
        raise UnsupportedBackend(store.name)
    migrations = []
    for record in store.all_records():
        if record.tier not in TIER_ORDER:
            continue
        idx = TIER_ORDER.index(record.tier)
        score = ingest.heat(record, now, cfg.heat_alpha, cfg.heat_beta, cfg.heat_tau_s)
        if score >= cfg.hot_heat and idx > 0:
            target = TIER_ORDER[idx - 1]
        elif score < cfg.cold_heat and idx < len(TIER_ORDER) - 1:
            target = TIER_ORDER[idx + 1]
        else:
            continue
        origin = record.tier
        store.migrate(record.record_id, target)
        migrations.append(f"MIGRATE {record.record_id} {origin}->{target}")
    return migrations


class RefForgettingCurve(ingest.Consolidation):
    """forgetting_curve as ``ref_forgetting_curve``, in a run's policy seat."""

    def consolidate(self, new_ids, now):
        evicted = ref_forgetting_curve(self.store, now, self.cfg.retention_threshold)
        return [f"EVICT {record_id}" for record_id in evicted], []


class RefHeatMigration(ingest.Consolidation):
    """heat_migration as ``ref_heat_migration``, in a run's policy seat."""

    def consolidate(self, new_ids, now):
        return ref_heat_migration(self.store, now, self.cfg), []


class RefCrud(ingest.Crud):
    """crud with the neighbours of ``ref_nearest_existing``; the gateway's
    decisions are applied by the policy's own code."""

    def neighbors(self, record, exclude):
        return ref_nearest_existing(self.store, record, exclude, ingest.CRUD_NEIGHBORS)


class RefLinkEvolution(ingest.LinkEvolution):
    """link_evolution as ``ref_link_evolution``, in a run's policy seat."""

    def consolidate(self, new_ids, now):
        cfg = self.cfg
        return ref_link_evolution(self.store, new_ids, cfg.link_top_m, cfg.link_threshold), []


class RefSemanticConsolidation(ingest.SemanticConsolidation):
    """semantic_consolidation as ``ref_semantic_consolidation``, in a run's policy seat."""

    def consolidate(self, new_ids, now):
        return ref_semantic_consolidation(self.store, new_ids, self.cfg.dedup_threshold), []


# strategy -> the reference policy a test builds, or puts in ``ingest.POLICIES``,
# in place of the live one; the crud, link and merge references subclass their
# live classes, so a run with one embeds what it does with the live policy
REF_POLICIES = {
    "crud": RefCrud,
    "forgetting_curve": RefForgettingCurve,
    "heat_migration": RefHeatMigration,
    "link_evolution": RefLinkEvolution,
    "semantic_consolidation": RefSemanticConsolidation,
}


def ref_session_summary(store, session_id, max_sentences):
    """(text, ts, embedding) of a session summary rebuilt from its live raw
    turns; None for a session without any."""
    members = [record for record in store.all_records()
               if record.kind == KIND_RAW and record.session_id == session_id]
    if not members:
        return None
    leads = []
    for member in members:
        sentences = split_sentences(member.text)
        if sentences:
            leads.append(sentences[0])
        if len(leads) >= max_sentences:
            break
    vectors = [member.embedding for member in members if member.embedding is not None]
    return " ".join(leads), max(m.ts for m in members), mean_embedding(vectors)


def mean_embedding(vectors):
    """L2-normalized ``np.mean`` of the vectors; None when there are none or it is zero."""
    if not vectors:
        return None
    mean = np.mean(np.stack(vectors), axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return None
    return (mean / norm).astype(np.float64)


class RefSummaryVectorStore(SummaryVectorStore):
    """summary_vector that rebuilds a session's summary from all of its live
    raw turns (``ref_session_summary``) after each raw insert or removal.

    It keeps no running state, so a member rewritten in place by a merge
    reaches its session's summary at that session's next raw insert or
    removal, as in the store it checks.
    """

    def _after_add(self, record):
        if record.kind == KIND_RAW and record.session_id:
            self._rebuild_summary(record.session_id)

    def _after_remove(self, record):
        if record.kind == KIND_RAW and record.session_id:
            self._rebuild_summary(record.session_id)
        elif self._session_summary.get(record.session_id) == record.record_id:
            del self._session_summary[record.session_id]

    def reindex(self, record):
        MemoryStore.reindex(self, record)

    def _rebuild_summary(self, session_id):
        want = ref_session_summary(self, session_id, self.summary_max_sentences)
        summary_id = self._session_summary.get(session_id)
        if want is None:
            if summary_id is not None:
                self.remove(summary_id)
            return
        text, ts, embedding = want
        if summary_id is None:
            (self._session_summary[session_id],) = self.insert([MemoryRecord(
                record_id="", text=text, ts=ts, session_id=session_id, kind=KIND_SUMMARY,
                embedding=embedding, strength=self.initial_strength_s)])
            return
        summary = self.get(summary_id)
        summary.text, summary.embedding, summary.ts = text, embedding, ts
        summary.last_access = max(summary.last_access, ts)
        self.reindex(summary)


def ref_fraction_boundaries(fraction, total_inserts):
    """Checkpoint insert counts of a fraction schedule, one per multiple of ``fraction``.

    Walks all ``ceil(1 / fraction)`` multiples, as many for 100 inserts as
    for a million.
    """
    if total_inserts <= 0:
        return []
    steps = math.ceil(round(1.0 / fraction, 9))
    return sorted({min(max(math.ceil(j * fraction * total_inserts - 1e-9), 1), total_inserts)
                   for j in range(1, steps + 1)})


# a payload's text fields in field order; speaker alone may be None
REF_TEXT_FIELDS = {
    KIND_INSERT: ("context", "session_id", "speaker"),
    KIND_RETRIEVE: ("query", "gold_answer", "query_id", "category", "session_id"),
}


def ref_integer(name, value):
    """``value`` when it is a JSON integer, else a TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def ref_line_to_request(line, lineno=0):
    """One wire-format line as a Request, through ``json.loads`` and keyword calls.

    seq and ts_us must be JSON integers, and so must an insert's turn_index,
    which is checked before the payload's other keys are looked up. A text
    field that holds anything but a string is a bad payload, named before the
    payload's own checks run.
    """
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {lineno}: not valid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise SchemaError(f"line {lineno}: expected an object")
    if not {"seq", "ts_us", "kind"} <= row.keys():
        raise SchemaError(f"line {lineno}: missing seq, ts_us or kind")
    try:
        seq = ref_integer("seq", row["seq"])
        ts = ref_integer("ts_us", row["ts_us"])
    except TypeError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc
    kind = row["kind"]
    try:
        if kind == KIND_INSERT:
            turn_index = ref_integer("turn_index", row.get("turn_index", 0))
            cls, fields = InsertPayload, dict(
                context=row["context"],
                session_id=row["session_id"],
                speaker=row.get("speaker"),
                turn_index=turn_index,
            )
        elif kind == KIND_RETRIEVE:
            cls, fields = RetrievePayload, dict(
                query=row["query"],
                gold_answer=row.get("gold_answer", ""),
                query_id=row["query_id"],
                category=row.get("category", "unknown"),
                session_id=row.get("session_id", ""),
            )
        else:
            raise SchemaError(f"line {lineno}: unknown kind {kind!r}")
        for name in REF_TEXT_FIELDS[kind]:
            value = fields[name]
            if not isinstance(value, str) and not (name == "speaker" and value is None):
                raise TypeError(f"{name} must be a string, got {type(value).__name__}")
        payload: Payload = cls(**fields)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"line {lineno}: bad {kind} payload: {exc}") from exc
    return Request(seq=seq, ts=ts, kind=kind, payload=payload)


def ref_strip_context_prefix(line):
    """Drop the '[ts=...] speaker: ' prefix a context line carries, if any."""
    body = line
    if body.startswith("[") and "]" in body:
        body = body.split("]", 1)[1].lstrip()
    if ": " in body:
        body = body.split(": ", 1)[1]
    return body


def ref_tpl_answer(variables):
    """The mock answer template with no memo: every line's sentences rescored afresh."""
    context = variables.get("context", "")
    if not context.strip():
        return "unknown"
    query_tokens = set(index_tokens(variables.get("query", "")))
    best_sentence = None
    best_score = -1
    for line in context.splitlines():
        body = ref_strip_context_prefix(line)
        for sentence in split_sentences(body):
            score = len(query_tokens & set(index_tokens(sentence)))
            if score > best_score:
                best_score = score
                best_sentence = sentence
    return best_sentence if best_sentence is not None else "unknown"


def ref_tpl_paraphrase(variables):
    """The mock paraphrase template with no memo: synonyms swapped, then rotated by index."""
    query = variables.get("query", "")
    index = int(variables.get("index", 0))
    swapped = apply_synonyms(query, SYNONYMS_BIDIRECTIONAL)
    words = swapped.split()
    if index > 0 and len(words) > 1:
        shift = index % len(words)
        words = words[shift:] + words[:shift]
    return " ".join(words)


def as_bits(candidates):
    """Candidates as (record id, exact score bits) pairs."""
    return [(c.record_id, c.score.hex()) for c in candidates]


def trigram_loop_embed(text, dim):
    """The mock embedding as one +/-1 per trigram of the joined tokens, L2-normalized."""
    joined = " ".join(metric_tokens(text))
    vec = np.zeros(dim, dtype=np.float64)
    if not joined:
        return vec
    grams = [joined] if len(joined) < 3 else [joined[i:i + 3] for i in range(len(joined) - 2)]
    for gram in grams:
        h = zlib.crc32(gram.encode("utf-8"))
        bucket = h % dim
        sign = 1.0 if (h >> 16) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


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


# ----------------------------------------------------------------------
# the operator grid and its run-level digests
# ----------------------------------------------------------------------

GRID_DIM = 32


def small_stream(n_facts=40):
    manifest, _key = synth_workload(SyntheticSpec(seed=3, n_facts=n_facts, rounds=2,
                                                  queries_per_round=3))
    return manifest


def make_config(backend, consolidate, normalize, formulate, integrate):
    return ExperimentConfig(
        store=StoreConfig(backend),
        operators=OperatorConfig(
            normalize=NormalizeConfig(strategy=normalize),
            consolidate=ConsolidateConfig(strategy=consolidate),
            formulate=FormulateConfig(strategy=formulate),
            integrate=IntegrateConfig(strategy=integrate),
        ),
        checkpoint=CheckpointSchedule(per_round=True),
        gateway=GatewayConfig(embed_dim=GRID_DIM),
        output_dir="unused",
    )


def grid_configs():
    """backend x consolidation x normalize, with formulate x integrate cycled: 108 configs."""
    cycled = itertools.cycle(itertools.product(FORMULATE_STRATEGIES, INTEGRATE_STRATEGIES))
    for backend, consolidate, normalize in itertools.product(
            sorted(BACKENDS), CONSOLIDATE_STRATEGIES, NORMALIZE_STRATEGIES):
        yield make_config(backend, consolidate, normalize, *next(cycled))


def fifo_configs():
    """fifo_queue, consolidating with none or forgetting_curve, x every
    normalize x formulate x integrate: 144 configs."""
    for consolidate, *operators in itertools.product(
            ("none", "forgetting_curve"), NORMALIZE_STRATEGIES,
            FORMULATE_STRATEGIES, INTEGRATE_STRATEGIES):
        yield make_config("fifo_queue", consolidate, *operators)


def retrieval_configs():
    """Every backend x normalize x formulate x integrate, consolidating with none: 432 configs."""
    for backend, *operators in itertools.product(
            sorted(BACKENDS), NORMALIZE_STRATEGIES, FORMULATE_STRATEGIES,
            INTEGRATE_STRATEGIES):
        yield make_config(backend, "none", *operators)


def config_key(cfg) -> str:
    """``backend/consolidate/normalize/formulate/integrate``."""
    ops = cfg.operators
    return "/".join((cfg.store.backend, ops.consolidate.strategy, ops.normalize.strategy,
                     ops.formulate.strategy, ops.integrate.strategy))


def golden_configs() -> dict:
    """The three grids above without repeats, by ``config_key``: 591 configs."""
    configs = {}
    for cfg in itertools.chain(grid_configs(), fifo_configs(), retrieval_configs()):
        configs.setdefault(config_key(cfg), cfg)
    return configs


def _strip_latency(obj):
    if isinstance(obj, dict):
        return {k: _strip_latency(v) for k, v in obj.items() if k != "latency"}
    if isinstance(obj, list):
        return [_strip_latency(v) for v in obj]
    return obj


def result_digest(result):
    """Hash of every result file's content outside ``latency`` keys, as perfbench takes it."""
    h = hashlib.sha256()
    for report in result.reports:
        h.update(json.dumps(_strip_latency(report.as_dict()), sort_keys=True).encode())
    for res in result.query_results:
        h.update(json.dumps(_strip_latency(res.as_dict()), sort_keys=True).encode())
    h.update(json.dumps(_strip_latency(result.summary()), sort_keys=True).encode())
    h.update("\n".join(result.action_log).encode())
    return h.hexdigest()


def golden_digests() -> dict:
    """``config_key`` -> the run's outcome on ``small_stream()`` under the mock gateway.

    A complete run is named by its ``result_digest``, an aborted one by its
    status and error.
    """
    manifest = small_stream()
    out = {}
    for key, cfg in golden_configs().items():
        result = run_experiment(cfg, manifest)
        if result.status == "complete":
            out[key] = {"status": result.status, "digest": result_digest(result)}
        else:
            out[key] = {"status": result.status, "error": result.error}
    return out
