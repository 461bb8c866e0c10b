"""Retrieval-side operators: formulation strategies, search execution,
integration strategies, and context bundle assembly."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest

from memstream.config import (
    ConfigError,
    FormulateConfig,
    IntegrateConfig,
    config_from_dict,
)
from memstream.errors import GatewayError
from memstream.gateway import MockGateway, mock_embed_text
from memstream.metrics import STAGE_PRE_RETRIEVE
from memstream.orchestrator import _Pipeline
from memstream.records import (
    Candidate,
    KIND_SUMMARY,
    MemoryRecord,
    RetrievalSignal,
    TIER_FLAT,
    TIER_LONG,
    TIER_MID,
    TIER_SHORT,
    TS_MEMO_SIZE,
    ts_to_iso,
)
from memstream.retrieve import (
    build_bundle,
    context_line,
    estimate_tokens,
    execute_search,
    formulate_decompose,
    formulate_keyword,
    formulate_none,
    formulate_validate,
    integrate_augment,
    integrate_multi_query,
    integrate_multi_tier,
    integrate_threshold,
    integrate_time_weighted,
    run_formulate,
    run_integrate,
)
from memstream.stores import build_store
from memstream.stream import (
    KIND_RETRIEVE,
    TS_END,
    TS_MIN,
    Request,
    RetrievePayload,
    StreamManifest,
)

US_PER_DAY = 86_400 * 1_000_000


class ScriptedGateway(MockGateway):
    def __init__(self, script=None, **kwargs):
        super().__init__(**kwargs)
        self.script = {k: list(v) for k, v in (script or {}).items()}

    def _chat_impl(self, template_id, variables):
        queue = self.script.get(template_id)
        if queue:
            return queue.pop(0), 0
        return super()._chat_impl(template_id, variables)


def query(text, qid="q0"):
    return RetrievePayload(query=text, gold_answer="x", query_id=qid)


def put(store, text, *, ts=0, sid="s1", ti=0, speaker=None, embed=False, dim=64,
        tier=None, kind=None):
    fields = {}
    if kind is not None:
        fields["kind"] = kind
    record = MemoryRecord(record_id="", text=text, ts=ts, session_id=sid,
                          turn_index=ti, speaker=speaker,
                          embedding=mock_embed_text(text, dim) if embed else None,
                          **fields)
    ids = store.insert([record])
    if tier is not None:
        store.get(ids[0]).tier = tier
    return ids[0]


def integrate(strategy, cands, store=None, gw=None, k=5, now=None, **params):
    """The candidates ``strategy`` returns for ``cands`` under ``IntegrateConfig(**params)``."""
    out, _ = strategy("q", cands, store, gw, IntegrateConfig(**params), k, now)
    return out


def cand(text, score, *, ts=0, sid="s1", ti=0, tier=TIER_FLAT, kind="raw_turn",
         rid="r0"):
    rec = MemoryRecord(record_id="", text=text, ts=ts, session_id=sid,
                       turn_index=ti, kind=kind, tier=tier)
    rec.record_id = rid
    return Candidate(record=rec, score=score)


# ----------------------------------------------------------------------
# formulation
# ----------------------------------------------------------------------

def test_formulate_none_embeds_raw_query():
    gw = MockGateway(dim=64)
    (signal,), _ = formulate_none(query("where does alice live"), FormulateConfig(), gw)
    assert signal.raw_query == "where does alice live"
    assert np.allclose(signal.embedding, mock_embed_text(signal.raw_query, 64))
    assert not signal.skip


def test_formulate_validate_skips_small_talk():
    gw = MockGateway(dim=64)
    (signal,), _ = formulate_validate(query("Ok thanks!"), FormulateConfig(), gw)
    assert signal.skip
    assert signal.embedding is None
    (signal,), _ = formulate_validate(query("where does alice live"), FormulateConfig(), gw)
    assert not signal.skip
    assert signal.embedding is not None


def test_formulate_keyword_replaces_lexical_signal():
    gw = MockGateway(dim=64)
    (signal,), _ = formulate_keyword(query("alpha beta alpha"),
                                     FormulateConfig(max_keywords=5), gw)
    assert signal.keywords == ("alpha", "beta")
    assert signal.raw_query == "alpha beta alpha"
    # the embedding follows the keywords, not the raw text
    assert np.allclose(signal.embedding, mock_embed_text("alpha beta", 64))


def test_formulate_keyword_cap():
    gw = MockGateway(dim=64)
    (signal,), _ = formulate_keyword(query("alpha beta alpha"),
                                     FormulateConfig(max_keywords=1), gw)
    assert signal.keywords == ("alpha",)


def test_formulate_keyword_augment_mode_extends_query():
    gw = MockGateway(dim=64)
    (signal,), flags = formulate_keyword(
        query("alpha beta alpha"), FormulateConfig(max_keywords=5, keyword_augments=True), gw)
    assert signal.raw_query == "alpha beta alpha alpha beta"
    assert flags == ["keyword_augmented"]
    assert np.allclose(signal.embedding, mock_embed_text(signal.raw_query, 64))
    # the same through the config key
    cfg = config_from_dict({"operators": {"formulate": {
        "strategy": "keyword", "keyword_augments": True}}}).operators.formulate
    q = query("where does alice live now")
    keywords = formulate_keyword(
        q, FormulateConfig(max_keywords=cfg.max_keywords), gw)[0][0].keywords
    assert keywords and " ".join(keywords) != q.query
    (signal,), flags = run_formulate(q, cfg, gw)
    joined = f"{q.query} {' '.join(keywords)}"
    assert signal.raw_query == joined and signal.keywords == ()
    assert np.array_equal(signal.embedding, mock_embed_text(joined, 64))
    assert flags == ["keyword_augmented"]


def test_formulate_keyword_empty_reply_falls_back():
    gw = ScriptedGateway(script={"keywords": [""]}, dim=64)
    (signal,), flags = formulate_keyword(query("alpha beta"),
                                         FormulateConfig(max_keywords=5), gw)
    assert flags == ["keyword_fallback"]
    assert signal.keywords == ()
    assert np.allclose(signal.embedding, mock_embed_text("alpha beta", 64))


def test_formulate_decompose_splits_compound_question():
    gw = MockGateway(dim=64)
    subs, _ = formulate_decompose(
        query("where does alice live and what does bob eat"),
        FormulateConfig(max_subqueries=3), gw)
    assert len(subs) == 2
    assert subs[0].raw_query == "where does alice live"
    assert subs[1].raw_query == "what does bob eat"
    for sub in subs:
        assert np.allclose(sub.embedding, mock_embed_text(sub.raw_query, 64))


def test_formulate_decompose_atomic_passthrough():
    gw = MockGateway(dim=64)
    (signal,), _ = formulate_decompose(query("where does alice live"),
                                       FormulateConfig(max_subqueries=3), gw)
    assert signal.raw_query == "where does alice live"
    # a reworded single part: the raw query text searches, with the part's vector
    gw = ScriptedGateway(script={"decompose": ["alice home"]}, dim=64)
    (signal,), _ = formulate_decompose(query("where does alice live"),
                                       FormulateConfig(max_subqueries=3), gw)
    assert signal.raw_query == "where does alice live"
    assert np.array_equal(signal.embedding, mock_embed_text("alice home", 64))


def test_formulate_decompose_batches_embeddings():
    gw = MockGateway(dim=64)
    gw.drain_timings()
    formulate_decompose(query("a1 b1 and a2 b2 and a3 b3"),
                        FormulateConfig(max_subqueries=3), gw)
    embeds = [t for t in gw.drain_timings() if t.call_kind == "embed"]
    assert len(embeds) == 1


def test_run_formulate_atomic_decompose_has_no_sub_signals():
    gw = MockGateway(dim=64)
    signals, _ = run_formulate(query("where does alice live"),
                               FormulateConfig(strategy="decompose"), gw)
    assert len(signals) == 1


def test_run_formulate_fallback_flags():
    for strategy, template, flag in (
        ("validate", "validate", "validate_fallback"),
        ("keyword", "keywords", "keyword_fallback"),
        ("decompose", "decompose", "decompose_fallback"),
    ):
        gw = MockGateway(dim=64, failing={template})
        (signal,), flags = run_formulate(query("where does alice live"),
                                         FormulateConfig(strategy=strategy), gw)
        assert flags == [flag]
        assert signal.embedding is not None
        assert signal.raw_query == "where does alice live"


def test_run_formulate_survives_total_gateway_outage():
    gw = MockGateway(dim=64, failing={"validate", "embed"})
    (signal,), flags = run_formulate(query("where does alice live"),
                                     FormulateConfig(strategy="validate"), gw)
    assert flags == ["validate_fallback", "embed_failed"]
    assert signal.embedding is None
    assert signal.raw_query == "where does alice live"


def test_formulate_gateway_calls_are_pre_retrieve_stage():
    gw = MockGateway(dim=64)
    cfg = config_from_dict({"operators": {"formulate": {"strategy": "keyword"}},
                            "gateway": {"kind": "mock", "embed_dim": 64}})
    pipeline = _Pipeline(cfg, StreamManifest(requests=()), gw)
    pipeline._evaluate_query(Request(seq=0, ts=1, kind=KIND_RETRIEVE,
                                     payload=query("where does alice live")), 1)
    (trace,) = pipeline.result.traces
    formulate = [t for t in trace.gateway_calls
                 if t.call_kind == "embed" or t.template_id == "keywords"]
    assert formulate
    assert {t.stage for t in formulate} == {STAGE_PRE_RETRIEVE}


# ----------------------------------------------------------------------
# search execution
# ----------------------------------------------------------------------

def test_execute_search_single_signal():
    store = build_store("fifo_queue")
    put(store, "alice lives in oslo", ts=0, ti=0)
    put(store, "bob eats noodles", ts=1, ti=1)
    hits = execute_search(store, (RetrievalSignal(raw_query="alice oslo"),), k=2, now=None)
    assert hits and hits[0].record.text == "alice lives in oslo"


def test_execute_search_fuses_sub_queries():
    store = build_store("fifo_queue")
    a = put(store, "alice lives in oslo", ts=0, ti=0)
    b = put(store, "bob eats noodles", ts=1, ti=1)
    signals = (RetrievalSignal(raw_query="alice oslo"),
               RetrievalSignal(raw_query="bob noodles"))
    hits = execute_search(store, signals, k=4, now=None)
    assert {h.record_id for h in hits} == {a, b}
    # each record ranked first in exactly one route, so RRF ties them
    assert hits[0].score == hits[1].score == 1.0


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def test_integrate_time_weighted_decays_by_age():
    now = 10 * US_PER_DAY
    old = cand("old", 1.0, ts=now - 2 * US_PER_DAY, rid="r_old")
    new = cand("new", 1.0, ts=now, rid="r_new")
    out = integrate(integrate_time_weighted, [old, new], now=now, decay_lambda=0.5)
    assert [c.record_id for c in out] == ["r_new", "r_old"]
    assert out[0].score == 1.0
    assert out[1].score == pytest.approx(math.exp(-1.0))


def test_integrate_time_weighted_zero_lambda_keeps_order():
    now = 10 * US_PER_DAY
    cands = [cand("a", 0.9, ts=0, rid="ra"), cand("b", 0.5, ts=now, rid="rb")]
    out = integrate(integrate_time_weighted, cands, now=now, decay_lambda=0.0)
    assert [c.record_id for c in out] == ["ra", "rb"]
    assert [c.score for c in out] == [0.9, 0.5]


def test_integrate_threshold_keeps_boundary():
    cands = [cand("a", 0.9, rid="ra"), cand("b", 0.5, rid="rb"),
             cand("c", 0.49, rid="rc")]
    out = integrate(integrate_threshold, cands, score_threshold=0.5)
    assert [c.record_id for c in out] == ["ra", "rb"]


def test_integrate_multi_tier_applies_quotas():
    cands = [
        cand("s1", 0.9, tier=TIER_SHORT, rid="r1"),
        cand("s2", 0.8, tier=TIER_SHORT, rid="r2"),
        cand("m1", 0.7, tier=TIER_MID, rid="r3"),
        cand("l1", 0.6, tier=TIER_LONG, rid="r4"),
        cand("f1", 0.5, tier=TIER_FLAT, rid="r5"),
    ]
    quotas = {TIER_SHORT: 1, TIER_MID: 1, TIER_LONG: 0, TIER_FLAT: 1}
    out = integrate(integrate_multi_tier, cands, tier_quotas=quotas)
    assert [c.record_id for c in out] == ["r1", "r3", "r5"]


def test_tier_quotas_name_only_tiers_a_record_can_carry():
    # a misspelt tier once left every bundle empty without a word
    with pytest.raises(ConfigError, match=r"integrate.tier_quotas key 'short' names no "
                       r"tier; valid tiers are \('short_term', 'mid_term', 'long_term', 'flat'\)"):
        config_from_dict({"operators": {"integrate": {
            "strategy": "multi_tier", "tier_quotas": {"short": 3}}}})
    IntegrateConfig(strategy="multi_tier",
                    tier_quotas={TIER_SHORT: 1, TIER_MID: 1, TIER_LONG: 0, TIER_FLAT: 1}).validate()


def test_integrate_multi_tier_dedups_by_max_score():
    low = cand("x", 0.2, tier=TIER_SHORT, rid="dup")
    high = cand("x", 0.7, tier=TIER_SHORT, rid="dup")
    out = integrate(integrate_multi_tier, [low, high], tier_quotas={TIER_SHORT: 5})
    assert len(out) == 1 and out[0].score == 0.7


def test_integrate_multi_tier_breaks_exact_ties_by_id_as_a_string():
    # "m1000000" sorts before "m999999"; neither the input order nor the
    # tier order decides a tie
    cands = [cand("a", 0.5, tier=TIER_SHORT, rid="m999999"),
             cand("b", 0.9, tier=TIER_SHORT, rid="m000002"),
             cand("c", 0.5, tier=TIER_MID, rid="m1000000"),
             cand("d", 0.5, tier=TIER_MID, rid="m000001")]
    out = integrate(integrate_multi_tier, cands, tier_quotas={TIER_SHORT: 2, TIER_MID: 2})
    assert [c.record_id for c in out] == ["m000002", "m000001", "m1000000", "m999999"]


def test_integrate_augment_attaches_anchored_neighbors():
    store = build_store("fifo_queue")
    ids = [put(store, f"turn number {i}", ts=i * 10, sid="sA", ti=i)
           for i in range(5)]
    anchor = Candidate(record=store.get(ids[2]), score=0.8, )
    out = integrate(integrate_augment, [anchor], store, augment_window=1)
    assert [c.record_id for c in out] == [ids[2], ids[1], ids[3]]
    assert out[0].score == 0.8
    assert all(c.score == 0.0 for c in out[1:])


def test_integrate_augment_respects_visibility_and_dedup():
    store = build_store("fifo_queue")
    ids = [put(store, f"turn number {i}", ts=i * 10, sid="sA", ti=i)
           for i in range(3)]
    anchors = [Candidate(record=store.get(ids[1]), score=0.8, ),
               Candidate(record=store.get(ids[0]), score=0.4, )]
    # now=15 hides turn 2 (ts=20); turn 0 is already a candidate
    out = integrate(integrate_augment, anchors, store, now=15, augment_window=1)
    assert [c.record_id for c in out] == [ids[1], ids[0]]
    assert integrate(integrate_augment, anchors, store, augment_window=0) == anchors


def test_integrate_augment_skips_derived_records():
    store = build_store("fifo_queue")
    put(store, "raw turn zero", ts=0, sid="sA", ti=0)
    summary_id = put(store, "a summary", ts=5, sid="sA", ti=1, kind=KIND_SUMMARY)
    anchor = Candidate(record=store.get(summary_id), score=0.8, )
    out = integrate(integrate_augment, [anchor], store, augment_window=2)
    assert [c.record_id for c in out] == [summary_id]


def test_integrate_multi_query_recovers_paraphrase_hits():
    store = build_store("fifo_queue")
    rid = put(store, "the colour of the sea stays deep blue", ts=0, ti=0)
    gw = MockGateway(dim=64)
    gw.drain_timings()
    out, flags = integrate_multi_query("what color is the sea", [], store, gw,
                                       IntegrateConfig(multi_query_count=2), 3, None)
    assert flags == []
    assert out and out[0].record_id == rid
    assert out[0].score == 1.0
    timings = gw.drain_timings()
    assert sum(1 for t in timings if t.call_kind == "chat") == 2


def test_integrate_multi_query_falls_back_on_fault():
    store = build_store("fifo_queue")
    put(store, "the colour of the sea stays deep blue", ts=0, ti=0)
    gw = MockGateway(dim=64, failing={"paraphrase"})
    original = [cand("kept", 0.5, rid="keep0")]
    cfg = IntegrateConfig(strategy="multi_query", multi_query_count=2)
    # the strategy raises; run_integrate falls back to the candidates as retrieved
    with pytest.raises(GatewayError):
        integrate_multi_query("what color is the sea", original, store, gw, cfg, 3, None)
    bundle, flags = run_integrate("what color is the sea", original, store, gw, cfg, 3, None)
    assert flags == ["multi_query_fallback"]
    assert bundle == build_bundle(original, cfg.budget_tokens)[0]


# ----------------------------------------------------------------------
# bundle assembly
# ----------------------------------------------------------------------

def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("word") == 1
    assert estimate_tokens("a b c") == 4  # round(3 * 1.3)


def test_context_line_formats_speaker_and_time():
    rec = MemoryRecord(record_id="r", text="hello there", ts=0,
                       session_id="s", turn_index=0, speaker="alice")
    assert context_line(rec) == f"[ts={ts_to_iso(0)}] alice: hello there"
    rec.speaker = None
    assert context_line(rec) == f"[ts={ts_to_iso(0)}] unknown: hello there"


def iso_formula(ts_us):
    """``ts_to_iso`` spelled another way: whole seconds, then the microseconds."""
    seconds, micros = divmod(ts_us, 1_000_000)
    dt = datetime.fromtimestamp(seconds, tz=timezone.utc).replace(microsecond=micros)
    return dt.isoformat().replace("+00:00", "Z")


@pytest.mark.parametrize("ts_us", [
    0,
    1_700_000_000 * 1_000_000,           # whole seconds: no fraction printed
    -1_500_000,                          # before the epoch
    1_700_000_000_123_457,               # an odd microsecond
    (2 ** 31 + 5) * 1_000_000 + 999_999,  # past the 32-bit seconds range
])
def test_memoized_ts_to_iso_equals_the_datetime_formula(ts_us):
    want = iso_formula(ts_us)
    assert ts_to_iso(ts_us) == want
    hits = ts_to_iso.cache_info().hits
    assert ts_to_iso(ts_us) == want  # the second lookup is a memo hit
    assert ts_to_iso.cache_info().hits == hits + 1


@pytest.mark.parametrize("ts_us, iso", [
    (TS_MIN, "0001-01-01T00:00:00Z"),
    (-53_638_660_039_347_140, "0270-04-05T04:12:40.652860Z"),
    (157_092_766_320_308_697, "6948-01-27T07:32:00.308697Z"),
    (TS_END - 1, "9999-12-31T23:59:59.999999Z"),
])
def test_ts_to_iso_is_exact_to_the_microsecond_in_years_1_to_9999(ts_us, iso):
    # a float division by 1e6 is off in the last digits far from 1970, and
    # rounds the last microsecond of year 9999 up into year 10000
    assert ts_to_iso(ts_us) == iso


def test_ts_to_iso_memo_is_bounded():
    assert ts_to_iso(0) == "1970-01-01T00:00:00Z"
    assert ts_to_iso(1_000_000) == "1970-01-01T00:00:01Z"
    assert ts_to_iso.cache_info().maxsize == TS_MEMO_SIZE
    assert 0 < TS_MEMO_SIZE <= 1 << 16


def test_build_bundle_within_budget():
    cands = [cand("alpha beta", 0.9, ts=3, rid="r1"),
             cand("gamma delta", 0.4, ts=7, rid="r2")]
    bundle, truncated = build_bundle(cands, budget_tokens=100)
    assert not truncated
    lines = bundle.text.splitlines()
    assert len(lines) == 2 and lines[0].endswith("alpha beta")
    assert bundle.provenance == (("r1", 0.9, 3), ("r2", 0.4, 7))
    assert bundle.token_estimate == sum(estimate_tokens(l) for l in lines)


def test_build_bundle_truncates_at_budget():
    cands = [cand("alpha beta", 0.9, rid="r1"),
             cand("gamma delta", 0.4, rid="r2")]
    one_line_cost = estimate_tokens(context_line(cands[0].record))
    bundle, truncated = build_bundle(cands, budget_tokens=one_line_cost)
    assert truncated
    assert [p[0] for p in bundle.provenance] == ["r1"]


def test_build_bundle_oversized_first_line_yields_empty():
    bundle, truncated = build_bundle([cand("word " * 50, 0.9, rid="r1")],
                                     budget_tokens=3)
    assert truncated
    assert bundle.text == "" and bundle.provenance == ()
    assert bundle.token_estimate == 0


def test_build_bundle_dedups_by_record_id():
    cands = [cand("alpha beta", 0.9, rid="dup"), cand("alpha beta", 0.3, rid="dup")]
    bundle, _ = build_bundle(cands, budget_tokens=100)
    assert len(bundle.text.splitlines()) == 1
    assert bundle.provenance == (("dup", 0.9, 0),)


def test_run_integrate_flags_budget_truncation():
    store = build_store("fifo_queue")
    gw = MockGateway(dim=64)
    cands = [cand(f"record {i} text", 1.0 - i / 10, rid=f"r{i}") for i in range(4)]
    bundle, flags = run_integrate("q", cands, store, gw,
                                  IntegrateConfig(strategy="none", budget_tokens=8),
                                  k=4, now=None)
    assert "budget_truncated" in flags
    assert len(bundle.provenance) < 4

    bundle, flags = run_integrate("q", cands, store, gw,
                                  IntegrateConfig(strategy="none", budget_tokens=4096),
                                  k=4, now=None)
    assert flags == []
    assert [p[0] for p in bundle.provenance] == ["r0", "r1", "r2", "r3"]


def test_run_integrate_multi_tier_default_quota_is_k():
    store = build_store("fifo_queue")
    gw = MockGateway(dim=64)
    cands = [cand(f"s{i}", 0.9 - i / 100, tier=TIER_SHORT, rid=f"r{i}")
             for i in range(5)]
    bundle, _ = run_integrate("q", cands, store, gw,
                              IntegrateConfig(strategy="multi_tier"), k=2, now=None)
    assert [p[0] for p in bundle.provenance] == ["r0", "r1"]
