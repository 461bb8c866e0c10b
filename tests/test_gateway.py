"""Mock gateway determinism, timing capture, template rules, rate limiting."""

import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from memstream.errors import GatewayError
from memstream.gateway import (
    ChatRequest,
    MockGateway,
    RemoteGateway,
    TokenBucket,
    mock_embed_text,
)
from memstream.text import metric_tokens


def make_gateway(**kwargs):
    return MockGateway(**kwargs)


# -- embeddings ---------------------------------------------------------------

def test_embed_deterministic_across_instances():
    a = make_gateway().embed(["the cat sat on the mat"], stage="PreIns")[0]
    b = make_gateway().embed(["the cat sat on the mat"], stage="PreIns")[0]
    assert np.array_equal(a, b)


def test_embed_unit_norm_and_dim():
    gw = make_gateway(dim=64)
    vec = gw.embed(["some text with words"], stage="PreIns")[0]
    assert vec.shape == (64,)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_embed_degenerate_text_is_zero_vector():
    gw = make_gateway()
    for text in ("", "...", "—"):
        vec = gw.embed([text], stage="PreIns")[0]
        assert np.linalg.norm(vec) == 0.0


def test_embed_batch_order_preserved():
    gw = make_gateway()
    texts = ["first text", "second text", "third text"]
    batch = gw.embed(texts, stage="PreIns")
    singles = [gw.embed([t], stage="PreIns")[0] for t in texts]
    for got, want in zip(batch, singles):
        assert np.array_equal(got, want)


def test_embed_similarity_orders_related_texts():
    gw = make_gateway()
    base, near, far = gw.embed(
        ["the meeting is on friday morning",
         "the meetings are on friday mornings",
         "quantum flux capacitor overload"], stage="PreIns")
    assert float(base @ near) > float(base @ far)


def test_paraphrase_pairs_stay_close_in_embedding_space():
    # lexical indexes miss these pairs (stems differ) but the trigram
    # embedding must keep them near: that split is what separates the
    # lexical-only and vector-only retrieval routes on paraphrase queries
    gw = make_gateway()
    pairs = [
        ("what is the color of the sky", "what is the colour of the sky"),
        ("the flavor of the stew", "the flavour of the stew"),
        ("a rumor about the harbor", "a rumour about the harbour"),
    ]
    for left, right in pairs:
        a, b = gw.embed([left, right], stage="PreRet")
        cos = float(a @ b)
        assert cos >= 0.55, (left, right, cos)
    unrelated = gw.embed(["unrelated machinery manifest"], stage="PreRet")[0]
    a = gw.embed([pairs[0][0]], stage="PreRet")[0]
    assert float(a @ unrelated) < 0.4


def test_mock_embed_text_matches_gateway_path():
    gw = make_gateway(dim=32)
    direct = mock_embed_text("hello world", 32)
    assert np.array_equal(gw.embed(["hello world"], stage="PreIns")[0], direct)


def trigram_loop_embed(text, dim):
    """The per-trigram loop mock_embed_text replaced, kept as its reference."""
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


# short words make one-character tokens and joined strings of 0-2
# characters; punctuation (category P) is stripped, symbols (S) are kept;
# lone surrogates (Cs) have no UTF-8 form to hash
WORD = st.text(
    alphabet=st.one_of(st.sampled_from("abcxyz09éß.,!?…—“”«»¿€©✓😀"),
                       st.characters(exclude_categories=["Cs"])),
    max_size=5)


@example(text="", dim=7)
@example(text="...", dim=64)
@example(text="a", dim=64)
@example(text="ab", dim=256)
@example(text="a b", dim=1)
@example(text="a b c d", dim=7)
@example(text="€ ✓, x!", dim=64)
@example(text="the colour of the harbour is red.", dim=64)
@given(text=st.lists(WORD, max_size=8).map(" ".join), dim=st.sampled_from((1, 7, 64, 256)))
def test_mock_embed_text_matches_trigram_loop(text, dim):
    got = mock_embed_text(text, dim)
    want = trigram_loop_embed(text, dim)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- timing capture -----------------------------------------------------------

def test_every_call_records_exactly_one_timing():
    gw = make_gateway()
    gw.embed(["a"], stage="PreIns")
    gw.chat(ChatRequest("summarize", {"text": "One. Two."}), stage="PreIns")
    gw.answer("q", "ctx sentence.")
    timings = gw.drain_timings()
    assert len(timings) == 3
    assert [t.call_kind for t in timings] == ["embed", "chat", "chat"]
    assert [t.stage for t in timings] == ["PreIns", "PreIns", "Generation"]
    assert all(t.ok for t in timings)
    assert all(t.wall_ns >= 0 for t in timings)
    assert gw.drain_timings() == []  # drained


def test_failed_calls_still_record_one_timing():
    gw = make_gateway(failing={"summarize", "embed"})
    with pytest.raises(GatewayError):
        gw.chat(ChatRequest("summarize", {"text": "x."}), stage="PreIns")
    with pytest.raises(GatewayError):
        gw.embed(["x"], stage="PreRet")
    with pytest.raises(GatewayError):
        gw.chat(ChatRequest("no_such_template", {}), stage="PostRet")
    timings = gw.drain_timings()
    assert len(timings) == 3
    assert [t.ok for t in timings] == [False, False, False]
    assert timings[0].template_id == "summarize"


# -- chat templates -----------------------------------------------------------

def chat(gw, template_id, **variables):
    return gw.chat(ChatRequest(template_id, variables), stage="PreIns")


def test_summarize_returns_first_sentence():
    gw = make_gateway()
    assert chat(gw, "summarize", text="First point. Second point.") == "First point."
    assert chat(gw, "summarize", text="") == ""


def test_triplets_extraction():
    gw = make_gateway()
    assert chat(gw, "triplets", text="Alice likes tea.") == "alice | likes | tea"
    # stopwords are dropped before slotting; object absorbs the remainder
    out = chat(gw, "triplets", text="The cat chased the red ball. Bob met Carol yesterday.")
    assert out == "cat | chased | red ball\nbob | met | carol yesterday"
    assert chat(gw, "triplets", text="The. A of.") == "no facts"
    out = chat(gw, "triplets", text="A b c d. E f g h. I j k l.", max_triplets=2)
    assert len(out.splitlines()) == 2


def test_crud_rules():
    gw = make_gateway()
    assert chat(gw, "crud", new="x | y | z", neighbors="") == "ADD"
    assert chat(gw, "crud", new="x | y | z",
                neighbors="m000001\tx | y | z") == "NOOP"
    assert chat(gw, "crud", new="x | y | w",
                neighbors="m000001\tx | y | z") == "UPDATE m000001"
    assert chat(gw, "crud", new="x | q | z",
                neighbors="m000001\tx | y | z") == "ADD"
    # first matching neighbor wins
    out = chat(gw, "crud", new="x | y | w",
               neighbors="m000001\ta | b | c\nm000002\tx | y | z")
    assert out == "UPDATE m000002"


def test_keywords_frequency_then_first_seen():
    gw = make_gateway()
    out = chat(gw, "keywords", query="red ball red wall moon")
    assert out.split() == ["red", "ball", "wall", "moon"]
    out = chat(gw, "keywords", query="alpha beta gamma delta epsilon zeta",
               max_keywords=3)
    assert len(out.split()) == 3
    assert chat(gw, "keywords", query="the of is") == ""


def test_validate_small_talk_detection():
    gw = make_gateway()
    assert chat(gw, "validate", query="hello hi thanks!") == "SKIP"
    assert chat(gw, "validate", query="the of is") == "SKIP"
    assert chat(gw, "validate", query="what is the capital of france") == "RETRIEVE"
    assert chat(gw, "validate", query="good morning, where is my badge") == "RETRIEVE"


def test_decompose_splits_on_and():
    gw = make_gateway()
    assert chat(gw, "decompose", query="where is bob") == "where is bob"
    out = chat(gw, "decompose", query="where is bob and what does carol like")
    assert out.splitlines() == ["where is bob", "what does carol like"]
    out = chat(gw, "decompose", query="a1 and b2 and c3 and d4", max_subqueries=2)
    assert out.splitlines() == ["a1", "b2"]


def test_paraphrase_swaps_synonyms_and_rotates():
    gw = make_gateway()
    assert chat(gw, "paraphrase", query="the color of it", index=0) == \
        "the colour of it"
    rotated = chat(gw, "paraphrase", query="alpha beta gamma", index=1)
    assert rotated == "beta gamma alpha"
    assert chat(gw, "paraphrase", query="single", index=2) == "single"


def test_answer_best_overlap_sentence():
    gw = make_gateway()
    context = ("[ts=2026-01-01T00:00:00] alice: The sky is blue today. "
               "I had lunch.\n"
               "[ts=2026-01-01T00:01:00] bob: The grass is green.")
    out = gw.answer("what color is the grass", context)
    assert out == "The grass is green."
    assert gw.answer("anything", "") == "unknown"
    assert gw.answer("anything", "   \n  ") == "unknown"


def test_answer_tie_prefers_earliest_sentence():
    gw = make_gateway()
    context = "Zeta fact one. Zeta fact two."
    assert gw.answer("zeta", context) == "Zeta fact one."


# -- rate limiting ------------------------------------------------------------

def test_token_bucket_throttles():
    bucket = TokenBucket(rate=100.0, capacity=1.0)
    gw = make_gateway(rate_limit=bucket)
    t0 = time.monotonic()
    for _ in range(3):
        gw.embed(["x"], stage="PreIns")
    elapsed = time.monotonic() - t0
    # two refills at 100 tokens/s -> at least ~20 ms, allow scheduler slack
    assert elapsed >= 0.015


# -- remote construction ------------------------------------------------------

def test_remote_gateway_requires_base_url(monkeypatch):
    monkeypatch.delenv("NEUROMEM_BASE_URL", raising=False)
    with pytest.raises(GatewayError):
        RemoteGateway()


def test_remote_gateway_reads_env(monkeypatch):
    monkeypatch.setenv("NEUROMEM_BASE_URL", "http://localhost:9/v1/")
    monkeypatch.setenv("NEUROMEM_API_KEY", "k-123")
    gw = RemoteGateway()
    assert gw.base_url == "http://localhost:9/v1"
    assert gw._session.headers["Authorization"] == "Bearer k-123"
