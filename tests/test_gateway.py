"""Mock gateway determinism, timing capture, template rules and memo, rate limiting."""

import time
import zlib
from unittest import mock

import numpy as np
import pytest
import requests
from hypothesis import example, given
from hypothesis import strategies as st

from memstream.config import CheckpointSchedule, ExperimentConfig, GatewayConfig, StoreConfig
from memstream.errors import GatewayError
from memstream import gateway
from memstream.gateway import (
    TEMPLATE_MEMO_SIZE,
    TOKEN_CODE_MEMO_SIZE,
    MockGateway,
    RemoteGateway,
    TokenBucket,
    _token_codes,
    mock_embed_text,
)
from memstream.orchestrator import build_gateway, run_experiment
from memstream.stream import (
    AfterCount,
    QuerySpec,
    RetrievePayload,
    SessionTurns,
    Turn,
    serialize_stream,
)
from memstream.text import metric_tokens
from reference import ref_tpl_answer, ref_tpl_paraphrase, trigram_loop_embed


def make_gateway(**kwargs):
    return MockGateway(**kwargs)


# -- embeddings ---------------------------------------------------------------

def test_embed_deterministic_across_instances():
    a = make_gateway().embed(["the cat sat on the mat"])[0]
    b = make_gateway().embed(["the cat sat on the mat"])[0]
    assert np.array_equal(a, b)


def test_embed_unit_norm_and_dim():
    gw = make_gateway(dim=64)
    vec = gw.embed(["some text with words"])[0]
    assert vec.shape == (64,)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_embed_degenerate_text_is_zero_vector():
    gw = make_gateway()
    for text in ("", "...", "—"):
        vec = gw.embed([text])[0]
        assert np.linalg.norm(vec) == 0.0


def test_embed_batch_order_preserved():
    gw = make_gateway()
    texts = ["first text", "second text", "third text"]
    batch = gw.embed(texts)
    singles = [gw.embed([t])[0] for t in texts]
    for got, want in zip(batch, singles):
        assert np.array_equal(got, want)


def test_embed_similarity_orders_related_texts():
    gw = make_gateway()
    base, near, far = gw.embed(
        ["the meeting is on friday morning",
         "the meetings are on friday mornings",
         "quantum flux capacitor overload"])
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
        a, b = gw.embed([left, right])
        cos = float(a @ b)
        assert cos >= 0.55, (left, right, cos)
    unrelated = gw.embed(["unrelated machinery manifest"])[0]
    a = gw.embed([pairs[0][0]])[0]
    assert float(a @ unrelated) < 0.4


def test_mock_embed_text_matches_gateway_path():
    gw = make_gateway(dim=32)
    direct = mock_embed_text("hello world", 32)
    assert np.array_equal(gw.embed(["hello world"])[0], direct)


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


def test_token_memo_keys_on_dim():
    # "the harbor" and "the hat" share the joining gram "e h" and the token
    # "the"; embedding them at interleaved dims must not reuse one dim's codes
    _token_codes.cache_clear()
    texts = ["the harbor", "the hat is red", "a red hat", "the harbor hat"]
    for dim in (7, 64, 7, 256, 64, 1):
        for text in texts:
            want = trigram_loop_embed(text, dim)
            assert mock_embed_text(text, dim).tobytes() == want.tobytes(), (text, dim)


def test_token_memo_is_bounded():
    assert _token_codes.cache_info().maxsize == TOKEN_CODE_MEMO_SIZE > 0
    mock_embed_text(" ".join(f"w{i}" for i in range(64)), 64)
    assert 0 < _token_codes.cache_info().currsize <= TOKEN_CODE_MEMO_SIZE


# texts with no surviving characters embed to the zero vector
@pytest.mark.parametrize("dim", [1, 8, 64, 256])
@pytest.mark.parametrize("text", ["", "...", "a", "the colour of the harbour is red.",
                                  "alice | lives in | paris", "€ ✓, x!"])
def test_mock_embed_text_norm_has_the_bits_of_linalg_norm(text, dim):
    joined = " ".join(metric_tokens(text))
    raw = np.zeros(dim)
    if joined:
        for i in range(max(1, len(joined) - 2)):
            h = zlib.crc32(joined[i:i + 3].encode("utf-8"))
            raw[h % dim] += 1.0 if (h >> 16) & 1 else -1.0
    norm = float(np.linalg.norm(raw))
    want = raw / norm if norm > 0 else raw
    got = mock_embed_text(text, dim)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


# -- timing capture -----------------------------------------------------------

def test_gateway_timing_is_immutable():
    gw = make_gateway()
    gw.embed(["a"])
    (timing,) = gw.drain_timings()
    assert timing.wall_us == timing.wall_ns / 1000.0
    for field in ("call_kind", "stage", "wall_ns", "ok", "retries", "template_id"):
        with pytest.raises(AttributeError):
            setattr(timing, field, None)
    with pytest.raises(AttributeError):
        timing.extra = 1


def test_every_call_records_exactly_one_timing():
    gw = make_gateway()
    gw.stage = "PreIns"
    gw.embed(["a"])
    gw.chat("summarize", {"text": "One. Two."})
    gw.stage = "Generation"
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
        gw.chat("summarize", {"text": "x."})
    with pytest.raises(GatewayError):
        gw.embed(["x"])
    with pytest.raises(GatewayError):
        gw.chat("no_such_template", {})
    timings = gw.drain_timings()
    assert len(timings) == 3
    assert [t.ok for t in timings] == [False, False, False]
    assert timings[0].template_id == "summarize"


class InterruptingGateway(MockGateway):
    def _chat_impl(self, template_id, variables):
        raise KeyboardInterrupt


def test_an_interrupted_call_still_records_one_timing():
    # an exception that is no GatewayError passes through _call's finally
    gw = InterruptingGateway()
    gw.stage = "Generation"
    with pytest.raises(KeyboardInterrupt):
        gw.answer("q", "ctx sentence.")
    (timing,) = gw.drain_timings()
    assert (timing.call_kind, timing.stage, timing.ok, timing.retries, timing.template_id) \
        == ("chat", "Generation", False, 0, "answer")
    assert gw.drain_timings() == []


# -- chat templates -----------------------------------------------------------

def chat(gw, template_id, **variables):
    return gw.chat(template_id, variables)


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


# -- the per-instance template memo ----------------------------------------------

# stopwords, a synonym pair, punctuation and mixed case, so sentences tie,
# overlap partly and reduce to no index tokens at all
WORDS = ["the", "is", "of", "Color", "colour", "harbor", "red", "Red", "blue", "sky",
         "grass", "alice", "it's", "tea", "green", "—", "...", "?!"]
word = st.sampled_from(WORDS)
sentence = st.builds(lambda words, end: " ".join(words) + end,
                     st.lists(word, min_size=1, max_size=6), st.sampled_from(["", ".", "!", "?"]))
prefix = st.sampled_from(["", "[ts=2026-01-01T00:00:00] alice: ", "[ts=1] ", "bob: ",
                          "[unclosed: ", "[ts=2] carol: note: "])
context_line = st.one_of(
    st.builds(lambda head, body: head + " ".join(body), prefix,
              st.lists(sentence, min_size=0, max_size=3)),
    st.sampled_from(["", "   ", "...", "?!", "—", "[ts=3] dan: ..."]),
)
query = st.builds(" ".join, st.lists(word, min_size=0, max_size=5))


@st.composite
def contexts(draw):
    """Contexts whose lines repeat within and across contexts, plus empty ones."""
    pool = draw(st.lists(context_line, min_size=1, max_size=6))
    pick = st.lists(st.sampled_from(pool), min_size=0, max_size=8)
    return [draw(st.sampled_from(["\n", "\r\n"])).join(draw(pick))
            for _ in range(draw(st.integers(1, 4)))]


@given(contexts(), st.lists(query, min_size=1, max_size=3), st.integers(1, 5))
@example(["", "  \n ", "...\n?!"], ["sky"], 1)
@example(["[ts=1] a: Red sky. Red sky.\nRed sky."] * 2, ["red sky", "the"], 2)
def test_answer_with_the_memo_equals_the_memo_free_template(context_list, queries, bound):
    # the real bound and one small enough to empty the memo mid-context
    for size in (TEMPLATE_MEMO_SIZE, bound):
        gw = make_gateway()
        with mock.patch.object(gateway, "TEMPLATE_MEMO_SIZE", size):
            for context in context_list:
                for q in queries:
                    want = ref_tpl_answer({"query": q, "context": context})
                    assert gw.answer(q, context) == want
                    assert len(gw._memo) <= size


@given(st.lists(st.tuples(query, st.integers(0, 7)), min_size=1, max_size=12),
       st.integers(1, 4))
@example([("the color of it", 0), ("the color of it", 1), ("the color of it", 1),
          ("the color of it", 9)], 1)
def test_paraphrase_with_the_memo_equals_the_memo_free_template(calls, bound):
    for size in (TEMPLATE_MEMO_SIZE, bound):
        gw = make_gateway()
        with mock.patch.object(gateway, "TEMPLATE_MEMO_SIZE", size):
            for _ in range(2):  # every call again, now from the memo
                for q, index in calls:
                    want = ref_tpl_paraphrase({"query": q, "index": index})
                    assert chat(gw, "paraphrase", query=q, index=index) == want
                    assert len(gw._memo) <= size


def test_a_query_equal_to_a_context_line_keeps_both_entries_apart():
    gw = make_gateway()
    line = "the colour of the harbor. Red sky."
    assert gw.answer("red sky", line) == "Red sky."
    assert chat(gw, "paraphrase", query=line, index=1) == \
        ref_tpl_paraphrase({"query": line, "index": 1})
    assert gw.answer("harbor", line) == "the colour of the harbor."


def test_each_gateway_has_its_own_bounded_template_memo():
    first, second = make_gateway(), make_gateway()
    assert first._memo == {} and second._memo == {}
    assert first._memo is not second._memo
    first.answer("red sky", "Red sky.\nBlue sea.")
    chat(first, "paraphrase", query="the color", index=1)
    assert len(first._memo) == 3
    assert second._memo == {}
    assert make_gateway()._memo == {}
    # every run builds its own gateway, so each run starts with an empty memo
    cfg = ExperimentConfig(output_dir="unused")
    runs = [build_gateway(cfg), build_gateway(cfg)]
    assert runs[0]._memo == {} and runs[0]._memo is not runs[1]._memo
    # a context of more distinct lines than the memo holds
    lines = [f"fact number {i}." for i in range(TEMPLATE_MEMO_SIZE + 10)]
    assert first.answer("number 7", "\n".join(lines)) == "fact number 7."
    assert 0 < len(first._memo) <= TEMPLATE_MEMO_SIZE


# -- rate limiting ------------------------------------------------------------

def test_token_bucket_throttles():
    bucket = TokenBucket(rate=100.0, capacity=1.0)
    gw = make_gateway(rate_limit=bucket)
    t0 = time.monotonic()
    for _ in range(3):
        gw.embed(["x"])
    elapsed = time.monotonic() - t0
    # two refills at 100 tokens/s -> at least ~20 ms, allow scheduler slack
    assert elapsed >= 0.015


def test_a_rate_limit_wait_is_billed_as_gateway_time():
    class SlowBucket:
        def acquire(self):
            time.sleep(0.01)

    gw = make_gateway(rate_limit=SlowBucket())
    gw.embed(["x"])
    (timing,) = gw.drain_timings()
    assert timing.wall_ns >= 10_000_000


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


# -- remote HTTP path, offline ------------------------------------------------

class FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


class NotJson(FakeResponse):
    """A 200 reply whose body does not parse, as ``requests`` reports it."""

    def __init__(self):
        super().__init__(200)

    def json(self):
        raise requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0)


class FakeSession:
    """Stands in for ``requests.Session``: answers each post with the next
    scripted response, or raises it when it is an exception."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.posts = []

    def post(self, url, json, timeout):
        self.posts.append((url, json))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def remote(*responses, dim=2, **kwargs):
    gw = RemoteGateway(base_url="http://localhost:9/v1", backoff_s=0, dim=dim, **kwargs)
    gw._session = FakeSession(*responses)
    return gw


def reply(content):
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


def test_remote_retries_a_server_error_then_succeeds():
    gw = remote(FakeResponse(500), reply("  Paris.  "))
    assert gw.chat("answer", {"query": "q", "context": "c"}) == "Paris."
    (timing,) = gw.drain_timings()
    assert timing.ok and timing.retries == 1
    (url, payload), _ = gw._session.posts
    assert url == "http://localhost:9/v1/chat/completions"
    assert "Question: q" in payload["messages"][0]["content"]


def test_remote_exhausted_retries_raise_http():
    gw = remote(ConnectionError("refused"), FakeResponse(503), FakeResponse(503), retries=2)
    with pytest.raises(GatewayError, match="http 503") as err:
        gw.chat("answer", {"query": "q", "context": "c"})
    assert err.value.kind == "http" and err.value.retries == 2
    assert len(gw._session.posts) == 3
    (timing,) = gw.drain_timings()
    assert not timing.ok and timing.retries == 2


def test_remote_embed_records_its_retry():
    body = {"data": [{"index": 0, "embedding": [3.0, 4.0]}]}
    gw = remote(FakeResponse(500), FakeResponse(200, body))
    (vec,) = gw.embed(["a"])
    assert vec.tolist() == [0.6, 0.8]
    (timing,) = gw.drain_timings()
    assert timing.ok and timing.call_kind == "embed" and timing.retries == 1
    assert body == {"data": [{"index": 0, "embedding": [3.0, 4.0]}]}  # reply untouched


def test_remote_spent_deadline_raises_timeout():
    gw = remote(reply("never sent"), deadline_s=0)
    with pytest.raises(GatewayError) as err:
        gw.embed(["x"])
    assert err.value.kind == "timeout"
    assert gw._session.posts == []


def test_remote_embeddings_are_sorted_by_index_and_unit_normalised():
    rows = [{"index": 1, "embedding": [0.0, 2.0]}, {"index": 0, "embedding": [3.0, 4.0]}]
    gw = remote(FakeResponse(200, {"data": rows}))
    first, second = gw.embed(["a", "b"])
    assert first.tolist() == [0.6, 0.8]
    assert second.tolist() == [0.0, 1.0]
    assert gw._session.posts[0][1]["input"] == ["a", "b"]


@pytest.mark.parametrize("call, response", [
    ("embed", FakeResponse(200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}]})),  # 1 row
    ("chat", FakeResponse(200, {"id": "no choices"})),
    ("embed", FakeResponse(200, {"data": [[0.1, 0.2], [0.3, 0.4]]})),  # rows not objects
    ("embed", FakeResponse(200, {"data": [{"index": 0, "embedding": "abc"},
                                          {"index": 1, "embedding": [1.0]}]})),
    ("embed", FakeResponse(200, {"data": [{"index": 0, "embedding": 0.5},
                                          {"index": 1, "embedding": [1.0]}]})),
    ("chat", FakeResponse(200, [1, 2])),  # body not an object
    ("embed", FakeResponse(200, {"data": [{"index": 0, "embedding": [1.0] * 4},
                                          {"index": 1, "embedding": [1.0] * 4}]})),  # not dim
    ("chat", NotJson()),  # a proxy's HTML error page: the server did answer
])
def test_remote_malformed_responses(call, response):
    # a malformed reply is not retried and still records one timing
    gw = remote(response, reply("never sent"), reply("never sent"))
    with pytest.raises(GatewayError) as err:
        if call == "embed":
            gw.embed(["a", "b"])
        else:
            gw.chat("answer", {"query": "q", "context": "c"})
    assert err.value.kind == "malformed" and err.value.retries == 0
    assert len(gw._session.posts) == 1
    (timing,) = gw.drain_timings()
    assert not timing.ok and timing.call_kind == call and timing.retries == 0


def test_remote_malformed_reply_after_a_retry_reports_the_retry():
    gw = remote(FakeResponse(503), FakeResponse(200, {"data": [[0.1]]}))
    with pytest.raises(GatewayError) as err:
        gw.embed(["a"])
    assert err.value.kind == "malformed" and err.value.retries == 1
    (timing,) = gw.drain_timings()
    assert not timing.ok and timing.retries == 1


def one_query_manifest():
    """One insert, then one query about it."""
    return serialize_stream(
        [SessionTurns(session_id="s0", turns=(Turn(text="the sky is blue"),), base_ts=0)],
        [QuerySpec(payload=RetrievePayload(query="sky colour", gold_answer="blue",
                                           query_id="q0"),
                   trigger=AfterCount(count=1))])


def one_query_config(backend="inverted_vector", kind="remote"):
    # the default store's search reads vectors, so its run embeds
    return ExperimentConfig(store=StoreConfig(backend=backend),
                            checkpoint=CheckpointSchedule(every_n=1),
                            gateway=GatewayConfig(kind=kind, embed_dim=8),
                            output_dir="unused")


def test_remote_malformed_embed_fails_open_in_a_run():
    manifest, cfg = one_query_manifest(), one_query_config()
    gw = remote(FakeResponse(200, {"data": [[0.1]]}),  # the insert's embed
                FakeResponse(200, {"data": [{"index": 0, "embedding": [1.0] * 8}]}),
                reply("blue"), dim=cfg.gateway.embed_dim)
    result = run_experiment(cfg, manifest, gw)
    assert result.status == "complete", result.error
    assert result.summary()["flags"] == {"embed_failed": 1}
    assert [res.prediction for res in result.query_results] == ["blue"]
    assert len(gw._session.posts) == 3


def test_built_remote_gateway_fails_open_on_a_vector_of_another_length(monkeypatch):
    monkeypatch.setenv("NEUROMEM_BASE_URL", "http://localhost:9/v1")
    cfg = one_query_config()
    gw = build_gateway(cfg)
    assert gw.dim == 8
    gw._session = FakeSession(
        FakeResponse(200, {"data": [{"index": 0, "embedding": [1.0] * 4}]}),  # the insert's embed
        FakeResponse(200, {"data": [{"index": 0, "embedding": [1.0] * 8}]}),
        reply("blue"))
    result = run_experiment(cfg, one_query_manifest(), gw)
    assert result.status == "complete", result.error
    assert result.summary()["flags"] == {"embed_failed": 1}
    assert [res.prediction for res in result.query_results] == ["blue"]


def test_a_remote_fifo_run_posts_no_embeddings_request():
    # fifo_queue's search reads no vectors, so only the answer is posted
    gw = remote(reply("blue"), dim=8)
    result = run_experiment(one_query_config("fifo_queue"), one_query_manifest(), gw)
    assert result.status == "complete", result.error
    assert [res.prediction for res in result.query_results] == ["blue"]
    assert [url.rsplit("/", 1)[1] for url, _ in gw._session.posts] == ["completions"]
    assert result.summary()["latency"]["gateway_embed_us_by_stage"] == {}


def test_a_fifo_run_with_a_failing_embedder_is_not_flagged():
    gw = MockGateway(dim=8, failing={"embed"})
    result = run_experiment(one_query_config("fifo_queue", "mock"), one_query_manifest(), gw)
    assert result.status == "complete", result.error
    assert result.summary()["flags"] == {}
    assert [res.prediction for res in result.query_results] == ["the sky is blue"]


def test_a_gateway_reused_across_runs_embeds_for_the_run_that_reads_vectors():
    gw = MockGateway(dim=8)
    manifest = one_query_manifest()
    for backend, embeds in [("fifo_queue", 0), ("lsh_hash", 2), ("fifo_queue", 0)]:
        result = run_experiment(one_query_config(backend, "mock"), manifest, gw)
        assert result.status == "complete", (backend, result.error)
        kinds = [t.call_kind for trace in result.traces for t in trace.gateway_calls]
        assert kinds.count("embed") == embeds, backend


def test_vectors_for_calls_the_model_only_when_the_run_reads_vectors():
    bucket = mock.Mock(spec=TokenBucket)
    gw = MockGateway(dim=8, rate_limit=bucket, failing={"embed"})
    gw.vectors = False
    assert gw.vectors_for(["a", "b"]) == [None, None]
    assert gw.drain_timings() == []
    bucket.acquire.assert_not_called()
    gw.vectors = True
    with pytest.raises(GatewayError):
        gw.vectors_for(["a"])
    assert [t.call_kind for t in gw.drain_timings()] == ["embed"]
    bucket.acquire.assert_called_once()


def test_remote_blank_completion_raises_empty():
    gw = remote(reply("   "))
    with pytest.raises(GatewayError) as err:
        gw.chat("answer", {"query": "q", "context": "c"})
    assert err.value.kind == "empty"
