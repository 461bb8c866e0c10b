"""Model gateway: one seam for every LLM/embedding touch.

Two implementations share the interface:

* MockGateway — fully deterministic, offline. Chat dispatches on its
  template_id to a fixed rule over the variables; embeddings hash character
  trigrams of the stemmed text into signed buckets. Same input, same
  output, across processes and platforms (hashing is crc32-based, not
  Python's seeded hash()). A text's trigrams are its tokens' padded
  trigrams plus one gram across each joining space. Each token's codes, led
  by the gram joining it to the token before, are hashed once and memoized
  per previous character, token and dim (``TOKEN_CODE_MEMO_SIZE`` entries at
  most), so a text is one memo lookup per token and hashes only the tokens
  not yet seen after the same character. The unit norm is ``math.sqrt(vec.dot(vec))``,
  which is how numpy computes a 1-D float64 ``np.linalg.norm``, so the
  vector's bits are the same. Each instance also keeps a template memo of at
  most ``TEMPLATE_MEMO_SIZE`` entries: the answer template's analysis of a
  context line (its ``(sentence, index-token frozenset)`` pairs, keyed on the
  line) and the paraphrase template's synonym-swapped words (keyed on
  ``("paraphrase", query)``). A full memo is emptied before the next entry
  goes in. The memo lives on the instance, not the process: a run builds its
  own gateway, so its latency does not depend on what ran before it in the
  same process. Replies are those of the memo-free templates.
* RemoteGateway — OpenAI-compatible HTTP endpoints ({base}/chat/completions
  and {base}/embeddings) with retries, exponential backoff and a per-call
  deadline. Credentials come from NEUROMEM_API_KEY / NEUROMEM_BASE_URL
  unless passed explicitly. A 200 reply that is not JSON or has the wrong
  shape, including an embedding whose length is not ``dim``, is posted once
  and raises GatewayError("malformed"), so the fail-open paths catch it.

``embed(texts)`` and ``chat(template_id, variables)`` share one timed path,
``Gateway._call``: it takes the rate-limit token, runs the implementation
and appends exactly one GatewayTiming, also on failure, billed to
``Gateway.stage``. The clock starts before the token is taken, so a
throttle wait counts as gateway time. A GatewayTiming is an immutable
``NamedTuple``, cheap to build once per call. Each
implementation reports its own retries, as the second item of its return
value or as ``GatewayError.retries``. The orchestrator sets ``stage`` as each
lifecycle stage opens, so per-stage model-inference time can be separated
from store time downstream without any operator naming its stage.

Operators ask for vectors through ``Gateway.vectors_for``, which calls
``embed`` only when ``Gateway.vectors`` is true. The orchestrator sets
``vectors`` for each run: when no stage of the run reads a vector,
``vectors_for`` returns one ``None`` per text and does nothing else, with no
model call, no timing and no rate-limit token. ``embed`` itself always calls
the model, so every ``embed`` call still records exactly one timing.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
import traceback
import zlib
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import GatewayError
from .records import vector_norm
from .text import (
    STOPWORDS,
    SYNONYMS_BIDIRECTIONAL,
    apply_synonyms,
    index_tokens,
    metric_tokens,
    raw_tokens,
    split_sentences,
)

DEFAULT_EMBED_DIM = 256


class GatewayTiming(NamedTuple):
    """One model call's wall time, outcome and the stage it was billed to."""

    call_kind: str  # "chat" | "embed"
    stage: str
    wall_ns: int
    ok: bool
    retries: int = 0
    template_id: Optional[str] = None

    @property
    def wall_us(self) -> float:
        return self.wall_ns / 1000.0


class TokenBucket:
    """Minimal rate limiter: ``rate`` tokens per second, burst ``capacity``."""

    def __init__(self, rate: float, capacity: float):
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self):
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class Gateway:
    """Shared plumbing: timing capture, rate limiting, the answer() helper.

    ``stage`` is the lifecycle stage every call is billed to until it is
    set again; the orchestrator sets it at each stage boundary. ``vectors``
    says whether anything reads the embeddings: when it is false,
    ``vectors_for`` returns ``None`` for each text without calling the
    model. The orchestrator sets it once per run.

    A gateway serves one run at a time: ``stage``, ``vectors`` and the
    captured timings are plain attributes, taken and set without a lock.
    ``run_experiment`` builds a gateway per run; a gateway passed to it must
    not serve another run on another thread at the same time, or the two
    runs bill calls to each other's stages. Only the rate limiter is shared
    safely: ``TokenBucket`` takes its own lock.
    """

    def __init__(self, rate_limit: Optional[TokenBucket] = None):
        self._timings: list[GatewayTiming] = []
        self.rate_limit = rate_limit
        self.stage = ""
        self.vectors = True

    # -- implemented by subclasses: each returns (value, retries_used) ----
    def _embed_impl(self, texts: list[str]) -> tuple[list[np.ndarray], int]:
        raise NotImplementedError

    def _chat_impl(self, template_id: str, variables: dict) -> tuple[str, int]:
        raise NotImplementedError

    # -- public surface -------------------------------------------------
    def embed(self, texts: list[str]) -> list[np.ndarray]:
        return self._call("embed", None, self._embed_impl, texts)

    def vectors_for(self, texts: list[str]) -> list[Optional[np.ndarray]]:
        """``embed(texts)`` when the run reads vectors, else one ``None`` per text."""
        if not self.vectors:
            return [None] * len(texts)
        return self.embed(texts)

    def chat(self, template_id: str, variables: dict) -> str:
        """The reply of template ``template_id`` filled in with ``variables``."""
        return self._call("chat", template_id, self._chat_impl, template_id, variables)

    def answer(self, query: str, context: str) -> str:
        """Answer generation over an assembled context. Empty context is legal."""
        return self.chat("answer", {"query": query, "context": context})

    # -- the one timed path -----------------------------------------------
    def _call(self, kind: str, template_id: Optional[str], impl: Callable, *args):
        """Run ``impl(*args)`` under the rate limit and record exactly one timing."""
        t0 = time.perf_counter_ns()
        if self.rate_limit is not None:
            self.rate_limit.acquire()
        ok, retries = False, 0
        try:
            value, retries = impl(*args)
            ok = True
        except GatewayError as err:
            retries = err.retries
            raise
        finally:
            self._timings.append(GatewayTiming(kind, self.stage, time.perf_counter_ns() - t0,
                                               ok, retries, template_id))
        return value

    def drain_timings(self) -> list[GatewayTiming]:
        """Return and clear the captured timings."""
        out, self._timings = self._timings, []
        return out


# ---------------------------------------------------------------------------
# Mock implementation
# ---------------------------------------------------------------------------

# Small-talk lexicon for the validate template. Matched against
# non-stopword tokens only.
_SMALL_TALK = frozenset({
    "hello", "hi", "hey", "howdy", "thanks", "thank", "goodbye", "bye",
    "ok", "okay", "yes", "no", "yeah", "sure", "cool", "nice", "great",
    "good", "fine", "morning", "evening", "afternoon", "night", "please",
    "welcome", "wow", "haha", "lol",
})


# Entries the embedding memo keeps, each keyed on a token, the character
# before it and ``dim``: about 270 bytes each at dim 64, so 4-5 MB when full.
# A synthetic stream of 4,800 inserts embeds about 8,200 distinct tokens in
# about 8,250 entries.
TOKEN_CODE_MEMO_SIZE = 1 << 14


# Entries a MockGateway's template memo keeps: context lines for the answer
# template and queries for the paraphrase template, each well under 1 KB. A
# synthetic stream of 500 queries over 2,500 bundle lines fills about 830.
TEMPLATE_MEMO_SIZE = 1 << 12


def _gram_code(gram: str, dim: int) -> int:
    """The trigram's crc32 bucket, offset by ``dim`` when its sign is negative."""
    h = zlib.crc32(gram.encode("utf-8"))
    return h % dim if (h >> 16) & 1 else h % dim + dim


@functools.lru_cache(maxsize=TOKEN_CODE_MEMO_SIZE)
def _token_codes(left: str, token: str, dim: int) -> bytes:
    """Codes of every trigram of ``left + " " + token + " "``, in order, as intp bytes.

    With ``left`` the previous token's last character, the first code is the
    gram joining the two tokens; with ``left`` empty, the codes are those of
    the padded token alone.
    """
    padded = f"{left} {token} "
    return np.array([_gram_code(padded[i:i + 3], dim) for i in range(len(padded) - 2)],
                    dtype=np.intp).tobytes()


def mock_embed_text(text: str, dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Signed trigram-hash embedding of the stemmed text, L2-normalized.

    Pipeline: lowercase -> punctuation stripped -> tokens stemmed to a fixed
    point (stopwords kept) -> sliding character trigrams over the re-joined
    string -> each trigram adds +/-1 to a crc32 bucket -> unit norm. Texts
    with no surviving characters map to the zero vector; a joined string
    shorter than three characters is one gram.

    The trigrams of ``" ".join(tokens)`` are those of ``" " + joined + " "``
    minus its first and last, and those are, in order, the first padded
    token's trigrams, then for each later token the ``prev[-1] + " " +
    token[0]`` gram joining it to its neighbour followed by its own padded
    trigrams. So each token's codes, led by its joining gram, are hashed once
    and memoized per ``(prev[-1], token, dim)`` (``""`` for the first token),
    up to ``TOKEN_CODE_MEMO_SIZE`` entries, as the bytes of an intp array: a
    text is one memo lookup per token and one ``bytes.join``. Positive grams
    are counted in the first ``dim`` slots and negative ones in the next
    ``dim``; each bucket's sum is their difference, a small integer, so the
    float64 vector is the one adding +/-1 per trigram gives.
    """
    tokens = metric_tokens(text)
    if not tokens:
        return np.zeros(dim, dtype=np.float64)
    if len(tokens) == 1 and len(tokens[0]) < 3:
        # the joined string is shorter than three characters
        codes = [_gram_code(tokens[0], dim)]
    else:
        # "" before the first token, then each token's last character; the
        # map stops at the last token, so the final character goes unused
        lefts = [""]
        lefts += [token[-1] for token in tokens]
        chunks = b"".join(map(_token_codes, lefts, tokens, itertools.repeat(dim)))
        codes = np.frombuffer(chunks, dtype=np.intp)[1:-1]
    counts = np.bincount(codes, minlength=2 * dim)
    vec = (counts[:dim] - counts[dim:]).astype(np.float64)
    # how numpy computes a 1-D float64 np.linalg.norm, without its dispatch
    norm = math.sqrt(vec.dot(vec))
    if norm > 0:
        vec /= norm
    return vec


def _strip_context_prefix(line: str) -> str:
    """Drop the '[ts=...] speaker: ' prefix a context line carries, if any."""
    body = line
    if body.startswith("[") and "]" in body:
        body = body.split("]", 1)[1].lstrip()
    if ": " in body:
        body = body.split(": ", 1)[1]
    return body


def _tpl_summarize(variables: dict, _memo: dict) -> str:
    sentences = split_sentences(variables.get("text", ""))
    return sentences[0] if sentences else ""


def _tpl_triplets(variables: dict, _memo: dict) -> str:
    max_triplets = int(variables.get("max_triplets", 5))
    lines = []
    for sentence in split_sentences(variables.get("text", "")):
        tokens = [t for t in raw_tokens(sentence) if t not in STOPWORDS]
        if len(tokens) >= 3:
            lines.append(f"{tokens[0]} | {tokens[1]} | {' '.join(tokens[2:])}")
        if len(lines) >= max_triplets:
            break
    return "\n".join(lines) if lines else "no facts"


def _tpl_crud(variables: dict, _memo: dict) -> str:
    new_text = variables.get("new", "")
    new_fields = [f.strip() for f in new_text.split(" | ")]
    for line in variables.get("neighbors", "").splitlines():
        if "\t" not in line:
            continue
        neighbor_id, neighbor_text = line.split("\t", 1)
        if neighbor_text == new_text:
            return "NOOP"
        fields = [f.strip() for f in neighbor_text.split(" | ")]
        if len(fields) >= 2 and len(new_fields) >= 2 and fields[:2] == new_fields[:2]:
            return f"UPDATE {neighbor_id}"
    return "ADD"


def _tpl_keywords(variables: dict, _memo: dict) -> str:
    max_keywords = int(variables.get("max_keywords", 5))
    tokens = index_tokens(variables.get("query", ""))
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        counts[tok] = counts.get(tok, 0) + 1
        first_seen.setdefault(tok, i)
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return " ".join(ranked[:max_keywords])


def _tpl_validate(variables: dict, _memo: dict) -> str:
    tokens = raw_tokens(variables.get("query", ""))
    content = [t for t in tokens if t not in STOPWORDS]
    if not content or all(t in _SMALL_TALK for t in content):
        return "SKIP"
    return "RETRIEVE"


def _tpl_decompose(variables: dict, _memo: dict) -> str:
    query = variables.get("query", "")
    max_subqueries = int(variables.get("max_subqueries", 3))
    parts = [p.strip() for p in query.split(" and ") if p.strip()]
    if len(parts) <= 1:
        return query
    return "\n".join(parts[:max_subqueries])


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key``, emptying a full memo first."""
    if len(memo) >= TEMPLATE_MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def _tpl_paraphrase(variables: dict, memo: dict) -> str:
    query = variables.get("query", "")
    index = int(variables.get("index", 0))
    key = ("paraphrase", query)
    words = memo.get(key)
    if words is None:
        words = _remember(memo, key,
                          tuple(apply_synonyms(query, SYNONYMS_BIDIRECTIONAL).split()))
    if index > 0 and len(words) > 1:
        shift = index % len(words)
        words = words[shift:] + words[:shift]
    return " ".join(words)


def _tpl_answer(variables: dict, memo: dict) -> str:
    context = variables.get("context", "")
    if not context.strip():
        return "unknown"
    query_tokens = set(index_tokens(variables.get("query", "")))
    best_sentence = None
    best_score = -1
    for line in context.splitlines():
        pairs = memo.get(line)
        if pairs is None:
            pairs = _remember(memo, line, tuple(
                (sentence, frozenset(index_tokens(sentence)))
                for sentence in split_sentences(_strip_context_prefix(line))))
        for sentence, tokens in pairs:
            score = len(query_tokens & tokens)
            if score > best_score:
                best_score = score
                best_sentence = sentence
    return best_sentence if best_sentence is not None else "unknown"


# Each template takes the call's variables and the gateway's template
# memo; only answer and paraphrase use the memo.
_MOCK_TEMPLATES: dict[str, Callable[[dict, dict], str]] = {
    "summarize": _tpl_summarize,
    "triplets": _tpl_triplets,
    "crud": _tpl_crud,
    "keywords": _tpl_keywords,
    "validate": _tpl_validate,
    "decompose": _tpl_decompose,
    "paraphrase": _tpl_paraphrase,
    "answer": _tpl_answer,
}


class MockGateway(Gateway):
    """Deterministic offline gateway.

    Every text is embedded afresh with ``mock_embed_text``; only the
    per-token trigram codes, joining gram included, are memoized, so no
    vector outlives its call. ``_memo`` is this instance's template memo
    (see the module docstring); it starts empty and holds at most
    ``TEMPLATE_MEMO_SIZE`` entries.
    ``failing`` holds template_ids whose chat calls raise GatewayError
    (fault injection for the fail-open paths); "embed" in the set makes
    embedding calls fail the same way.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM,
                 rate_limit: Optional[TokenBucket] = None,
                 failing: Optional[set[str]] = None):
        super().__init__(rate_limit=rate_limit)
        self.dim = dim
        self.failing = set(failing or ())
        self._memo: dict = {}

    def _embed_impl(self, texts: list[str]) -> tuple[list[np.ndarray], int]:
        if "embed" in self.failing:
            raise GatewayError("injected", "embed fault injected")
        return [mock_embed_text(text, self.dim) for text in texts], 0

    def _chat_impl(self, template_id: str, variables: dict) -> tuple[str, int]:
        if template_id in self.failing:
            raise GatewayError("injected", f"chat fault injected: {template_id}")
        template = _MOCK_TEMPLATES.get(template_id)
        if template is None:
            raise GatewayError("malformed", f"unregistered template: {template_id}")
        return template(variables, self._memo), 0


# ---------------------------------------------------------------------------
# Remote implementation
# ---------------------------------------------------------------------------

_REMOTE_PROMPTS: dict[str, str] = {
    "summarize": (
        "Summarize the following conversation turn in at most {max_sentences} "
        "sentences. Reply with the summary only.\n\n{text}"
    ),
    "triplets": (
        "Extract at most {max_triplets} factual triplets from the text below. "
        "Reply with one triplet per line in the exact format "
        "'subject | relation | object'. If there are no facts, reply 'no facts'."
        "\n\n{text}"
    ),
    "crud": (
        "A new memory unit arrives:\n{new}\n\nIts nearest existing records are "
        "(one per line, 'id<TAB>text'):\n{neighbors}\n\nReply with exactly one "
        "of: ADD, NOOP, UPDATE <id>, DELETE <id>."
    ),
    "keywords": (
        "Extract at most {max_keywords} search keywords from this query. "
        "Reply with the keywords separated by spaces, nothing else.\n\n{query}"
    ),
    "validate": (
        "Does this message need memory retrieval to answer, or is it small "
        "talk? Reply with exactly RETRIEVE or SKIP.\n\n{query}"
    ),
    "decompose": (
        "Split this question into at most {max_subqueries} independent "
        "sub-questions, one per line. If it is already atomic, repeat it "
        "unchanged.\n\n{query}"
    ),
    "paraphrase": (
        "Rewrite this search query using different wording (variant "
        "{index}). Reply with the rewritten query only.\n\n{query}"
    ),
    "answer": (
        "Answer the question using only the context. If the context is "
        "empty or insufficient, reply 'unknown'. Be terse.\n\nContext:\n"
        "{context}\n\nQuestion: {query}"
    ),
}


def _clear_chain_frames(exc: BaseException):
    """Clear the locals of every frame along ``exc``'s cause/context chain.

    requests wraps a refused connection in several exceptions whose
    tracebacks' frames hold the exceptions in turn, which leaves dozens of
    objects in reference cycles per failed post. ``run_experiment`` runs
    with the cyclic collector off, so the caller keeps only the message and
    breaks the cycles here.
    """
    pending, seen = [exc], set()
    while pending:
        err = pending.pop()
        if err is None or id(err) in seen:
            continue
        seen.add(id(err))
        traceback.clear_frames(err.__traceback__)
        pending += (err.__cause__, err.__context__)


class RemoteGateway(Gateway):
    """OpenAI-compatible HTTP gateway with retry/backoff/deadline.

    ``dim`` is the embedding length every returned vector must have.
    """

    def __init__(self, base_url: Optional[str] = None, api_key: Optional[str] = None,
                 chat_model: str = "default-chat", embed_model: str = "default-embed",
                 retries: int = 2, backoff_s: float = 0.25, deadline_s: float = 30.0,
                 rate_limit: Optional[TokenBucket] = None, dim: int = DEFAULT_EMBED_DIM):
        super().__init__(rate_limit=rate_limit)
        self.dim = dim
        self.base_url = (base_url or os.environ.get("NEUROMEM_BASE_URL", "")).rstrip("/")
        if not self.base_url:
            raise GatewayError("malformed", "no base URL: set NEUROMEM_BASE_URL or pass base_url")
        self.api_key = api_key or os.environ.get("NEUROMEM_API_KEY", "")
        self.chat_model = chat_model
        self.embed_model = embed_model
        self.retries = retries
        self.backoff_s = backoff_s
        self.deadline_s = deadline_s
        import requests  # deferred so the mock path never needs it

        self._session = requests.Session()
        if self.api_key:
            self._session.headers["Authorization"] = f"Bearer {self.api_key}"

    def _post_with_retries(self, url: str, payload: dict) -> tuple[object, int]:
        """The parsed body of the first 200 reply and the retries it took."""
        deadline = time.monotonic() + self.deadline_s
        last_error = "unreachable"
        for attempt in range(self.retries + 1):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise GatewayError("timeout", f"deadline exhausted: {url}", retries=attempt)
            try:
                response = self._session.post(url, json=payload, timeout=remaining)
            except Exception as exc:  # connection errors, timeouts
                last_error = str(exc)
                _clear_chain_frames(exc)
            else:
                if response.status_code == 200:
                    # the server answered; a body that is not JSON is not retried
                    try:
                        return response.json(), attempt
                    except ValueError as exc:
                        raise GatewayError("malformed", f"reply is not JSON: {exc}: {url}",
                                           attempt) from exc
                last_error = f"http {response.status_code}"
            if attempt < self.retries:
                time.sleep(min(self.backoff_s * (2 ** attempt),
                               max(0.0, deadline - time.monotonic())))
        raise GatewayError("http", f"{last_error}: {url}", retries=self.retries)

    def _embed_impl(self, texts: list[str]) -> tuple[list[np.ndarray], int]:
        body, retries = self._post_with_retries(
            f"{self.base_url}/embeddings",
            {"model": self.embed_model, "input": texts},
        )
        try:
            rows = sorted(body["data"], key=lambda d: d.get("index", 0))
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in rows]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GatewayError("malformed", f"embeddings response: {exc}", retries) from exc
        if len(vectors) != len(texts) or any(vec.ndim != 1 for vec in vectors):
            raise GatewayError("malformed", "embeddings response: not one vector per text",
                               retries)
        if any(vec.shape[0] != self.dim for vec in vectors):
            raise GatewayError("malformed",
                               f"embeddings response: a vector is not {self.dim}-dim", retries)
        out = []
        for vec in vectors:
            norm = vector_norm(vec)
            out.append(vec / norm if norm > 0 else vec)
        return out, retries

    def _chat_impl(self, template_id: str, variables: dict) -> tuple[str, int]:
        prompt = _REMOTE_PROMPTS.get(template_id)
        if prompt is None:
            raise GatewayError("malformed", f"unregistered template: {template_id}")
        content = prompt.format(**{**{"max_sentences": 2, "max_triplets": 5,
                                      "max_keywords": 5, "max_subqueries": 3,
                                      "index": 0},
                                   **variables})
        body, retries = self._post_with_retries(
            f"{self.base_url}/chat/completions",
            {
                "model": self.chat_model,
                "messages": [{"role": "user", "content": content}],
                "max_tokens": 256,
                "temperature": 0.0,
            },
        )
        try:
            reply = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError("malformed", f"chat response: {exc}", retries) from exc
        if reply is None or not str(reply).strip():
            raise GatewayError("empty", "empty completion", retries)
        return str(reply).strip(), retries
