"""Model gateway: one seam for every LLM/embedding touch.

Two implementations share the interface:

* MockGateway — fully deterministic, offline. Chat dispatches on the
  request's template_id to a fixed rule; embeddings hash character
  trigrams of the stemmed text into signed buckets. Same input, same
  output, across processes and platforms (hashing is crc32-based, not
  Python's seeded hash()). A text's trigrams are its tokens' padded
  trigrams plus one gram across each joining space, so each token's codes
  are hashed once and memoized (``TOKEN_CODE_MEMO_SIZE`` tokens at most).
* RemoteGateway — OpenAI-compatible HTTP endpoints ({base}/chat/completions
  and {base}/embeddings) with retries, exponential backoff and a per-call
  deadline. Credentials come from NEUROMEM_API_KEY / NEUROMEM_BASE_URL
  unless passed explicitly.

Every public call appends exactly one GatewayTiming — also on failure —
with the pipeline stage set by the caller, so per-stage model-inference
time can be separated from store time downstream.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GatewayError
from .metrics import STAGE_GENERATION
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


@dataclass(frozen=True)
class ChatRequest:
    template_id: str
    variables: dict
    max_tokens: int = 256
    temperature: float = 0.0


@dataclass(frozen=True)
class GatewayTiming:
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
    """Shared plumbing: timing capture, rate limiting, the answer() helper."""

    def __init__(self, rate_limit: Optional[TokenBucket] = None):
        self._timings: list[GatewayTiming] = []
        self._timings_lock = threading.Lock()
        self.rate_limit = rate_limit

    # -- implemented by subclasses ------------------------------------
    def _embed_impl(self, texts: list[str]) -> list[np.ndarray]:
        raise NotImplementedError

    def _chat_impl(self, request: ChatRequest) -> tuple[str, int]:
        """Returns (reply, retries_used)."""
        raise NotImplementedError

    # -- public surface -------------------------------------------------
    def embed(self, texts: list[str], *, stage: str) -> list[np.ndarray]:
        if self.rate_limit is not None:
            self.rate_limit.acquire()
        t0 = time.perf_counter_ns()
        try:
            vectors = self._embed_impl(texts)
        except GatewayError as err:
            self._record("embed", stage, time.perf_counter_ns() - t0, ok=False,
                         retries=err.retries)
            raise
        self._record("embed", stage, time.perf_counter_ns() - t0, ok=True)
        return vectors

    def chat(self, request: ChatRequest, *, stage: str) -> str:
        if self.rate_limit is not None:
            self.rate_limit.acquire()
        t0 = time.perf_counter_ns()
        try:
            reply, retries = self._chat_impl(request)
        except GatewayError as err:
            self._record("chat", stage, time.perf_counter_ns() - t0, ok=False,
                         retries=err.retries, template_id=request.template_id)
            raise
        self._record("chat", stage, time.perf_counter_ns() - t0, ok=True,
                     retries=retries, template_id=request.template_id)
        return reply

    def answer(self, query: str, context: str, *, stage: str = STAGE_GENERATION) -> str:
        """Answer generation over an assembled context. Empty context is legal."""
        request = ChatRequest("answer", {"query": query, "context": context})
        return self.chat(request, stage=stage)

    # -- timing capture ---------------------------------------------------
    def _record(self, call_kind: str, stage: str, wall_ns: int, *, ok: bool,
                retries: int = 0, template_id: Optional[str] = None):
        timing = GatewayTiming(call_kind=call_kind, stage=stage, wall_ns=wall_ns,
                               ok=ok, retries=retries, template_id=template_id)
        with self._timings_lock:
            self._timings.append(timing)

    def drain_timings(self) -> list[GatewayTiming]:
        """Return and clear the captured timings."""
        with self._timings_lock:
            out = self._timings
            self._timings = []
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


# Padded tokens whose trigram codes the embedding memo keeps, about 260
# bytes each at dim 64, so 4-5 MB when full. A synthetic stream of 4,800
# inserts embeds about 8,200 distinct tokens.
TOKEN_CODE_MEMO_SIZE = 1 << 14


def _gram_code(gram: str, dim: int) -> int:
    """The trigram's crc32 bucket, offset by ``dim`` when its sign is negative."""
    h = zlib.crc32(gram.encode("utf-8"))
    return h % dim if (h >> 16) & 1 else h % dim + dim


@functools.lru_cache(maxsize=TOKEN_CODE_MEMO_SIZE)
def _token_codes(token: str, dim: int) -> tuple[int, ...]:
    """Codes of every trigram of ``" " + token + " "``, in order."""
    padded = f" {token} "
    return tuple(_gram_code(padded[i:i + 3], dim) for i in range(len(padded) - 2))


def mock_embed_text(text: str, dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Signed trigram-hash embedding of the stemmed text, L2-normalized.

    Pipeline: lowercase -> punctuation stripped -> tokens stemmed to a fixed
    point (stopwords kept) -> sliding character trigrams over the re-joined
    string -> each trigram adds +/-1 to a crc32 bucket -> unit norm. Texts
    with no surviving characters map to the zero vector; a joined string
    shorter than three characters is one gram.

    The trigrams of ``" ".join(tokens)`` are those of ``" " + joined + " "``
    minus its first and last, and those are, in order, each padded token's
    trigrams with one ``t[-1] + " " + next[0]`` gram between neighbours. So
    a token's codes are hashed once and memoized per ``(token, dim)``, up to
    ``TOKEN_CODE_MEMO_SIZE`` tokens. Positive grams are counted in the first
    ``dim`` slots and negative ones in the next ``dim``; each bucket's sum is
    their difference, a small integer, so the float64 vector is the one
    adding +/-1 per trigram gives.
    """
    tokens = metric_tokens(text)
    joined = " ".join(tokens)
    if not joined:
        return np.zeros(dim, dtype=np.float64)
    if len(joined) < 3:
        codes = [_gram_code(joined, dim)]
    else:
        codes = list(_token_codes(tokens[0], dim))
        for prev, token in zip(tokens, tokens[1:]):
            codes.append(_gram_code(f"{prev[-1]} {token[0]}", dim))
            codes.extend(_token_codes(token, dim))
        codes = codes[1:-1]
    counts = np.bincount(codes, minlength=2 * dim)
    vec = (counts[:dim] - counts[dim:]).astype(np.float64)
    norm = float(np.linalg.norm(vec))
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


def _tpl_summarize(variables: dict) -> str:
    sentences = split_sentences(variables.get("text", ""))
    return sentences[0] if sentences else ""


def _tpl_triplets(variables: dict) -> str:
    max_triplets = int(variables.get("max_triplets", 5))
    lines = []
    for sentence in split_sentences(variables.get("text", "")):
        tokens = [t for t in raw_tokens(sentence) if t not in STOPWORDS]
        if len(tokens) >= 3:
            lines.append(f"{tokens[0]} | {tokens[1]} | {' '.join(tokens[2:])}")
        if len(lines) >= max_triplets:
            break
    return "\n".join(lines) if lines else "no facts"


def _tpl_crud(variables: dict) -> str:
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


def _tpl_keywords(variables: dict) -> str:
    max_keywords = int(variables.get("max_keywords", 5))
    tokens = index_tokens(variables.get("query", ""))
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        counts[tok] = counts.get(tok, 0) + 1
        first_seen.setdefault(tok, i)
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return " ".join(ranked[:max_keywords])


def _tpl_validate(variables: dict) -> str:
    tokens = raw_tokens(variables.get("query", ""))
    content = [t for t in tokens if t not in STOPWORDS]
    if not content or all(t in _SMALL_TALK for t in content):
        return "SKIP"
    return "RETRIEVE"


def _tpl_decompose(variables: dict) -> str:
    query = variables.get("query", "")
    max_subqueries = int(variables.get("max_subqueries", 3))
    parts = [p.strip() for p in query.split(" and ") if p.strip()]
    if len(parts) <= 1:
        return query
    return "\n".join(parts[:max_subqueries])


def _tpl_paraphrase(variables: dict) -> str:
    query = variables.get("query", "")
    index = int(variables.get("index", 0))
    swapped = apply_synonyms(query, SYNONYMS_BIDIRECTIONAL)
    words = swapped.split()
    if index > 0 and len(words) > 1:
        shift = index % len(words)
        words = words[shift:] + words[:shift]
    return " ".join(words)


def _tpl_answer(variables: dict) -> str:
    context = variables.get("context", "")
    if not context.strip():
        return "unknown"
    query_tokens = set(index_tokens(variables.get("query", "")))
    best_sentence = None
    best_score = -1
    for line in context.splitlines():
        body = _strip_context_prefix(line)
        for sentence in split_sentences(body):
            score = len(query_tokens & set(index_tokens(sentence)))
            if score > best_score:
                best_score = score
                best_sentence = sentence
    return best_sentence if best_sentence is not None else "unknown"


_MOCK_TEMPLATES: dict[str, Callable[[dict], str]] = {
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
        self._embed_cache: dict[str, np.ndarray] = {}

    def _embed_impl(self, texts: list[str]) -> list[np.ndarray]:
        if "embed" in self.failing:
            raise GatewayError("injected", "embed fault injected")
        out = []
        for text in texts:
            cached = self._embed_cache.get(text)
            if cached is None:
                cached = mock_embed_text(text, self.dim)
                self._embed_cache[text] = cached
            out.append(cached)
        return out

    def _chat_impl(self, request: ChatRequest) -> tuple[str, int]:
        if request.template_id in self.failing:
            raise GatewayError("injected", f"chat fault injected: {request.template_id}")
        template = _MOCK_TEMPLATES.get(request.template_id)
        if template is None:
            raise GatewayError("malformed", f"unregistered template: {request.template_id}")
        return template(request.variables), 0


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


class RemoteGateway(Gateway):
    """OpenAI-compatible HTTP gateway with retry/backoff/deadline."""

    def __init__(self, base_url: Optional[str] = None, api_key: Optional[str] = None,
                 chat_model: str = "default-chat", embed_model: str = "default-embed",
                 retries: int = 2, backoff_s: float = 0.25, deadline_s: float = 30.0,
                 rate_limit: Optional[TokenBucket] = None):
        super().__init__(rate_limit=rate_limit)
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

    def _post_with_retries(self, url: str, payload: dict) -> dict:
        deadline = time.monotonic() + self.deadline_s
        last_error = "unreachable"
        for attempt in range(self.retries + 1):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise GatewayError("timeout", f"deadline exhausted: {url}", retries=attempt)
            try:
                response = self._session.post(url, json=payload, timeout=remaining)
                if response.status_code == 200:
                    body = response.json()
                    body["_retries"] = attempt
                    return body
                last_error = f"http {response.status_code}"
            except Exception as exc:  # connection errors, timeouts, bad JSON
                last_error = str(exc)
            if attempt < self.retries:
                time.sleep(min(self.backoff_s * (2 ** attempt),
                               max(0.0, deadline - time.monotonic())))
        raise GatewayError("http", f"{last_error}: {url}", retries=self.retries)

    def _embed_impl(self, texts: list[str]) -> list[np.ndarray]:
        body = self._post_with_retries(
            f"{self.base_url}/embeddings",
            {"model": self.embed_model, "input": texts},
        )
        try:
            rows = sorted(body["data"], key=lambda d: d.get("index", 0))
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in rows]
        except (KeyError, TypeError) as exc:
            raise GatewayError("malformed", f"embeddings response: {exc}") from exc
        if len(vectors) != len(texts):
            raise GatewayError("malformed", "embeddings response cardinality mismatch")
        out = []
        for vec in vectors:
            norm = float(np.linalg.norm(vec))
            out.append(vec / norm if norm > 0 else vec)
        return out

    def _chat_impl(self, request: ChatRequest) -> tuple[str, int]:
        prompt = _REMOTE_PROMPTS.get(request.template_id)
        if prompt is None:
            raise GatewayError("malformed", f"unregistered template: {request.template_id}")
        content = prompt.format(**{**{"max_sentences": 2, "max_triplets": 5,
                                      "max_keywords": 5, "max_subqueries": 3,
                                      "index": 0},
                                   **request.variables})
        body = self._post_with_retries(
            f"{self.base_url}/chat/completions",
            {
                "model": self.chat_model,
                "messages": [{"role": "user", "content": content}],
                "max_tokens": request.max_tokens,
                "temperature": request.temperature,
            },
        )
        try:
            choices = body["choices"]
            reply = choices[0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError("malformed", f"chat response: {exc}") from exc
        if reply is None or not str(reply).strip():
            raise GatewayError("empty", "empty completion")
        return str(reply).strip(), int(body.get("_retries", 0))
