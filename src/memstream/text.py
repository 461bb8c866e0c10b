"""Shared text utilities: tokenization, stopwords, sentences, synonym table.

Two token pipelines live here and they are deliberately different:

* ``metric_tokens`` — scoring normalization. Lowercase, punctuation
  stripped by Unicode category, digits kept, stopwords KEPT, every token
  stemmed to a fixed point (single-pass stemming is not idempotent, e.g.
  "exceed" -> "excee" -> "exce" -> "exc"; iterating makes normalization
  idempotent, which downstream metrics rely on).
* ``index_tokens`` — lexical indexing/matching. Same pipeline but the 50
  fixed stopwords are dropped before stemming.

Both pipelines, and ``raw_tokens`` under them, lowercase the whole text,
split it on whitespace and map each word through one memo that returns the
word's punctuation-stripped token and that token's fixed-point stem, so each
distinct word is stripped and stemmed once per process. Splitting before
stripping gives the same tokens as stripping the whole string first: no
Unicode ``P*`` character is whitespace, so stripping never creates or removes
a word boundary, and a word made only of punctuation becomes an empty token,
which is dropped. The memo is a process-wide ``functools.lru_cache`` bounded
at ``WORD_MEMO_SIZE`` words; on a miss it looks ``stem_fixpoint`` up as a
module global, so a wrapper installed on that name still sees every stem
the memo computes.
"""

from __future__ import annotations

import functools
import unicodedata

from .porter import porter_stem

# Exactly 50 entries, checked by the tests. Matched against raw lowercase
# tokens before any stemming.
STOPWORDS = frozenset({
    "a", "about", "after", "an", "and", "are", "as", "at", "be", "been",
    "before", "but", "by", "did", "do", "does", "for", "from", "go", "had",
    "has", "have", "he", "how", "i", "if", "in", "into", "is", "it", "of",
    "on", "or", "she", "that", "the", "then", "they", "this", "to", "was",
    "we", "went", "were", "what", "when", "where", "who", "with", "you",
})


def strip_punctuation(text: str) -> str:
    """Remove every character whose Unicode category starts with P."""
    return "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))


def stem_fixpoint(token: str) -> str:
    """Apply the stemmer until the token stops changing (always terminates)."""
    prev = token
    while True:
        cur = porter_stem(prev)
        if cur == prev:
            return cur
        prev = cur


# Distinct words the memo keeps, 3-4 MB when full. A synthetic stream of
# 4,800 inserts holds about 13,000 distinct words, most of them one-off
# value tokens such as "opal928".
WORD_MEMO_SIZE = 1 << 14


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def _word(word: str) -> tuple[str, str]:
    """(punctuation-stripped token, its fixed-point stem) of one lowercase word."""
    token = strip_punctuation(word)
    # most words need no stripping or stemming: keep one string, not three
    token = word if token == word else token
    stem = stem_fixpoint(token) if token else ""
    return token, token if stem == token else stem


def raw_tokens(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace. No stemming."""
    return [token for token, _ in map(_word, text.lower().split()) if token]


def metric_tokens(text: str) -> list[str]:
    """Normalization used by scoring: stopwords kept, stems to fixed point."""
    return [stem for _, stem in map(_word, text.lower().split()) if stem]


def index_tokens(text: str) -> list[str]:
    """Normalization used by lexical indexes: stopwords dropped, then stemmed."""
    return [stem for token, stem in map(_word, text.lower().split())
            if stem and token not in STOPWORDS]


def split_sentences(text: str) -> list[str]:
    """Split on ., ! and ? keeping the terminator. Whitespace-trimmed, no empties."""
    sentences = []
    buf = []
    for ch in text:
        buf.append(ch)
        if ch in ".!?":
            sentence = "".join(buf).strip()
            if sentence:
                sentences.append(sentence)
            buf = []
    tail = "".join(buf).strip()
    if tail:
        sentences.append(tail)
    return sentences


# Word -> variant pairs used by the deterministic paraphrase template and by
# the synthetic workload's paraphrased queries. Pairs are chosen so the two
# sides stem to DIFFERENT tokens (no lexical-index overlap) while sharing
# most character trigrams (high mock-embedding similarity). The tests verify
# both properties for every entry.
SYNONYMS: dict[str, str] = {
    "color": "colour",
    "flavor": "flavour",
    "honor": "honour",
    "labor": "labour",
    "harbor": "harbour",
    "armor": "armour",
    "center": "centre",
    "meter": "metre",
    "fiber": "fibre",
    "theater": "theatre",
    "neighbor": "neighbour",
    "rumor": "rumour",
    "vapor": "vapour",
    "tumor": "tumour",
    "odor": "odour",
    "humor": "humour",
}

# The reverse direction, so paraphrasing maps variants back as well.
SYNONYMS_BIDIRECTIONAL: dict[str, str] = {
    **SYNONYMS,
    **{v: k for k, v in SYNONYMS.items()},
}


def apply_synonyms(text: str, table: dict[str, str] | None = None) -> str:
    """Replace whole words found in the table; casing/punctuation elsewhere kept."""
    table = SYNONYMS_BIDIRECTIONAL if table is None else table
    out = []
    for word in text.split():
        bare = _word(word.lower())[0]
        if bare in table:
            replacement = table[bare]
            # re-attach trailing punctuation of the original word
            suffix = ""
            while word and unicodedata.category(word[-1]).startswith("P"):
                suffix = word[-1] + suffix
                word = word[:-1]
            out.append(replacement + suffix)
        else:
            out.append(word)
    return " ".join(out)
