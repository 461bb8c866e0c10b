"""Tokenization, stopword list, sentence splitting, synonym table."""

from hypothesis import example, given
from hypothesis import strategies as st

from memstream import text as text_module
from memstream.text import (
    STOPWORDS,
    SYNONYMS,
    SYNONYMS_BIDIRECTIONAL,
    apply_synonyms,
    index_tokens,
    metric_tokens,
    raw_tokens,
    split_sentences,
    stem_fixpoint,
    strip_punctuation,
)


def test_stopword_list_is_exactly_the_fixed_fifty():
    assert len(STOPWORDS) == 50
    for word in ("the", "a", "is", "of", "and", "you", "went", "where"):
        assert word in STOPWORDS
    for word in ("cat", "memory", "not", "never", "colour"):
        assert word not in STOPWORDS


def test_metric_tokens_keep_stopwords():
    assert metric_tokens("the cat is here") == ["the", "cat", "i", "here"]


def test_index_tokens_drop_stopwords_before_stemming():
    # "this" would stem to "thi" but is dropped as a stopword first;
    # "running" survives and stems
    assert index_tokens("this running cat") == ["run", "cat"]
    # stopword match is on the raw lowercase token: "meetings" is not one
    assert index_tokens("Meetings, meetings!") == ["meet", "meet"]


def test_strip_punctuation_unicode_categories():
    # ellipsis, curly quotes and em-dash are all category P*
    assert strip_punctuation("don't stop-me (now)…") == "dont stopme now"
    assert strip_punctuation("“quoted” —dash") == "quoted dash"
    assert strip_punctuation("keep digits 3.14") == "keep digits 314"


def test_raw_tokens():
    assert raw_tokens("The CAT sat.") == ["the", "cat", "sat"]
    assert raw_tokens("") == []


def test_stem_fixpoint_reaches_stability():
    assert stem_fixpoint("exceed") == "exc"       # excee -> exce -> exc
    assert stem_fixpoint("exc") == "exc"
    assert stem_fixpoint("running") == "run"


def test_split_sentences():
    assert split_sentences("One. Two! Three? four") == [
        "One.", "Two!", "Three?", "four"]
    assert split_sentences("   ") == []
    assert split_sentences("no terminator") == ["no terminator"]


def loop_split_sentences(text):
    """The character loop split_sentences replaced, kept as its reference."""
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


@example("")
@example("...")
@example(" a.\n\nb! \u2003c? d\n")
@example("tail\n")
@given(st.text(alphabet=st.one_of(st.sampled_from(".!? \t\n\u00a0\u2003\u2026\u3002"),
                                  st.characters()), max_size=40))
def test_split_sentences_matches_character_loop(text):
    assert split_sentences(text) == loop_split_sentences(text)


def test_synonym_pairs_are_stem_disjoint_but_trigram_close():
    def trigrams(word):
        padded = f"  {word} "
        return {padded[i:i + 3] for i in range(len(padded) - 2)}

    for left, right in SYNONYMS.items():
        # no lexical-index overlap: the index must miss the paraphrase
        assert stem_fixpoint(left) != stem_fixpoint(right), (left, right)
        # but enough shared character trigrams that hashed embeddings of
        # full sentences stay close (sentence-level bound checked in the
        # gateway tests)
        shared = trigrams(left) & trigrams(right)
        assert len(shared) >= 2, (left, right)


def test_synonyms_bidirectional_closure():
    for left, right in SYNONYMS.items():
        assert SYNONYMS_BIDIRECTIONAL[left] == right
        assert SYNONYMS_BIDIRECTIONAL[right] == left


def test_apply_synonyms_preserves_trailing_punctuation():
    assert apply_synonyms("the color of it.") == "the colour of it."
    assert apply_synonyms("Harbour, ahoy!") == "harbor, ahoy!"
    assert apply_synonyms("no matches here") == "no matches here"


def test_apply_synonyms_round_trip():
    text = "the color of the harbor is red."
    once = apply_synonyms(text)
    assert once == "the colour of the harbour is red."
    assert apply_synonyms(once) == "the color of the harbor is red."


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz .,!?", max_size=60))
def test_token_pipelines_are_idempotent(text):
    toks = metric_tokens(text)
    assert metric_tokens(" ".join(toks)) == toks
    idx = index_tokens(text)
    # re-running the index pipeline may drop more (a stem can equal a
    # stopword), but it must reach a fixed point after one extra pass
    again = index_tokens(" ".join(idx))
    assert index_tokens(" ".join(again)) == again


@given(st.text(max_size=80))
def test_split_sentences_loses_no_content(text):
    joined = "".join(split_sentences(text))
    assert "".join(joined.split()) == "".join(text.split())


# ----------------------------------------------------------------------
# the word memo against the strip-the-whole-string pipeline it replaced
# ----------------------------------------------------------------------

def ref_raw_tokens(text):
    return strip_punctuation(text.lower()).split()


def ref_metric_tokens(text):
    return [stem for stem in map(stem_fixpoint, ref_raw_tokens(text)) if stem]


def ref_index_tokens(text):
    return [stem for stem in (stem_fixpoint(tok) for tok in ref_raw_tokens(text)
                              if tok not in STOPWORDS) if stem]


# letters, digits, stopwords, Unicode quotes and dashes, whitespace of
# several kinds and words made only of punctuation
WORDS = st.sampled_from((
    "The", "running", "exceeded", "harbour", "is", "and", "A", "it's", "3.14",
    "42", "don’t", "“quoted”", "co-op", "—", "...", "!?", "«»", "‘", "Σσς",
    "İstanbul", "caf\u00e9", "x\u2013y", "\u00bf", "meetings,",
))
TEXTS = st.lists(st.one_of(WORDS, st.text(max_size=8)), max_size=12).flatmap(
    lambda words: st.lists(st.sampled_from((" ", "  ", "\t", "\n", "\u00a0", "\u2003")),
                           min_size=len(words), max_size=len(words)).map(
        lambda gaps: "".join(w + g for w, g in zip(words, gaps))))


@given(TEXTS)
def test_memoized_pipelines_match_the_whole_string_reference(text):
    for _ in range(2):  # the second pass is served from the memo
        assert raw_tokens(text) == ref_raw_tokens(text)
        assert metric_tokens(text) == ref_metric_tokens(text)
        assert index_tokens(text) == ref_index_tokens(text)


@given(st.text(max_size=40))
def test_memoized_pipelines_match_the_reference_on_any_text(text):
    assert raw_tokens(text) == ref_raw_tokens(text)
    assert metric_tokens(text) == ref_metric_tokens(text)
    assert index_tokens(text) == ref_index_tokens(text)


def test_memo_misses_call_the_module_stem_fixpoint(monkeypatch):
    # a wrapper on text.stem_fixpoint sees every stem the memo computes
    text_module._word.cache_clear()
    seen = []
    original = text_module.stem_fixpoint

    def counted(token):
        seen.append(token)
        return original(token)

    monkeypatch.setattr(text_module, "stem_fixpoint", counted)
    assert index_tokens("Running running the ...") == ["run", "run"]
    assert metric_tokens("running the") == ["run", "the"]
    assert seen == ["running", "the"]  # each distinct word once; "..." never
    assert text_module._word.cache_info().maxsize == text_module.WORD_MEMO_SIZE
