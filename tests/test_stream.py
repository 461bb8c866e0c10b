"""Stream serialization, validation, wire format."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memstream.errors import (
    DanglingEvidence,
    MissingTimestamp,
    SchemaError,
)
from memstream.stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    TICK_US,
    TS_END,
    TS_MIN,
    AfterCount,
    AfterEvidence,
    InsertPayload,
    QuerySpec,
    Request,
    RetrievePayload,
    SessionTurns,
    StreamManifest,
    Turn,
    Violation,
    line_to_request,
    logical_tick,
    read_stream_file,
    request_to_line,
    serialize_stream,
    validate_stream,
    write_stream_file,
)
from memstream.stores.base import FREE_TS
from reference import ref_line_to_request


def session(sid="s0", n=4, base=0):
    return SessionTurns(
        session_id=sid,
        turns=tuple(Turn(text=f"turn {sid} {i}.") for i in range(n)),
        base_ts=base,
    )


def query(qid="q0", evidence=((("s0", 1)),), gold="gold"):
    return QuerySpec(
        payload=RetrievePayload(query=f"question {qid}", gold_answer=gold,
                                query_id=qid),
        trigger=AfterEvidence(evidence=tuple(evidence)),
    )


def test_logical_tick():
    assert logical_tick(0) == 0
    assert logical_tick(3) == 3 * TICK_US


def test_serialize_orders_and_places_queries_after_evidence():
    manifest = serialize_stream([session("s0", 4)],
                                [query("q0", evidence=[("s0", 1)])])
    assert validate_stream(manifest) == []
    kinds = [r.kind for r in manifest.requests]
    assert kinds == [KIND_INSERT, KIND_INSERT, KIND_RETRIEVE,
                     KIND_INSERT, KIND_INSERT]
    q = manifest.requests[2]
    anchor = manifest.requests[1]
    assert q.ts == anchor.ts + 1  # strictly after the latest evidence turn
    assert [r.seq for r in manifest.requests] == [0, 1, 2, 3, 4]


def test_serialize_multi_evidence_uses_latest():
    manifest = serialize_stream(
        [session("s0", 5)],
        [query("q0", evidence=[("s0", 0), ("s0", 3)])])
    position = [r.kind for r in manifest.requests].index(KIND_RETRIEVE)
    assert position == 4  # after turn 3, before turn 4


def test_serialize_count_triggers():
    queries = [
        QuerySpec(RetrievePayload("q two", "g", "q2"), AfterCount(2)),
        QuerySpec(RetrievePayload("q count", "g", "qc"), AfterCount(999)),
    ]
    manifest = serialize_stream([session("s0", 4)], queries)
    assert validate_stream(manifest) == []
    by_id = {r.payload.query_id: i for i, r in enumerate(manifest.requests)
             if r.kind == KIND_RETRIEVE}
    assert by_id["q2"] == 2       # after 2 of 4 inserts
    assert by_id["qc"] == 5       # clamped to after the last insert


def test_serialize_interleaves_sessions_by_timestamp():
    early = SessionTurns("a", (Turn("a0."), Turn("a1.")), base_ts=0)
    late = SessionTurns("b", (Turn("b0."), Turn("b1.")), base_ts=TICK_US // 2)
    manifest = serialize_stream([early, late])
    sids = [r.payload.session_id for r in manifest.requests]
    assert sids == ["a", "b", "a", "b"]
    assert validate_stream(manifest) == []


def test_serialize_error_cases():
    with pytest.raises(MissingTimestamp):
        serialize_stream([SessionTurns("s", (Turn("x."),), base_ts=None)])
    with pytest.raises(SchemaError):
        serialize_stream([SessionTurns(
            "s", (Turn("x.", turn_index=1), Turn("y.", turn_index=1)),
            base_ts=0)])
    with pytest.raises(DanglingEvidence):
        serialize_stream([session()], [query("q0", evidence=[("nope", 9)])])
    with pytest.raises(DanglingEvidence):
        serialize_stream([session()], [query("q0", evidence=[])])
    with pytest.raises(DanglingEvidence):
        serialize_stream([], [QuerySpec(
            RetrievePayload("q", "g", "q0"), AfterCount(1))])


def test_payload_validation():
    with pytest.raises(ValueError):
        InsertPayload(context="   ", session_id="s")
    with pytest.raises(ValueError):
        InsertPayload(context="x", session_id="")
    with pytest.raises(ValueError):
        RetrievePayload(query="q", gold_answer="", query_id="q0")
    # empty gold is legal only for abstention
    RetrievePayload(query="q", gold_answer="", query_id="q0",
                    category="abstention")


def test_validate_reports_all_violations():
    good = InsertPayload(context="x.", session_id="s")
    bad = StreamManifest(requests=(
        Request(0, 100, KIND_INSERT, good),
        Request(0, 50, KIND_INSERT, good),                      # dup seq + ts back
        Request(1, 60, "mystery", good),                        # unknown kind
        Request(2, 70, KIND_RETRIEVE, good),                    # payload mismatch
    ))
    violations = validate_stream(bad)
    assert violations
    kinds = sorted(v.kind for v in violations)
    # the repeated seq trips both the duplicate and the ordering check
    assert kinds == ["kind_unknown", "payload_mismatch", "seq_duplicate",
                     "seq_order", "ts_order"]


@pytest.mark.parametrize("ts, ok", [
    (-62_135_596_800_000_000, True), (253_402_300_799_999_999, True),
    (253_402_300_800_000_000, False),  # year 10000, the stores' free-row mark
    (-62_135_596_800_000_001, False),  # before year 1
    (2 ** 63, False), (-2 ** 63, False),  # int64 ends, far outside
])
def test_validate_keeps_timestamps_inside_int64_and_below_the_free_row_mark(ts, ok):
    # years 1-9999, what a bundle line's ISO stamp can print
    assert (TS_MIN, TS_END) == (-62_135_596_800_000_000, FREE_TS)
    payload = InsertPayload(context="x.", session_id="s")
    violations = validate_stream(StreamManifest(requests=(Request(0, ts, KIND_INSERT, payload),)))
    if ok:
        assert violations == []
    else:
        assert violations == [Violation(
            0, "ts_range", f"ts {ts} outside [-62135596800000000, 253402300800000000)")]


def test_wire_format_round_trip(tmp_path):
    manifest = serialize_stream(
        [session("s0", 3)],
        [query("q0", [("s0", 1)]),
         QuerySpec(RetrievePayload("how", "", "q1", category="abstention",
                                   session_id="s0"),
                   AfterCount(3))])
    path = tmp_path / "stream.jsonl"
    write_stream_file(manifest, str(path))
    back = read_stream_file(str(path))
    assert back.requests == manifest.requests


def test_read_stream_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(SchemaError):
        read_stream_file(str(path))
    path.write_text('{"seq": 0, "ts_us": 1}\n')
    with pytest.raises(SchemaError):
        read_stream_file(str(path))
    path.write_text('{"seq": 0, "ts_us": 1, "kind": "martian"}\n')
    with pytest.raises(SchemaError):
        read_stream_file(str(path))


INSERT_ROW = {"context": "the harbor is red.", "kind": "insert", "seq": 3, "session_id": "s0",
              "speaker": "narrator", "ts_us": 2000000, "turn_index": 2}
RETRIEVE_ROW = {"category": "static", "gold_answer": "red", "kind": "retrieve",
                "query": "what color is the harbor", "query_id": "q0", "seq": 4,
                "session_id": "", "ts_us": 2000001}


def row(base, **changes):
    """``base`` with ``changes`` applied (a None value drops the key), as one line."""
    out = {key: value for key, value in {**base, **changes}.items() if value is not None}
    return json.dumps(out, sort_keys=True, ensure_ascii=False)


INSERT = row(INSERT_ROW)
RETRIEVE = row(RETRIEVE_ROW)
PARSER_CORPUS = [
    # valid rows, with and without the optional keys
    INSERT,
    RETRIEVE,
    row(INSERT_ROW, speaker=None, turn_index=None),
    row(RETRIEVE_ROW, gold_answer=None, category="abstention", session_id=None),
    row(RETRIEVE_ROW, category=None),
    json.dumps(INSERT_ROW, indent=1).replace("\n", " "),
    # whitespace around an object, passed in directly
    f"  {INSERT}  ",
    f"\t{RETRIEVE}",
    f"{INSERT} ",
    # trailing data and two objects on one line
    f"{INSERT} x",
    f"{INSERT}{RETRIEVE}",
    f"{INSERT} {RETRIEVE}",
    f"{INSERT},",
    # a byte order mark
    "\ufeff" + INSERT,
    # not an object, or not JSON
    "[]",
    '"x"',
    "null",
    "3",
    "",
    " ",
    "{not json",
    INSERT[:-1],
    "{'seq': 0}",
    # non-finite numbers and a raw U+2028 inside a string
    INSERT.replace('"seq": 3', '"seq": NaN'),
    INSERT.replace('"turn_index": 2', '"turn_index": NaN'),
    INSERT.replace('"ts_us": 2000000', '"ts_us": Infinity'),
    row(INSERT_ROW, context="the harbor\u2028is red."),
    # missing and ill-typed keys
    row(INSERT_ROW, seq=None),
    row(INSERT_ROW, ts_us=None),
    row(INSERT_ROW, kind=None),
    row(INSERT_ROW, context=None),
    row(INSERT_ROW, session_id=None),
    row(RETRIEVE_ROW, query=None),
    row(RETRIEVE_ROW, query_id=None),
    row(INSERT_ROW, seq="3"),
    row(INSERT_ROW, seq="three"),
    row(INSERT_ROW, seq=[3]),
    row(INSERT_ROW, ts_us=2.5),
    row(INSERT_ROW, seq=True),
    row(INSERT_ROW, turn_index=2.9),
    row(INSERT_ROW, ts_us="2000000"),
    row(INSERT_ROW, turn_index="two"),
    row(INSERT_ROW, turn_index=-1),
    row(INSERT_ROW, context="   "),
    row(INSERT_ROW, session_id=""),
    row(RETRIEVE_ROW, gold_answer=""),
    row(RETRIEVE_ROW, query_id=""),
    row(INSERT_ROW, context=5),
    row(INSERT_ROW, session_id=7),
    row(RETRIEVE_ROW, query=["what"]),
    # every other text field holding something else, null included
    row(INSERT_ROW, speaker=5),
    INSERT.replace('"speaker": "narrator"', '"speaker": null'),
    INSERT.replace('"context": "the harbor is red."', '"context": null'),
    row(INSERT_ROW, context={"text": "red"}),
    row(INSERT_ROW, session_id=True),
    row(RETRIEVE_ROW, gold_answer=5),
    row(RETRIEVE_ROW, gold_answer=0.5, category="abstention"),
    RETRIEVE.replace('"gold_answer": "red"', '"gold_answer": null'),
    row(RETRIEVE_ROW, query_id=7),
    row(RETRIEVE_ROW, category=3),
    row(RETRIEVE_ROW, session_id=7),
    # a type error and a missing key: the missing key is named
    row(RETRIEVE_ROW, gold_answer=5, query_id=None),
    # an unknown kind
    row(INSERT_ROW, kind="martian"),
    row(INSERT_ROW, kind=7),
    # not a str
    INSERT.encode("utf-8"),
    bytearray(RETRIEVE.encode("utf-8")),
    ("  " + INSERT).encode("utf-8"),
    b"\xff",
    None,
    7,
]


def parse_outcome(parse, line):
    """What ``parse`` makes of ``line``: its Request, or its error's type and text."""
    try:
        request = parse(line, 12)
    except Exception as exc:  # the type is part of the outcome
        return type(exc).__name__, str(exc)
    return "Request", request, repr(request)


@pytest.mark.parametrize("line", PARSER_CORPUS, ids=range(len(PARSER_CORPUS)))
def test_line_parser_matches_reference(line):
    assert parse_outcome(line_to_request, line) == parse_outcome(ref_line_to_request, line)


# a clock value the old int() coercion truncated or converted silently
NON_INTEGER_CLOCKS = [
    ("ts_us", 2.5, "float"),
    ("ts_us", 2000000.0, "float"),
    ("ts_us", "2000000", "str"),
    ("seq", True, "bool"),
    ("seq", 3.0, "float"),
    ("turn_index", 2.9, "float"),
    ("turn_index", False, "bool"),
    ("turn_index", "2", "str"),
]


@pytest.mark.parametrize("field,value,type_name", NON_INTEGER_CLOCKS,
                         ids=[f"{f}={v!r}" for f, v, _ in NON_INTEGER_CLOCKS])
def test_a_clock_field_that_is_not_an_integer_fails_its_line(field, value, type_name):
    line = row(INSERT_ROW, **{field: value})
    payload = "bad insert payload: " if field == "turn_index" else ""
    with pytest.raises(SchemaError) as err:
        line_to_request(line, 12)
    assert str(err.value) == f"line 12: {payload}{field} must be an integer, got {type_name}"


def test_crlf_endings_and_blank_lines_read_like_lf(tmp_path):
    manifest = serialize_stream([session("s0", 3)], [query("q0", [("s0", 1)])])
    lines = [line.encode("utf-8") for line in map(request_to_line, manifest.requests)]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes(b"".join(line + b"\n" for line in lines))
    crlf.write_bytes(b"\r\n" + b"\r\n\r\n".join(lines) + b"\r\n  \r\n")
    assert read_stream_file(str(crlf)) == read_stream_file(str(lf))
    assert read_stream_file(str(lf)).requests == manifest.requests


def test_a_leading_byte_order_mark_reads_like_its_absence(tmp_path):
    manifest = serialize_stream([session("s0", 3)], [query("q0", [("s0", 1)])])
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
    write_stream_file(manifest, str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_stream_file(str(marked)) == read_stream_file(str(plain))


@pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
def test_errors_name_the_physical_line_counting_blank_ones(tmp_path, ending):
    good = request_to_line(serialize_stream([session("s0", 1)]).requests[0]).encode("utf-8")
    path = tmp_path / "bad.jsonl"
    path.write_bytes(ending.join([good, b"", b"   ", good + b" x", good]) + ending)
    with pytest.raises(SchemaError, match=r"^line 4: not valid JSON: Extra data"):
        read_stream_file(str(path))


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_a_line_that_is_not_utf8_fails_naming_it(tmp_path, ending):
    # past the first chunk the text decoder reads, behind a byte order mark
    good = request_to_line(serialize_stream([session("s0", 1)]).requests[0]).encode("utf-8")
    bad = good.replace(b"turn", b"tu\xe9rn", 1)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + ending.join([good] * 400 + [b"", bad, good]) + ending)
    with pytest.raises(SchemaError, match=r"^line 402: not valid UTF-8: .* byte 0xe9"):
        read_stream_file(str(path))


@st.composite
def random_workload(draw):
    n_sessions = draw(st.integers(1, 4))
    sessions = []
    for s in range(n_sessions):
        n_turns = draw(st.integers(1, 6))
        base = draw(st.integers(0, 3)) * TICK_US
        sessions.append(SessionTurns(
            session_id=f"s{s}",
            turns=tuple(Turn(text=f"s{s} turn {i}.") for i in range(n_turns)),
            base_ts=base,
        ))
    keys = [(sess.session_id, i)
            for sess in sessions for i in range(len(sess.turns))]
    n_queries = draw(st.integers(0, 5))
    queries = []
    for q in range(n_queries):
        evidence = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3))
        queries.append(QuerySpec(
            RetrievePayload(f"question {q}", "gold", f"q{q}"),
            AfterEvidence(evidence=tuple(evidence))))
    return sessions, queries


@given(random_workload())
def test_round_trip_always_validates(workload):
    sessions, queries = workload
    manifest = serialize_stream(sessions, queries)
    assert validate_stream(manifest) == []
    # every query lands strictly after all of its evidence turns
    ts_of = {(r.payload.session_id, r.payload.turn_index): r.ts
             for r in manifest.requests if r.kind == KIND_INSERT}
    spec_by_id = {sp.payload.query_id: sp for sp in queries}
    for request in manifest.requests:
        if request.kind != KIND_RETRIEVE:
            continue
        spec = spec_by_id[request.payload.query_id]
        for key in spec.trigger.evidence:
            assert ts_of[key] < request.ts
