"""Stream model: interleaved insert/retrieve request sequences.

A stream is a flat, timestamp-ordered sequence of requests. Inserts carry
conversation turns; retrieves carry queries with gold answers. Causality is
purely an ordering property: a retrieve placed at timestamp T may observe
only inserts with strictly earlier timestamps (ties are NOT visible — the
stores enforce the same rule again with a visibility filter).

Timestamps are integer microseconds since the epoch in [TS_MIN, TS_END),
the years 1 to 9999: each prints as an ISO-8601 date, fits the stores'
int64 column and stays below their free-row mark, TS_END. Synthetic
workloads use logical ticks (request index * 1 second). Equal-timestamp
requests are ordered (inserts first, then retrieves), then by (session_id,
turn_index).

Validation findings are data, not exceptions: validate_stream returns the
list of every violation it can find rather than stopping at the first, and
an empty list for a valid stream.

Wire format: one JSON object per line, UTF-8. ``read_stream_file`` skips a
byte order mark at the start of the file, strips each line and skips blank
ones; a malformed line raises SchemaError naming its physical line number,
blank lines counted, and so does a line that is not UTF-8. A payload's text
fields (context, session_id, speaker, query, gold_answer, query_id,
category) must be strings, speaker may be null, and any other value is a
malformed line. The clock fields (seq, ts_us and an insert's turn_index)
must be JSON integers: a bool, a float (2.0 and NaN included) or a string
is a malformed line, never truncated or converted, because a truncated
timestamp can change which inserts a retrieve may see.
``line_to_request`` first decodes a line with one ``raw_decode`` call and
takes the value only when it spans the whole line. Any other input
(surrounding whitespace, trailing data, a byte order mark, invalid JSON,
bytes) goes through ``json.loads``, which either accepts it or raises the
error it always has, so the fast path never changes what a line parses to
or the message a bad line gets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import DanglingEvidence, MissingTimestamp, SchemaError

KIND_INSERT = "insert"
KIND_RETRIEVE = "retrieve"

TICK_US = 1_000_000  # one logical tick = one second
TS_MIN = -62_135_596_800_000_000  # 0001-01-01T00:00:00Z
TS_END = 253_402_300_800_000_000  # 10000-01-01T00:00:00Z


def logical_tick(index: int) -> int:
    return index * TICK_US


def _not_a_string(payload, *names: str) -> TypeError:
    """The error for the first of ``names`` whose value on ``payload`` is not a str.

    Called only once a payload's own check has failed, so an optional field
    that holds None is never reached before the field that failed.
    """
    name = next(name for name in names if not isinstance(getattr(payload, name), str))
    return TypeError(f"{name} must be a string, got {type(getattr(payload, name)).__name__}")


@dataclass(frozen=True, slots=True)
class InsertPayload:
    context: str
    session_id: str
    speaker: Optional[str] = None
    turn_index: int = 0

    def __post_init__(self):
        if not (isinstance(self.context, str) and isinstance(self.session_id, str)
                and (self.speaker is None or isinstance(self.speaker, str))):
            raise _not_a_string(self, "context", "session_id", "speaker")
        if not self.context.strip():
            raise ValueError("insert context must be non-empty after trimming")
        if not self.session_id:
            raise ValueError("insert session_id must be non-empty")
        if self.turn_index < 0:
            raise ValueError("turn_index must be >= 0")


@dataclass(frozen=True, slots=True)
class RetrievePayload:
    query: str
    gold_answer: str
    query_id: str
    category: str = "unknown"
    session_id: str = ""

    def __post_init__(self):
        if not (isinstance(self.query, str) and isinstance(self.gold_answer, str)
                and isinstance(self.query_id, str) and isinstance(self.category, str)
                and isinstance(self.session_id, str)):
            raise _not_a_string(self, "query", "gold_answer", "query_id", "category",
                                "session_id")
        if not self.query.strip():
            raise ValueError("query must be non-empty after trimming")
        if not self.query_id:
            raise ValueError("query_id must be non-empty")
        if not self.gold_answer and self.category != "abstention":
            raise ValueError("empty gold_answer is only legal for category='abstention'")


Payload = Union[InsertPayload, RetrievePayload]


@dataclass(frozen=True, slots=True)
class Request:
    seq: int
    ts: int  # microseconds since epoch
    kind: str
    payload: Payload


@dataclass(frozen=True)
class StreamManifest:
    requests: tuple[Request, ...]


# ---------------------------------------------------------------------------
# Inputs to the serializer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Turn:
    text: str
    ts: Optional[int] = None
    speaker: Optional[str] = None
    turn_index: Optional[int] = None  # defaults to its position in the session


@dataclass(frozen=True)
class SessionTurns:
    session_id: str
    turns: tuple[Turn, ...]
    base_ts: Optional[int] = None  # fallback clock: base + turn_index ticks


@dataclass(frozen=True)
class AfterEvidence:
    """Place the query immediately after its latest evidence insert."""

    evidence: tuple[tuple[str, int], ...]  # (session_id, turn_index) pairs


@dataclass(frozen=True)
class AfterCount:
    """Place the query right after the nth insert (1-based, clamped)."""

    count: int


Trigger = Union[AfterEvidence, AfterCount]


@dataclass(frozen=True)
class QuerySpec:
    payload: RetrievePayload
    trigger: Trigger


# ---------------------------------------------------------------------------
# Serialization into a causal stream
# ---------------------------------------------------------------------------

def serialize_stream(sessions: Iterable[SessionTurns],
                     queries: Iterable[QuerySpec] = ()) -> StreamManifest:
    """Lay sessions and triggered queries out as one causal request stream.

    Each query's trigger resolves to a timestamp strictly greater than its
    anchor insert's, so evidence is always strictly earlier than the query
    that needs it. Raises MissingTimestamp, DanglingEvidence, or SchemaError
    on malformed input.
    """
    inserts: list[tuple[int, str, int, InsertPayload]] = []  # (ts, sid, ti, payload)
    seen_keys: set[tuple[str, int]] = set()
    for session in sessions:
        for position, turn in enumerate(session.turns):
            turn_index = position if turn.turn_index is None else turn.turn_index
            ts = turn.ts
            if ts is None:
                if session.base_ts is None:
                    raise MissingTimestamp(
                        f"turn {turn_index} of session {session.session_id!r} has no "
                        "timestamp and the session has no base_ts"
                    )
                ts = session.base_ts + turn_index * TICK_US
            key = (session.session_id, turn_index)
            if key in seen_keys:
                raise SchemaError(f"duplicate turn key {key}")
            seen_keys.add(key)
            inserts.append((ts, session.session_id, turn_index,
                            InsertPayload(context=turn.text,
                                          session_id=session.session_id,
                                          speaker=turn.speaker,
                                          turn_index=turn_index)))

    inserts.sort(key=lambda item: (item[0], item[1], item[2]))
    by_key = {(sid, ti): ts for ts, sid, ti, _ in inserts}

    resolved: list[tuple[int, RetrievePayload]] = []
    for spec in queries:
        trigger = spec.trigger
        if isinstance(trigger, AfterEvidence):
            if not trigger.evidence:
                raise DanglingEvidence(f"query {spec.payload.query_id!r} has no evidence")
            try:
                anchor_ts = max(by_key[key] for key in trigger.evidence)
            except KeyError as exc:
                raise DanglingEvidence(
                    f"query {spec.payload.query_id!r} references missing turn {exc.args[0]}"
                ) from exc
        elif isinstance(trigger, AfterCount):
            if not inserts:
                raise DanglingEvidence("count trigger on a stream with no inserts")
            idx = min(max(1, trigger.count), len(inserts))
            anchor_ts = inserts[idx - 1][0]
        else:
            raise SchemaError(f"unknown trigger type: {type(trigger).__name__}")
        resolved.append((anchor_ts + 1, spec.payload))

    merged: list[tuple[tuple, str, int, Payload]] = []
    for ts, sid, ti, payload in inserts:
        merged.append(((ts, 0, sid, ti), KIND_INSERT, ts, payload))
    for ts, payload in resolved:
        merged.append(((ts, 1, payload.query_id, 0), KIND_RETRIEVE, ts, payload))
    merged.sort(key=lambda item: item[0])

    requests = tuple(
        Request(seq=i, ts=ts, kind=kind, payload=payload)
        for i, (_, kind, ts, payload) in enumerate(merged)
    )
    return StreamManifest(requests=requests)


# ---------------------------------------------------------------------------
# Validation (violations are data)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    index: int
    kind: str
    detail: str


def validate_stream(manifest: StreamManifest) -> list[Violation]:
    """Every ordering and shape violation in ``manifest``, in request order."""
    violations: list[Violation] = []
    seen_seq: set[int] = set()
    prev_ts: Optional[int] = None
    prev_seq: Optional[int] = None
    for i, request in enumerate(manifest.requests):
        if request.seq in seen_seq:
            violations.append(Violation(i, "seq_duplicate", f"seq {request.seq} repeats"))
        seen_seq.add(request.seq)
        if prev_seq is not None and request.seq <= prev_seq:
            violations.append(Violation(i, "seq_order", f"seq {request.seq} after {prev_seq}"))
        prev_seq = request.seq
        ts = request.ts
        if not TS_MIN <= ts < TS_END:
            violations.append(Violation(i, "ts_range", f"ts {ts} outside [{TS_MIN}, {TS_END})"))
        if prev_ts is not None and ts < prev_ts:
            violations.append(Violation(i, "ts_order", f"ts {ts} after {prev_ts}"))
        prev_ts = ts
        expected = InsertPayload if request.kind == KIND_INSERT else (
            RetrievePayload if request.kind == KIND_RETRIEVE else None)
        if expected is None:
            violations.append(Violation(i, "kind_unknown", f"kind {request.kind!r}"))
        elif not isinstance(request.payload, expected):
            violations.append(Violation(
                i, "payload_mismatch",
                f"kind {request.kind} with {type(request.payload).__name__}"))
    return violations


# ---------------------------------------------------------------------------
# Wire format (line-delimited JSON, UTF-8)
# ---------------------------------------------------------------------------

def request_to_line(request: Request) -> str:
    row: dict = {"seq": request.seq, "ts_us": request.ts, "kind": request.kind}
    payload = request.payload
    if isinstance(payload, InsertPayload):
        row["session_id"] = payload.session_id
        row["turn_index"] = payload.turn_index
        row["context"] = payload.context
        if payload.speaker is not None:
            row["speaker"] = payload.speaker
    else:
        row["session_id"] = payload.session_id
        row["query"] = payload.query
        row["gold_answer"] = payload.gold_answer
        row["category"] = payload.category
        row["query_id"] = payload.query_id
    return json.dumps(row, sort_keys=True, ensure_ascii=False)


# json.loads runs this same C scan between two whitespace regexes, which a
# stripped line does not need (see "Wire format" above)
_raw_decode = json.JSONDecoder().raw_decode


def _not_an_integer(name: str, value) -> str:
    return f"{name} must be an integer, got {type(value).__name__}"


def line_to_request(line: str, lineno: int = 0) -> Request:
    try:
        row, end = _raw_decode(line)
        whole = end == len(line)
    except (TypeError, ValueError):  # not a str, or not JSON at its first character
        whole = False
    if not whole:  # json.loads keeps its value or its message for the rest
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {lineno}: not valid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise SchemaError(f"line {lineno}: expected an object")
    try:
        seq = row["seq"]
        ts = row["ts_us"]
        kind = row["kind"]
    except KeyError as exc:
        raise SchemaError(f"line {lineno}: missing seq, ts_us or kind") from exc
    # exactly int: bool is an int subclass, and int() would truncate a float
    if type(seq) is not int:
        raise SchemaError(f"line {lineno}: {_not_an_integer('seq', seq)}")
    if type(ts) is not int:
        raise SchemaError(f"line {lineno}: {_not_an_integer('ts_us', ts)}")
    # positional arguments in field order: keywords cost a third more per call
    try:
        if kind == KIND_INSERT:
            turn_index = row.get("turn_index", 0)
            if type(turn_index) is not int:
                raise TypeError(_not_an_integer("turn_index", turn_index))
            payload: Payload = InsertPayload(row["context"], row["session_id"],
                                             row.get("speaker"), turn_index)
        elif kind == KIND_RETRIEVE:
            payload = RetrievePayload(row["query"], row.get("gold_answer", ""),
                                      row["query_id"], row.get("category", "unknown"),
                                      row.get("session_id", ""))
        else:
            raise SchemaError(f"line {lineno}: unknown kind {kind!r}")
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"line {lineno}: bad {kind} payload: {exc}") from exc
    return Request(seq, ts, kind, payload)


def write_atomic(path: str | os.PathLike, lines: Iterable[str]):
    """Write ``lines`` (each newline-terminated) via a temp file and ``os.replace``.

    Readers see the old file or the new one, never a partial write; the
    temp file is removed when producing or writing the lines fails.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_stream_file(manifest: StreamManifest, path: str):
    write_atomic(path, (request_to_line(request) for request in manifest.requests))


def read_stream_file(path: str) -> StreamManifest:
    requests = []
    try:
        with open(path, encoding="utf-8-sig") as fh:  # skips a leading byte order mark
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                requests.append(line_to_request(line, lineno))
    except UnicodeDecodeError:
        # text mode decodes chunk-wise, so its error cannot name the line;
        # bytes.splitlines ends lines where text mode does (LF, CRLF, CR)
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SchemaError(f"line {lineno}: not valid UTF-8: {exc}") from exc
        raise
    return StreamManifest(requests=tuple(requests))
