"""Dataset adapters and the synthetic fact-stream generator.

Three entry points produce StreamManifests:

* load_generic — files already in the native stream format;
* load_locomo — the upstream multi-session conversation corpus (schema
  documented on the loader);
* synth_workload — seeded fact streams with updates, distance-controlled
  needle queries, and optional paraphrased queries.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .errors import SchemaError
from .stream import (
    AfterCount,
    AfterEvidence,
    QuerySpec,
    RetrievePayload,
    SessionTurns,
    StreamManifest,
    TICK_US,
    Turn,
    logical_tick,
    read_stream_file,
    serialize_stream,
    validate_stream,
    write_atomic,
)
from .text import SYNONYMS, apply_synonyms


def load_generic(path: str | Path) -> StreamManifest:
    """Native stream format, parsed then validated."""
    manifest = read_stream_file(str(path))
    violations = validate_stream(manifest)
    if violations:
        first = violations[0]
        raise SchemaError(
            f"{path}: stream invalid ({len(violations)} violations; "
            f"first: [{first.kind}] index {first.index}: {first.detail})")
    return manifest


# ----------------------------------------------------------------------
# conversation corpus loader
# ----------------------------------------------------------------------
#
# Expected upstream shape: a JSON list of samples. Each sample:
#   {
#     "sample_id": "...",                     (optional; list index fallback)
#     "conversation": {
#        "speaker_a": "...", "speaker_b": "...",
#        "session_1": [ {"speaker": "...", "dia_id": "D1:3", "text": "..."} ],
#        "session_1_date_time": "1:56 pm on 8 May, 2023",
#        "session_2": [...], ...
#     },
#     "qa": [ {"question": "...", "answer": ..., "evidence": ["D1:3"],
#              "category": 2} ]
#   }
# Question categories map as below; unknown codes become "unknown".
# Each QA lands immediately after its latest evidence turn; QAs without
# evidence land after the sample's final turn. Empty answers are treated
# as abstention questions.

CATEGORY_NAMES = {
    1: "multi-hop",
    2: "temporal",
    3: "open-domain",
    4: "single-hop",
    5: "adversarial",
}

_DATE_FORMATS = (
    "%I:%M %p on %d %B, %Y",
    "%H:%M on %d %B, %Y",
    "%d %B, %Y",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)


def _parse_session_time(raw: str, path: str, key: str) -> int:
    text = raw.strip()
    for fmt in _DATE_FORMATS:
        try:
            parsed = datetime.strptime(text, fmt)
        except ValueError:
            continue
        return int(parsed.replace(tzinfo=timezone.utc).timestamp() * 1_000_000)
    raise SchemaError(f"{path}: cannot parse {key} value {raw!r}")


def _parse_dia_id(raw: str, path: str) -> tuple[int, int]:
    """'D3:17' -> (session 3, turn 17)."""
    try:
        left, right = raw.split(":", 1)
        if not left.lower().startswith("d"):
            raise ValueError
        return int(left[1:]), int(right)
    except (ValueError, AttributeError):
        raise SchemaError(f"{path}: malformed dialogue id {raw!r}") from None


def load_locomo(path: str | Path) -> StreamManifest:
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:  # not JSON, or not UTF-8 (which JSON text must be)
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a list of samples")

    sessions: list[SessionTurns] = []
    queries: list[QuerySpec] = []
    for sample_index, sample in enumerate(data):
        if not isinstance(sample, dict) or "conversation" not in sample:
            raise SchemaError(f"{path}: sample {sample_index} has no conversation")
        sample_id = str(sample.get("sample_id", sample_index))
        conversation = sample["conversation"]
        if not isinstance(conversation, dict):
            raise SchemaError(f"{path}: sample {sample_index} conversation is not a mapping")

        session_numbers = sorted(
            int(key.split("_", 1)[1])
            for key in conversation
            if key.startswith("session_") and key.split("_", 1)[1].isdigit()
        )
        if not session_numbers:
            raise SchemaError(f"{path}: sample {sample_id} has no sessions")

        last_turn: Optional[tuple[str, int]] = None
        for number in session_numbers:
            key = f"session_{number}"
            turns_raw = conversation[key]
            if not isinstance(turns_raw, list) or not turns_raw:
                raise SchemaError(f"{path}: {sample_id}/{key} is empty or not a list")
            time_key = f"{key}_date_time"
            if time_key not in conversation:
                raise SchemaError(f"{path}: {sample_id} missing {time_key}")
            base_ts = _parse_session_time(str(conversation[time_key]), path, time_key)
            session_id = f"{sample_id}/{key}"
            turns = []
            for position, turn in enumerate(turns_raw):
                if not isinstance(turn, dict) or "text" not in turn:
                    raise SchemaError(
                        f"{path}: {sample_id}/{key} turn {position} has no text")
                dia = turn.get("dia_id")
                turn_number = (_parse_dia_id(str(dia), path)[1]
                               if dia is not None else position)
                text = str(turn["text"]).strip()
                if not text:
                    raise SchemaError(
                        f"{path}: {sample_id}/{key} turn {position} text is empty")
                turns.append(Turn(
                    text=text,
                    ts=base_ts + position * TICK_US,
                    speaker=str(turn.get("speaker", "")) or None,
                    turn_index=turn_number,
                ))
                last_turn = (session_id, turn_number)
            sessions.append(SessionTurns(session_id=session_id, turns=tuple(turns)))

        turn_keys = {
            (f"{sample_id}/session_{n}", _parse_dia_id(str(t["dia_id"]), path)[1])
            for n in session_numbers
            for t in conversation[f"session_{n}"]
            if isinstance(t, dict) and t.get("dia_id") is not None
        }
        qas = sample.get("qa", [])
        if not isinstance(qas, list):
            raise SchemaError(f"{path}: {sample_id} qa is not a list")
        for qa_index, qa in enumerate(qas):
            if not isinstance(qa, dict) or "question" not in qa:
                raise SchemaError(f"{path}: {sample_id} qa {qa_index} has no question")
            question = qa["question"]
            question = "" if question is None else str(question).strip()
            if not question:
                raise SchemaError(f"{path}: {sample_id} qa {qa_index} question is null or blank")
            answer = qa.get("answer", qa.get("adversarial_answer", ""))
            answer = "" if answer is None else str(answer).strip()
            code = qa.get("category")
            if isinstance(code, (list, dict)):  # the JSON values a dict cannot key
                raise SchemaError(
                    f"{path}: {sample_id} qa {qa_index} category {code!r} is not a scalar")
            category = CATEGORY_NAMES.get(code, "unknown")
            if not answer:
                category = "abstention"
            evidence_ids = qa.get("evidence") or []
            if not isinstance(evidence_ids, list):
                raise SchemaError(
                    f"{path}: {sample_id} qa {qa_index} evidence is not a list")
            evidence = []
            for ev in evidence_ids:
                number, turn_number = _parse_dia_id(str(ev), path)
                ev_key = (f"{sample_id}/session_{number}", turn_number)
                if ev_key not in turn_keys:
                    raise SchemaError(
                        f"{path}: {sample_id} qa {qa_index} evidence {ev!r} "
                        f"does not resolve to a turn")
                evidence.append(ev_key)
            if not evidence:
                if last_turn is None:
                    raise SchemaError(f"{path}: {sample_id} has no turns for qa anchor")
                evidence = [last_turn]
            payload = RetrievePayload(
                query=question,
                gold_answer=answer,
                query_id=f"{sample_id}/qa{qa_index}",
                category=category,
            )
            queries.append(QuerySpec(payload=payload,
                                     trigger=AfterEvidence(tuple(evidence))))
    return serialize_stream(sessions, queries)


# ----------------------------------------------------------------------
# synthetic fact streams
# ----------------------------------------------------------------------

_ATTRS = (
    "color", "flavor", "odor", "size", "shape", "weight", "texture", "sound",
    "price", "age", "height", "speed", "warmth", "brightness", "humor",
    "rumor", "vapor", "labor", "honor", "armor",
)
_ENTITIES = (
    "harbor", "meadow", "lantern", "marble", "willow", "falcon", "anchor",
    "beacon", "canyon", "chapel", "cider", "dagger", "ember", "fjord",
    "glacier", "hammock", "ivory", "jasper", "kettle", "lagoon", "mosaic",
    "nectar", "obelisk", "parlor", "quarry", "ribbon", "saddle", "tavern",
    "urchin", "velvet", "wagon", "yarrow",
)
_VALUES = (
    "crimson", "amber", "cobalt", "jade", "onyx", "pearl", "copper", "slate",
    "maroon", "ochre", "teal", "indigo", "sienna", "coral", "bronze",
    "magenta", "olive", "plum", "russet", "saffron", "scarlet", "sepia",
    "silver", "topaz", "umber", "violet", "zinc", "azure", "beige", "carmine",
    "celadon", "cerise", "chartreuse", "citrine", "cream", "ebony", "fawn",
    "garnet", "ginger", "hazel", "henna", "jasmine", "khaki", "lilac",
    "mahogany", "mauve", "mint", "mustard", "navy", "opal", "orchid",
    "peach", "pewter", "pine", "quartz", "rose", "ruby", "rust", "sable",
    "sand", "smoke", "snow", "sorrel", "steel", "straw", "tan", "thistle",
    "apricot", "turquoise", "walnut", "wheat", "wine", "wisteria", "zaffre",
)

# round-relative positions the default needle ladder targets, oldest first
_LADDER = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.97)


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    n_sessions: int = 4
    turns_per_session: int = 0  # 0: spread inserts evenly over n_sessions
    n_facts: int = 40
    update_rate: float = 0.0
    rounds: int = 5
    queries_per_round: int = 8
    paraphrase_rate: float = 0.0
    needle_depths: Optional[tuple[int, ...]] = None

    def validate(self):
        if self.n_sessions < 1 or self.n_facts < 1:
            raise ValueError("n_sessions and n_facts must be >= 1")
        if not (0.0 <= self.update_rate <= 1.0):
            raise ValueError("update_rate must be in [0,1]")
        if not (0.0 <= self.paraphrase_rate <= 1.0):
            raise ValueError("paraphrase_rate must be in [0,1]")
        if self.rounds < 1 or self.queries_per_round < 1:
            raise ValueError("rounds and queries_per_round must be >= 1")
        if self.turns_per_session < 0:
            raise ValueError("turns_per_session must be >= 0")
        if self.needle_depths is not None:
            if not self.needle_depths:
                raise ValueError("needle_depths must name at least one depth")
            if min(self.needle_depths) < 0:
                raise ValueError(f"needle_depths must be >= 0, got {min(self.needle_depths)}")


def _fact_sentence(attr: str, entity: str, value: str) -> str:
    return f"the {attr} of the {entity} is {value}."


def _question(attr: str, entity: str) -> str:
    return f"what is the {attr} of the {entity}"


def synth_workload(spec: SyntheticSpec) -> tuple[StreamManifest, dict]:
    """Deterministic fact stream plus its answer key.

    Inserts: every fact once, then one overwrite for each updated fact.
    Queries: ``queries_per_round`` per round, placed right after that
    round's last insert. Their targets walk the needle ladder (oldest to
    newest insert positions) unless ``needle_depths`` pins exact distances
    back from the round boundary. Gold answers are always the value most
    recently inserted before the query.

    The answer key maps query_id -> {gold, fact, insert_position, round,
    distance, paraphrased} and doubles as the replay oracle's input.
    """
    spec.validate()
    rng = random.Random(spec.seed)

    facts = []
    values = list(_VALUES)
    rng.shuffle(values)
    for i in range(spec.n_facts):
        attr = _ATTRS[i % len(_ATTRS)]
        entity = _ENTITIES[(i // len(_ATTRS)) % len(_ENTITIES)]
        if i >= len(_ATTRS) * len(_ENTITIES):
            entity = f"{entity}{i}"
        value = values[i % len(values)]
        if i >= len(values):
            value = f"{value}{i}"
        facts.append({"attr": attr, "entity": entity, "value": value})

    n_updates = round(spec.update_rate * spec.n_facts)
    updated = sorted(rng.sample(range(spec.n_facts), n_updates))
    unused = [v for v in values if all(f["value"] != v for f in facts)]
    rng.shuffle(unused)
    update_values = {}
    for j, fact_index in enumerate(updated):
        update_values[fact_index] = (unused[j] if j < len(unused)
                                     else f"fresh{fact_index}")

    # insert plan: position -> (fact_index, value)
    plan = [(i, facts[i]["value"]) for i in range(spec.n_facts)]
    plan.extend((i, update_values[i]) for i in updated)
    total = len(plan)

    per_session = spec.turns_per_session or math.ceil(total / spec.n_sessions)
    sessions: list[SessionTurns] = []
    turns: list[Turn] = []
    session_number = 0
    for position, (fact_index, value) in enumerate(plan):
        fact = facts[fact_index]
        turns.append(Turn(
            text=_fact_sentence(fact["attr"], fact["entity"], value),
            ts=logical_tick(position),
            speaker="narrator",
            turn_index=len(turns),
        ))
        if len(turns) == per_session and position < total - 1:
            sessions.append(SessionTurns(f"s{session_number}", tuple(turns)))
            session_number += 1
            turns = []
    if turns:
        sessions.append(SessionTurns(f"s{session_number}", tuple(turns)))

    # latest value per fact at any insert position (inclusive)
    def value_at(fact_index: int, position: int) -> str:
        value = facts[fact_index]["value"]
        for offset, upd_index in enumerate(updated):
            if upd_index == fact_index and spec.n_facts + offset <= position:
                value = update_values[fact_index]
        return value

    queries: list[QuerySpec] = []
    key = {}
    for round_number in range(1, spec.rounds + 1):
        boundary = math.ceil(round_number * total / spec.rounds)
        for j in range(spec.queries_per_round):
            if spec.needle_depths is not None:
                depth = spec.needle_depths[j % len(spec.needle_depths)]
                position = max(0, boundary - 1 - depth)
            else:
                q = _LADDER[j % len(_LADDER)]
                position = min(int(q * boundary), boundary - 1)
            fact_index, _ = plan[position]
            fact = facts[fact_index]
            gold = value_at(fact_index, boundary - 1)
            question = _question(fact["attr"], fact["entity"])
            paraphrased = rng.random() < spec.paraphrase_rate
            if paraphrased:
                question = apply_synonyms(question, SYNONYMS)
            query_id = f"r{round_number}q{j}"
            key[query_id] = {
                "gold": gold,
                "fact": fact_index,
                "insert_position": position,
                "round": round_number,
                "distance": boundary - 1 - position,
                "paraphrased": paraphrased,
            }
            queries.append(QuerySpec(
                payload=RetrievePayload(
                    query=question, gold_answer=gold, query_id=query_id,
                    category="updated" if fact_index in updated else "static",
                ),
                trigger=AfterCount(boundary),
            ))
    return serialize_stream(sessions, queries), key


def write_answer_key(key: dict, path: str | Path):
    """Write ``key`` as indented JSON, atomically (see ``stream.write_atomic``)."""
    write_atomic(path, [json.dumps(key, indent=2, sort_keys=True)])
