"""Outside-in tracing: wraps the names each layer's caller looks up.

Nothing in the program is edited. ``Tracer.install`` replaces module
attributes and class methods with wrappers and ``Tracer.uninstall`` puts
the originals back. Each wrapped call becomes a span of
``[name, start_ns, end_ns, parent_index, seq]``; spans stay in memory
until the benchmark writes them out. Hot leaf functions (cosine, stemming,
lexical scoring) are counted instead of spanned, so their time stays in
the self time of the span that called them.

A request's ``seq`` comes from the payload handed to ``run_normalize`` or
``run_formulate``, the first layer call of an insert or a query; every
later span inherits it until the next request starts.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter

NAME, START, END, PARENT, SEQ = range(5)

# (orchestrator attribute, span name): the orchestrator calls each by this name
ORCHESTRATOR_CALLS = (
    ("validate_stream", "stream.validate"),
    ("run_normalize", "ingest.normalize"),
    ("run_consolidate", "ingest.consolidate"),
    ("run_formulate", "retrieve.formulate"),
    ("execute_search", "retrieve.search"),
    ("run_integrate", "retrieve.integrate"),
    ("token_f1", "metrics.f1"),
)
# spans whose first argument is the request payload
REQUEST_ENTRY = ("ingest.normalize", "retrieve.formulate")
STORE_METHODS = ("insert", "retrieve", "remove", "reindex")
GATEWAY_METHODS = ("embed", "chat")

SPAN_NAMES = tuple(name for _, name in ORCHESTRATOR_CALLS) + tuple(
    f"stores.{m}" for m in STORE_METHODS) + tuple(
    f"gateway.{m}" for m in GATEWAY_METHODS)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self, manifest):
        self.seq_of_payload = {id(r.payload): r.seq for r in manifest.requests}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seq = -1
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.stems: set[str] = set()
        self.embedded: set[str] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        enters_request = name in REQUEST_ENTRY
        observe = self._observe_embed if name == "gateway.embed" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][NAME] == name:
                # an override calling its base method: one span, not two
                return fn(*args, **kwargs)
            if enters_request:
                self.seq = self.seq_of_payload.get(id(args[0]), -1)
            if observe is not None:
                observe(*args, **kwargs)
            record = [name, 0, 0, parent, self.seq]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            finally:
                record[END] = clock()
                stack.pop()
        return wrapper

    def _observe_embed(self, gateway, texts, **_kwargs):
        self.counts["gateway.embed_texts"] += len(texts)
        self.counts["gateway.embed_repeats"] += sum(t in self.embedded for t in texts)
        self.embedded.update(texts)

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_stem(self, fn):
        counts, stems = self.counts, self.stems

        @functools.wraps(fn)
        def wrapper(token):
            counts["text.stem"] += 1
            stems.add(token)
            return fn(token)
        return wrapper

    def _count_scanned(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(records, *args, **kwargs):
            records = list(records)
            counts["stores.lexical_scored"] += len(records)
            return fn(records, *args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr, make, label):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Wrap every traced name; names the program no longer has are listed in ``missing``."""
        from memstream import ingest, orchestrator, stores, text
        from memstream.gateway import Gateway
        from memstream.stores.base import MemoryStore

        for attr, name in ORCHESTRATOR_CALLS:
            self._patch(orchestrator, attr, functools.partial(self._span, name),
                        f"orchestrator.{attr}")
        for classes, methods, layer in ((_subclasses(MemoryStore), STORE_METHODS, "stores"),
                                        (_subclasses(Gateway), GATEWAY_METHODS, "gateway")):
            for method in methods:
                for cls in classes:
                    if method in cls.__dict__:
                        self._patch(cls, method,
                                    functools.partial(self._span, f"{layer}.{method}"),
                                    f"{cls.__name__}.{method}")
        self._patch(ingest, "cosine", functools.partial(self._count, "ingest.cosine"),
                    "ingest.cosine")
        for info in pkgutil.iter_modules(stores.__path__):
            module = importlib.import_module(f"{stores.__name__}.{info.name}")
            if hasattr(module, "cosine"):
                self._patch(module, "cosine",
                            functools.partial(self._count, "stores.cosine"),
                            f"{module.__name__}.cosine")
            if hasattr(module, "lexical_scores"):
                self._patch(module, "lexical_scores", self._count_scanned,
                            f"{module.__name__}.lexical_scores")
        self._patch(text, "stem_fixpoint", self._count_stem, "text.stem_fixpoint")
        for label in self.missing:
            print(f"perfbench: trace target {label} not found; its metrics read 0",
                  file=sys.stderr)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def deterministic_counts(self) -> dict:
        """Counters that must repeat exactly when the same replay runs again."""
        out = dict(self.counts)
        out.update((f"{n}.calls", 0) for n in SPAN_NAMES)
        for span in self.spans:
            out[f"{span[NAME]}.calls"] += 1
        out["text.stem_distinct"] = len(self.stems)
        out.update((f"{n}.failed", c) for n, c in self.failures.items())
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"name": span[NAME], "start_ns": span[START],
                                         "end_ns": span[END], "parent": span[PARENT],
                                         "seq": span[SEQ]}) + "\n")
