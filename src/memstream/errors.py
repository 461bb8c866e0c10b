"""Exception taxonomy shared across the package.

Grouped by the surface that raises them: stream construction, stores,
gateway, metrics, and the experiment sink. Validation findings on stream
files are *data* (see stream.validate_stream), not exceptions; these
classes cover genuinely unrecoverable conditions.
"""

from __future__ import annotations


class MemstreamError(Exception):
    """Base class for all package errors."""


# --- stream construction -------------------------------------------------

class StreamError(MemstreamError):
    pass


class MissingTimestamp(StreamError):
    """A turn carries no timestamp and none can be derived from its session."""


class DanglingEvidence(StreamError):
    """A query trigger points at a (session_id, turn_index) that does not exist."""


class SchemaError(StreamError):
    """An input file does not match the documented schema."""


# --- memory stores --------------------------------------------------------

class StoreError(MemstreamError):
    pass


class CapacityExceeded(StoreError):
    """Hard-capped backend with eviction disabled received one record too many."""


class DimensionMismatch(StoreError):
    """Embedding dimensionality differs from what the store was built with."""


class UnknownRecord(StoreError):
    """Operation referenced a record_id the store does not hold: never
    inserted, or removed (removed records leave the store)."""


class UnsupportedBackend(StoreError):
    """A maintenance policy was pointed at a backend lacking the needed structure."""


class EmptySignal(StoreError):
    """Retrieval signal carries neither text, keywords, nor an embedding."""


# --- model gateway ---------------------------------------------------------

class GatewayError(MemstreamError):
    """Model endpoint failure after retries are exhausted.

    ``kind`` is one of: "timeout", "http", "empty", "malformed", "injected".
    ``retries`` records how many retry attempts were made.
    """

    def __init__(self, kind: str, message: str = "", retries: int = 0):
        super().__init__(f"{kind}: {message}" if message else kind)
        self.kind = kind
        self.retries = retries


class UnparseableExtraction(MemstreamError):
    """Gateway reply for structured extraction violated the expected line format."""


# --- metrics ----------------------------------------------------------------

class DegenerateInput(MemstreamError):
    """Metric input outside its domain (e.g. degradation with a zero baseline)."""


# --- sink / reporting --------------------------------------------------------

class SinkExists(MemstreamError):
    """Output directory already holds results and --force was not given."""


class MissingFiles(MemstreamError):
    """Report asked for a results directory without the expected files, or
    with one that does not parse."""
