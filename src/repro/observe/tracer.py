"""Nested-span tracing for mining runs.

A :class:`Tracer` records a tree of named, wall-clock-timed spans —
pass-1 scan, spill, pass-2 per-bucket replay, the DMC-bitmap tail —
and serializes the finished tree to JSON.  It is deliberately tiny and
dependency free: a span is a dataclass, nesting is a plain stack, and
entering a span costs two ``perf_counter`` calls.

Spans carry free-form attributes (bucket name, rows remaining at the
bitmap switch, ...) set at entry or annotated while the span is open::

    tracer = Tracer()
    with tracer.span("pass-2"):
        with tracer.span("bucket", name="bucket-00.txt"):
            ...
            tracer.annotate(rows=1024)
    print(tracer.to_json())

The JSON document is ``{"version": 1, "total_seconds": ..., "spans":
[...]}`` where each span is ``{"name", "start_seconds", "seconds",
"attributes", "children"}`` and ``start_seconds`` is the offset from
tracer creation — stable, diffable, and trivially plotted.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

TRACE_VERSION = 1


@dataclass
class Span:
    """One timed region of a run; children are spans opened inside it."""

    name: str
    start_seconds: float
    seconds: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this span and its subtree."""
        return {
            "name": self.name,
            "start_seconds": self.start_seconds,
            "seconds": self.seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        """Rebuild a span subtree written by :meth:`to_dict`."""
        return cls(
            name=record.get("name", ""),
            start_seconds=record.get("start_seconds", 0.0),
            seconds=record.get("seconds", 0.0),
            attributes=dict(record.get("attributes", {})),
            children=[
                cls.from_dict(child)
                for child in record.get("children", [])
            ],
        )


class Tracer:
    """Collects a forest of nested spans with wall-clock timings.

    ``trace_id`` is the originating request's identity: minted (or
    echoed from ``X-Request-Id``) at the service edge and threaded
    through every layer, it rides in the serialized document so a span
    tree recovered from a trace archive still names the request that
    caused it.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self._origin = time.perf_counter()
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body."""
        started = time.perf_counter()
        span = Span(
            name=name,
            start_seconds=started - self._origin,
            attributes=dict(attributes),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - started
            self._stack.pop()

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def attach(self, span: Span) -> None:
        """Graft an already-finished span under the current position.

        The span becomes a child of the innermost open span, or a
        top-level span when none is open — how a span tree recorded
        elsewhere (another thread or process) joins this trace.
        """
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the whole trace."""
        document = {
            "version": TRACE_VERSION,
            "total_seconds": sum(span.seconds for span in self.spans),
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.trace_id is not None:
            document["trace_id"] = self.trace_id
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Tracer":
        """Rebuild a tracer from a :meth:`to_dict` document.

        The round trip is exact on everything that matters for
        analysis — span names, offsets, durations, attributes,
        nesting, ``trace_id`` — which is what lets a per-run trace
        archive accumulate attempt trees across scheduler retries and
        process restarts without drift.
        """
        trace_id = document.get("trace_id")
        tracer = cls(trace_id=str(trace_id) if trace_id is not None else None)
        tracer.spans = [
            Span.from_dict(record)
            for record in document.get("spans", [])
        ]
        return tracer

    def to_json(self, indent: int = 2) -> str:
        """The trace as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans)}, open={len(self._stack)})"
