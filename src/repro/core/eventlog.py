"""Structured event log for operational visibility.

Every consequential action a DCWS server takes — migrations, revocations,
lazy pulls, validations, pings, dead-peer declarations — is recorded as a
typed :class:`Event` in a bounded ring buffer.  The admin status endpoint
(:mod:`repro.server.admin`) renders it; tests and benches query it to
assert *why* the system did what it did, not just the end state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

#: Known event kinds, for discoverability (the log accepts any string).
EVENT_KINDS = (
    "migrate", "remigrate", "revoke", "replica_drop", "repair",
    "pull", "pull_failed", "validate", "validate_refreshed",
    "ping", "peer_dead", "regenerate", "content_update",
    "checkpoint", "recover",
)


@dataclass(frozen=True)
class Event:
    """One logged occurrence."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        details = " ".join(f"{key}={value}"
                           for key, value in sorted(self.fields.items()))
        return f"[{self.time:10.3f}] {self.kind:<18} {details}".rstrip()


class EventLog:
    """A bounded, append-only log of :class:`Event` records."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}

    def record(self, time: float, kind: str, **fields: Any) -> Event:
        """Append an event; returns it (handy for chaining in tests)."""
        event = Event(time=time, kind=kind, fields=dict(fields))
        self._events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    def events(self, kind: Optional[str] = None,
               since: float = float("-inf")) -> List[Event]:
        """Events still in the buffer, optionally filtered."""
        return [event for event in self._events
                if event.time >= since and (kind is None or event.kind == kind)]

    def count(self, kind: str) -> int:
        """Lifetime count for *kind* (survives ring-buffer eviction)."""
        return self._counts.get(kind, 0)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def last(self, kind: Optional[str] = None) -> Optional[Event]:
        for event in reversed(self._events):
            if kind is None or event.kind == kind:
                return event
        return None

    def tail(self, limit: int = 20) -> List[Event]:
        """The most recent *limit* events, oldest first."""
        if limit <= 0:
            return []
        return list(self._events)[-limit:]

    def render_tail(self, limit: int = 20) -> str:
        return "\n".join(event.render() for event in self.tail(limit))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)
