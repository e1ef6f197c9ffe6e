"""The structured event bus.

Components never construct events when nobody listens: every
instrumentation site is guarded by a single ``events is not None``
attribute test (the component's ``events`` slot is ``None`` until the
machine's ``set_bus`` wires a bus in), so the disabled path costs one
pointer comparison.

Events are *typed* (:class:`EventKind`) and *structured* (a payload
dict of plain ints/strings), timestamped in simulated cycles and tagged
with the originating node.  The bus keeps a bounded ring of records —
oldest dropped first — and offers synchronous subscriptions for
consumers that must see every event regardless of ring capacity (the
Perfetto exporter uses the ring; online reductions subscribe).
"""

import enum
from collections import deque


class EventKind(enum.Enum):
    """Every event type the simulator can emit."""

    # Members are singletons and compare by identity, so the identity
    # hash is correct — and it is C-speed, unlike Enum's default
    # Python-level ``__hash__``, which shows up in profiles because the
    # bus keys its per-kind dicts by member on every emit.
    __hash__ = object.__hash__

    # Processor / trap machinery.
    TRAP_ENTER = "trap_enter"
    TRAP_EXIT = "trap_exit"
    CONTEXT_SWITCH = "context_switch"
    # Memory system.
    REMOTE_MISS = "remote_miss"
    CACHE_EVICT = "cache_evict"
    CACHE_INVALIDATE = "cache_invalidate"
    DIRECTORY_READ = "directory_read"
    DIRECTORY_WRITE = "directory_write"
    # Network.
    NET_SEND = "net_send"
    NET_DELIVER = "net_deliver"
    # Futures.
    FUTURE_CREATE = "future_create"
    FUTURE_TOUCH = "future_touch"
    FUTURE_RESOLVE = "future_resolve"
    # Thread lifecycle / scheduling.
    THREAD_SPAWN = "thread_spawn"
    THREAD_LOAD = "thread_load"
    THREAD_UNLOAD = "thread_unload"
    THREAD_STEAL = "thread_steal"
    THREAD_EXIT = "thread_exit"
    THREAD_WAKE = "thread_wake"


class Event:
    """One emitted event: kind, cycle timestamp, node, payload."""

    __slots__ = ("kind", "cycle", "node", "data")

    def __init__(self, kind, cycle, node, data):
        self.kind = kind
        self.cycle = cycle
        self.node = node
        self.data = data

    def to_dict(self):
        record = {"kind": self.kind.value, "cycle": self.cycle,
                  "node": self.node}
        record.update(self.data)
        return record

    def __repr__(self):
        extras = " ".join("%s=%r" % kv for kv in sorted(self.data.items()))
        return "[%10d] n%s %s %s" % (
            self.cycle, self.node, self.kind.value, extras)


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`.

    Calling :meth:`cancel` detaches the callback (idempotent), so
    monitor/flight-recorder hooks never leak across runs.  Also usable
    as a context manager: the subscription lives for the ``with`` body.
    """

    __slots__ = ("_bus", "_callback", "_kind", "active")

    def __init__(self, bus, callback, kind):
        self._bus = bus
        self._callback = callback
        self._kind = kind
        self.active = True

    def cancel(self):
        """Detach the callback from the bus (safe to call twice)."""
        if not self.active:
            return
        self.active = False
        if self._kind is None:
            self._bus._subscribers.remove(self._callback)
        else:
            callbacks = self._bus._kind_subscribers.get(self._kind)
            if callbacks is not None:
                callbacks.remove(self._callback)
                if not callbacks:
                    del self._bus._kind_subscribers[self._kind]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.cancel()
        return False


class EventBus:
    """Bounded ring of :class:`Event` records plus live subscribers.

    Every :class:`EventKind` is emitted from a trap, the scheduler,
    the future machinery, the network or a memory transaction, never
    from an instruction a JIT block inlines, so an attached bus keeps
    the machine on its fast step and records the same stream, with the
    same cycle stamps, as the reference step would.

    Args:
        capacity: ring size; oldest records are dropped past it.
            ``None`` keeps everything (tests, short runs).
    """

    def __init__(self, capacity=1_000_000):
        self.records = deque(maxlen=capacity)
        self.emitted = 0
        self._dropped = 0
        self._counts = {}
        self._subscribers = []          # called for every event
        self._kind_subscribers = {}     # EventKind -> [callables]

    @property
    def capacity(self):
        return self.records.maxlen

    @property
    def dropped(self):
        """Events pushed out of the ring by capacity.

        Counted explicitly at each overflowing append — not derived
        from ``emitted - len(records)``, which silently drifts if the
        ring is ever consumed or resized out-of-band.
        """
        return self._dropped

    def emit(self, kind, cycle, node, **data):
        """Record an event and notify subscribers."""
        event = Event(kind, cycle, node, data)
        records = self.records
        # ``len == None`` is False, so an unbounded ring skips the
        # dropped-counter bump without a separate maxlen test.
        if len(records) == records.maxlen:
            self._dropped += 1
        records.append(event)
        self.emitted += 1
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        for callback in self._subscribers:
            callback(event)
        subscribers = self._kind_subscribers.get(kind)
        if subscribers is not None:
            for callback in subscribers:
                callback(event)

    def subscribe(self, callback, kind=None):
        """Call ``callback(event)`` on every event (or one kind only).

        Returns a :class:`Subscription`; call its :meth:`~Subscription.
        cancel` (or use it as a context manager) to detach the callback.
        If the same callback is subscribed twice, each cancel removes
        one registration.
        """
        if kind is None:
            self._subscribers.append(callback)
        else:
            self._kind_subscribers.setdefault(kind, []).append(callback)
        return Subscription(self, callback, kind)

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def select(self, *kinds):
        """Recorded events of the given kinds, in emission order."""
        wanted = set(kinds)
        return [e for e in self.records if e.kind in wanted]

    def counts(self):
        """Mapping of kind name to number of events emitted (ever)."""
        return {kind.value: count for kind, count in self._counts.items()}

    def to_dicts(self):
        """The ring contents as JSON-ready dicts."""
        return [event.to_dict() for event in self.records]
