"""Nanosecond-resolution discrete-event engine.

The engine is a calendar built on a binary heap fronted by a two-level
hierarchical timer wheel. Events scheduled for the same instant fire in
scheduling order (FIFO), which keeps simulations deterministic for a fixed
seed.

Hot-path design: calendar entries are plain ``(time, seq, fn, args)``
tuples, so ordering is decided by C-level tuple comparison on ``(time,
seq)`` — no ``__lt__`` dispatch into Python, and no per-event handle
allocation. The call sites that cancel or re-arm events go through
:meth:`Simulator.schedule_cancellable` / :meth:`Simulator.schedule_at_cancellable`
(one-shot :class:`EventHandle`) or :meth:`Simulator.timer` (reusable
:class:`Timer`); both push ``(time, seq, obj, None)`` entries — the ``args
is None`` sentinel is how the run loop tells the two entry shapes apart
without an isinstance check.

Timer wheel:

* L0: 256 slots of 2^20 ns (~1.05 ms) — covers ~268 ms ahead.
* L1: 64 slots of 2^28 ns (~268 ms) — covers ~17.2 s ahead.
* Overflow list beyond that, rescanned once per L1 wrap.

Admission appends to a slot list in O(1) instead of paying an O(log n)
heap sift for every far-future deadline. Entries before the pour boundary
go straight to the heap; the rest wait on the wheel, so every heap entry
precedes every wheel entry. A slot is *poured* into the heap only when the
heap runs empty, so events within one slot are heapified as a single
batch — this is what makes thousands of per-flow pacing/ACK/PTO deadlines
cheap. Because the heap performs the final ``(time, seq)`` ordering, events
fire in exactly the order a plain heap would give.

Soft cancel: cancelling or re-arming never searches the calendar. Each
cancellable entry records the owner's generation (the global ``seq`` it was
armed with); :meth:`EventHandle.cancel` / :meth:`Timer.cancel` /
re-arming simply bump the owner's ``_live_seq`` so stale entries no longer
match and are dropped for free at pour or pop time, each one reported to
:meth:`Simulator._discard`.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: L0 slot width is 2^20 ns (~1.05 ms); 256 slots cover ~268 ms.
_L0_BITS = 20
#: L1 slot width is 2^28 ns (~268 ms); 64 slots cover ~17.2 s.
_L1_BITS = 28


class EventHandle:
    """A cancellable reference to a one-shot event scheduled via
    :meth:`Simulator.schedule_cancellable`.

    ``cancelled`` is True once the event can no longer fire — either
    because :meth:`cancel` was called or because it already fired.
    """

    __slots__ = ("time", "seq", "fn", "args", "_live_seq")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._live_seq = seq

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        self._live_seq = -1
        # Drop references so cancelled events don't pin objects in the heap.
        self.fn = _noop
        self.args = ()

    @property
    def cancelled(self) -> bool:
        return self._live_seq != self.seq

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Timer:
    """A reusable soft-cancel timer bound to one callback.

    Re-arming (``schedule``/``schedule_at``) allocates nothing and never
    touches the previously armed calendar entry: the stale entry simply
    stops matching the timer's generation and is discarded for free when
    the calendar reaches it. This is what per-flow ACK/PTO/pacing
    deadlines use — they re-arm on nearly every packet.
    """

    __slots__ = ("time", "fn", "args", "_live_seq", "_sim")

    def __init__(self, sim: "Simulator", fn: Callable[..., Any], args: tuple):
        self._sim = sim
        self.fn = fn
        self.args = args
        self.time = 0
        self._live_seq = -1

    def schedule_at(self, time_ns: int) -> None:
        """(Re-)arm at absolute time ``time_ns``; supersedes any prior arm."""
        sim = self._sim
        if time_ns < sim._now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, already at {sim._now}ns"
            )
        seq = sim._seq
        sim._seq = seq + 1
        self.time = time_ns
        self._live_seq = seq
        sim._admit(time_ns, seq, self, None)

    def schedule(self, delay_ns: int) -> None:
        """(Re-)arm ``delay_ns`` from now; supersedes any prior arm."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        self.schedule_at(self._sim._now + delay_ns)

    def cancel(self) -> None:
        """Disarm. Safe to call at any time, including when not armed."""
        self._live_seq = -1

    @property
    def armed(self) -> bool:
        return self._live_seq >= 0

    def __repr__(self) -> str:
        state = f"armed t={self.time}" if self._live_seq >= 0 else "idle"
        return f"<Timer {state}>"


class Simulator:
    """The event calendar and simulated clock.

    Typical use::

        sim = Simulator()
        sim.schedule(ms(5), my_callback, arg1)
        sim.run(until=seconds(10))
    """

    #: Run every event through :meth:`step`, even without ``max_events``;
    #: set by subclasses that observe each dispatch.
    _stepwise = False

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: list[tuple] = []
        self._running = False
        self.events_processed = 0
        # Timer wheel state. `_cur0` is the absolute index of the next L0
        # slot to pour: every entry with time < (_cur0 << 20) is in the heap
        # and every later one on the wheel (the pour boundary).
        self._l0: list[list] = [[] for _ in range(256)]
        self._l1: list[list] = [[] for _ in range(64)]
        self._overflow: list = []
        self._cur0 = 0
        self._wheel_count = 0

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- admission ------------------------------------------------------

    def _admit(self, time_ns: int, seq: int, fn, args) -> None:
        """Place one calendar entry: heap if it precedes the pour boundary,
        otherwise the cheapest wheel level that can hold it."""
        slot0 = time_ns >> _L0_BITS
        cur0 = self._cur0
        if slot0 < cur0:
            _heappush(self._heap, (time_ns, seq, fn, args))
            return
        if self._wheel_count == 0:
            # Empty wheel: fast-forward the pour boundary so sparse
            # calendars never pay per-slot pour scans to catch up.
            if slot0 > cur0:
                self._cur0 = cur0 = slot0
            self._l0[slot0 & 255].append((time_ns, seq, fn, args))
            self._wheel_count = 1
            return
        if slot0 - cur0 < 256:
            self._l0[slot0 & 255].append((time_ns, seq, fn, args))
        else:
            slot1 = time_ns >> _L1_BITS
            if slot1 - (cur0 >> 8) < 64:
                self._l1[slot1 & 63].append((time_ns, seq, fn, args))
            else:
                self._overflow.append((time_ns, seq, fn, args))
        self._wheel_count += 1

    def _pour_one(self) -> None:
        """Pour the next L0 slot into the heap and advance the boundary.

        Stale soft-cancelled entries are dropped here without ever paying
        a heap sift. Crossing an L0 ring boundary cascades the matching L1
        slot down; crossing an L1 ring boundary first rescans the overflow
        list for entries that now fit the wheel horizon.
        """
        cur0 = self._cur0
        if (cur0 & 255) == 0:
            cur1 = cur0 >> 8
            if (cur1 & 63) == 0 and self._overflow:
                keep = []
                for entry in self._overflow:
                    if (entry[0] >> _L1_BITS) - cur1 < 64:
                        if (entry[0] >> _L0_BITS) - cur0 < 256:
                            self._l0[(entry[0] >> _L0_BITS) & 255].append(entry)
                        else:
                            self._l1[(entry[0] >> _L1_BITS) & 63].append(entry)
                    else:
                        keep.append(entry)
                self._overflow = keep
            slot1 = self._l1[cur1 & 63]
            if slot1:
                l0 = self._l0
                for entry in slot1:
                    l0[(entry[0] >> _L0_BITS) & 255].append(entry)
                self._l1[cur1 & 63] = []
        slot = self._l0[cur0 & 255]
        if slot:
            heap = self._heap
            for entry in slot:
                # args-is-None entries are soft-cancellable: the owner's
                # generation must still match the entry's seq.
                if entry[3] is None and entry[2]._live_seq != entry[1]:
                    self._discard(entry[2])
                    continue
                _heappush(heap, entry)
            self._wheel_count -= len(slot)
            self._l0[cur0 & 255] = []
        self._cur0 = cur0 + 1

    def _discard(self, owner) -> None:
        """Hook: a stale soft-cancelled entry of ``owner`` (an
        :class:`EventHandle` or :class:`Timer`) left the calendar unfired."""

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        seq = self._seq
        self._seq = seq + 1
        self._admit(self._now + delay_ns, seq, fn, args)

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, already at {self._now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        self._admit(time_ns, seq, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current instant (after pending same-time events)."""
        seq = self._seq
        self._seq = seq + 1
        self._admit(self._now, seq, fn, args)

    def schedule_cancellable(
        self, delay_ns: int, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle.

        For one-shot cancellations; a deadline that is re-armed repeatedly
        should hold a reusable :meth:`timer` instead.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        return self.schedule_at_cancellable(self._now + delay_ns, fn, *args)

    def schedule_at_cancellable(
        self, time_ns: int, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, already at {self._now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time_ns, seq, fn, args)
        self._admit(time_ns, seq, handle, None)
        return handle

    def timer(self, fn: Callable[..., Any], *args: Any) -> Timer:
        """Create a reusable soft-cancel :class:`Timer` for ``fn(*args)``.

        Allocate once per recurring deadline (RTO, delayed-ACK, pacer,
        process wake-up) and re-arm it for free ever after.
        """
        return Timer(self, fn, args)

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events still in the calendar (including cancelled ones)."""
        return len(self._heap) + self._wheel_count

    @property
    def pending_live(self) -> int:
        """Number of events still in the calendar, excluding cancelled and
        stale (re-armed) ones.

        O(n); intended for diagnostics, not the run loop.
        """
        live = 0
        for entries in (self._heap, self._overflow, *self._l0, *self._l1):
            for entry in entries:
                if entry[3] is not None or entry[2]._live_seq == entry[1]:
                    live += 1
        return live

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the calendar is empty."""
        heap = self._heap
        while True:
            while heap:
                entry = heap[0]
                if entry[3] is None and entry[2]._live_seq != entry[1]:
                    _heappop(heap)
                    self._discard(entry[2])
                    continue
                return entry[0]
            if self._wheel_count:
                self._pour_one()
                continue
            return None

    def step(self) -> bool:
        """Run the next live event. Returns False if there was none."""
        if self.peek_time() is None:
            return False
        time_ns, _, fn, args = _heappop(self._heap)
        if args is None:  # soft-cancellable: fn is the handle/timer
            fn._live_seq = -1
            args = fn.args
            fn = fn.fn
        self._now = time_ns
        self.events_processed += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run events until the calendar is empty, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the calendar empties earlier.

        Without ``max_events`` this is the experiment hot loop, inlined:
        the head entry is inspected once and popped once per event (stale
        soft-cancelled entries are skipped in the same pass), and the next
        wheel slot is poured whenever the heap runs empty. With a budget (or
        :attr:`_stepwise`), events go one at a time through :meth:`step`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = _heappop
        processed = 0
        try:
            if max_events is None and not self._stepwise:
                # No per-event budget checks; the event counter is folded in
                # once on exit.
                try:
                    while True:
                        if heap:
                            entry = heap[0]
                            if until is not None and entry[0] > until:
                                break
                            pop(heap)
                            time_ns, seq, fn, args = entry
                            if args is None:  # soft-cancellable entry
                                if fn._live_seq != seq:
                                    self._discard(fn)
                                    continue
                                fn._live_seq = -1
                                args = fn.args
                                fn = fn.fn
                            self._now = time_ns
                            processed += 1
                            fn(*args)
                        elif self._wheel_count:
                            self._pour_one()
                        else:
                            break
                finally:
                    self.events_processed += processed
            else:
                while (time_ns := self.peek_time()) is not None:
                    if max_events is not None and processed >= max_events:
                        return
                    if until is not None and time_ns > until:
                        break
                    self.step()
                    processed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

