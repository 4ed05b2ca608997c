"""Timer-wheel scheduling and soft-cancel timers.

The wheel is a pure scheduling-cost optimization: events must fire in
exactly the order of a plain ``(time, seq)`` calendar. The property test
drives a seeded random mix of plain events, ``call_soon``, cancellable
handles, and re-armed timers across all wheel levels (L0, L1, overflow)
and compares the fire sequence with an in-test reference. Every test runs
on the plain engine and on the census engine, which carries its own copy of
the pour and dispatch loops.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.census import CensusSimulator
from repro.sim.engine import Simulator
from repro.units import ms, seconds

ENGINES = [("default", Simulator), ("census", CensusSimulator)]

#: Deadlines at least this far ahead go past the L1 level (64 slots of
#: 2^28 ns, ~17.2 s) onto the overflow list.
_L1_HORIZON_NS = 64 << 28


class _ReferenceCalendar:
    """Drives a seeded workload on an engine and records, independently of
    the engine, what it should fire.

    Every admission gets the key ``(time, seq)``, with ``seq`` counting
    admissions in scheduling order. An arm is dropped when it is cancelled
    or superseded by a re-arm before its key comes up, i.e. by a callback
    whose own key is smaller. The reference fire order is the surviving
    keys, sorted.
    """

    def __init__(self, sim, rng: random.Random, timers: int = 8):
        self.sim = sim
        self.rng = rng
        self.seq = 0
        self.current = (0, -1)  # key of the running callback; set-up first
        self.keys = []
        self.dropped = set()
        self.far = 0
        self.fired = []  # (key, sim.now) per engine dispatch
        self.handles = []  # (EventHandle, key)
        self.timers = [sim.timer(self._timer_fired, i) for i in range(timers)]
        self.timer_keys = [None] * timers
        self.anchors = [rng.randrange(0, 60 * 10**9) for _ in range(16)]

    # -- admissions ------------------------------------------------------

    def _admit(self, delay: int):
        key = (self.current[0] + delay, self.seq)
        self.seq += 1
        self.keys.append(key)
        self.far += delay >= _L1_HORIZON_NS
        return key

    def _drop(self, key) -> None:
        if key is not None and key > self.current:
            self.dropped.add(key)

    def _delay(self) -> int:
        rng, now = self.rng, self.current[0]
        ahead = [a for a in self.anchors if a >= now]
        if ahead and rng.randrange(2):
            # Crowd deadlines around shared instants, reached from every
            # level: an entry poured a slot late is overtaken by a neighbour.
            return max(0, rng.choice(ahead) + rng.randrange(-3 << 20, 3 << 20) - now)
        return rng.choice([
            rng.randrange(0, 4) << 20,          # same-instant collisions
            rng.randrange(0, 2_000_000),        # L0
            rng.randrange(0, 300_000_000),      # L0/L1 boundary
            rng.randrange(0, 60 * 10**9),       # L1 and overflow
        ])

    def spray(self, depth: int) -> None:
        sim, rng = self.sim, self.rng
        for _ in range(rng.randrange(2, 7)):
            op = rng.randrange(8)
            delay = self._delay()
            if op == 0:
                sim.schedule(delay, self._event, self._admit(delay), depth)
            elif op == 1:
                key = self._admit(delay)
                sim.schedule_at(key[0], self._event, key, depth)
            elif op == 2:
                sim.call_soon(self._event, self._admit(0), depth)
            elif op == 3:
                key = self._admit(delay)
                self.handles.append(
                    (sim.schedule_cancellable(delay, self._event, key, depth), key)
                )
            elif op == 4 and self.handles:
                handle, key = self.handles.pop(rng.randrange(len(self.handles)))
                handle.cancel()
                self._drop(key)
            elif op in (5, 6):
                i = rng.randrange(len(self.timers))
                self._drop(self.timer_keys[i])
                key = self.timer_keys[i] = self._admit(delay)
                if op == 5:
                    self.timers[i].schedule(delay)
                else:
                    self.timers[i].schedule_at(key[0])
            elif op == 7:
                i = rng.randrange(len(self.timers))
                self._drop(self.timer_keys[i])
                self.timer_keys[i] = None
                self.timers[i].cancel()

    # -- callbacks -------------------------------------------------------

    def _event(self, key, depth: int) -> None:
        self.fired.append((key, self.sim.now))
        self.current = key
        if depth:
            self.spray(depth - 1)

    def _timer_fired(self, i: int) -> None:
        self._event(self.timer_keys[i], 0)

    def expected(self):
        return sorted(k for k in self.keys if k not in self.dropped)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_wheel_and_heap_fire_identically(seed):
    """Seeded random schedule/call_soon/cancel/re-arm: the engine fires the
    reference's ``(time, seq)`` order, with the clock at each key's time."""
    for _name, engine_cls in ENGINES:
        sim = engine_cls()
        ref = _ReferenceCalendar(sim, random.Random(seed))
        for _ in range(6):
            ref.spray(5)
        sim.run()
        assert ref.far, "workload never reached the overflow list"
        assert ref.dropped, "workload never cancelled or superseded a live arm"
        assert [key for key, _ in ref.fired] == ref.expected()
        assert all(now == key[0] for key, now in ref.fired)
        assert sim.pending_live == 0


@pytest.mark.parametrize("_name,engine_cls", ENGINES)
def test_far_future_events_survive_cascade(_name, engine_cls):
    """Events beyond the L1 horizon (overflow) still fire, in order."""
    sim = engine_cls()
    fired = []
    for t in (seconds(40), ms(1), seconds(20), seconds(300), 0):
        sim.schedule_at(t, fired.append, t)
    sim.run()
    assert fired == [0, ms(1), seconds(20), seconds(40), seconds(300)]
    assert sim.now == seconds(300)


@pytest.mark.parametrize("_name,engine_cls", ENGINES)
class TestTimer:
    def test_rearm_supersedes(self, _name, engine_cls):
        sim = engine_cls()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.schedule(100)
        timer.schedule(50)  # supersedes; only the 50ns arm fires
        sim.run()
        assert fired == [50]

    def test_cancel_and_rearm_cycle(self, _name, engine_cls):
        sim = engine_cls()
        fired = []
        timer = sim.timer(fired.append, "x")
        for _ in range(3):
            timer.schedule(10)
            timer.cancel()
        assert not timer.armed
        timer.schedule(10)
        assert timer.armed and timer.time == 10
        sim.run()
        assert fired == ["x"]
        assert not timer.armed

    def test_fire_disarms(self, _name, engine_cls):
        sim = engine_cls()
        timer = sim.timer(lambda: None)
        timer.schedule(5)
        sim.run()
        assert not timer.armed
        # Re-arming after a fire works (the reuse the call sites rely on).
        timer.schedule(5)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_past_deadline_rejected(self, _name, engine_cls):
        sim = engine_cls()
        sim.schedule(100, lambda: None)
        sim.run()
        timer = sim.timer(lambda: None)
        with pytest.raises(SimulationError):
            timer.schedule_at(50)
        with pytest.raises(SimulationError):
            timer.schedule(-1)

    def test_stale_entries_are_free(self, _name, engine_cls):
        """Re-arming leaves stale calendar entries behind; they are dropped
        without firing and pending_live never counts them."""
        sim = engine_cls()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        for delay in range(1, 51):
            timer.schedule(delay)
        assert sim.pending >= 1
        assert sim.pending_live == 1
        sim.run()
        assert fired == [50]
        assert sim.pending == 0


@pytest.mark.parametrize("_name,engine_cls", ENGINES)
def test_handle_cancelled_after_fire(_name, engine_cls):
    """EventHandle.cancelled is True once the event can no longer fire —
    including after it fired."""
    sim = engine_cls()
    handle = sim.schedule_cancellable(10, lambda: None)
    assert not handle.cancelled
    sim.run()
    assert handle.cancelled


def test_detached_process_never_reschedules():
    """SimProcess.detach() (flow departure) silences arm_timer and wake_now
    permanently — the dead-timer fix behind flow churn."""
    from repro.sim.process import SimProcess

    class Proc(SimProcess):
        def on_wakeup(self):
            pass

    sim = Simulator()
    proc = Proc(sim, "p")
    proc.arm_timer(100)
    assert proc.timer_armed
    proc.detach()
    assert not proc.timer_armed
    proc.arm_timer(50)
    proc.wake_now()
    assert not proc.timer_armed
    assert sim.pending_live == 0
    sim.run()
    assert proc.wakeups == 0


def test_detached_tcp_endpoints_never_reschedule():
    """TcpSender/TcpReceiver detach() cancels the RTO and delayed-ACK timers
    and refuses re-arms from straggler input."""
    from repro.kernel.socket import UdpSocket
    from repro.tcp.sender import TcpSender
    from repro.tcp.receiver import TcpReceiver

    sim = Simulator()
    sender_sock = UdpSocket(sim, "10.0.0.1", 1, egress=None)
    sender_sock.connect("10.0.0.2", 2)
    recv_sock = UdpSocket(sim, "10.0.0.2", 2, egress=None)
    recv_sock.connect("10.0.0.1", 1)
    sender = TcpSender(sim, sender_sock, 10_000)
    receiver = TcpReceiver(sim, recv_sock, 10_000)
    sim.schedule_at(0, sender.start)
    sim.run(until=ms(1))
    sender.detach()
    receiver.detach()
    live_before = sim.pending_live
    sender._arm_rto()
    assert sim.pending_live == live_before
