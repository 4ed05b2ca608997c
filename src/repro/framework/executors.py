"""Pluggable execution backends for the sweep layer.

The supervised sweep (ROADMAP item 3) has to serve very different campaign
shapes from one code path: a debugger stepping through a single repetition, a
laptop fanning a paper grid across its cores, and a 10^4-10^6-repetition
campaign where per-repetition process overhead is the dominant cost. An
:class:`Executor` names *where repetitions run*; the
:class:`~repro.framework.supervision.Supervisor` owns *how they are watched*
(timeouts, retries, crash attribution), so every backend inherits the full
supervision/journal/cache semantics unchanged.

Backends
--------

``inprocess``
    Serial, in the calling process. No subprocesses, no pickling — the
    debugging and testing backend (and what ``workers=1`` always collapsed
    to). Cannot enforce wall-clock timeouts: a hung repetition cannot be
    interrupted from inside its own process.

``pool``
    Today's supervised ``ProcessPoolExecutor`` on the platform's default
    multiprocessing start method (``fork`` on Linux), wrapped *unchanged*
    behind the interface. The default.

``spawn``
    A pool on the ``spawn`` start method: every worker boots a fresh
    interpreter and re-imports the simulator (~hundreds of ms each). The
    portable/paranoid choice — and the baseline the ``forkserver`` backend
    is benchmarked against (``benchmarks/perf/backend.py``).

``forkserver``
    A pool whose workers are forked from a long-lived server process that
    *pre-imports* the simulator once (:data:`FORKSERVER_PRELOAD`). Worker
    start-up is a cheap ``fork()`` of an already-warm interpreter, which
    kills the per-worker spawn/import overhead the supervision layer
    otherwise re-pays on every pool restart (watchdog kills, crash
    recovery) and every short-lived campaign shard.

``distributed``
    A lease-dispatching :class:`~repro.framework.remote.Coordinator` over
    long-lived worker agents on one or more hosts (SSH-launched, or local
    subprocesses for ``localhost``). Pool-compatible, so the Supervisor's
    retry/timeout/quarantine loop runs unchanged; host failures (crashes,
    hangs, partitions) are absorbed *below* the pool surface by lease
    reclaim + agent relaunch and charged to the host, never the config.

Selection is an *execution* concern, deliberately independent of
``ExperimentConfig``: the backend participates in no ``cache_key()``, no
journal ``grid_key()``, and no result ``fingerprint()``, so the same grid is
served by the same cache entries under every backend — the differential test
suite (``tests/framework/test_store_differential.py``) pins exactly that.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "DistributedExecutor",
    "Executor",
    "ForkServerExecutor",
    "InProcessExecutor",
    "PoolExecutor",
    "SpawnExecutor",
    "make_executor",
]

#: Modules the forkserver pre-imports before the first fork. Importing the
#: runner pulls the whole simulator (engine, stacks, qdiscs, metrics)
#: transitively, so forked workers start with everything warm.
FORKSERVER_PRELOAD: Tuple[str, ...] = (
    "repro.framework.runner",
    "repro.framework.population",
)


class Executor:
    """Where repetitions run: serial in-process, or a process pool.

    ``serial`` backends never spawn subprocesses; pooled backends create
    fresh ``ProcessPoolExecutor`` instances via :meth:`make_pool` — called
    once up front and again on every supervision restart (watchdog kill,
    ``BrokenProcessPool`` recovery), so pool construction cost is a real
    per-campaign cost, not a one-off.
    """

    #: Registry name, also the CLI ``--backend`` value.
    name: str = "abstract"
    #: True for backends that run repetitions in the calling process.
    serial: bool = False
    #: True for backends whose "pool" spans machines; the Supervisor never
    #: collapses these to the serial in-process path, even for one task.
    distributed: bool = False

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        raise NotImplementedError(f"{self.name!r} backend does not pool")

    def observe_policy(self, policy) -> None:
        """Hook: the Supervisor announces its policy before pools are made.

        Local backends ignore it; the distributed backend derives its lease
        deadline from the per-repetition timeout so a legitimately slow
        repetition is charged a :class:`~repro.errors.RepTimeoutError` by
        the watchdog instead of masquerading as a host failure.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InProcessExecutor(Executor):
    """Serial, in the calling process (tests, debugging, profiling)."""

    name = "inprocess"
    serial = True


class PoolExecutor(Executor):
    """The platform-default ``ProcessPoolExecutor`` (today's behaviour)."""

    name = "pool"

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers)


class SpawnExecutor(Executor):
    """Pool on the ``spawn`` start method: fresh interpreter per worker."""

    name = "spawn"

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        )


class ForkServerExecutor(Executor):
    """Pool forked from a simulator-preloaded server process.

    The forkserver context is a process-wide singleton: the preload list
    must be registered before its server first starts, so it is set at
    construction time. Once the server is running (first pool of the
    process), later pools fork from the same warm server — which is exactly
    the point: a supervision pool restart costs a ``fork()``, not a
    re-import of the simulator.
    """

    name = "forkserver"

    def __init__(self, preload: Tuple[str, ...] = FORKSERVER_PRELOAD):
        self.preload = tuple(preload)
        self._context = multiprocessing.get_context("forkserver")
        if self.preload:
            try:
                self._context.set_forkserver_preload(list(self.preload))
            except ValueError:  # pragma: no cover - server already running
                pass

    def make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers, mp_context=self._context)


class DistributedExecutor(Executor):
    """Multi-host coordinator backend (``repro.framework.remote``).

    ``make_pool`` starts a fresh :class:`~repro.framework.remote.Coordinator`
    (listening socket + agent launches) — called up front and again on every
    supervision restart, exactly like local pool construction. The most
    recent coordinator is kept on :attr:`last_coordinator` so callers and
    tests can read per-host accounting after a campaign.

    Default tuning is campaign-scale (5-minute leases, half-second
    heartbeats); the chaos suite passes much tighter knobs.
    """

    name = "distributed"
    distributed = True

    def __init__(
        self,
        hosts=("localhost",),
        *,
        stream=None,
        **coordinator_kwargs,
    ):
        from repro.framework.remote import merge_hosts

        if isinstance(hosts, str):
            from repro.framework.remote import parse_hosts

            hosts = parse_hosts(hosts)
        self.hosts = merge_hosts(hosts)
        if not self.hosts:
            raise ConfigError("distributed backend needs at least one host")
        self.stream = stream
        self.coordinator_kwargs = dict(coordinator_kwargs)
        self.last_coordinator = None

    #: A lease deadline must outlive the Supervisor's own per-rep watchdog
    #: by this factor, so the watchdog (which charges the config a
    #: RepTimeoutError and retries) always fires before lease expiry
    #: (which kills the agent and charges the host).
    LEASE_TIMEOUT_FACTOR = 1.25

    def observe_policy(self, policy) -> None:
        timeout_s = getattr(policy, "timeout_s", None)
        if timeout_s is None:
            return
        floor = timeout_s * self.LEASE_TIMEOUT_FACTOR
        current = self.coordinator_kwargs.get("lease_timeout_s", 300.0)
        if current < floor:
            self.coordinator_kwargs["lease_timeout_s"] = floor

    def make_pool(self, workers: int):
        from repro.framework.remote import Coordinator

        coordinator = Coordinator(
            self.hosts, stream=self.stream, **self.coordinator_kwargs
        )
        coordinator.start()
        self.last_coordinator = coordinator
        return coordinator

    def __repr__(self) -> str:
        specs = ",".join(
            f"{spec.host}:{spec.slots}" if spec.slots != 1 else spec.host
            for spec in self.hosts
        )
        return f"DistributedExecutor({specs})"


#: Backend registry, in documentation order.
BACKENDS: Tuple[str, ...] = ("inprocess", "pool", "spawn", "forkserver", "distributed")

_FACTORIES = {
    InProcessExecutor.name: InProcessExecutor,
    PoolExecutor.name: PoolExecutor,
    SpawnExecutor.name: SpawnExecutor,
    ForkServerExecutor.name: ForkServerExecutor,
    DistributedExecutor.name: DistributedExecutor,
}


def make_executor(backend: Optional[str]) -> Executor:
    """Resolve a backend name (or pass an :class:`Executor` through).

    ``None`` means the default (``pool``). Unknown names raise
    :class:`~repro.errors.ConfigError` — an operator error, mapped to exit
    code 2 by the CLI like every other configuration mistake.
    """
    if backend is None:
        return PoolExecutor()
    if isinstance(backend, Executor):
        return backend
    factory = _FACTORIES.get(backend)
    if factory is None:
        raise ConfigError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return factory()
