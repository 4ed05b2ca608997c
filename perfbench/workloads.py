"""The three benchmark workloads.

Each workload is a closed loop in one process: it runs a *batch* (one
cycle of the single-connection matrix, one population, or one cold + warm
campaign pass pair), checks its outputs, and starts the next batch only
after the previous one finished. Batch ``i`` draws its seeds from
``derive_seed(workload_seed, i)``, so the same ``--seed`` gives the same
inputs and batch 0 of the golden seed has recorded fingerprints.

Why each workload exists (see README.md for the expected-effects table):

* ``paced-transfer`` spends its time on the paper's own path (quic, stacks,
  pacing, cc, kernel, capture, gap/train analysis) and none in executors,
  the cache, the store or the demux.
* ``population-churn`` is thousands of timers and mostly network-pipeline
  events over one shared bottleneck, with capture records and per-flow
  metrics off: it stresses the engine and the net layer.
* ``campaign`` puts its time in the framework (executors, supervision,
  cache, store, journal); its warm pass bypasses simulation entirely.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf.manyflow import population_config
from repro.framework import experiment, population, scenarios, validate
from repro.framework.cache import ResultCache
from repro.framework.store import ResultStore
from repro.framework.sweep import SweepRunner
from repro.metrics import gaps, trains
from repro.net.impairments import iid_loss
from repro.sim.random import derive_seed
from repro.units import kib, mib

from perfbench.hostspeed import HostSpeed

perf = time.perf_counter


@dataclass
class Rep:
    """One repetition attempted, with its checks. ``error`` is empty when
    the rep raised nothing, completed, validated and matched its golden
    fingerprint (when one is recorded)."""

    label: str
    seed: int
    wall_s: float = 0.0      # host seconds, timed by the benchmark
    scale: float = 1.0       # reference seconds per host second around its batch
    sim_wall_s: float = 0.0  # the result's own wall_time_s (worker-side in a campaign)
    wire_pkts: int = 0
    events: int = 0
    drops: int = 0
    fingerprint: str = ""
    error: str = ""


@dataclass
class Batch:
    reps: List[Rep]
    wall_s: float  # host seconds of the timed part
    ref_wall_s: float  # the same in reference seconds (hostspeed.py)
    fingerprints: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0  # whole batch, checks included (set by traced runs)
    # campaign only
    cold_wall_s: float = 0.0
    warm_wall_s: float = 0.0
    cold_scale: float = 1.0
    warm_scale: float = 1.0
    cold_reps: int = 0
    warm_reps: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0][:200]


class Workload:
    name = ""
    #: Host-speed readings taken after each timed part (hostspeed.py).
    READINGS = 2
    #: How far this workload's time follows the kernel's (hostspeed.py).
    ELASTICITY = 1.0

    def __init__(self, seed: int, golden: Dict[str, str], workdir: Path):
        self.seed = seed
        self.golden = golden
        self.workdir = workdir
        #: Set by ``time()`` for timed runs: each timed part is then
        #: followed by host-speed readings. Traced runs leave it unset.
        self.host: Optional[HostSpeed] = None

    def time(self) -> None:
        self.host = HostSpeed(self.READINGS)

    def _mark(self) -> int:
        return self.host.mark() if self.host else 0

    def _read_host(self) -> None:
        if self.host:
            self.host.read()

    def _scale_since(self, mark: int) -> float:
        return self.host.scale_since(mark, self.ELASTICITY) if self.host else 1.0

    def _timed_rep(self, rep: Rep, run) -> Rep:
        """Time ``run()`` (the rep, its analysis and ``validate()``) plus the
        result's fingerprint, then check completion and the golden value.
        ``run`` returns (result, wire packets, message if not completed)."""
        gc.collect()
        t0 = perf()
        try:
            result, rep.wire_pkts, unfinished = run()
            rep.fingerprint = result.fingerprint()
        except Exception as exc:
            rep.wall_s = perf() - t0
            self._read_host()
            rep.error = _failure(exc)
            return rep
        rep.wall_s = perf() - t0
        self._read_host()
        rep.sim_wall_s = result.wall_time_s
        rep.events = result.events_processed
        rep.drops = result.dropped
        want = self.golden.get(f"{rep.label}@{rep.seed}")
        if not result.completed:
            rep.error = unfinished
        elif want is not None and want != rep.fingerprint:
            rep.error = f"fingerprint {rep.fingerprint[:12]} != golden {want[:12]}"
        return rep

    def _batch(self, reps: List[Rep], mark: int) -> Batch:
        scale = self._scale_since(mark)
        for r in reps:
            r.scale = scale
        wall = sum(r.wall_s for r in reps)
        return Batch(reps, wall, wall * scale, [r.fingerprint for r in reps])

    def setup(self) -> None:
        raise NotImplementedError

    def batch(self, index: int) -> Batch:
        raise NotImplementedError

    def e2e(self, batches: List[Batch], ref: bool = True) -> Dict[str, object]:
        """Each batch's rates, reported as their median across batches (a
        slow stretch of a shared host then moves one batch, not the run),
        and the per-rep seconds as ``rep_s`` samples; in reference seconds
        unless ``ref`` is false."""
        rates = [self.rates(b, ref) for b in batches]
        out: Dict[str, object] = {k: statistics.median(r[k] for r in rates) for k in rates[0]}
        out["rep_s"] = self.rep_seconds(batches, ref)
        return out

    def rates(self, batch: Batch, ref: bool) -> Dict[str, float]:
        wall = batch.ref_wall_s if ref else batch.wall_s
        return {
            "wire_pkts_per_s": sum(r.wire_pkts for r in batch.reps) / wall,
            "reps_per_s": len(batch.reps) / wall,
            "busy_frac": sum(r.sim_wall_s for r in batch.reps) / batch.wall_s,
        }

    def rep_seconds(self, batches: List[Batch], ref: bool) -> List[float]:
        return [r.wall_s * (r.scale if ref else 1.0) for b in batches for r in b.reps]

    def untraced_extras(self) -> Dict[str, float]:
        """Counts that need their own untraced run (the event census)."""
        return {}


class PacedTransfer(Workload):
    """Repeated 4 MiB downloads over the paper's single-connection matrix,
    each followed by the capture analysis (gaps and trains)."""

    name = "paced-transfer"

    def __init__(self, *args):
        super().__init__(*args)
        self.configs = self.matrix(mib(4))

    @staticmethod
    def matrix(size: int) -> Dict[str, object]:
        return {
            "quiche:cubic:fq": scenarios.quiche_fq(file_size=size),
            "picoquic": scenarios.baseline("picoquic", file_size=size),
            "ngtcp2": scenarios.baseline("ngtcp2", file_size=size),
            "tcp": scenarios.baseline("tcp", file_size=size),
            "quiche:cubic:fq+loss1%": scenarios.impairment_config(
                (iid_loss(0.01),), file_size=size
            ),
        }

    def setup(self) -> None:
        for label, cfg in self.matrix(kib(256)).items():
            self._rep(label, cfg, 1)

    def _rep(self, label: str, cfg, seed: int) -> Rep:
        def run():
            result = experiment.run_experiment(cfg, seed=seed)
            gaps.inter_packet_gaps(result.server_records)
            trains.packet_trains(result.server_records)
            result.validate()
            return result, result.packets_on_wire, "transfer did not complete"

        return self._timed_rep(Rep(label, seed), run)

    def batch(self, index: int) -> Batch:
        seed = derive_seed(self.seed, index)
        mark = self._mark()
        return self._batch([self._rep(label, cfg, seed) for label, cfg in self.configs.items()], mark)


class PopulationChurn(Workload):
    """One 500-flow churning population per batch (benchmarks/perf's
    ``population_config``)."""

    name = "population-churn"
    FLOWS = 500
    READINGS = 5
    #: Measured: log rep time against log kernel time has slope 0.61 for
    #: this population (58 reps over seven minutes), against 0.93-0.99 for
    #: single transfers. With full scaling its runs spread 0.09-0.17.
    ELASTICITY = 0.6

    def setup(self) -> None:
        self._rep(population_config(24, churn=True), 1)

    def _rep(self, cfg, seed: int) -> Rep:
        def run():
            result = population.run_population(cfg, seed=seed)
            validate.validate_result(result)
            unfinished = cfg.flows - result.completed_count
            wire_pkts = sum(f.wire_packets for f in result.multi.flows)
            return result, wire_pkts, f"{unfinished} flows did not complete"

        return self._timed_rep(Rep(f"pop{cfg.flows}", seed), run)

    def batch(self, index: int) -> Batch:
        mark = self._mark()
        rep = self._rep(population_config(self.FLOWS, churn=True), derive_seed(self.seed, index))
        return self._batch([rep], mark)

    def untraced_extras(self) -> Dict[str, float]:
        seed = derive_seed(self.seed, 0)
        result = population.run_population(
            population_config(self.FLOWS, churn=True), seed=seed, profile_events=True
        )
        totals = result.census["totals"]
        return {"sim.stale_frac": totals["stale"] / totals["scheduled"]}


def _read_vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Campaign(Workload):
    """A SweepRunner grid of the four stack profiles at 256 KiB: a cold pass
    (compute, cache, store, journal) and a warm pass over the same grid
    (all cache hits, then store writes), forkserver backend, two workers."""

    name = "campaign"
    WORKERS = 2
    READINGS = 4
    REPS_PER_CONFIG = 24

    def __init__(self, *args):
        super().__init__(*args)
        self.worker_peak_kib = 0
        self._install_worker_probe()

    def _install_worker_probe(self) -> None:
        """Read each worker's peak RSS just before the supervisor retires
        its pool (forkserver workers are not our children, so rusage cannot
        see them)."""
        from repro.framework.supervision import Supervisor

        kill_pool = Supervisor.__dict__["_kill_pool"].__func__
        workload = self

        def probed(pool):
            for process in list(getattr(pool, "_processes", {}).values()):
                workload.worker_peak_kib = max(
                    workload.worker_peak_kib, _read_vm_hwm_kib(process.pid)
                )
            return kill_pool(pool)

        Supervisor._kill_pool = staticmethod(probed)

    def setup(self) -> None:
        self._cycle("setup", scenarios.all_baselines(file_size=kib(64), repetitions=1, seed=1))

    def batch(self, index: int) -> Batch:
        grid = scenarios.all_baselines(
            file_size=kib(256),
            repetitions=self.REPS_PER_CONFIG,
            seed=derive_seed(self.seed, index),
        )
        return self._cycle(str(index), grid)

    def _pass(self, grid, cache, store, journal_dir) -> tuple:
        runner = SweepRunner(
            workers=self.WORKERS,
            cache=cache,
            backend="forkserver",
            store=store,
            journal_dir=journal_dir,
        )
        mark = self._mark()
        t0 = perf()
        summaries = runner.run(grid)
        wall = perf() - t0
        self._read_host()
        return summaries, wall, self._scale_since(mark)

    def _cycle(self, tag: str, grid) -> Batch:
        directory = self.workdir / f"cycle-{tag}"
        cache = ResultCache(directory / "cache")
        store = ResultStore(directory / "store.sqlite")
        reps: List[Rep] = []
        errors: List[str] = []
        try:
            cold, cold_wall, cold_scale = self._pass(grid, cache, store, directory / "journal")
            cold_fp = store.content_fingerprint()
            hits_before = cache.stats.hits
            warm, warm_wall, warm_scale = self._pass(grid, cache, store, directory / "journal")
            warm_fp = store.content_fingerprint()
            hits = cache.stats.hits - hits_before
        finally:
            store.close()
            shutil.rmtree(directory, ignore_errors=True)
        counted = {}
        for kind, summaries in (("cold", cold), ("warm", warm)):
            for name, summary in summaries.items():
                for failure in summary.failures:
                    reps.append(Rep(f"{kind}:{name}", failure.seed, error=failure.describe()[:200]))
                for result in summary.results:
                    rep = Rep(f"{kind}:{name}", result.seed)
                    rep.scale = cold_scale if kind == "cold" else warm_scale
                    if kind == "cold":
                        rep.sim_wall_s = result.wall_time_s
                        rep.wire_pkts = result.packets_on_wire
                        rep.events = result.events_processed
                        rep.drops = result.dropped
                    if not result.completed:
                        rep.error = "transfer did not complete"
                    reps.append(rep)
                counted[kind] = counted.get(kind, 0) + len(summary.results)
        # The store holds every row's payload and fingerprint, so equal
        # store digests mean the warm pass served exactly the cold results.
        total = sum(c.repetitions for c in grid.values())
        if counted.get("cold") != total or counted.get("warm") != total:
            errors.append(f"results: {counted} of {total} per pass")
        if hits != total:
            errors.append(f"warm pass: {hits} cache hits for {total} reps")
        if cold_fp != warm_fp:
            errors.append("store fingerprint changed between the cold and warm pass")
        seed = next(iter(grid.values())).seed
        want = self.golden.get(f"store@{seed}")
        if want is not None and want != cold_fp:
            errors.append(f"store fingerprint {cold_fp[:12]} != golden {want[:12]}")
        for rep in reps:
            rep.error = rep.error or "; ".join(errors)
        return Batch(
            reps,
            cold_wall + warm_wall,
            cold_wall * cold_scale + warm_wall * warm_scale,
            fingerprints=[cold_fp],
            cold_wall_s=cold_wall,
            warm_wall_s=warm_wall,
            cold_scale=cold_scale,
            warm_scale=warm_scale,
            cold_reps=counted.get("cold", 0),
            warm_reps=counted.get("warm", 0),
            cache_hits=hits,
            cache_lookups=2 * total,
        )

    def rates(self, batch: Batch, ref: bool) -> Dict[str, float]:
        # Only the cold pass simulates; the warm pass serves cached results.
        cold = [r for r in batch.reps if r.label.startswith("cold:")]
        cold_wall = batch.cold_wall_s * (batch.cold_scale if ref else 1.0)
        warm_wall = batch.warm_wall_s * (batch.warm_scale if ref else 1.0)
        return {
            "wire_pkts_per_s": sum(r.wire_pkts for r in cold) / cold_wall,
            "reps_per_s": (batch.cold_reps + batch.warm_reps) / (cold_wall + warm_wall),
            "busy_frac": sum(r.sim_wall_s for r in cold) / (self.WORKERS * batch.cold_wall_s),
            "cold_reps_per_s": batch.cold_reps / cold_wall,
            "warm_reps_per_s": batch.warm_reps / warm_wall,
        }

    def rep_seconds(self, batches: List[Batch], ref: bool) -> List[float]:
        """Worker-side seconds of each simulated (cold) rep."""
        return [r.sim_wall_s * (r.scale if ref else 1.0)
                for b in batches for r in b.reps if r.label.startswith("cold:")]


WORKLOADS = {w.name: w for w in (PacedTransfer, PopulationChurn, Campaign)}
