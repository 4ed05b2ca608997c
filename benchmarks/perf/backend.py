"""Execution-backend overhead: forkserver vs spawn per-repetition cost.

A campaign of short repetitions pays the worker start-up cost over and over:
every ``spawn`` worker boots a fresh interpreter and re-imports the whole
simulator (numpy included) before it can run its first repetition, and the
supervision layer re-pays that price on every pool restart. The
``forkserver`` backend amortizes it: workers fork from a server process that
pre-imported the simulator once.

Method. One tiny grid (``reps`` repetitions of a 64 KiB transfer) is swept
under three backends at the same worker count, best wall-clock of ``runs``:

* ``pool`` — the fork-based default, whose worker start-up is a bare
  ``fork()`` of the already-warm parent: the floor any pooled backend can
  reach on this host;
* ``spawn`` — the cold-start ceiling (fresh interpreter + full re-import
  per worker);
* ``forkserver`` — the backend under test.

Per-repetition overhead is ``(wall(backend) - wall(pool)) / reps``: what
each repetition pays for its backend's start-up model over the fork floor.
The acceptance claim (gated by ``check.py`` whenever this section is
present in a BENCH record) is ``wall(forkserver) < wall(spawn)``.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.framework.config import ExperimentConfig
from repro.framework.sweep import SweepRunner
from repro.units import kib


def bench_backends(
    reps: int = 8, workers: int = 4, runs: int = 3, size_kib: int = 64
) -> Dict:
    grid = {
        "bench": ExperimentConfig(
            stack="quiche", file_size=kib(size_kib), repetitions=reps
        )
    }

    def best_wall(backend: str, pool_workers: int) -> float:
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            summaries = SweepRunner(workers=pool_workers, backend=backend).run(grid)
            times.append(time.perf_counter() - t0)
            assert summaries["bench"].all_completed
        return min(times)

    walls = {
        backend: best_wall(backend, workers)
        for backend in ("pool", "spawn", "forkserver")
    }
    floor = walls["pool"]
    out: Dict = {
        "reps": reps,
        "workers": workers,
        "runs": runs,
        "size_kib": size_kib,
        "backends": {
            backend: {
                "wall_s": round(wall, 4),
                "per_rep_overhead_ms": round((wall - floor) / reps * 1000, 2),
            }
            for backend, wall in walls.items()
        },
    }
    out["forkserver_vs_spawn"] = {
        "overhead_reduction_ms_per_rep": round(
            (walls["spawn"] - walls["forkserver"]) / reps * 1000, 2
        ),
        "speedup": round(walls["spawn"] / walls["forkserver"], 2),
    }
    return out

