"""SweepRunner: grid fan-out, serial/parallel determinism, progress lines."""

import io
import pickle

from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.experiment import ExperimentResult
from repro.framework.journal import SweepJournal
from repro.framework.store import ResultStore
from repro.framework.sweep import SweepRunner, resolve_workers, run_sweep
from repro.units import kib

GRID = {
    "quiche": ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=2),
    "tcp": ExperimentConfig(stack="tcp", file_size=kib(150), repetitions=2),
}


def _fingerprint(summaries):
    return {
        name: [
            (r.seed, r.goodput_mbps, r.dropped, tuple(r.server_records))
            for r in summary.results
        ]
        for name, summary in summaries.items()
    }


def test_parallel_matches_serial_over_grid():
    serial = SweepRunner(workers=1).run(GRID)
    parallel = SweepRunner(workers=3).run(GRID)
    assert _fingerprint(parallel) == _fingerprint(serial)
    assert list(parallel) == list(GRID)  # summaries keep grid order


def test_cached_matches_uncached(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepRunner(workers=2, cache=cache).run(GRID)
    assert cache.stats.stores == 4
    warm = SweepRunner(workers=2, cache=cache).run(GRID)
    assert cache.stats.hits == 4
    assert _fingerprint(warm) == _fingerprint(cold)


def test_progress_lines(tmp_path):
    cache = ResultCache(tmp_path)
    stream = io.StringIO()
    run_sweep(GRID, workers=1, cache=cache, stream=stream)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 4  # one per (config, rep)
    assert all(line.startswith("[sweep] ") for line in lines)
    assert any("quiche rep 1/2" in line for line in lines)
    assert any("events" in line and "wall" in line for line in lines)
    assert "[cached]" not in stream.getvalue()

    warm = io.StringIO()
    run_sweep(GRID, workers=1, cache=cache, stream=warm)
    assert sum(1 for line in warm.getvalue().splitlines() if "[cached]" in line) == 4


def test_resolve_workers():
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) == 1
    assert resolve_workers(-3) == 1
    assert resolve_workers(4) == 4


def test_rep_results_slot_into_rep_order():
    cfg = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=3)
    summary = run_sweep({"x": cfg}, workers=3)["x"]
    from repro.framework.runner import derive_seed

    assert [r.seed for r in summary.results] == [
        derive_seed(cfg.seed, rep) for rep in range(3)
    ]


def test_fingerprint_computed_once_per_rep_per_pass(tmp_path, monkeypatch):
    """With cache, journal and store all recording, each pass digests every
    rep exactly once, and the journal, the store and the result agree."""
    calls = []
    digest = ExperimentResult.fingerprint

    def counted(self):
        calls.append(self.seed)
        return digest(self)

    monkeypatch.setattr(ExperimentResult, "fingerprint", counted)
    grid = {"quiche": ExperimentConfig(stack="quiche", file_size=kib(64), repetitions=3)}
    cache = ResultCache(tmp_path / "cache")
    journal_dir = tmp_path / "journal"
    with ResultStore(tmp_path / "store.sqlite") as store:
        for hits in (0, 3):
            calls.clear()
            runner = SweepRunner(
                backend="inprocess", cache=cache, store=store, journal_dir=journal_dir
            )
            results = runner.run(grid)["quiche"].results
            assert cache.stats.hits == hits
            assert sorted(calls) == sorted(r.seed for r in results)
            calls.clear()
            journal = SweepJournal.for_grid(journal_dir, grid)
            rows = {row["rep"]: row["fingerprint"] for row in store.query()}
            for rep, result in enumerate(results):
                fingerprint = result.fingerprint()
                assert journal.get("quiche", rep).fingerprint == fingerprint
                assert rows[rep] == fingerprint

    # A cached result carries no digest: one changed after unpickling
    # digests differently instead of reusing a stale value.
    entry = next((tmp_path / "cache").glob("*/*.pkl"))
    _, cached = pickle.loads(entry.read_bytes())
    before = cached.fingerprint()
    assert before in rows.values()
    cached.dropped += 1
    assert cached.fingerprint() != before
