"""Benchmark entry point: one workload, one run, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paced-transfer [--seed 1] [--seconds 30] [--trace 0]

``--trace 0`` runs the closed loop for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs one untraced reference batch, then
the same batch with every layer boundary wrapped (``layers.py``) at least
twice and for the rest of ``--seconds``, and reports the per-layer metrics. Either way the outputs are checked (every
rep completes and validates; the golden seed's fingerprints match
``golden.json``) and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the build mode, Python version, nproc and git revision, is written to
``perfbench/out/``. See README.md for what each metric means.
"""

import time

#: setup_s counts from here, before any other import.
T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
OUT = BENCH_DIR / "out"
DEFAULT_SEED = 1
#: Set-ups timed per run, back to back before the timed loop (this process
#: plus fresh subprocesses); setup_s is their median.
SETUP_SAMPLES = 7
#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wire_pkts_per_s": "1/s",
    "rep_s.p50": "s",
    "reps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and refuse to run
    against any other copy of the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    if not (ROOT / "benchmarks" / "perf" / "manyflow.py").is_file():
        raise SystemExit(f"perfbench: missing {ROOT}/benchmarks/perf/manyflow.py")
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _become_subreaper() -> None:
    """Have orphaned descendants (forkserver workers outliving their
    server) re-parented to this process, so that it can wait for them."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _child_pids() -> list:
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if stat.rsplit(")", 1)[1].split()[1] == me:
                pids.append(int(entry.name))
    return pids


def _end_child_processes(grace_s: float = 20.0) -> None:
    """Stop the forkserver and the resource tracker this run started, then
    wait until every child process has ended, killing any still alive after
    ``grace_s``."""
    from multiprocessing import forkserver, resource_tracker

    server = forkserver._forkserver
    if server._forkserver_pid is not None:
        server._stop()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # EOF on its pipe ends the tracker once the workers' copies close too.
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _environment() -> dict:
    from repro import build_info

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    return {
        "build_mode": build_info()["mode"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "platform": platform.platform(),
    }


def _tail(samples: list) -> dict:
    """The highest of p99/p95/p90/p75 with enough samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1], "n": n}
    return {"p": None, "value": None, "n": n}


def _peak_rss_mib(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + getattr(workload, "worker_peak_kib", 0)) / 1024


def _setup_scale() -> float:
    """Reference seconds per host second, read right after set-up."""
    from perfbench.hostspeed import REF_S, reading

    return REF_S / statistics.median(reading() for _ in range(5))


def _extra_setups(args) -> list:
    """Time SETUP_SAMPLES - 1 more set-ups, each in a fresh process, as
    (host seconds, reference seconds per host second) pairs."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr[-2000:]}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        samples.append((sample["setup_s"], sample["scale"]))
    return samples


def run_timed(workload, seconds: float) -> tuple:
    from perfbench.workloads import perf

    batches = []
    workload.time()
    t0 = perf()
    # Start another batch only if it should end nearer the deadline than
    # stopping now would, so a run lasts about ``seconds``.
    while not batches or perf() - t0 + (perf() - t0) / len(batches) / 2 < seconds:
        batches.append(workload.batch(len(batches)))
    return batches, workload.e2e(batches), workload.e2e(batches, ref=False)


def run_traced(workload, seconds: float) -> dict:
    """Untraced batch 0, then batch 0 again with every boundary wrapped: at
    least twice, and again while the run stays within ``seconds``."""
    from perfbench.layers import LAYERS, SYSCALLS, Tracer
    from perfbench.workloads import perf

    start = perf()
    ref = workload.batch(0)
    extras = workload.untraced_extras()
    tracer = Tracer()
    tracer.install()
    passes = []  # (batch, exact counts, layer totals)
    snapshot = None
    while len(passes) < 2 or perf() - start + passes[-1][0].elapsed_s / 2 < seconds:
        t0 = perf()
        batch = workload.batch(0)
        batch.elapsed_s = perf() - t0
        counts = tracer.counts()
        for key in ("events", "wire_pkts", "drops"):
            counts[key] = sum(getattr(r, key) for r in batch.reps)
        counts["cache_hits"] = batch.cache_hits
        passes.append((batch, counts, tracer.layer_totals()))
        if snapshot is None:
            snapshot = tracer.snapshot()
            tracer.stop_recording_spans()
        tracer.reset()

    a, counts_a, totals_a = passes[0]
    for traced, _, _ in passes:
        for r0, r in zip(ref.reps, traced.reps):
            if r.fingerprint != r0.fingerprint and not r.error:
                r.error = "traced fingerprint differs from the untraced one"
        if traced.fingerprints != ref.fingerprints:
            for r in traced.reps:
                r.error = r.error or "traced batch fingerprints differ from the untraced batch"
    drift = sorted({k for _, counts, _ in passes[1:] for k in counts_a.keys() | counts.keys()
                    if counts_a.get(k) != counts.get(k)})
    if drift:
        for traced, _, _ in passes[1:]:
            for r in traced.reps:
                r.error = r.error or f"exact counts drifted between traced passes: {drift[:5]}"

    n = len(a.reps)
    simulated = [r for r in a.reps if r.events] or a.reps
    wire = counts_a["wire_pkts"] or 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t[layer]["self_s"] for _, _, t in passes) / (len(passes) * n)
        metrics[f"{layer}.calls"] = totals_a[layer]["calls"] / n
    stack_calls = totals_a["stacks"]["calls"]
    ref_e2e = workload.e2e([ref], ref=False)
    metrics.update({
        "sim.events_per_wire_pkt": counts_a["events"] / wire,
        "net.hops_per_wire_pkt": totals_a["net"]["calls"] / wire,
        "kernel.syscalls_per_wire_pkt": sum(counts_a.get(s, 0) for s in SYSCALLS) / wire,
        "stacks.idle_wakeup_frac": counts_a["stacks.idle_wakeups"] / stack_calls if stack_calls else 0.0,
        "sim.stale_frac": extras.get("sim.stale_frac", 0.0),
        "net.bottleneck.drops": counts_a["drops"] / len(simulated),
        "framework.cache.hit_frac": a.cache_hits / a.cache_lookups if a.cache_lookups else 0.0,
        "framework.exec.busy_frac": ref_e2e["busy_frac"],
        "framework.pass.cold_reps_per_s": ref_e2e.get("cold_reps_per_s", 0.0),
        "framework.pass.warm_reps_per_s": ref_e2e.get("warm_reps_per_s", 0.0),
        "trace.overhead": sum(b.wall_s for b, _, _ in passes) / (len(passes) * ref.wall_s) - 1,
        "trace.coverage": sum(sum(row["self_s"] for row in t.values()) for _, _, t in passes)
        / sum(b.elapsed_s for b, _, _ in passes),
    })
    return {
        "batches": [ref] + [b for b, _, _ in passes],
        "traced_passes": len(passes),
        "metrics": metrics,
        "counts": counts_a,
        "count_drift": drift,
        "unwrapped": tracer.unwrapped,
        "trace": {"aggregates": snapshot, "spans": tracer.span_rows()},
    }


def _per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".calls", ".drops")):
        return "count"
    if name.endswith("_reps_per_s"):
        return "1/s"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paced-transfer", "population-churn", "campaign"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (used for setup_s)")
    args = parser.parse_args(argv)

    _import_program()
    _become_subreaper()
    # A terminated run still stops its child processes (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from perfbench.workloads import WORKLOADS, perf

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    at_golden_seed = args.seed == golden.get("seed")
    golden_fps = golden.get("fingerprints", {}).get(args.workload, {}) if at_golden_seed else {}
    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, golden_fps, workdir)
    try:
        workload.setup()
        setup_s = perf() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "scale": _setup_scale()}))
            return 0
        if args.trace:
            traced = run_traced(workload, args.seconds)
            batches = traced["batches"]
        else:
            setups = [(setup_s, _setup_scale())] + _extra_setups(args)
            batches, e2e, e2e_host = run_timed(workload, args.seconds)
    finally:
        _end_child_processes()
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    reps = [r for b in batches for r in b.reps]
    failed = [r for r in reps if r.error]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "attempted": len(reps),
        "failed": len(failed),
        "failures": [f"{r.label}@{r.seed}: {r.error}" for r in failed[:20]],
        "golden_checked": bool(golden_fps),
    }
    if args.trace:
        values = traced["metrics"]
        units = {name: _per_layer_unit(name) for name in values}
        record["counts"] = traced["counts"]
        record["count_drift"] = traced["count_drift"]
        record["traced_passes"] = traced["traced_passes"]
        record["unwrapped_boundaries"] = traced["unwrapped"]
        want = golden.get("counts", {}).get(args.workload) if at_golden_seed else None
        if want is None:
            record["counts_vs_golden"] = "not recorded"
        else:
            got = traced["counts"]
            # An unwrapped boundary has no count on this build; that is not a change.
            changed = sorted(k for k in want.keys() | got.keys()
                             if want.get(k) != got.get(k) and k not in traced["unwrapped"])
            record["counts_vs_golden"] = changed or "same"
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(traced["trace"]))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        peak = _peak_rss_mib(workload)
        values = {
            "setup_s": statistics.median(host_s * scale for host_s, scale in setups),
            "wire_pkts_per_s": e2e["wire_pkts_per_s"],
            "rep_s.p50": statistics.median(e2e["rep_s"]),
            "reps_per_s": e2e["reps_per_s"],
            "peak_rss_mib": peak,
        }
        units = E2E_UNITS
        record["setup_samples_s"] = [host_s for host_s, _ in setups]
        record["setup_scales"] = [scale for _, scale in setups]
        record["host_seconds"] = {
            "setup_s": statistics.median(host_s for host_s, _ in setups),
            "wire_pkts_per_s": e2e_host["wire_pkts_per_s"],
            "rep_s.p50": statistics.median(e2e_host["rep_s"]),
            "reps_per_s": e2e_host["reps_per_s"],
        }
        record["host_speed_readings_s"] = workload.host.readings
        record["rep_s.samples"] = len(e2e["rep_s"])
        record["rep_s.tail"] = _tail(e2e["rep_s"])
        record["failed_frac"] = len(failed) / len(reps)
        record["batches"] = len(batches)
        record["reps"] = [vars(r) for r in reps]
    record["metrics"] = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
    correct = not failed
    record["correct"] = correct

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"build={env['build_mode']} python={env['python']} nproc={env['nproc']} "
          f"rev={env['git_rev']}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")
    if not args.trace:
        tail = record["rep_s.tail"]
        tail_text = (f"p{tail['p']} {tail['value']:.4f} s" if tail["p"]
                     else f"no percentile above p50 has {TAIL_MIN_BEYOND} samples beyond it")
        print(f"  rep_s samples {tail['n']}; tail: {tail_text}")
        print("  in host seconds: " + ", ".join(
            f"{name} {value:.6g}" for name, value in record["host_seconds"].items()))
        print(f"  failed_frac {record['failed_frac']:.4f} ({len(failed)}/{len(reps)})")
    else:
        print(f"  exact counts vs golden: {record['counts_vs_golden']}; "
              f"drift between traced passes: {record['count_drift'] or 'none'}")
        if traced["unwrapped"]:
            print(f"  not wrapped (compiled types; time counted in the caller): "
                  f"{', '.join(traced['unwrapped'])}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
