"""Outside-in layer tracing: time each layer by wrapping its public entry
points, from the benchmark's own files, without touching ``src/``.

Each boundary below is a (layer, module, owner, names) row. ``owner`` is a
class name, a class name ending in ``*`` (the class and every subclass that
defines the method itself, e.g. every qdisc), or ``None`` for module-level
functions, which are replaced in every loaded ``repro`` module that imported
them by name. Wrappers must be installed before the topology of a traced
rep is built: components capture bound methods at construction
(``sim.timer(self._on_rto)``, ``socket.on_readable = ...``), and only
objects built after installation see the wrapped methods.

A span is one call through a wrapped boundary. Its self time is its
duration minus the time covered by the spans it caused, so the self times
of all layers add up to the traced wall time, less the benchmark's own loop.
Spans are aggregated in memory per boundary and per (caller layer, callee
layer) edge; the first ``span_cap`` raw spans are also kept, and everything
is written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
import time
from typing import Dict, List, Tuple

#: The traced layers, in report order.
LAYERS = (
    "sim",
    "stacks",
    "quic",
    "quic.recovery",
    "cc",
    "pacing",
    "tcp",
    "kernel.socket",
    "kernel.qdisc",
    "kernel.gso",
    "net",
    "net.tap",
    "metrics",
    "framework.build",
    "framework.collect",
    "framework.cache",
    "framework.store",
    "framework.exec",
    "framework.journal",
)

BOUNDARIES: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    ("stacks", "repro.stacks.base", "ServerDriver", ("on_wakeup",)),
    ("stacks", "repro.stacks.client", "ClientDriver", ("on_wakeup",)),
    ("quic", "repro.quic.connection", "Connection",
     ("on_datagram", "build_packet", "on_packet_sent", "on_timeout")),
    ("quic.recovery", "repro.quic.recovery", "LossRecovery",
     ("on_ack_frame", "on_loss_timeout")),
    ("cc", "repro.cc.base", "CongestionController*",
     ("on_packets_acked", "on_packets_lost", "on_packet_sent", "on_rate_sample")),
    ("pacing", "repro.pacing.base", "Pacer*", ("release_time", "commit", "update_rate")),
    ("tcp", "repro.tcp.sender", "TcpSender", ("start", "_on_readable", "_on_rto")),
    ("tcp", "repro.tcp.receiver", "TcpReceiver", ("_on_readable", "_send_ack")),
    ("kernel.socket", "repro.kernel.socket", "UdpSocket",
     ("sendmsg", "sendmmsg", "send_gso", "deliver", "receive")),
    ("kernel.qdisc", "repro.kernel.qdisc.base", "Qdisc*", ("receive", "enqueue")),
    ("kernel.gso", "repro.kernel.gso", "GsoSegmenter", ("receive",)),
    ("net", "repro.net.link", "Link", ("receive",)),
    ("net", "repro.net.nic", "Nic", ("receive",)),
    ("net", "repro.net.bottleneck", "Bottleneck", ("receive",)),
    ("net", "repro.net.wifi", "WifiBottleneck", ("receive",)),
    ("net", "repro.net.demux", "PortDemux", ("receive",)),
    ("net", "repro.net.impairments", "ImpairmentStage*", ("receive",)),
    ("net", "repro.framework.multiflow", "DrainSink", ("receive",)),
    ("net.tap", "repro.net.tap", "FiberTap", ("receive",)),
    ("net.tap", "repro.net.tap", "Sniffer", ("capture",)),
    ("metrics", "repro.metrics.gaps", None, ("inter_packet_gaps", "pooled_gaps")),
    ("metrics", "repro.metrics.trains", None, ("packet_trains", "packets_by_train_length")),
    ("metrics", "repro.metrics.fairness", None,
     ("jain_index", "throughput_ratio_matrix", "beats_relation", "transitivity_violations")),
    ("framework.build", "repro.framework.experiment", "Experiment", ("__init__",)),
    ("framework.build", "repro.framework.multiflow", "MultiFlowExperiment", ("__init__",)),
    ("framework.build", "repro.framework.population", "FlowPopulation", ("specs",)),
    ("framework.collect", "repro.framework.experiment", "Experiment", ("run",)),
    ("framework.collect", "repro.framework.multiflow", "MultiFlowExperiment", ("run",)),
    ("framework.collect", "repro.framework.population", None, ("aggregate_population",)),
    ("framework.collect", "repro.framework.experiment", "ExperimentResult", ("fingerprint",)),
    ("framework.collect", "repro.framework.multiflow", "MultiFlowResult", ("fingerprint",)),
    ("framework.collect", "repro.framework.population", "PopulationResult", ("fingerprint",)),
    ("framework.collect", "repro.framework.validate", None, ("validate_result",)),
    ("framework.cache", "repro.framework.cache", "ResultCache", ("get", "put")),
    ("framework.store", "repro.framework.store", "ResultStore", ("record_result",)),
    ("framework.exec", "repro.framework.supervision", "Supervisor", ("run",)),
    ("framework.journal", "repro.framework.journal", "SweepJournal",
     ("for_grid", "record_success", "record_failure")),
)

#: Packages whose every module is imported before installation, so that
#: ``Owner*`` rows see subclasses a factory would only import lazily.
_SUBCLASS_PACKAGES = ("repro.cc", "repro.pacing", "repro.kernel.qdisc", "repro.net")

#: Boundaries counted as system calls for ``kernel.syscalls_per_wire_pkt``.
SYSCALLS = ("UdpSocket.sendmsg", "UdpSocket.sendmmsg", "UdpSocket.send_gso")
#: A stack wakeup is idle when no span below it received a datagram or sent
#: one; these flag bits sit above the layer bits in a frame's child mask.
_RX_BIT = 1 << len(LAYERS)
_TX_BIT = 1 << (len(LAYERS) + 1)


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Span aggregation for every boundary in :data:`BOUNDARIES`."""

    def __init__(self, span_cap: int = 20000):
        self.names: List[str] = []      # boundary label, e.g. "Link.receive"
        self.layer_of: List[int] = []   # boundary index -> layer index
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.edges: Dict[Tuple[int, int], List[float]] = {}
        self.idle_wakeups = 0
        self.unwrapped: List[str] = []  # boundaries that could not be patched
        self.spans: List[tuple] = []
        self.span_cap = [span_cap]
        # Frames: [child seconds, child layer mask, layer, span id]; the root
        # frame stands for the benchmark's own code.
        self._stack: List[list] = [[0.0, 0, -1, -1]]
        self._ids = itertools.count()
        self._epoch = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for package in _SUBCLASS_PACKAGES:
            pkg = importlib.import_module(package)
            for info in pkgutil.iter_modules(pkg.__path__, package + "."):
                importlib.import_module(info.name)
        for layer, module_name, owner, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            if owner is None:
                for name in names:
                    self._wrap_function(layer, module, name)
                continue
            base = getattr(module, owner.rstrip("*"))
            classes = _subclasses(base) if owner.endswith("*") else [base]
            for cls in classes:
                for name in names:
                    if name in cls.__dict__:
                        self._wrap_method(layer, cls, name)

    def _new_boundary(self, layer: str, label: str) -> int:
        self.names.append(label)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap_method(self, layer: str, cls: type, name: str) -> None:
        raw = cls.__dict__[name]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        label = f"{cls.__name__}.{name}"
        wrapped = self._wrapper(fn, self._new_boundary(layer, label))
        try:
            setattr(cls, name, kind(wrapped) if kind else wrapped)
        except TypeError:
            # A compiled extension type (the C Simulator) cannot be patched;
            # its time then counts as its caller's self time.
            self.unwrapped.append(label)

    def _wrap_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrapper(original, self._new_boundary(layer, f"{module.__name__}.{name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)

    def _wrapper(self, fn, b: int):
        layer = self.layer_of[b]
        label = self.names[b]
        bit = 1 << layer
        if label == "Connection.on_datagram":
            bit |= _RX_BIT
        elif label in SYSCALLS:
            bit |= _TX_BIT
        idle_check = LAYERS[layer] == "stacks"
        busy_bits = _RX_BIT | _TX_BIT
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges
        spans, cap, ids, perf, epoch = self.spans, self.span_cap, self._ids, time.perf_counter, self._epoch
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, 0, layer, next(ids)]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                parent[1] |= bit | frame[1]
                self_s[b] += dt - frame[0]
                calls[b] += 1
                edge = edges.get((parent[2], layer))
                if edge is None:
                    edges[(parent[2], layer)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
                if idle_check and not frame[1] & busy_bits:
                    tracer.idle_wakeups += 1
                if len(spans) < cap[0]:
                    spans.append((frame[3], parent[3], b, t0 - epoch, dt))

        return functools.update_wrapper(traced, fn)

    # -- reading -----------------------------------------------------------

    def stop_recording_spans(self) -> None:
        self.span_cap[0] = len(self.spans)

    def reset(self) -> None:
        """Zero every aggregate (the raw span sample is kept)."""
        for i in range(len(self.calls)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        self.edges.clear()
        self.idle_wakeups = 0

    def counts(self) -> Dict[str, int]:
        """The exact (deterministic) part: calls per boundary, idle wakeups."""
        out = {name: n for name, n in zip(self.names, self.calls) if n}
        out["stacks.idle_wakeups"] = self.idle_wakeups
        return out

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for b, name in enumerate(self.names):
            row = out[LAYERS[self.layer_of[b]]]
            row["self_s"] += self.self_s[b]
            row["calls"] += self.calls[b]
        return out

    def snapshot(self) -> dict:
        """Aggregates as plain data (for the trace file)."""
        layer_name = lambda i: LAYERS[i] if i >= 0 else "(benchmark)"
        return {
            "layers": self.layer_totals(),
            "boundaries": {
                name: {"layer": LAYERS[self.layer_of[b]], "calls": self.calls[b],
                       "self_s": self.self_s[b]}
                for b, name in enumerate(self.names) if self.calls[b]
            },
            "edges": [
                {"caller": layer_name(p), "callee": layer_name(c), "calls": int(n), "incl_s": t}
                for (p, c), (n, t) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
            ],
            "stacks.idle_wakeups": self.idle_wakeups,
        }

    def span_rows(self) -> dict:
        return {
            "fields": ["id", "parent", "boundary", "layer", "start_s", "dur_s"],
            "rows": [
                [sid, parent, self.names[b], LAYERS[self.layer_of[b]], round(t0, 9), round(dt, 9)]
                for sid, parent, b, t0, dt in self.spans
            ],
        }
