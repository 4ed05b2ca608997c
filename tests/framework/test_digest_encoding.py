"""The streamed digests and config keys are byte-identical to the formulas
they replaced.

The ``_ref_*`` functions below are the original ``dataclasses.asdict`` +
``json.dumps(sort_keys=True)`` formulas, kept verbatim as the reference.
Every golden fingerprint, cache entry, journal line and store row was
derived from them, so the fast encoders in :mod:`repro.framework.digest`
must agree with them exactly: on live results that exercise every field
(GSO ids, TCP's segment-numbered records, ETF, BBR traces, multi-object
completion, impairment tuples), and on synthetic captures at the edges of
the JSON encoding (empty, 0 vs None, large ints, quotes, backslashes and
non-ASCII in flow addresses).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.framework.artifacts import rep_to_dict
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import ExperimentResult, run_experiment
from repro.framework.multiflow import FlowResult, FlowSpec, MultiFlowExperiment, MultiFlowResult
from repro.framework.population import PopulationConfig
from repro.framework.store import per_rep_key
from repro.net.impairments import burst_loss, iid_loss, reordering
from repro.net.tap import CaptureRecord
from repro.units import kib


# -- reference formulas (verbatim) ---------------------------------------


def _ref_experiment_fingerprint(self) -> str:
    payload = {
        "config": asdict(self.config),
        "seed": self.seed,
        "completed": self.completed,
        "duration_ns": self.duration_ns,
        "goodput_mbps": self.goodput_mbps,
        "dropped": self.dropped,
        "injected_drops": self.injected_drops,
        "server_records": [asdict(r) for r in self.server_records],
        "expected_send_log": self.expected_send_log,
        "cwnd_trace": self.cwnd_trace,
        "queue_trace": self.queue_trace,
        "qdisc_stats": self.qdisc_stats,
        "server_stats": self.server_stats,
        "object_completion_ns": self.object_completion_ns,
        "impairment_stats": self.impairment_stats,
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def _ref_multiflow_fingerprint(self) -> str:
    payload = {
        "seed": self.seed,
        "sim_time_ns": self.sim_time_ns,
        "total_dropped": self.total_dropped,
        "injected_drops": self.injected_drops,
        "ack_drops": self.ack_drops,
        "unrouted": self.unrouted,
        "impairment_stats": self.impairment_stats,
        "flows": [
            {
                "spec": asdict(f.spec),
                "completed": f.completed,
                "duration_ns": f.duration_ns,
                "goodput_mbps": f.goodput_mbps,
                "bytes_received": f.bytes_received,
                "dropped": f.dropped,
                "injected_drops": f.injected_drops,
                "ack_drops": f.ack_drops,
                "wire_packets": f.wire_packets,
                "start_ns": f.start_ns,
            }
            for f in self.flows
        ],
    }
    if self.drained:
        payload["drained"] = self.drained
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def _ref_experiment_cache_key(self) -> str:
    payload = json.dumps(asdict(self), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _ref_population_cache_key(self) -> str:
    fields = asdict(self)
    if not fields["churn"]:
        del fields["churn"]
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _ref_cache_key(config) -> str:
    if isinstance(config, PopulationConfig):
        return _ref_population_cache_key(config)
    return _ref_experiment_cache_key(config)


def _ref_entry_key(config, seed: int) -> str:
    per_rep = replace(config, repetitions=1)
    return hashlib.sha256(f"{_ref_cache_key(per_rep)}/{seed}".encode()).hexdigest()


def _ref_per_rep_key(config) -> str:
    config_dict = asdict(replace(config, repetitions=1))
    normalized = dict(config_dict, repetitions=1)
    return hashlib.sha256(json.dumps(normalized, sort_keys=True).encode()).hexdigest()


def _ref_config_dict(config) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(config)))


# -- live results ----------------------------------------------------------

LIVE = {
    "gso-on": ExperimentConfig(stack="quiche", gso="on", file_size=kib(96)),
    "tcp": ExperimentConfig(stack="tcp", file_size=kib(96)),
    "etf": ExperimentConfig(stack="quiche", qdisc="etf", file_size=kib(96)),
    "bbr-traced": ExperimentConfig(
        stack="quiche",
        cca="bbr",
        qlog=True,
        trace_cwnd=True,
        trace_queue=True,
        file_size=kib(96),
    ),
    "multi-object": ExperimentConfig(stack="picoquic", objects=4, file_size=kib(96)),
    "impaired": ExperimentConfig(
        stack="ngtcp2",
        file_size=kib(96),
        network=NetworkConfig(
            forward_impairments=(iid_loss(0.02), reordering(rate=0.05)),
            reverse_impairments=(burst_loss(0.2, 0.05, 0.5),),
        ),
    ),
}


@pytest.fixture(scope="module")
def live_results():
    return {name: run_experiment(cfg, seed=3) for name, cfg in LIVE.items()}


def test_live_cases_exercise_their_fields(live_results):
    assert any(r.gso_id is not None for r in live_results["gso-on"].server_records)
    # TCP numbers its records by segment (seq // mss) and logs no expected
    # sends; ``packet_number=None`` only reaches a digest from synthetic or
    # imported captures, covered below.
    assert live_results["tcp"].expected_send_log == []
    traced = live_results["bbr-traced"]
    assert traced.cwnd_trace and traced.queue_trace
    assert len(live_results["multi-object"].object_completion_ns) == 4
    assert live_results["impaired"].impairment_stats


@pytest.mark.parametrize("name", sorted(LIVE))
def test_live_fingerprint_matches_reference(live_results, name):
    result = live_results[name]
    assert result.fingerprint() == _ref_experiment_fingerprint(result)


@pytest.mark.parametrize("name", sorted(LIVE))
def test_live_artifact_config_matches_reference(live_results, name):
    result = live_results[name]
    assert rep_to_dict(result)["config"] == _ref_config_dict(result.config)


def test_live_multiflow_fingerprint_matches_reference():
    result = MultiFlowExperiment(
        [
            FlowSpec(stack="quiche", qdisc="fq", file_size=kib(64)),
            FlowSpec(stack="tcp", file_size=kib(64), start_ns=5_000_000, extra_rtt_ns=1_000),
        ],
        seed=2,
    ).run()
    assert result.fingerprint() == _ref_multiflow_fingerprint(result)


# -- synthetic captures ------------------------------------------------------

_NEAR_2_62 = st.integers(min_value=2**62 - 3, max_value=2**62 + 3)
_INT = st.one_of(st.integers(min_value=0, max_value=2**63 - 1), _NEAR_2_62, st.just(0))
_OPTIONAL_INT = st.one_of(st.none(), st.just(0), _INT)
_ADDR = st.text(alphabet=st.sampled_from('"\\/\x00\x1f é中\U0001f600\ud800.0123456789ab'), max_size=12)
_FLOW = st.tuples(_ADDR, _INT, _ADDR, _INT)
_RECORD = st.builds(
    CaptureRecord,
    time_ns=_INT,
    wire_size=_INT,
    payload_size=_INT,
    flow=_FLOW,
    packet_number=_OPTIONAL_INT,
    dgram_id=_INT,
    gso_id=_OPTIONAL_INT,
)


def _synthetic_result(records) -> ExperimentResult:
    return ExperimentResult(
        config=ExperimentConfig(),
        seed=7,
        completed=True,
        duration_ns=1,
        goodput_mbps=0.1,
        dropped=0,
        server_records=list(records),
        expected_send_log=[(1, 2)],
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_RECORD, max_size=8))
@example([])
@example(
    [
        CaptureRecord(0, 0, 0, ("a", 0, "b", 0), None, 0, None),
        CaptureRecord(0, 0, 0, ("a", 0, "b", 0), 0, 0, 0),
        CaptureRecord(2**62, 2**62 + 1, 2**62 - 1, ('q"\\é', 1, "中", 2), 2**62, 1, 2**62),
    ]
)
def test_synthetic_capture_fingerprint_matches_reference(records):
    result = _synthetic_result(records)
    assert result.fingerprint() == _ref_experiment_fingerprint(result)


def test_zero_and_none_digest_differently():
    base = CaptureRecord(1, 2, 3, ("a", 1, "b", 2), None, 4, None)
    zeroed = replace(base, packet_number=0, gso_id=0)
    assert _synthetic_result([base]).fingerprint() != _synthetic_result([zeroed]).fingerprint()


def _flow(start_ns: int) -> FlowResult:
    return FlowResult(
        spec=FlowSpec(stack="tcp", spurious_rollback=False, start_ns=start_ns),
        completed=bool(start_ns % 2),
        duration_ns=1_000 + start_ns,
        goodput_mbps=1.5,
        dropped=start_ns % 3,
        bytes_received=2**40,
        wire_packets=12,
        start_ns=start_ns,
    )


@pytest.mark.parametrize("drained", [0, 5])
def test_multiflow_fingerprint_drained(drained):
    result = MultiFlowResult(
        flows=[_flow(0), _flow(1), _flow(2**62)],
        total_dropped=3,
        sim_time_ns=10,
        seed=4,
        drained=drained,
        impairment_stats={"fwd/0/loss": {"injected_drops": 1}},
    )
    assert result.fingerprint() == _ref_multiflow_fingerprint(result)


# -- config keys ---------------------------------------------------------------

CONFIGS = [
    ExperimentConfig(),
    ExperimentConfig(stack="tcp", repetitions=20, trace_cwnd=True),
    LIVE["impaired"],
    PopulationConfig(),
    PopulationConfig(churn=True, profiles=("quiche:cubic", "tcp"), arrival_times_ns=(1, 2)),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_config_keys_match_reference(config):
    assert config.cache_key() == _ref_cache_key(config)
    assert per_rep_key(config) == _ref_per_rep_key(config)
    for seed in (1, 2**64 - 1):
        assert ResultCache.entry_key(config, seed) == _ref_entry_key(config, seed)


def test_population_churn_key_strips_the_default_only():
    off, on = PopulationConfig(), PopulationConfig(churn=True)
    assert off.cache_key() != on.cache_key()
    # per_rep_key keeps ``churn`` at every value, as it always has.
    assert per_rep_key(off) == _ref_per_rep_key(off)
    assert per_rep_key(on) == _ref_per_rep_key(on)


def test_equal_configs_of_different_types_keep_their_own_keys():
    # 2 == 2.0 and hash alike, but encode differently; whichever one a
    # process meets first must not decide the other's key.
    as_int = ExperimentConfig(network=NetworkConfig(buffer_bdp_multiplier=2))
    as_float = ExperimentConfig(network=NetworkConfig(buffer_bdp_multiplier=2.0))
    assert as_int == as_float
    for config in (as_int, as_float, as_int):
        assert config.cache_key() == _ref_cache_key(config)
    assert as_int.cache_key() != as_float.cache_key()
