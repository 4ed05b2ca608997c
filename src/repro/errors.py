"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class SimulationError(ReproError):
    """The event engine was used incorrectly (e.g. scheduling in the past)."""


class ProtocolError(ReproError):
    """A QUIC/TCP protocol invariant was violated."""

    #: RFC 9000 §20.1 code a connection closes with when peer input raises this.
    error_code = 0xA  # PROTOCOL_VIOLATION


class EncodingError(ProtocolError):
    """Wire encoding or decoding failed."""

    error_code = 0x7  # FRAME_ENCODING_ERROR


class FlowControlError(ProtocolError):
    """A peer exceeded an advertised flow-control limit."""

    error_code = 0x3  # FLOW_CONTROL_ERROR


class ConfigError(ReproError):
    """An experiment or stack configuration is invalid."""


class ExecutionError(ReproError):
    """A repetition could not be executed (harness failure, not a sim bug)."""


class RepTimeoutError(ExecutionError):
    """A repetition exceeded its supervised wall-clock budget."""


class WorkerCrashError(ExecutionError):
    """The process pool died (segfault/OOM/exit) while a repetition ran."""


class QuarantinedError(ExecutionError):
    """A repetition was skipped because its configuration was quarantined
    after repeated consecutive failures."""


class RemoteRepError(ExecutionError):
    """A repetition failed on a remote worker agent and the original
    exception type could not be reconstructed coordinator-side; the remote
    type name and traceback ride along in the message/attributes."""


class HostLostError(ExecutionError):
    """A distributed repetition could not run because its worker host (or
    every configured host) was lost; attributed to the host, never the
    configuration — carries a ``host`` attribute naming the culprit."""


class ValidationError(ReproError):
    """A finished repetition violated a result invariant (conservation,
    monotonicity, rate ceiling); the result must not be cached or summarized."""
