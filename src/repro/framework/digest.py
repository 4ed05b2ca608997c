"""Canonical JSON encodings behind result digests and config keys.

Result fingerprints and config keys are sha256 digests over
``json.dumps(payload, sort_keys=True)``, with nested configs and capture
records in their ``dataclasses.asdict`` form. Those bytes are the
determinism contract (golden fingerprints, cache entries, journals and
stores all pin them), so they never change. What changes here is how they
are produced: ``asdict`` deep-copies every field of every record and the
one-shot ``json.dumps`` holds the whole payload twice, which made the
digest the largest non-simulation cost of a repetition. Instead:

* a capture record is written by one ``%``-template row, with each distinct
  flow tuple encoded once per digest;
* a config's sorted-JSON form is encoded once per distinct config and
  reused by every digest and key built from it;
* an object's members, and the elements of a list member, are encoded one
  by one and streamed into the hash, so no whole-payload dict or string is
  ever built.

Each encoder matches the reference formula byte for byte;
``tests/framework/test_digest_encoding.py`` keeps the reference formulas
verbatim and checks the equality on live and synthetic results.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Dict, Iterable, Iterator, Tuple, Union

#: ``json.dumps(obj, sort_keys=True)``, without a new encoder per call.
encode = json.JSONEncoder(sort_keys=True).encode

#: One ``asdict(CaptureRecord)`` row under ``sort_keys``: the fields in key
#: order, default ``", "``/``": "`` separators. ``%s`` of an int is its JSON
#: form; the two optional fields are mapped to ``null`` by the caller.
_RECORD_ROW = (
    '{"dgram_id": %s, "flow": %s, "gso_id": %s, "packet_number": %s,'
    ' "payload_size": %s, "time_ns": %s, "wire_size": %s}'
)


def capture_rows(records: Iterable) -> Iterator[str]:
    """Each record's ``json.dumps(asdict(r), sort_keys=True)``.

    Every field but ``flow`` is an int (``packet_number`` and ``gso_id``
    may be ``None``), as the sniffer's integer columns produce them.
    """
    flows: Dict[tuple, str] = {}
    for r in records:
        flow = flows.get(r.flow)
        if flow is None:
            flow = flows[r.flow] = encode(r.flow)
        gso_id, pn = r.gso_id, r.packet_number
        yield _RECORD_ROW % (
            r.dgram_id,
            flow,
            "null" if gso_id is None else gso_id,
            "null" if pn is None else pn,
            r.payload_size,
            r.time_ns,
            r.wire_size,
        )


def json_array(items: Iterable[str]) -> Iterator[str]:
    """The chunks of the JSON array of the already-encoded ``items``."""
    yield "["
    separator = ""
    for item in items:
        yield separator + item
        separator = ", "
    yield "]"


@functools.lru_cache(maxsize=1024)
def _config_json(config, exact: str, drop: Tuple[str, ...]) -> str:
    fields = dataclasses.asdict(config)
    for name in drop:
        del fields[name]
    return encode(fields)


def config_json(config, drop: Tuple[str, ...] = ()) -> str:
    """``json.dumps(asdict(config), sort_keys=True)`` of a frozen config,
    encoded once per distinct config; ``drop`` names top-level fields left
    out.

    The memo is keyed on the config *and* its ``repr``: ``2 == 2.0``,
    ``True == 1`` and ``0.0 == -0.0`` compare and hash alike but encode
    differently, and a key on equality alone would make a config's JSON
    depend on which equal config the process encoded first.
    """
    return _config_json(config, repr(config), drop)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def object_sha256(members: Dict[str, Union[str, Iterable[str]]]) -> str:
    """sha256 over the JSON object whose members are ``members`` (name ->
    encoded value, or an iterable of its chunks such as :func:`json_array`),
    streamed chunk by chunk: byte-identical to
    ``json.dumps(dict_of_values, sort_keys=True)``."""
    digest = hashlib.sha256(b"{")
    separator = ""
    for name in sorted(members):
        digest.update(f"{separator}{encode(name)}: ".encode())
        value = members[name]
        for chunk in (value,) if isinstance(value, str) else value:
            digest.update(chunk.encode())
        separator = ", "
    digest.update(b"}")
    return digest.hexdigest()
