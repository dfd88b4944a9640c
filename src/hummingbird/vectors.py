"""Golden test vectors, regenerated deterministically from the codecs.

Everything here is derived from a fixed internal seed, never from user
input, so `generate()` always produces the same bytes and the committed
fixture files can be checked against a fresh regeneration bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from random import Random

from . import crypto
from .policing import TokenBucketArray
from .router import RouterConfig, process_packet
from .source import CounterState, HopPlan, PathPlan, SegmentPlan, build_packet
from .wire import (
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
    ReservationInfo,
    WireError,
    decode_bw,
    encode_packet,
    quantize_bw,
)

_SEED = "hummingbird-vectors-1"
_BASE_NS = 1_700_000_000_123_456_789  # fixed build instant for all vectors

FIXTURE_FILES = ("bw_codes.json", "flyover_macs.json", "packets.json", "decisions.json")


# ---------------------------------------------------------------------------
# Packet <-> plain-JSON object, used by the fixtures and the CLI.


# Each record's JSON object holds its dataclass fields by name; a MAC is
# written as hex and seg_len as a list.  Reading checks each value's JSON
# type, so a wrong one is a WireError rather than a failure deep inside.
def _fields_to_obj(record) -> dict:
    obj = {f.name: getattr(record, f.name) for f in fields(record)}
    if "mac" in obj:
        obj["mac"] = obj["mac"].hex()
    if "seg_len" in obj:
        obj["seg_len"] = list(obj["seg_len"])
    return obj


_SCALAR_TYPES = {"int": int, "bool": bool}


def _fields_from_obj(cls, obj: dict):
    values = {}
    for f in fields(cls):
        value = obj[f.name]
        if f.name == "mac":
            value = bytes.fromhex(_typed(cls, f.name, value, str))
        elif f.name == "seg_len":
            value = tuple(_typed(cls, f.name, v, int) for v in _typed(cls, f.name, value, list))
        elif f.type in _SCALAR_TYPES:
            _typed(cls, f.name, value, _SCALAR_TYPES[f.type])
        values[f.name] = value
    return cls(**values)


def _typed(cls, name: str, value, kind: type):
    """value, if JSON gave it the field's type; a bool is not an int here."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise WireError(f"{cls.__name__}.{name} must be {kind.__name__}, got {value!r}")
    return value


def packet_to_obj(packet: Packet) -> dict:
    """The packet's fields by name, with the path's parts at the top level."""
    path = packet.path
    obj = _fields_to_obj(packet)
    del obj["path"]
    obj["meta"] = _fields_to_obj(path.meta)
    obj["infos"] = [_fields_to_obj(info) for info in path.infos]
    obj["hops"] = [
        {"type": "flyover" if hop.flyover else "plain", **_fields_to_obj(hop)}
        for hop in path.hops
    ]
    return obj


def packet_from_obj(obj: dict) -> Packet:
    try:
        meta = _fields_from_obj(PathMetaHdr, obj["meta"])
        infos = tuple(_fields_from_obj(InfoField, i) for i in obj["infos"])
        hops = []
        for h in obj["hops"]:
            if h["type"] not in ("plain", "flyover"):
                raise WireError(f"unknown hop type {h['type']!r}")
            cls = FlyoverHopField if h["type"] == "flyover" else HopField
            hops.append(_fields_from_obj(cls, h))
        path = HummingbirdPath(meta=meta, infos=infos, hops=tuple(hops))
        packet = _fields_from_obj(Packet, {**obj, "path": path})
        encode_packet(packet)  # checks every field and the layout
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, WireError):
            raise
        raise WireError(f"malformed packet object: {exc}") from exc
    return packet


# ---------------------------------------------------------------------------
# Fixture content


def _bw_codes() -> dict:
    rng = Random(f"{_SEED}:bw")
    quantize = []
    for raw in sorted(rng.sample(range(1, 1 << 36), 24)) + [1, 2**20, 2**23, 43_000]:
        quantize.append({"raw": raw, "code": quantize_bw(raw)})
    return {
        "codes": [{"code": c, "value": decode_bw(c)} for c in range(256)],
        "quantize": quantize,
    }


def _flyover_macs() -> dict:
    rng = Random(f"{_SEED}:macs")
    cases = []
    for index in range(8):
        sv = rng.randbytes(16)
        res = ReservationInfo(
            ingress=rng.randrange(1 << 16),
            egress=rng.randrange(1 << 16),
            res_id=rng.randrange(1 << 22),
            bw_code=rng.randrange(1 << 8),
            res_start=rng.randrange(1 << 32),
            duration=rng.randrange(1, 1 << 16),
        )
        a_key = crypto.derive_key(crypto.Prf(sv), res)
        inputs = {
            "dst_isd": rng.randrange(1 << 16),
            "dst_as": rng.randrange(1 << 48),
            "pkt_len": rng.randrange(1 << 16),
            "res_start_offset": rng.randrange(1 << 16),
            "millis": rng.randrange(1000),
            "counter": rng.randrange(1 << 22),
        }
        tag = crypto.flyover_mac(crypto.Prf(a_key), **inputs)
        hop_mac = rng.randbytes(6)
        cases.append(
            {
                "sv": sv.hex(),
                "reservation": _fields_to_obj(res),
                "a_key": a_key.hex(),
                "mac_inputs": inputs,
                "tag": tag.hex(),
                "hop_mac": hop_mac.hex(),
                "aggregate": crypto.aggregate_mac(hop_mac, tag).hex(),
            }
        )
    return {"cases": cases}


def _random_plan(rng: Random, base_s: int) -> PathPlan:
    segments = []
    for _ in range(rng.randrange(1, 4)):
        hops = []
        for _ in range(rng.randrange(1, 5)):
            reservation = None
            if rng.random() < 0.5:
                res_start = base_s - rng.randrange(60_000)
                res = ReservationInfo(
                    ingress=rng.randrange(1 << 16),
                    egress=rng.randrange(1 << 16),
                    res_id=rng.randrange(1 << 22),
                    bw_code=quantize_bw(rng.randrange(1, 1 << 30)),
                    res_start=res_start,
                    duration=base_s - res_start + rng.randrange(1, 5_000),
                )
                reservation = (res, rng.randbytes(16))
            ingress = reservation[0].ingress if reservation else rng.randrange(1 << 16)
            egress = reservation[0].egress if reservation else rng.randrange(1 << 16)
            hops.append(
                HopPlan(
                    cons_ingress=ingress,
                    cons_egress=egress,
                    hop_mac=rng.randbytes(6),
                    exp_time=rng.randrange(256),
                    reservation=reservation,
                )
            )
        segments.append(
            SegmentPlan(
                seg_id=rng.randrange(1 << 16),
                timestamp=base_s - rng.randrange(86_400),
                hops=tuple(hops),
                cons_dir=rng.random() < 0.5,
            )
        )
    return PathPlan(
        dst_isd=rng.randrange(1 << 16),
        dst_as=rng.randrange(1 << 48),
        segments=tuple(segments),
    )


def _packets() -> dict:
    rng = Random(f"{_SEED}:packets")
    counter = CounterState()
    cases = []
    now = _BASE_NS
    for _ in range(12):
        plan = _random_plan(rng, now // 1_000_000_000)
        packet = build_packet(
            plan, rng.randrange(2_000), lambda: now, counter
        )
        raw = encode_packet(packet)
        cases.append(
            {
                "hex": raw.hex(),
                "wire_length": packet.wire_length,
                "hdr_len": packet.hdr_len,
                "packet": packet_to_obj(packet),
            }
        )
        now += 700_111  # sub-millisecond steps exercise the counter
    return {"cases": cases}


def _decisions() -> dict:
    rng = Random(f"{_SEED}:decisions")
    sv, fk = rng.randbytes(16), rng.randbytes(16)
    base_s = _BASE_NS // 1_000_000_000
    res = ReservationInfo(
        ingress=3,
        egress=7,
        res_id=11,
        bw_code=quantize_bw(1 << 23),
        res_start=base_s - 10,
        duration=300,
    )
    key = crypto.derive_key(crypto.Prf(sv), res)
    (hop_mac,) = crypto.segment_hop_macs(0x2222, base_s - 100, [(crypto.Prf(fk), 255, 3, 7)])

    def plan(reservation):
        return PathPlan(
            dst_isd=5,
            dst_as=0xABCDEF,
            segments=(
                SegmentPlan(
                    seg_id=0x2222,
                    timestamp=base_s - 100,
                    hops=(
                        HopPlan(
                            cons_ingress=3,
                            cons_egress=7,
                            hop_mac=hop_mac,
                            exp_time=255,
                            reservation=reservation,
                        ),
                    ),
                ),
            ),
        )

    def built(reservation=None, at_ns=_BASE_NS, payload=64, allow_inactive=False):
        return build_packet(
            plan(reservation), payload, lambda: at_ns, CounterState(), allow_inactive
        )

    ms = 1_000_000
    slow = ReservationInfo(
        ingress=3,
        egress=7,
        res_id=12,
        bw_code=quantize_bw(43_000),
        res_start=base_s - 10,
        duration=300,
    )
    cases = [
        {
            "name": "fresh_flyover",
            "now_ns": _BASE_NS + ms,
            "packets": [built((res, key))],
            "expected": ["priority:priority"],
        },
        {
            "name": "plain_hop",
            "now_ns": _BASE_NS + ms,
            "packets": [built()],
            "expected": ["best_effort:plain_hop"],
        },
        {
            "name": "forged_tag",
            "now_ns": _BASE_NS + ms,
            "packets": [built((res, bytes(16)))],
            "expected": ["drop:mac_mismatch"],
        },
        {
            "name": "stale_timestamp",
            "now_ns": _BASE_NS + 1502 * ms,
            "packets": [built((res, key))],
            "expected": ["best_effort:stale_timestamp"],
        },
        {
            "name": "future_timestamp",
            "now_ns": _BASE_NS - 501 * ms,
            "packets": [built((res, key))],
            "expected": ["best_effort:future_timestamp"],
        },
        {
            "name": "reservation_inactive",
            "now_ns": _BASE_NS + 291 * 1000 * ms,
            "packets": [
                built((res, key), at_ns=_BASE_NS + 291 * 1000 * ms, allow_inactive=True)
            ],
            "expected": ["best_effort:reservation_inactive"],
        },
        {
            "name": "over_budget",
            "now_ns": _BASE_NS + ms,
            "packets": [
                built((slow, crypto.derive_key(crypto.Prf(sv), slow)), payload=100),
                built((slow, crypto.derive_key(crypto.Prf(sv), slow)), payload=100),
            ],
            "expected": ["priority:priority", "best_effort:over_budget"],
        },
    ]
    out = []
    for case in cases:
        cfg = RouterConfig(
            sv=sv,
            forwarding_key=fk,
            policer=TokenBucketArray(64),
            clock=lambda now=case["now_ns"]: now,
        )
        packets, expected = case["packets"], []
        for packet in packets:
            decision, _ = process_packet(cfg, packet)
            expected.append(decision.label)
        if expected != case["expected"]:
            raise AssertionError(
                f"vector {case['name']!r} produced {expected}, "
                f"pinned {case['expected']}"
            )
        out.append(
            {
                "name": case["name"],
                "sv": sv.hex(),
                "forwarding_key": fk.hex(),
                "now_ns": case["now_ns"],
                "packets": [encode_packet(p).hex() for p in packets],
                "expected": expected,
            }
        )
    return {"cases": out}


def generate() -> dict[str, str]:
    """All fixture files as name -> exact text."""
    files = {
        "bw_codes.json": _bw_codes(),
        "flyover_macs.json": _flyover_macs(),
        "packets.json": _packets(),
        "decisions.json": _decisions(),
    }
    return {
        name: json.dumps(content, sort_keys=True, indent=1) + "\n"
        for name, content in files.items()
    }


def write(out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in generate().items():
        path = out_dir / name
        path.write_text(text)
        written.append(path)
    return written


def check(out_dir: str | Path) -> list[str]:
    """Compare existing fixture files against a regeneration; report diffs."""
    out_dir = Path(out_dir)
    problems = []
    for name, text in generate().items():
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name}: missing")
        elif path.read_text() != text:
            problems.append(f"{name}: differs from regeneration")
    return problems
