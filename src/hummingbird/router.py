"""Border router forwarding pipeline.

Every hop runs the same fixed steps over the hop fields this AS owns:
one, or two when the packet crosses into the next segment here.

    flyover     on the first owned hop field: recompute the per-packet
                tag from header fields alone, fold it out of the
                aggregate MAC, and gate priority on freshness and
                reservation activity
    verify      each owned hop field against its own segment's info
                field: expiry, hop MAC, SegID update
    advance     move CurrHF/CurrINF past the owned hop fields
    monitoring  charge the policer only for packets that passed
                everything else

The aggregate MAC trick does double duty: xoring the recomputed
FlyoverMAC into the header both reveals the hop field MAC candidate
for verification and leaves the header holding a plain hop MAC
afterwards, which is what path reversal needs.  A forged or mismatched
tag therefore surfaces as an ordinary hop MAC failure and drops.

Demotions (stale timestamp, inactive or exhausted reservation) forward
best effort and never touch policer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

from . import crypto
from .policing import TokenBucketArray, monitor_code
from .wire import (
    HummingbirdPath,
    Packet,
    PktLenOverflow,
    WireError,
    decode_packet,
    encode_packet,
)

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
DEFAULT_DELTA_NS = 500 * NS_PER_MS  # clock skew allowance
DEFAULT_BIG_DELTA_NS = 1000 * NS_PER_MS  # freshness window length
EXP_TIME_UNIT_NS = 337_500_000_000  # hop expiry granularity, 24h / 256


class Verdict(Enum):
    DROP = "drop"
    BEST_EFFORT = "best_effort"
    PRIORITY = "priority"


class Reason(Enum):
    PRIORITY = "priority"
    PLAIN_HOP = "plain_hop"
    PARSE_ERROR = "parse_error"
    NO_HOP = "no_hop"
    PKT_LEN_OVERFLOW = "pkt_len_overflow"
    HOP_EXPIRED = "hop_expired"
    MAC_MISMATCH = "mac_mismatch"
    MISPLACED_FLYOVER = "misplaced_flyover"
    FUTURE_TIMESTAMP = "future_timestamp"
    STALE_TIMESTAMP = "stale_timestamp"
    RESERVATION_INACTIVE = "reservation_inactive"
    OVER_BUDGET = "over_budget"


@dataclass(frozen=True)
class ForwardDecision:
    verdict: Verdict
    reason: Reason


@dataclass
class RouterConfig:
    """Everything one border router needs; the clock is injected.

    The two keys never change, so their ciphers are built once here.
    """

    sv: bytes
    forwarding_key: bytes
    policer: TokenBucketArray
    clock: Callable[[], int]
    delta_ns: int = DEFAULT_DELTA_NS
    big_delta_ns: int = DEFAULT_BIG_DELTA_NS
    tag_len: int = crypto.TAG_LEN
    sv_prf: crypto.Prf = field(init=False, repr=False, compare=False)
    forwarding_prf: crypto.Prf = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sv_prf = crypto.Prf(self.sv)
        self.forwarding_prf = crypto.Prf(self.forwarding_key)


def process_packet(cfg: RouterConfig, packet: Packet) -> tuple[ForwardDecision, Packet]:
    """Full per-hop pipeline; returns the decision and the updated packet.

    A dropped packet comes back unchanged.
    """
    now = cfg.clock()
    path = packet.path
    meta = path.meta
    try:
        starts, segments = path.hop_table()
        hop_index = starts.index(meta.curr_hf)
    except (WireError, ValueError):
        return ForwardDecision(Verdict.DROP, Reason.PARSE_ERROR), packet
    if hop_index == len(path.hops):
        return ForwardDecision(Verdict.DROP, Reason.NO_HOP), packet

    # The hop fields this AS owns.  A segment-crossing AS owns the hop
    # field closing the current segment and the one opening the next;
    # its flyover, if any, sits on the first, so one on the second is
    # malformed.
    seg_index = segments[hop_index]
    owned = [hop_index]
    if hop_index + 1 < len(path.hops) and segments[hop_index + 1] != seg_index:
        if path.hops[hop_index + 1].flyover:
            return ForwardDecision(Verdict.DROP, Reason.MISPLACED_FLYOVER), packet
        owned.append(hop_index + 1)

    hops = list(path.hops)
    infos = list(path.infos)
    first = hops[hop_index]
    reason = Reason.PLAIN_HOP
    if first.flyover:
        res_start = (meta.base_timestamp - first.res_start_offset) % (1 << 32)
        res = crypto.ReservationInfo(
            ingress=first.cons_ingress,
            egress=first.cons_egress,
            res_id=first.res_id,
            bw_code=first.bw,
            res_start=res_start,
            duration=first.res_duration,
        )
        # The packet's own A_K: the one cipher a hop builds.
        a_key = crypto.Prf(crypto.derive_key(cfg.sv_prf, res))
        try:
            pkt_len = packet.pkt_len_for_mac()
        except PktLenOverflow:
            return ForwardDecision(Verdict.DROP, Reason.PKT_LEN_OVERFLOW), packet
        tag = crypto.flyover_mac(
            a_key,
            packet.dst_isd,
            packet.dst_as,
            pkt_len,
            first.res_start_offset,
            meta.millis_timestamp,
            meta.counter,
            cfg.tag_len,
        )
        # The candidate hop MAC goes into the header before the gates, so
        # a stale but authentic packet still verifies (and travels) as a
        # plain hop.
        hops[hop_index] = replace(first, mac=crypto.aggregate_mac(first.mac, tag))
        age = now - (meta.base_timestamp * 1000 + meta.millis_timestamp) * NS_PER_MS
        if age < -cfg.delta_ns:
            reason = Reason.FUTURE_TIMESTAMP
        elif age > cfg.big_delta_ns + cfg.delta_ns:
            reason = Reason.STALE_TIMESTAMP
        elif not res_start * NS_PER_S <= now <= (res_start + first.res_duration) * NS_PER_S:
            reason = Reason.RESERVATION_INACTIVE
        else:
            reason = Reason.PRIORITY

    # Each owned hop field verifies against its own segment's info field.
    for info_index, index in enumerate(owned, seg_index):
        hop, info = hops[index], infos[info_index]
        if now > info.timestamp * NS_PER_S + (hop.exp_time + 1) * EXP_TIME_UNIT_NS:
            return ForwardDecision(Verdict.DROP, Reason.HOP_EXPIRED), packet
        expected = crypto.hop_field_mac(cfg.forwarding_prf, info, hop)
        if expected != hop.mac:
            return ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH), packet
        infos[info_index] = replace(info, seg_id=crypto.update_seg_id(info.seg_id, expected))

    # Past the last hop, CurrINF stays on the last hop's segment.
    next_index = owned[-1] + 1
    curr_inf = segments[min(next_index, len(segments) - 1)]
    packet = replace(
        packet,
        path=HummingbirdPath(
            meta=replace(meta, curr_hf=starts[next_index], curr_inf=curr_inf),
            infos=tuple(infos),
            hops=tuple(hops),
        ),
    )

    if reason is not Reason.PRIORITY:
        return ForwardDecision(Verdict.BEST_EFFORT, reason), packet
    # BW code 0 reserves no bandwidth, so there is no budget to charge.
    if first.bw and monitor_code(cfg.policer, first.res_id, first.bw, pkt_len, now):
        return ForwardDecision(Verdict.PRIORITY, Reason.PRIORITY), packet
    return ForwardDecision(Verdict.BEST_EFFORT, Reason.OVER_BUDGET), packet


def process_packet_bytes(cfg: RouterConfig, raw: bytes) -> tuple[ForwardDecision, bytes | None]:
    """Wire-format front end: decode, process, re-encode."""
    try:
        packet = decode_packet(raw)
    except WireError:
        return ForwardDecision(Verdict.DROP, Reason.PARSE_ERROR), None
    decision, packet = process_packet(cfg, packet)
    if decision.verdict is Verdict.DROP:
        return decision, None
    return decision, encode_packet(packet)
