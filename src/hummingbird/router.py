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
afterwards, which a reply path would need (reply paths are not
modelled).  A forged or mismatched tag therefore surfaces as an
ordinary hop MAC failure and drops.

Demotions (stale timestamp, inactive or exhausted reservation) forward
best effort and never touch policer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from . import crypto
from .policing import TokenBucketArray, monitor_code
from .wire import (
    FlyoverHopField,
    HopTable,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
    PktLenOverflow,
    WireError,
    decode_packet,
    encode_packet,
    header_words,
    mac_input_block,
    pack_resinfo,
    pkt_len_for_mac,
)

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
DEFAULT_DELTA_NS = 500 * NS_PER_MS  # clock skew allowance
DEFAULT_BIG_DELTA_NS = 1000 * NS_PER_MS  # freshness window length
EXP_TIME_UNIT_NS = 337_500_000_000  # hop expiry granularity, 24h / 256
_new = object.__new__


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
    # "verdict:reason", the simulator's count key, formatted once per decision
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", f"{self.verdict.value}:{self.reason.value}")


# Every decision is one of these fixed values.
_DROP = {reason: ForwardDecision(Verdict.DROP, reason) for reason in Reason}
_BEST_EFFORT = {reason: ForwardDecision(Verdict.BEST_EFFORT, reason) for reason in Reason}
_PRIORITY = ForwardDecision(Verdict.PRIORITY, Reason.PRIORITY)

# The ones a hop returns, and the drop verdict, as module constants: a module
# global reads in a fraction of the time of an Enum member or a dict entry.
_PARSE_ERROR = _DROP[Reason.PARSE_ERROR]
_NO_HOP = _DROP[Reason.NO_HOP]
_MISPLACED_FLYOVER = _DROP[Reason.MISPLACED_FLYOVER]
_PKT_LEN_OVERFLOW = _DROP[Reason.PKT_LEN_OVERFLOW]
_HOP_EXPIRED = _DROP[Reason.HOP_EXPIRED]
_MAC_MISMATCH = _DROP[Reason.MAC_MISMATCH]
_PLAIN_HOP = _BEST_EFFORT[Reason.PLAIN_HOP]
_FUTURE_TIMESTAMP = _BEST_EFFORT[Reason.FUTURE_TIMESTAMP]
_STALE_TIMESTAMP = _BEST_EFFORT[Reason.STALE_TIMESTAMP]
_RESERVATION_INACTIVE = _BEST_EFFORT[Reason.RESERVATION_INACTIVE]
_OVER_BUDGET = _BEST_EFFORT[Reason.OVER_BUDGET]
_DROPPED = Verdict.DROP


@dataclass
class RouterConfig:
    """Everything one border router needs; the clock is injected.

    The two keys never change, so their ciphers are built once here.
    The flyover tag fills at most the hop MAC it is folded into.
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
        crypto.check_tag_len(self.tag_len)
        self.sv_prf = crypto.Prf(self.sv)
        self.forwarding_prf = crypto.Prf(self.forwarding_key)


def _step(table: HopTable, curr_hf: int):
    """What the hop layout alone fixes for the hop at curr_hf: a drop, or its
    index, the owned hop fields as (hop index, info index) pairs, the next
    CurrINF and CurrHF, and the HdrLen that PktLen counts.

    A segment-crossing AS owns the hop field closing the current segment
    and the one opening the next; its flyover, if any, sits on the first,
    so one on the second (five words long) is malformed.
    """
    starts, segments = table
    if curr_hf not in starts:
        return _PARSE_ERROR
    hop_index = starts.index(curr_hf)
    if hop_index == len(segments):
        return _NO_HOP
    seg_index = segments[hop_index]
    next_index = hop_index + 1
    if next_index < len(segments) and segments[next_index] != seg_index:
        if starts[next_index + 1] - starts[next_index] == FlyoverHopField.words:
            return _MISPLACED_FLYOVER
        next_index += 1
    owned = tuple(zip(range(hop_index, next_index), range(seg_index, seg_index + 2)))
    # Past the last hop, CurrINF stays on the last hop's segment.
    curr_inf = segments[min(next_index, len(segments) - 1)]
    hdr_len = header_words(segments[-1] + 1, starts[-1])
    return hop_index, owned, curr_inf, starts[next_index], hdr_len


def process_packet(cfg: RouterConfig, packet: Packet) -> tuple[ForwardDecision, Packet]:
    """Full per-hop pipeline; returns the decision and the updated packet.

    A dropped packet comes back unchanged.  A forwarded one is built
    once, from the fields that change and the ones that do not, and
    takes the input's hop table: its seg_len and hop sizes are the same.
    The hop's step is worked out once per table (`_step`).
    """
    now = cfg.clock()
    path = packet.path
    meta, infos, hops = path.meta, path.infos, path.hops
    try:
        table = path.hop_table()
    except WireError:
        return _PARSE_ERROR, packet
    step = table.steps.get(meta.curr_hf)
    if step is None:
        step = table.steps[meta.curr_hf] = _step(table, meta.curr_hf)
    if step.__class__ is ForwardDecision:
        return step, packet
    hop_index, owned, curr_inf, curr_hf, hdr_len = step
    base, millis = meta.base_timestamp, meta.millis_timestamp

    first = hops[hop_index]
    first_mac = first.mac
    demoted = _PLAIN_HOP  # the decision, unless every priority gate passes
    if first.flyover:
        res_id, bw, start_offset, duration = (
            first.res_id, first.bw, first.res_start_offset, first.res_duration
        )
        try:
            pkt_len = pkt_len_for_mac(packet.payload_len, hdr_len)
        except PktLenOverflow:
            return _PKT_LEN_OVERFLOW, packet
        res_start = (base - start_offset) % (1 << 32)
        # The packet's own A_K, from the hop's fields: the one cipher a hop builds.
        a_key = crypto.Prf(crypto.prf_block(cfg.sv_prf, pack_resinfo(
            first.cons_ingress, first.cons_egress, res_id, bw, res_start, duration,
        )))
        tag = crypto.prf_block(a_key, mac_input_block(
            packet.dst_isd, packet.dst_as, pkt_len, start_offset, millis, meta.counter,
        ))
        # The candidate hop MAC is what the header carries on, so a stale
        # but authentic packet still verifies (and travels) as a plain hop.
        first_mac = crypto.aggregate_mac(first_mac, tag[:cfg.tag_len])
        age = now - (base * 1000 + millis) * NS_PER_MS
        if age < -cfg.delta_ns:
            demoted = _FUTURE_TIMESTAMP
        elif age > cfg.big_delta_ns + cfg.delta_ns:
            demoted = _STALE_TIMESTAMP
        elif not res_start * NS_PER_S <= now <= (res_start + duration) * NS_PER_S:
            demoted = _RESERVATION_INACTIVE
        else:
            demoted = None

    # Each owned hop field verifies against its own segment's info field.
    infos = list(infos)
    for index, info_index in owned:
        hop, info = hops[index], infos[info_index]
        if now > info.timestamp * NS_PER_S + (hop.exp_time + 1) * EXP_TIME_UNIT_NS:
            return _HOP_EXPIRED, packet
        expected = crypto.hop_field_mac(
            cfg.forwarding_prf, info.seg_id, info.timestamp,
            hop.exp_time, hop.cons_ingress, hop.cons_egress,
        )
        if expected != (first_mac if index == hop_index else hop.mac):
            return _MAC_MISMATCH, packet
        # Each changed record is its input's fields with the new values, filled
        # in one write as frozen_record fills it.
        infos[info_index] = info_out = _new(InfoField)
        info_out.__dict__.update(info.__dict__, seg_id=crypto.update_seg_id(info.seg_id, expected))

    if first.flyover:
        hops = list(hops)
        hops[hop_index] = hop_out = _new(FlyoverHopField)
        hop_out.__dict__.update(first.__dict__, mac=first_mac)
    meta_out = _new(PathMetaHdr)
    meta_out.__dict__.update(meta.__dict__, curr_inf=curr_inf, curr_hf=curr_hf)
    path = HummingbirdPath.laid_out(meta_out, tuple(infos), tuple(hops), table)
    packet_out = _new(Packet)
    packet_out.__dict__.update(packet.__dict__, path=path)
    packet = packet_out

    if demoted is not None:
        return demoted, packet
    # BW code 0 reserves no bandwidth, so there is no budget to charge.
    if bw and monitor_code(cfg.policer, res_id, bw, pkt_len, now):
        return _PRIORITY, packet
    return _OVER_BUDGET, packet


def process_packet_bytes(cfg: RouterConfig, raw: bytes) -> tuple[ForwardDecision, bytes | None]:
    """Wire-format front end: decode, process, re-encode."""
    try:
        packet = decode_packet(raw)
    except WireError:
        return _PARSE_ERROR, None
    decision, packet = process_packet(cfg, packet)
    if decision.verdict is _DROPPED:
        return decision, None
    return decision, encode_packet(packet)
