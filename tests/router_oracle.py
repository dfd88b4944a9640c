"""Reference router step for differential tests of `router.process_packet`.

This is the forwarding step as it was before the router built its
output once: it rebuilds the hop, info, meta, path and packet with
`dataclasses.replace`, derives the reservation key before checking
PktLen, and returns freshly made decisions.  Its bytes front end reads
the prefix with slices and the path with `wire_oracle.decode_path`, and
encodes by checking the whole packet with `wire.encode_packet` and then
packing each field on its own, so the bytes it returns come from no
codec fast path shared with the code under test.
"""

from __future__ import annotations

import struct
from dataclasses import replace

from hummingbird import crypto, wire
from hummingbird.policing import monitor_code
from hummingbird.router import (
    EXP_TIME_UNIT_NS,
    NS_PER_MS,
    NS_PER_S,
    ForwardDecision,
    Reason,
    RouterConfig,
    Verdict,
)
from hummingbird.wire import (
    PACKET_PREFIX_LEN,
    HummingbirdPath,
    Packet,
    PktLenOverflow,
    WireError,
)

import wire_oracle


def decode_packet(raw: bytes) -> Packet:
    if len(raw) < PACKET_PREFIX_LEN:
        raise WireError(f"truncated packet prefix: {len(raw)} bytes")
    payload_len, hdr_len, rsv = struct.unpack("!HBB", raw[8:12])
    if rsv:
        raise WireError("reserved prefix byte must be zero")
    if len(raw) != hdr_len * 4:
        raise WireError(f"hdr_len declares {hdr_len * 4} bytes, got {len(raw)}")
    return Packet(
        dst_isd=int.from_bytes(raw[0:2], "big"),
        dst_as=int.from_bytes(raw[2:8], "big"),
        payload_len=payload_len,
        path=wire_oracle.decode_path(raw[PACKET_PREFIX_LEN:]),
    )


def encode_packet(packet: Packet) -> bytes:
    wire.encode_packet(packet)  # the checks only
    meta = packet.path.meta
    seg0, seg1, seg2 = meta.seg_len
    parts = [
        packet.dst_isd.to_bytes(2, "big"),
        packet.dst_as.to_bytes(6, "big"),
        struct.pack("!HBB", packet.payload_len, packet.hdr_len, 0),
        struct.pack(
            "!III",
            meta.curr_inf << 30 | meta.curr_hf << 22 | seg0 << 14 | seg1 << 7 | seg2,
            meta.base_timestamp,
            meta.millis_timestamp << 22 | meta.counter,
        ),
    ]
    for info in packet.path.infos:
        flags = info.peering << 1 | info.cons_dir
        parts.append(struct.pack("!BBHI", flags, 0, info.seg_id, info.timestamp))
    for hop in packet.path.hops:
        flags = hop.flyover << 7 | hop.ingress_alert << 1 | hop.egress_alert
        parts.append(struct.pack("!BBHH", flags, hop.exp_time, hop.cons_ingress, hop.cons_egress))
        parts.append(hop.mac)
        if hop.flyover:
            res_word = hop.res_id << 10 | hop.bw
            parts.append(struct.pack("!IHH", res_word, hop.res_start_offset, hop.res_duration))
    return b"".join(parts)


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
            pkt_len = wire.pkt_len_for_mac(packet.payload_len, packet.hdr_len)
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
        expected = crypto.hop_field_mac(
            cfg.forwarding_prf, info.seg_id, info.timestamp,
            hop.exp_time, hop.cons_ingress, hop.cons_egress,
        )
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
