"""Reference packet builder for differential tests of `source.build_packet`.

This is `build_packet` as it was before a plan's fixed part was built
and checked once: every packet re-checks the plan (segment count, empty
segments, header length, reservation interfaces), builds every info and
hop field again, builds each reserved hop's cipher, and ends by encoding
the whole packet, which checks every field.
"""

from __future__ import annotations

from typing import Callable

from hummingbird import crypto
from hummingbird.source import (
    NS_PER_MS,
    NS_PER_S,
    CounterState,
    HopPlan,
    PathPlan,
    ReservationInactive,
    SourceError,
)
from hummingbird.wire import (
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
    encode_packet,
    header_words,
    pkt_len_for_mac,
)


def header_bytes(plan: PathPlan) -> int:
    """Header size, prefix and path, of every packet built from plan."""
    hop_words = sum(
        FlyoverHopField.words if hop_plan.reservation else HopField.words
        for segment in plan.segments
        for hop_plan in segment.hops
    )
    return 4 * header_words(len(plan.segments), hop_words)


def build_packet(
    plan: PathPlan,
    payload_len: int,
    clock: Callable[[], int],
    counter_state: CounterState,
    allow_inactive: bool = False,
    tag_len: int = crypto.TAG_LEN,
) -> Packet:
    crypto.check_tag_len(tag_len)
    now = clock()
    base = now // NS_PER_S
    if base >= 1 << 32:
        raise SourceError(f"clock beyond 32-bit unix seconds: {base}")
    millis = now % NS_PER_S // NS_PER_MS
    counter = counter_state.next(base, millis)

    if not all(segment.hops for segment in plan.segments):
        raise SourceError("segment without hop fields")
    if len(plan.segments) > 3:
        raise SourceError(f"at most three segments, got {len(plan.segments)}")
    hdr_len = header_bytes(plan) // 4
    if hdr_len > 0xFF:
        raise SourceError(f"path too long: hdr_len {hdr_len}")
    pkt_len = pkt_len_for_mac(payload_len, hdr_len)

    def tag(a_key: crypto.Prf, offset: int) -> bytes:
        return crypto.flyover_mac(
            a_key, plan.dst_isd, plan.dst_as, pkt_len, offset, millis, counter, tag_len
        )

    infos = []
    hops: list[HopField] = []
    seg_len = [0, 0, 0]
    for index, segment in enumerate(plan.segments):
        infos.append(
            InfoField(
                peering=segment.peering,
                cons_dir=segment.cons_dir,
                seg_id=segment.seg_id,
                timestamp=segment.timestamp,
            )
        )
        for hop_plan in segment.hops:
            hop = _assemble_hop(hop_plan, now, base, allow_inactive, tag)
            hops.append(hop)
            seg_len[index] += hop.words

    meta = PathMetaHdr(
        curr_inf=0,
        curr_hf=0,
        seg_len=tuple(seg_len),
        base_timestamp=base,
        millis_timestamp=millis,
        counter=counter,
    )
    packet = Packet(
        dst_isd=plan.dst_isd,
        dst_as=plan.dst_as,
        payload_len=payload_len,
        path=HummingbirdPath(meta=meta, infos=tuple(infos), hops=tuple(hops)),
    )
    encode_packet(packet)
    return packet


def _assemble_hop(
    hop_plan: HopPlan,
    now: int,
    base: int,
    allow_inactive: bool,
    tag: Callable[[crypto.Prf, int], bytes],
) -> HopField:
    if hop_plan.reservation is None:
        return HopField(
            ingress_alert=False,
            egress_alert=False,
            exp_time=hop_plan.exp_time,
            cons_ingress=hop_plan.cons_ingress,
            cons_egress=hop_plan.cons_egress,
            mac=hop_plan.hop_mac,
        )
    res = hop_plan.reservation[0]
    if (res.ingress, res.egress) != (hop_plan.cons_ingress, hop_plan.cons_egress):
        raise SourceError(
            f"reservation interfaces ({res.ingress}, {res.egress}) do not match "
            f"hop ({hop_plan.cons_ingress}, {hop_plan.cons_egress})"
        )
    active = res.res_start * NS_PER_S <= now <= (res.res_start + res.duration) * NS_PER_S
    if not active and not allow_inactive:
        raise ReservationInactive(
            f"reservation [{res.res_start}, {res.res_start + res.duration}] "
            f"not active at build time"
        )
    offset = min(max(base - res.res_start, 0), 0xFFFF)
    a_key = crypto.Prf(hop_plan.reservation[1])
    return FlyoverHopField(
        ingress_alert=False,
        egress_alert=False,
        exp_time=hop_plan.exp_time,
        cons_ingress=hop_plan.cons_ingress,
        cons_egress=hop_plan.cons_egress,
        mac=crypto.aggregate_mac(hop_plan.hop_mac, tag(a_key, offset)),
        res_id=res.res_id,
        bw=res.bw_code,
        res_start_offset=offset,
        res_duration=res.duration,
    )
