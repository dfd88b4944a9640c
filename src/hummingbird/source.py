"""End-host packet construction.

A source holds a path plan: per segment the info field seed, per hop
the forwarding interfaces, the hop field MAC (obtained out of band
from beaconing, here from the simulation's AS registry), and for hops
with a purchased reservation the reservation attributes plus the
delivered key.

Every packet stamps the current second, millisecond, and a counter
that makes the (base, millis, counter) triple unique per source; the
triple is MAC input, so two distinct packets never share a tag.  The
rest of a packet is fixed per plan, built and checked once, together
with the cipher of each reserved hop's delivered key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import crypto
from .wire import (
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
    ReservationInfo,
    WireError,
    encode_packet,
    header_words,
    mac_input_block,
    pkt_len_for_mac,
)

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
MAX_COUNTER = (1 << 22) - 1
_new = object.__new__


class SourceError(ValueError):
    pass


class Backpressure(SourceError):
    """More than 2**22 packets in one millisecond; the sender must stall."""


class ReservationInactive(SourceError):
    pass


@dataclass(frozen=True)
class HopPlan:
    cons_ingress: int
    cons_egress: int
    hop_mac: bytes
    exp_time: int = 255
    # (attributes, delivered key) for a purchased reservation
    reservation: tuple[ReservationInfo, bytes] | None = None


@dataclass(frozen=True)
class SegmentPlan:
    seg_id: int
    timestamp: int
    hops: tuple[HopPlan, ...]
    cons_dir: bool = True
    peering: bool = False


@dataclass(frozen=True)
class PathPlan:
    dst_isd: int
    dst_as: int
    segments: tuple[SegmentPlan, ...]

    @cached_property
    def fixed_part(self) -> tuple:
        """What every packet built from this plan shares: a template path,
        its hdr_len, each reserved hop compiled into what a build reads per
        packet, and the template's hop table, which every packet carries.
        A reserved hop is (hop index, activity window start and end in ns,
        res_start, the template hop's fields, the delivered key's cipher,
        hop MAC as an int).  The template holds each plain hop as sent, and
        each reserved hop with offset 0 and the plain hop MAC, which a
        packet replaces.

        Runs the plan checks, then encodes the template, which checks every
        field's range, and only then builds the ciphers.  A failed check
        caches nothing, so every build from a bad plan raises.  The cache is
        exact because a plan and its parts are immutable.
        """
        if not all(segment.hops for segment in self.segments):
            raise SourceError("segment without hop fields")
        if len(self.segments) > 3:
            raise SourceError(f"at most three segments, got {len(self.segments)}")
        infos, hops, reserved, seg_len = [], [], [], [0, 0, 0]
        for index, segment in enumerate(self.segments):
            infos.append(
                InfoField(segment.peering, segment.cons_dir, segment.seg_id, segment.timestamp)
            )
            for hop_plan in segment.hops:
                plain = (
                    False, False, hop_plan.exp_time, hop_plan.cons_ingress,
                    hop_plan.cons_egress, hop_plan.hop_mac,
                )
                if hop_plan.reservation is None:
                    hop = HopField(*plain)
                else:
                    res = hop_plan.reservation[0]
                    hop = FlyoverHopField(*plain, res.res_id, res.bw_code, 0, res.duration)
                    reserved.append((len(hops), hop_plan))
                hops.append(hop)
                seg_len[index] += hop.words
        hdr_len = header_words(len(infos), sum(seg_len))
        if hdr_len > 0xFF:
            raise SourceError(f"path too long: hdr_len {hdr_len}")
        for _, hop_plan in reserved:
            res = hop_plan.reservation[0]
            if (res.ingress, res.egress) != (hop_plan.cons_ingress, hop_plan.cons_egress):
                raise SourceError(
                    f"reservation interfaces ({res.ingress}, {res.egress}) do not match "
                    f"hop ({hop_plan.cons_ingress}, {hop_plan.cons_egress})"
                )
        meta = PathMetaHdr(0, 0, tuple(seg_len), 0, 0, 0)
        template = HummingbirdPath(meta, tuple(infos), tuple(hops))
        encode_packet(Packet(self.dst_isd, self.dst_as, 0, template))
        reserved_hops = []
        for index, hop_plan in reserved:
            res, key = hop_plan.reservation
            reserved_hops.append((
                index, res.res_start * NS_PER_S, (res.res_start + res.duration) * NS_PER_S,
                res.res_start, vars(hops[index]), crypto.Prf(key),
                int.from_bytes(hop_plan.hop_mac, "big"),
            ))
        return template, hdr_len, tuple(reserved_hops), template.hop_table()


@dataclass
class CounterState:
    """Per-source counter, monotone within each millisecond."""

    last_ms: tuple[int, int] | None = None
    value: int = 0

    def next(self, base_timestamp: int, millis: int) -> int:
        ms = (base_timestamp, millis)
        if ms != self.last_ms:
            self.last_ms = ms
            self.value = 0
        if self.value > MAX_COUNTER:
            raise Backpressure(f"counter exhausted within millisecond {ms}")
        counter = self.value
        self.value += 1
        return counter


def build_packet(
    plan: PathPlan,
    payload_len: int,
    clock: Callable[[], int],
    counter_state: CounterState,
    allow_inactive: bool = False,
    tag_len: int = crypto.TAG_LEN,
) -> Packet:
    """Assemble one packet, stamping time and computing flyover tags.

    Refuses reservations that are not active right now unless
    allow_inactive is set (negative tests); an inactive reservation is
    then encoded as well as the wire format permits, which shifts its
    start and makes routers reject it.  A tag_len that no router accepts
    is refused before the counter advances; a bad plan after it, on
    every build (`PathPlan.fixed_part`).
    """
    crypto.check_tag_len(tag_len)
    now = clock()
    base = now // NS_PER_S
    if not 0 <= base < 1 << 32:
        raise SourceError(f"clock beyond 32-bit unix seconds: {base}")
    millis = now % NS_PER_S // NS_PER_MS
    counter = counter_state.next(base, millis)

    template, hdr_len, reserved, table = plan.fixed_part
    pkt_len = pkt_len_for_mac(payload_len, hdr_len)
    if payload_len < 0:  # the template checked every other prefix field
        raise WireError(f"payload_len out of range for 16-bit field: {payload_len}")
    # A reserved hop's MAC input is one block per packet plus the hop's
    # offset; the first tag_len bytes of its tag fold into its hop MAC.
    hops = list(template.hops)
    if reserved:
        block = mac_input_block(plan.dst_isd, plan.dst_as, pkt_len, 0, millis, counter)
        shared = int.from_bytes(block, "big")
        shift = 8 * (crypto.TAG_LEN - tag_len)
    for index, start_ns, end_ns, res_start, fields, a_key_prf, hop_mac in reserved:
        if not start_ns <= now <= end_ns and not allow_inactive:
            raise ReservationInactive(
                f"reservation [{res_start}, {end_ns // NS_PER_S}] not active at build time"
            )
        offset = min(max(base - res_start, 0), 0xFFFF)
        tag = crypto.prf_block(a_key_prf, (shared | offset << 32).to_bytes(16, "big"))
        mac = hop_mac ^ int.from_bytes(tag[:tag_len], "big") << shift
        # The template hop with this packet's MAC and offset, built as
        # frozen_record builds it, in one write of its fields.
        hops[index] = hop = _new(FlyoverHopField)
        hop.__dict__.update(fields, mac=mac.to_bytes(crypto.TAG_LEN, "big"), res_start_offset=offset)
    meta = PathMetaHdr(0, 0, template.meta.seg_len, base, millis, counter)
    path = HummingbirdPath.laid_out(meta, template.infos, tuple(hops), table)
    return Packet(plan.dst_isd, plan.dst_as, payload_len, path)
