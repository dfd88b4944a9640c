import copy
import random
import struct
from collections import Counter
from dataclasses import replace

import pytest

from hummingbird import crypto, router, source, wire
from hummingbird.policing import TokenBucketArray
from hummingbird.router import Reason, RouterConfig, Verdict, process_packet
from hummingbird.wire import (
    PACKET_PREFIX_LEN,
    HopField,
    HummingbirdPath,
    InfoField,
    ReservationInfo,
    decode_packet,
    decode_path,
    encode_packet,
    quantize_bw,
)

import router_oracle
import wire_oracle

MS = 1_000_000
S = 1_000_000_000

SV = bytes(range(16))
FK = bytes(range(16, 32))
BASE_S = 1_700_000_000
BASE_NS = BASE_S * S
BW_CODE = quantize_bw(1 << 23)  # 8 Mbit/s: sub-ms service times
BW_SLOW = quantize_bw(43_000)  # ~28 ms service for a small packet


class FakeClock:
    def __init__(self, now: int):
        self.now = now

    def __call__(self) -> int:
        return self.now


def make_reservation(**overrides) -> ReservationInfo:
    fields = dict(
        ingress=1,
        egress=2,
        res_id=5,
        bw_code=BW_CODE,
        res_start=BASE_S - 10,
        duration=300,
    )
    fields.update(overrides)
    return ReservationInfo(**fields)


def chain_hops(hop_plans, seg_id, info_ts, fk=FK):
    """Fill in hop MACs the way beaconing would: chained over SegID."""
    macs = crypto.segment_hop_macs(seg_id, info_ts, [
        (crypto.Prf(fk), plan.exp_time, plan.cons_ingress, plan.cons_egress)
        for plan in hop_plans
    ])
    return tuple(replace(plan, hop_mac=mac) for plan, mac in zip(hop_plans, macs))


def make_plan(
    reservation: ReservationInfo | None = make_reservation(),
    pre: int = 0,
    post: int = 0,
    seg_id: int = 0x1111,
    info_ts: int = BASE_S - 100,
    exp_time: int = 255,
):
    hops = []
    for i in range(pre):
        hops.append(source.HopPlan(10 + i, 11 + i, bytes(6), exp_time))
    if reservation is None:
        hops.append(source.HopPlan(1, 2, bytes(6), exp_time))
    else:
        a_key = crypto.derive_key(crypto.Prf(SV), reservation)
        hops.append(
            source.HopPlan(
                reservation.ingress,
                reservation.egress,
                bytes(6),
                exp_time,
                reservation=(reservation, a_key),
            )
        )
    for i in range(post):
        hops.append(source.HopPlan(20 + i, 21 + i, bytes(6), exp_time))

    chained = chain_hops(hops, seg_id, info_ts)
    return source.PathPlan(
        dst_isd=0x1234,
        dst_as=0xABCDEF,
        segments=(
            source.SegmentPlan(seg_id=seg_id, timestamp=info_ts, hops=chained),
        ),
    )


def make_cfg(now: int = BASE_NS, policer: TokenBucketArray | None = None, **overrides):
    return RouterConfig(
        sv=SV,
        forwarding_key=FK,
        policer=policer if policer is not None else TokenBucketArray(64),
        clock=FakeClock(now),
        **overrides,
    )


def build(plan, now: int = BASE_NS, payload_len: int = 100, **kwargs):
    return source.build_packet(
        plan, payload_len, FakeClock(now), source.CounterState(), **kwargs
    )


def advance_to(packet, hop_index):
    """Test helper: pretend earlier hops were already consumed."""
    starts, segments = packet.path.hop_table()
    meta = replace(
        packet.path.meta,
        curr_hf=starts[hop_index],
        curr_inf=segments[hop_index],
    )
    return replace(packet, path=replace(packet.path, meta=meta))


class TestHappyPath:
    def test_valid_flyover_gets_priority(self):
        packet = build(make_plan())
        decision, out = process_packet(make_cfg(), packet)
        assert decision == router.ForwardDecision(Verdict.PRIORITY, Reason.PRIORITY)
        assert out.path.meta.curr_hf == 5

    def test_agg_mac_rewritten_to_plain_hop_mac(self):
        plan = make_plan()
        packet = build(plan)
        _, out = process_packet(make_cfg(), packet)
        info = InfoField(peering=False, cons_dir=True, seg_id=0x1111, timestamp=BASE_S - 100)
        fly = out.path.hops[0]
        assert fly.flyover
        assert fly.mac == crypto.hop_field_mac(
            crypto.Prf(FK), info.seg_id, info.timestamp, fly.exp_time, fly.cons_ingress,
            fly.cons_egress,
        )
        # The rewritten MAC verifies as a plain SCION hop in the same slot.
        plain = HopField(
            ingress_alert=fly.ingress_alert,
            egress_alert=fly.egress_alert,
            exp_time=fly.exp_time,
            cons_ingress=fly.cons_ingress,
            cons_egress=fly.cons_egress,
            mac=fly.mac,
        )
        meta = replace(out.path.meta, curr_hf=0, curr_inf=0, seg_len=(plain.words, 0, 0))
        reset = replace(out, path=HummingbirdPath(meta=meta, infos=(info,), hops=(plain,)))
        decision, _ = process_packet(make_cfg(), reset)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.PLAIN_HOP)

    def test_plain_hop_goes_best_effort(self):
        packet = build(make_plan(reservation=None))
        cfg = make_cfg()
        decision, out = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.PLAIN_HOP)
        assert out.path.meta.curr_hf == 3
        assert bytes(cfg.policer.ts.tobytes()) == bytes(8 * 64)

    def test_multi_hop_traversal(self):
        plan = make_plan(pre=1, post=1)
        packet = build(plan)
        cfg = make_cfg()
        verdicts = []
        for _ in range(3):
            decision, packet = process_packet(cfg, packet)
            verdicts.append(decision.verdict)
        assert verdicts == [Verdict.BEST_EFFORT, Verdict.PRIORITY, Verdict.BEST_EFFORT]
        assert packet.path.meta.curr_hf == packet.path.meta.total_hop_words
        decision, _ = process_packet(cfg, packet)
        assert decision.reason is Reason.NO_HOP

    def test_seg_id_updated_along_the_way(self):
        packet = build(make_plan(reservation=None, post=1))
        cfg = make_cfg()
        first_seg = packet.path.infos[0].seg_id
        _, out = process_packet(cfg, packet)
        assert out.path.infos[0].seg_id != first_seg
        decision, _ = process_packet(cfg, out)
        assert decision.verdict is not Verdict.DROP


class TestDrops:
    def test_forged_tag_drops(self):
        packet = build(make_plan())
        hop = packet.path.hops[0]
        bad = replace(packet, path=replace(packet.path, hops=(replace(hop, mac=bytes(6)),)))
        decision, _ = process_packet(make_cfg(), bad)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH)

    def test_flipped_payload_len_drops(self):
        # PktLen is MAC input; any mismatch surfaces as a MAC failure.
        packet = build(make_plan())
        bad = replace(packet, payload_len=packet.payload_len ^ 1)
        decision, _ = process_packet(make_cfg(), bad)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH)

    def test_expired_hop_field_drops(self):
        plan = make_plan(info_ts=BASE_S - 100_000, exp_time=0)
        packet = build(plan)
        decision, _ = process_packet(make_cfg(), packet)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.HOP_EXPIRED)

    def test_plain_hop_bad_mac_drops(self):
        packet = build(make_plan(reservation=None))
        hop = packet.path.hops[0]
        bad = replace(packet, path=replace(packet.path, hops=(replace(hop, mac=bytes(6)),)))
        decision, _ = process_packet(make_cfg(), bad)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH)

    def test_pkt_len_overflow_drops(self):
        packet = build(make_plan())
        bad = replace(packet, payload_len=0xFFFF)
        decision, _ = process_packet(make_cfg(), bad)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.PKT_LEN_OVERFLOW)

    def test_parse_error_from_bytes(self):
        decision, out = router.process_packet_bytes(make_cfg(), b"\x00" * 7)
        assert decision.reason is Reason.PARSE_ERROR
        assert out is None


class TestFreshness:
    def build_at_ms_boundary(self):
        # BASE_NS is an exact second, so absTS == BASE_NS.
        return build(make_plan())

    def test_exactly_big_delta_plus_delta_is_fresh(self):
        packet = self.build_at_ms_boundary()
        cfg = make_cfg(now=BASE_NS + router.DEFAULT_BIG_DELTA_NS + router.DEFAULT_DELTA_NS)
        decision, _ = process_packet(cfg, packet)
        assert decision.verdict is Verdict.PRIORITY

    def test_one_tick_staler_demotes(self):
        packet = self.build_at_ms_boundary()
        cfg = make_cfg(now=BASE_NS + router.DEFAULT_BIG_DELTA_NS + router.DEFAULT_DELTA_NS + 1)
        decision, _ = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.STALE_TIMESTAMP)

    def test_future_within_delta_ok(self):
        packet = self.build_at_ms_boundary()
        cfg = make_cfg(now=BASE_NS - router.DEFAULT_DELTA_NS)
        decision, _ = process_packet(cfg, packet)
        assert decision.verdict is Verdict.PRIORITY

    def test_future_beyond_delta_demotes(self):
        packet = self.build_at_ms_boundary()
        cfg = make_cfg(now=BASE_NS - router.DEFAULT_DELTA_NS - 1)
        decision, _ = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.FUTURE_TIMESTAMP)

    def test_demoted_stale_packet_still_verifies_as_plain_hop(self):
        packet = self.build_at_ms_boundary()
        cfg = make_cfg(now=BASE_NS + 10 * S)
        decision, out = process_packet(cfg, packet)
        assert decision.verdict is Verdict.BEST_EFFORT
        assert out.path.meta.curr_hf == 5  # forwarded, not dropped


class TestActivity:
    def test_expired_reservation_demotes(self):
        res = make_reservation(res_start=BASE_S - 100, duration=50)
        packet = build(make_plan(reservation=res), allow_inactive=True)
        decision, _ = process_packet(make_cfg(), packet)
        assert decision == router.ForwardDecision(
            Verdict.BEST_EFFORT, Reason.RESERVATION_INACTIVE
        )

    def test_boundary_second_is_active(self):
        res = make_reservation(res_start=BASE_S - 300, duration=300)
        packet = build(make_plan(reservation=res))
        cfg = make_cfg(now=BASE_S * S)  # now == res_exp exactly
        decision, _ = process_packet(cfg, packet)
        assert decision.verdict is Verdict.PRIORITY

    def test_one_tick_past_expiry_demotes(self):
        res = make_reservation(res_start=BASE_S - 300, duration=300)
        packet = build(make_plan(reservation=res))
        cfg = make_cfg(now=BASE_S * S + 1)
        decision, _ = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(
            Verdict.BEST_EFFORT, Reason.RESERVATION_INACTIVE
        )

    def test_not_started_cannot_be_expressed(self):
        res = make_reservation(res_start=BASE_S + 100, duration=300)
        with pytest.raises(source.ReservationInactive):
            build(make_plan(reservation=res))
        # Sending anyway shifts ResStart on the wire, the router derives
        # a different key, and the packet drops.
        packet = build(make_plan(reservation=res), allow_inactive=True)
        decision, _ = process_packet(make_cfg(), packet)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH)


class TestMonitoring:
    def test_second_packet_over_budget(self):
        res = make_reservation(bw_code=BW_SLOW)
        plan = make_plan(reservation=res)
        counter_state = source.CounterState()
        clock = FakeClock(BASE_NS)
        cfg = make_cfg()
        first = source.build_packet(plan, 100, clock, counter_state)
        second = source.build_packet(plan, 100, clock, counter_state)
        d1, _ = process_packet(cfg, first)
        d2, _ = process_packet(cfg, second)
        assert d1.verdict is Verdict.PRIORITY
        assert d2 == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.OVER_BUDGET)

    def test_res_id_out_of_policer_range(self):
        res = make_reservation(res_id=1 << 20)
        packet = build(make_plan(reservation=res))
        cfg = make_cfg(policer=TokenBucketArray(16))
        decision, _ = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.OVER_BUDGET)
        assert cfg.policer.out_of_range == 1

    def test_demotions_never_touch_policer(self):
        res = make_reservation(res_start=BASE_S - 100, duration=50)
        packet = build(make_plan(reservation=res), allow_inactive=True)
        cfg = make_cfg()
        process_packet(cfg, packet)
        assert cfg.policer.ts.tobytes() == bytes(8 * 64)


SEG0, SEG1 = 0x2222, 0x3333


def boundary_plan(
    flyover_on_first: bool,
    misplaced: bool = False,
    res: ReservationInfo | None = None,
    info_ts: tuple[int, int] = (BASE_S - 100, BASE_S - 100),
    exp_time: tuple[int, int] = (255, 255),
):
    """A path whose first AS crosses from segment 0 into segment 1."""
    res = res if res is not None else make_reservation()
    a_key = crypto.derive_key(crypto.Prf(SV), res)
    seg0_hops = [
        source.HopPlan(res.ingress, res.egress, bytes(6), exp_time[0],
                       reservation=(res, a_key) if flyover_on_first else None)
    ]
    seg1_hops = [
        source.HopPlan(1, 2, bytes(6), exp_time[1],
                       reservation=(res, a_key) if misplaced else None),
        source.HopPlan(30, 31, bytes(6), 255),
    ]
    seg0 = chain_hops(seg0_hops, SEG0, info_ts[0])
    seg1 = chain_hops(seg1_hops, SEG1, info_ts[1])
    return source.PathPlan(
        dst_isd=0x1234,
        dst_as=0xABCDEF,
        segments=(
            source.SegmentPlan(seg_id=SEG0, timestamp=info_ts[0], hops=seg0),
            source.SegmentPlan(seg_id=SEG1, timestamp=info_ts[1], hops=seg1),
        ),
    )


class TestSegmentBoundary:
    def with_mac(self, packet, index, mac):
        hops = list(packet.path.hops)
        hops[index] = replace(hops[index], mac=mac)
        return replace(packet, path=replace(packet.path, hops=tuple(hops)))

    def assert_crossed(self, packet, out):
        """Both SegIDs stepped and the pointers past both hop fields."""
        for i, info in enumerate(packet.path.infos):
            hop = out.path.hops[i]
            mac = crypto.hop_field_mac(
                crypto.Prf(FK), info.seg_id, info.timestamp, hop.exp_time, hop.cons_ingress,
                hop.cons_egress,
            )
            assert out.path.hops[i].mac == mac
            assert out.path.infos[i].seg_id == crypto.update_seg_id(info.seg_id, mac)
        assert out.path.meta.curr_hf == packet.path.hops[0].words + 3
        assert out.path.meta.curr_inf == 1

    def test_boundary_with_flyover_on_first_segment(self):
        packet = build(boundary_plan(flyover_on_first=True))
        decision, out = process_packet(make_cfg(), packet)
        assert decision.verdict is Verdict.PRIORITY
        # Both boundary hop fields consumed, pointer now in segment 1.
        assert out.path.meta.curr_hf == 5 + 3
        assert out.path.meta.curr_inf == 1
        self.assert_crossed(packet, out)
        decision, out = process_packet(make_cfg(), out)
        assert decision.verdict is Verdict.BEST_EFFORT
        assert out.path.meta.curr_hf == out.path.meta.total_hop_words

    def test_boundary_plain(self):
        packet = build(boundary_plan(flyover_on_first=False))
        decision, out = process_packet(make_cfg(), packet)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.PLAIN_HOP)
        self.assert_crossed(packet, out)

    def test_misplaced_flyover_drops(self):
        packet = build(boundary_plan(flyover_on_first=False, misplaced=True))
        decision, _ = process_packet(make_cfg(), packet)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MISPLACED_FLYOVER)

    def test_second_hop_mac_failure_drops(self):
        packet = build(boundary_plan(flyover_on_first=True))
        bad = self.with_mac(packet, 1, bytes(6))
        decision, _ = process_packet(make_cfg(), bad)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH)

    @pytest.mark.parametrize("flyover", [True, False])
    def test_first_hop_mac_failure_drops(self, flyover):
        packet = build(boundary_plan(flyover_on_first=flyover))
        bad = self.with_mac(packet, 0, bytes(6))
        cfg = make_cfg()
        decision, _ = process_packet(cfg, bad)
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.MAC_MISMATCH)
        assert cfg.policer.ts.tobytes() == bytes(8 * 64)

    @pytest.mark.parametrize("expired", [0, 1])
    def test_expired_hop_field_drops(self, expired):
        info_ts = [BASE_S - 100, BASE_S - 100]
        exp_time = [255, 255]
        info_ts[expired], exp_time[expired] = BASE_S - 100_000, 0
        plan = boundary_plan(
            flyover_on_first=True, info_ts=tuple(info_ts), exp_time=tuple(exp_time)
        )
        decision, _ = process_packet(make_cfg(), build(plan))
        assert decision == router.ForwardDecision(Verdict.DROP, Reason.HOP_EXPIRED)

    @pytest.mark.parametrize(
        "now, reason",
        [
            (BASE_NS + 10 * S, Reason.STALE_TIMESTAMP),
            (BASE_NS - router.DEFAULT_DELTA_NS - 1, Reason.FUTURE_TIMESTAMP),
        ],
    )
    def test_unfresh_flyover_crosses_best_effort(self, now, reason):
        packet = build(boundary_plan(flyover_on_first=True))
        cfg = make_cfg(now=now)
        decision, out = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, reason)
        self.assert_crossed(packet, out)
        assert cfg.policer.ts.tobytes() == bytes(8 * 64)

    def test_inactive_flyover_crosses_best_effort(self):
        res = make_reservation(res_start=BASE_S - 100, duration=50)
        plan = boundary_plan(flyover_on_first=True, res=res)
        packet = build(plan, allow_inactive=True)
        cfg = make_cfg()
        decision, out = process_packet(cfg, packet)
        assert decision == router.ForwardDecision(
            Verdict.BEST_EFFORT, Reason.RESERVATION_INACTIVE
        )
        self.assert_crossed(packet, out)
        assert cfg.policer.ts.tobytes() == bytes(8 * 64)

    def test_boundary_flyover_over_budget(self):
        plan = boundary_plan(
            flyover_on_first=True, res=make_reservation(bw_code=BW_SLOW)
        )
        clock = FakeClock(BASE_NS)
        counter_state = source.CounterState()
        cfg = make_cfg()
        first = source.build_packet(plan, 100, clock, counter_state)
        second = source.build_packet(plan, 100, clock, counter_state)
        d1, _ = process_packet(cfg, first)
        d2, out = process_packet(cfg, second)
        assert d1.verdict is Verdict.PRIORITY
        assert d2 == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.OVER_BUDGET)
        self.assert_crossed(second, out)


class TestCipherCount:
    """Key holders build their ciphers once: a flyover hop builds only
    the packet's own A_K, a plain hop none, and a path plan one per
    reserved hop, on its first packet.  Every
    block still goes through `crypto.prf_block`, where the benchmark's
    tracer counts it, and each `Prf` builds exactly one AES context."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = Counter()
        prf, prf_block, context = crypto.Prf, crypto.prf_block, crypto._new_context

        def counted_prf(key):
            counts["Prf"] += 1
            return prf(key)

        def counted_prf_block(key, block):
            counts["prf_block"] += 1
            return prf_block(key, block)

        def counted_context(*args):
            counts["context"] += 1
            return context(*args)

        monkeypatch.setattr(crypto, "Prf", counted_prf)
        monkeypatch.setattr(crypto, "prf_block", counted_prf_block)
        monkeypatch.setattr(crypto, "_new_context", counted_context)
        return counts

    @pytest.mark.parametrize(
        "plan, verdict, prfs, blocks",
        [
            (make_plan(), Verdict.PRIORITY, 1, 3),
            (make_plan(reservation=None), Verdict.BEST_EFFORT, 0, 1),
            (boundary_plan(flyover_on_first=False), Verdict.BEST_EFFORT, 0, 2),
        ],
        ids=["flyover", "plain", "plain_crossing"],
    )
    def test_router(self, counts, plan, verdict, prfs, blocks):
        cfg = make_cfg()
        packet = build(plan)
        counts.clear()
        decision, _ = process_packet(cfg, packet)
        assert decision.verdict is verdict
        assert (counts["Prf"], counts["context"], counts["prf_block"]) == (prfs, prfs, blocks)

    def test_build_packet(self, counts):
        plan = boundary_plan(flyover_on_first=True, misplaced=True)
        flyovers = sum(h.reservation is not None for s in plan.segments for h in s.hops)
        assert flyovers == 2
        counts.clear()
        for ciphers in (flyovers, 0, 0):
            build(plan)
            assert (counts["Prf"], counts["context"], counts["prf_block"]) == (
                ciphers, ciphers, flyovers
            )
            counts.clear()


class TestBytesInterface:
    def test_round_trip_through_pipeline(self):
        packet = build(make_plan(pre=1))
        raw = encode_packet(packet)
        cfg = make_cfg()
        decision, raw2 = router.process_packet_bytes(cfg, raw)
        assert decision.verdict is Verdict.BEST_EFFORT
        decision, raw3 = router.process_packet_bytes(cfg, raw2)
        assert decision.verdict is Verdict.PRIORITY
        assert raw3 is not None and len(raw3) == len(raw)

    def test_random_corruption_never_crashes(self):
        cfg = make_cfg()
        seen = set()
        for raw, now, authentic in corrupted_packets(random.Random(99)):
            cfg.clock.now = now
            decision, out = router.process_packet_bytes(cfg, raw)
            assert decision.verdict in (Verdict.DROP, Verdict.BEST_EFFORT, Verdict.PRIORITY)
            if not authentic:
                continue
            seen.add(decision.reason)
            if decision.verdict is Verdict.DROP:
                assert out is None
            else:
                decode_packet(out)
        assert {
            Reason.PRIORITY,
            Reason.OVER_BUDGET,
            Reason.PARSE_ERROR,
            Reason.MAC_MISMATCH,
            Reason.STALE_TIMESTAMP,
            Reason.FUTURE_TIMESTAMP,
            Reason.PLAIN_HOP,
            Reason.NO_HOP,
        } <= seen, seen


def corrupted_packets(rng):
    """(bytes, router clock, authentic) for the corruption tests.

    First a flyover packet with random bit flips, then authentic packets
    with up to three header fields changed, seen at fresh, stale and
    future router clocks, which reach past the parser and the MAC check.
    """
    raw = encode_packet(build(make_plan()))
    for _ in range(300):
        corrupted = bytearray(raw)
        for _ in range(rng.randrange(1, 4)):
            corrupted[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        yield bytes(corrupted), BASE_NS, False

    bases = [
        advance_to(build(make_plan(pre=pre, post=post), payload_len=rng.randrange(2000)), pre)
        for pre in range(3)
        for post in range(2)
    ]
    bases.append(build(boundary_plan(flyover_on_first=True), payload_len=700))
    for _ in range(2000):
        base = rng.choice(bases)
        buf = bytearray(encode_packet(base))
        hop_at = 24 + 8 * base.path.meta.num_inf + 4 * base.path.meta.curr_hf
        for _ in range(rng.randrange(4)):
            rng.choice(MUTATIONS)(rng, buf, hop_at)
        yield bytes(buf), BASE_NS + rng.choice((0, 0, 0, 10 * S, -S)), True


def _set_bits(buf, offset, shift, width, rng):
    """Replace a width-bit field of the 32-bit word at offset."""
    (word,) = struct.unpack_from("!I", buf, offset)
    old = word >> shift & ((1 << width) - 1)
    new = rng.randrange(1 << width) if rng.random() < 0.5 else old + rng.choice((-2, -1, 1, 2))
    mask = ((1 << width) - 1) << shift
    struct.pack_into("!I", buf, offset, word & ~mask | (new << shift & mask))


def _flip_mac(rng, buf, hop_at):
    buf[hop_at + 6 + rng.randrange(6)] ^= 1 << rng.randrange(8)


# Packet prefix at 0, meta header at 12, hop field at hop_at.
MUTATIONS = (
    lambda rng, buf, hop_at: _set_bits(buf, 8, 16, 16, rng),  # PayloadLen
    lambda rng, buf, hop_at: _set_bits(buf, 8, 8, 8, rng),  # HdrLen
    lambda rng, buf, hop_at: _set_bits(buf, 12, 30, 2, rng),  # CurrINF
    lambda rng, buf, hop_at: _set_bits(buf, 12, 22, 8, rng),  # CurrHF
    lambda rng, buf, hop_at: _set_bits(buf, 12, 7 * rng.randrange(3), 7, rng),  # SegLen
    lambda rng, buf, hop_at: _set_bits(buf, 16, 0, 32, rng),  # BaseTimestamp
    lambda rng, buf, hop_at: _set_bits(buf, 20, 22, 10, rng),  # MillisTimestamp
    lambda rng, buf, hop_at: _set_bits(buf, 20, 0, 22, rng),  # Counter
    lambda rng, buf, hop_at: _set_bits(buf, hop_at + 12, 10, 22, rng),  # ResID
    lambda rng, buf, hop_at: _set_bits(buf, hop_at + 12, 0, 10, rng),  # BW
    _flip_mac,
)


class TestFlatDecoder:
    def test_mutated_packets_match_oracle(self):
        """The path decoder agrees with the per-segment reference decoder
        on every buffer of the corruption test."""
        decoded = 0
        for raw, _, _ in corrupted_packets(random.Random(99)):
            path_raw = raw[PACKET_PREFIX_LEN:]
            expected = wire_oracle.decoded_or_none(wire_oracle.decode_path, path_raw)
            assert wire_oracle.decoded_or_none(decode_path, path_raw) == expected, raw.hex()
            decoded += expected is not None
        assert 300 < decoded < 2000

    @pytest.mark.parametrize(
        "plan",
        [make_plan(pre=1, post=1), make_plan(reservation=None), boundary_plan(True)],
        ids=["flyover", "plain", "crossing"],
    )
    def test_one_hop_table_walk_per_stage(self, walks, plan):
        """Decode walks the hop layout; the router and encode read that walk."""
        raw = encode_packet(build(plan))
        walks.clear()
        decision, out = router.process_packet_bytes(make_cfg(), raw)
        assert out is not None, decision
        assert len(walks) == 1


@pytest.fixture()
def walks(monkeypatch):
    """One entry per walk of a path's hops: each walk sums the declared
    segment lengths once, with the wire module's `accumulate`."""
    walked, accumulate = [], wire.accumulate

    def counted(seg_len):
        walked.append(seg_len)
        return accumulate(seg_len)

    monkeypatch.setattr(wire, "accumulate", counted)
    return walked


class TestHandedLayout:
    """A built packet's path carries its plan's hop table, and a forwarded
    one its input's; a path built any other way walks its own, once."""

    def test_built_and_forwarded_paths_walk_nothing(self, walks):
        """Flyover, plain and crossing hops, forwarded until no hop is left."""
        cfg = make_cfg()
        for plan in (make_plan(pre=1, post=1), make_plan(reservation=None), boundary_plan(True)):
            packet = build(plan)
            table = plan.fixed_part[0].hop_table()
            walks.clear()
            paths = [packet.path]
            while True:
                decision, packet = process_packet(cfg, packet)
                if decision.verdict is Verdict.DROP:
                    break
                paths.append(packet.path)
            assert decision.reason is Reason.NO_HOP
            assert all(path.hop_table() is table for path in paths)
            assert walks == []
            assert all(path.hop_table() == replace(path).hop_table() for path in paths)

    def test_path_rebuilt_with_replace_walks_its_own_layout(self, walks):
        packet = build(make_plan(pre=1, post=1))
        path = packet.path
        hops = path.hops[:-1]
        meta = replace(path.meta, seg_len=(sum(hop.words for hop in hops), 0, 0))
        shorter = replace(path, meta=meta, hops=hops)
        walks.clear()
        assert shorter.hop_table() is shorter.hop_table() != path.hop_table()
        assert len(walks) == 1
        # Hops that no longer tile seg_len: refused, not read by the plan's table.
        untiled = replace(packet, path=replace(path, hops=hops))
        decision, out = process_packet(make_cfg(), untiled)
        assert (decision.reason, out) == (Reason.PARSE_ERROR, untiled)


def random_plan(rng: random.Random):
    """A plan of 1-3 segments of 1-3 hops, each plain or reserved at random.
    A reserved hop that opens a later segment is a crossing's misplaced
    flyover, which the crossing AS drops."""
    segments = []
    for _ in range(rng.randint(1, 3)):
        seg_id = rng.randrange(1 << 16)
        hops = []
        for _ in range(rng.randint(1, 3)):
            ingress, egress = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
            reservation = None
            if rng.random() < 0.5:
                res = make_reservation(
                    ingress=ingress, egress=egress, res_id=rng.randrange(64),
                    bw_code=rng.choice((BW_CODE, BW_SLOW)),
                )
                reservation = (res, crypto.derive_key(crypto.Prf(SV), res))
            hops.append(source.HopPlan(ingress, egress, bytes(6), reservation=reservation))
        hops = chain_hops(hops, seg_id, BASE_S - 100)
        segments.append(source.SegmentPlan(seg_id, BASE_S - 100, hops))
    return source.PathPlan(dst_isd=0x1234, dst_as=0xABCDEF, segments=tuple(segments))


class TestTableReusedAcrossPackets:
    """Every packet built from a plan carries the plan's hop table, and with
    it the router's step at each CurrHF, worked out by the first packet that
    reached it.  Each packet goes hop by hop through a router per hop, as
    the simulator hands it on; at every hop the decision, the packet and
    the policer match `router_oracle` on a freshly decoded copy, whose
    table is walked anew."""

    def forward(self, packet, routers: list, now: int) -> list:
        reasons = []
        for cfg in routers:
            cfg.clock.now = now
            try:
                fresh = decode_packet(encode_packet(packet))
            except wire.WireError:  # CurrHF off a hop boundary: a fresh record
                fresh = replace(packet, path=replace(packet.path))
            reference = RouterConfig(SV, FK, copy.deepcopy(cfg.policer), cfg.clock)
            expected = router_oracle.process_packet(reference, fresh)
            decision, out = process_packet(cfg, packet)
            assert (decision, out) == expected
            assert cfg.policer.ts == reference.policer.ts
            assert cfg.policer.out_of_range == reference.policer.out_of_range == 0
            reasons.append(decision.reason)
            if decision.verdict is Verdict.DROP:
                return reasons
            assert out.path.hop_table() is packet.path.hop_table()
            packet = out
        raise AssertionError("a packet outlived its path")

    def test_every_hop_matches_the_oracle(self):
        rng = random.Random(2727)
        reasons = Counter()
        for _ in range(60):
            plan = random_plan(rng)
            table = plan.fixed_part[3]
            starts, segments = table
            # One router per AS, one more for the hop past the last: every
            # path here is shorter than ten ASes.
            routers = [make_cfg() for _ in range(10)]
            now = BASE_NS
            for kind in ("built", "built", "off a boundary", "built", "past the last hop", "built"):
                now += rng.randrange(1, 4 * MS)
                packet = build(plan, now)
                if kind != "built":
                    index = rng.randrange(len(starts) - 1)
                    curr_hf, curr_inf = (
                        (starts[index] + 1, segments[index]) if kind == "off a boundary"
                        else (starts[-1], segments[-1])
                    )
                    meta = replace(packet.path.meta, curr_hf=curr_hf, curr_inf=curr_inf)
                    path = HummingbirdPath.laid_out(meta, packet.path.infos, packet.path.hops, table)
                    packet = replace(packet, path=path)
                assert packet.path.hop_table() is table
                reasons.update(self.forward(packet, routers, now))
        assert {
            Reason.PRIORITY, Reason.PLAIN_HOP, Reason.OVER_BUDGET, Reason.MISPLACED_FLYOVER,
            Reason.PARSE_ERROR, Reason.NO_HOP,
        } <= set(reasons)


class TestZeroBandwidthCode:
    def test_authentic_flyover_forwards_uncharged(self):
        """BW code 0 reserves nothing: the packet travels best effort and
        the policer is not asked to charge it."""
        cfg = make_cfg()
        before = cfg.policer.ts.tobytes()
        raw = encode_packet(build(make_plan(reservation=make_reservation(bw_code=0))))
        decision, out = router.process_packet_bytes(cfg, raw)
        assert decision == router.ForwardDecision(Verdict.BEST_EFFORT, Reason.OVER_BUDGET)
        assert decode_packet(out).path.meta.curr_hf == 5
        assert cfg.policer.ts.tobytes() == before
        assert cfg.policer.out_of_range == 0


class TestConfig:
    @pytest.mark.parametrize("tag_len", [0, 7, 17])
    def test_unusable_tag_len_refused(self, tag_len):
        """A tag wider than the hop MAC could not be folded into it, so the
        router would raise on every flyover; the config refuses it."""
        with pytest.raises(crypto.CryptoError, match="tag_len"):
            make_cfg(tag_len=tag_len)

    def test_every_usable_tag_len_forwards_flyovers(self):
        for tag_len in range(1, crypto.TAG_LEN + 1):
            raw = encode_packet(build(make_plan(), tag_len=tag_len))
            decision, _ = router.process_packet_bytes(make_cfg(tag_len=tag_len), raw)
            assert decision == router.ForwardDecision(Verdict.PRIORITY, Reason.PRIORITY)


def one_packet_of_each_kind():
    """(bytes, router clock, expected reason) for every way one hop can end,
    and for the last hop of a path that leaves it in its second segment."""
    flyover = encode_packet(build(make_plan()))
    forged = bytearray(flyover)
    forged[PACKET_PREFIX_LEN + 12 + 8 + 6] ^= 1  # first byte of the first hop's MAC
    overflow = bytearray(flyover)
    struct.pack_into("!H", overflow, 8, 0xFFFF)  # PayloadLen
    expired = make_reservation(res_start=BASE_S - 100, duration=50)
    inactive = build(make_plan(reservation=expired), allow_inactive=True)
    misplaced = boundary_plan(flyover_on_first=False, misplaced=True)
    _, crossed = process_packet(make_cfg(), build(boundary_plan(False)))
    return [
        (encode_packet(build(make_plan(reservation=None))), BASE_NS, Reason.PLAIN_HOP),
        (encode_packet(build(boundary_plan(False))), BASE_NS, Reason.PLAIN_HOP),
        (encode_packet(build(boundary_plan(True))), BASE_NS, Reason.PRIORITY),
        (encode_packet(crossed), BASE_NS, Reason.PLAIN_HOP),
        (flyover, BASE_NS, Reason.PRIORITY),
        (flyover, BASE_NS + 10 * S, Reason.STALE_TIMESTAMP),
        (flyover, BASE_NS - router.DEFAULT_DELTA_NS - 1, Reason.FUTURE_TIMESTAMP),
        (encode_packet(inactive), BASE_NS, Reason.RESERVATION_INACTIVE),
        (bytes(forged), BASE_NS, Reason.MAC_MISMATCH),
        (bytes(overflow), BASE_NS, Reason.PKT_LEN_OVERFLOW),
        (encode_packet(build(misplaced)), BASE_NS, Reason.MISPLACED_FLYOVER),
    ]


class TestRouterOracle:
    """The bytes pipeline against `router_oracle`, the step it replaced
    with its own codec: same decision, same output bytes and the same
    policer state after every packet."""

    def assert_same(self, cases) -> list[router.ForwardDecision]:
        cfg, ref = make_cfg(), make_cfg()
        decisions = []
        for raw, now in cases:
            cfg.clock.now = ref.clock.now = now
            decision, out = router.process_packet_bytes(cfg, raw)
            assert (decision, out) == router_oracle.process_packet_bytes(ref, raw), raw.hex()
            assert cfg.policer.ts.tobytes() == ref.policer.ts.tobytes()
            assert cfg.policer.out_of_range == ref.policer.out_of_range
            decisions.append(decision)
        return decisions

    def test_random_bytes(self):
        rng = random.Random(21)
        cases = []
        for _ in range(3000):
            raw = bytearray(rng.randbytes(4 * rng.randrange(24)))
            if len(raw) >= PACKET_PREFIX_LEN and rng.random() < 0.5:
                raw[10], raw[11] = len(raw) // 4, 0  # a prefix that lets the path be read
            cases.append((bytes(raw), BASE_NS))
        self.assert_same(cases)

    def test_corrupted_packets(self):
        decisions = self.assert_same(
            (raw, now) for raw, now, _ in corrupted_packets(random.Random(99))
        )
        assert len({d.reason for d in decisions}) >= 8

    def test_one_packet_of_each_kind(self):
        cases = one_packet_of_each_kind()
        decisions = self.assert_same((raw, now) for raw, now, _ in cases)
        assert [d.reason for d in decisions] == [reason for _, _, reason in cases]


def test_every_fixed_decision_carries_its_label():
    """The simulator counts hops by this label, formatted once per decision."""
    fixed = [*router._DROP.values(), *router._BEST_EFFORT.values(), router._PRIORITY]
    assert len(fixed) == 2 * len(Reason) + 1
    for decision in fixed:
        assert decision.label == f"{decision.verdict.value}:{decision.reason.value}"


def flyover_path_plan(segments: int):
    """A path of 1-3 segments with a reservation in each, none on a hop
    that opens a segment (a crossing AS carries its flyover on the first
    of its two hop fields)."""
    segment_plans = []
    for index in range(segments):
        res = make_reservation(ingress=40 + index, egress=50 + index, res_id=index)
        a_key = crypto.derive_key(crypto.Prf(SV), res)
        reserved = source.HopPlan(res.ingress, res.egress, bytes(6), reservation=(res, a_key))
        plain = [source.HopPlan(10 * index + i, 10 * index + i + 1, bytes(6)) for i in (1, 3)]
        hops = [reserved, plain[1]] if index == 0 else [plain[0], reserved, plain[1]]
        seg_id = 0x1111 * (index + 1)
        hops = chain_hops(hops, seg_id, BASE_S - 100)
        segment_plans.append(source.SegmentPlan(seg_id, BASE_S - 100, hops))
    return source.PathPlan(dst_isd=0x1234, dst_as=0xABCDEF, segments=tuple(segment_plans))


class TestPktLenBoundary:
    """The router takes PktLen from the hop table it walked: at 65 535 the
    flyover tags verify, at 65 536 the first flyover hop drops, as in
    `router_oracle`, at every hop of the path."""

    @pytest.mark.parametrize("segments", [1, 2, 3])
    @pytest.mark.parametrize("pkt_len", [0xFFFF, 0x10000])
    def test_matches_oracle_along_the_path(self, segments, pkt_len):
        plan = flyover_path_plan(segments)
        header = 4 * plan.fixed_part[1]
        packet = build(plan, payload_len=0xFFFF - header)
        raw = encode_packet(replace(packet, payload_len=pkt_len - header))
        cfg, ref = make_cfg(), make_cfg()
        reasons = []
        while raw is not None:
            decision, out = router.process_packet_bytes(cfg, raw)
            assert (decision, out) == router_oracle.process_packet_bytes(ref, raw)
            assert cfg.policer.ts.tobytes() == ref.policer.ts.tobytes()
            reasons.append(decision.reason)
            if decision.reason is Reason.NO_HOP:
                break
            raw = out
        if pkt_len == 0xFFFF:
            assert reasons.count(Reason.PRIORITY) + reasons.count(Reason.OVER_BUDGET) == segments
            assert reasons[-1] is Reason.NO_HOP
        else:
            assert reasons == [Reason.PKT_LEN_OVERFLOW]


@pytest.mark.parametrize(
    "hop, packet",
    [
        ({"res_id": 1 << 22}, {}), ({"res_id": -1}, {}), ({"bw": 1 << 10}, {}),
        ({"cons_ingress": 1 << 16}, {}), ({"res_duration": 1 << 16}, {}),
        ({"res_start_offset": 1 << 16}, {}), ({"mac": bytes(5)}, {}), ({"res_id": 5.0}, {}),
        ({}, {"payload_len": -5000}), ({}, {"dst_isd": 1 << 16}), ({}, {"dst_as": 1 << 48}),
    ],
)
def test_a_flyover_hop_that_does_not_fit_raises_as_the_oracle_does(hop, packet):
    """A dataclass packet can hold values no wire field can: the flyover
    step packs its blocks from the hop's fields and refuses them with the
    exception and message `router_oracle` raises."""
    built = build(make_plan())
    hops = (replace(built.path.hops[0], **hop),) + built.path.hops[1:]
    built = replace(built, path=replace(built.path, hops=hops), **packet)

    def outcome(process):
        try:
            return process(make_cfg(), built)[0]
        except (ValueError, TypeError) as exc:
            return type(exc), str(exc)

    expected = outcome(router_oracle.process_packet)
    assert isinstance(expected, tuple)
    assert outcome(process_packet) == expected
