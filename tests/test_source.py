import copy
import random
from dataclasses import replace

import pytest

from hummingbird import crypto, source
from hummingbird.router import Verdict, process_packet
from hummingbird.wire import PktLenOverflow, ReservationInfo, WireError, encode_packet

import source_oracle
from test_router import (
    BASE_NS,
    BASE_S,
    FakeClock,
    MS,
    S,
    build,
    make_cfg,
    make_plan,
    make_reservation,
)


class TestCounter:
    def test_increments_within_millisecond(self):
        state = source.CounterState()
        assert [state.next(10, 5) for _ in range(4)] == [0, 1, 2, 3]

    def test_resets_on_millisecond_change(self):
        state = source.CounterState()
        state.next(10, 5)
        state.next(10, 5)
        assert state.next(10, 6) == 0
        assert state.next(11, 6) == 0

    def test_backpressure_on_exhaustion(self):
        state = source.CounterState(last_ms=(10, 5), value=source.MAX_COUNTER)
        assert state.next(10, 5) == source.MAX_COUNTER
        with pytest.raises(source.Backpressure):
            state.next(10, 5)


class TestBuild:
    @pytest.mark.parametrize("flyover", [False, True], ids=["plain", "flyover"])
    def test_out_of_range_hop_field_rejected(self, flyover):
        # The hop MAC comes from beaconing and never sees ExpTime here, so
        # only validating the built hop catches the 8-bit overflow.
        res = make_reservation()
        reservation = (res, crypto.derive_key(crypto.Prf(bytes(16)), res)) if flyover else None
        hop = source.HopPlan(1, 2, bytes(6), exp_time=300, reservation=reservation)
        plan = source.PathPlan(1, 2, (source.SegmentPlan(seg_id=1, timestamp=BASE_S, hops=(hop,)),))
        with pytest.raises(WireError, match="exp_time"):
            build(plan)

    def test_stamps_clock_fields(self):
        now = BASE_NS + 7 * MS + 123
        packet = build(make_plan(), now=now)
        meta = packet.path.meta
        assert meta.base_timestamp == BASE_S
        assert meta.millis_timestamp == 7
        assert meta.counter == 0

    def test_counter_distinguishes_same_millisecond(self):
        plan = make_plan()
        state = source.CounterState()
        clock = FakeClock(BASE_NS)
        p1 = source.build_packet(plan, 100, clock, state)
        p2 = source.build_packet(plan, 100, clock, state)
        assert p1.path.meta.counter == 0
        assert p2.path.meta.counter == 1
        assert p1.path.hops[0].mac != p2.path.hops[0].mac  # tags differ

    def test_deterministic(self):
        plan = make_plan(pre=1, post=1)
        a = build(plan, now=BASE_NS + 3 * MS)
        b = build(plan, now=BASE_NS + 3 * MS)
        assert encode_packet(a) == encode_packet(b)

    def test_interface_mismatch_rejected(self):
        res = make_reservation(ingress=9, egress=9)
        plan = make_plan()
        bad_hop = replace(
            plan.segments[0].hops[0],
            reservation=(res, crypto.derive_key(crypto.Prf(b"\x00" * 16), res)),
        )
        bad = replace(
            plan,
            segments=(replace(plan.segments[0], hops=(bad_hop,)),),
        )
        with pytest.raises(source.SourceError, match="interfaces"):
            build(bad)

    def test_empty_segment_rejected(self):
        plan = make_plan()
        bad = replace(plan, segments=plan.segments + (replace(plan.segments[0], hops=()),))
        with pytest.raises(source.SourceError, match="without hop"):
            build(bad)

    def test_four_segments_rejected(self):
        seg = make_plan().segments[0]
        bad = replace(make_plan(), segments=(seg,) * 4)
        with pytest.raises(source.SourceError, match="three segments"):
            build(bad)

    def test_payload_overflow_rejected(self):
        with pytest.raises(PktLenOverflow, match="^pkt_len 65587 does not fit 16 bits$"):
            build(make_plan(), payload_len=0xFFFF)

    def test_oversized_path_rejected(self):
        hops = tuple(
            source.HopPlan(i, i + 1, bytes(6), 255) for i in range(40)
        )
        seg = source.SegmentPlan(seg_id=1, timestamp=BASE_S - 10, hops=hops)
        plan = source.PathPlan(dst_isd=1, dst_as=2, segments=(seg, seg, seg))
        with pytest.raises(source.SourceError, match="^path too long: hdr_len 372$"):
            build(plan)

    def test_header_bytes_match_built_packets(self):
        """The oracle's count, the compiled hdr_len and a built packet agree."""
        seg = make_plan(pre=2, post=1).segments[0]
        for plan in (
            make_plan(),
            make_plan(reservation=None, pre=1),
            replace(make_plan(), segments=(seg, seg, seg)),
        ):
            header = len(encode_packet(build(plan)))
            assert source_oracle.header_bytes(plan) == 4 * plan.fixed_part[1] == header

    def test_clock_beyond_32_bits_rejected(self):
        with pytest.raises(source.SourceError, match="32-bit"):
            build(make_plan(), now=(1 << 32) * S)

    def test_short_tag_profile_round_trips(self):
        packet = build(make_plan(), tag_len=2)
        cfg = make_cfg(tag_len=2)
        decision, _ = process_packet(cfg, packet)
        assert decision.verdict is Verdict.PRIORITY

    @pytest.mark.parametrize("reservation", [make_reservation(), None], ids=["flyover", "plain"])
    @pytest.mark.parametrize("tag_len", [0, 7, 17])
    def test_unusable_tag_len_refused_before_the_counter(self, reservation, tag_len):
        """No router accepts such a tag, so the packet is refused before it
        uses up a counter value, with or without a flyover hop."""
        counter_state = source.CounterState()
        with pytest.raises(crypto.CryptoError, match=f"tag_len must be 1 to 6: {tag_len}"):
            source.build_packet(make_plan(reservation=reservation), 100, FakeClock(BASE_NS),
                                counter_state, tag_len=tag_len)
        assert counter_state == source.CounterState()

    def test_every_usable_tag_len_builds(self):
        counter_state = source.CounterState()
        for tag_len in range(1, crypto.TAG_LEN + 1):
            source.build_packet(make_plan(), 100, FakeClock(BASE_NS), counter_state, tag_len=tag_len)
        assert counter_state.value == crypto.TAG_LEN

    def test_offset_clamped_to_16_bits(self):
        res = make_reservation(res_start=BASE_S - 0x10000, duration=0xFFFF)
        packet = build(make_plan(reservation=res), allow_inactive=True)
        assert packet.path.hops[0].res_start_offset == 0xFFFF


def outcome(build_packet, plan, payload_len, now, counter_state, **kwargs):
    """The packet built, or the class and message of the refusal."""
    try:
        return build_packet(plan, payload_len, FakeClock(now), counter_state, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def against_oracle(plan, payload_len=100, now=BASE_NS, counter_state=None, **kwargs):
    """(outcome, counter state after) for the oracle, then for build_packet,
    each from its own copy of counter_state."""
    results = []
    for build_packet in (source_oracle.build_packet, source.build_packet):
        state = copy.deepcopy(counter_state or source.CounterState())
        results.append((outcome(build_packet, plan, payload_len, now, state, **kwargs), state))
    return results


def random_plan(rng: random.Random) -> source.PathPlan:
    """1-3 segments of 1-4 hops, about half of them reserved; some
    reservations start in the future, some ended, some long ago."""
    segments = []
    for _ in range(rng.randint(1, 3)):
        hops = []
        for _ in range(rng.randint(1, 4)):
            ingress, egress = rng.randrange(1 << 16), rng.randrange(1 << 16)
            reservation = None
            if rng.random() < 0.5:
                age = rng.choice((rng.randrange(-100, 1000), rng.randrange(70_000)))
                res = ReservationInfo(
                    ingress, egress, rng.randrange(1 << 22), rng.randrange(1 << 10),
                    BASE_S - age, rng.choice((rng.randrange(1 << 16), 0xFFFF)),
                )
                reservation = (res, rng.randbytes(16))
            hops.append(
                source.HopPlan(ingress, egress, rng.randbytes(6), rng.randrange(256), reservation)
            )
        segments.append(
            source.SegmentPlan(
                rng.randrange(1 << 16), rng.randrange(1 << 32), tuple(hops),
                cons_dir=rng.random() < 0.7, peering=rng.random() < 0.1,
            )
        )
    return source.PathPlan(rng.randrange(1 << 16), rng.randrange(1 << 48), tuple(segments))


def plain_hop(**changes):
    return source.HopPlan(**{"cons_ingress": 10, "cons_egress": 11, "hop_mac": bytes(6), **changes})


def reserved_hop(hop_mac=bytes(6), exp_time=255, **res_changes):
    res = make_reservation(**res_changes)
    return source.HopPlan(1, 2, hop_mac, exp_time, reservation=(res, bytes(16)))


def one_segment(*hops, dst_isd=0x1234, dst_as=0xABCDEF, seg_id=0x1111, timestamp=BASE_S - 100):
    segment = source.SegmentPlan(seg_id=seg_id, timestamp=timestamp, hops=hops)
    return source.PathPlan(dst_isd=dst_isd, dst_as=dst_as, segments=(segment,))


VALID = one_segment(plain_hop(), reserved_hop(), plain_hop(cons_ingress=20, cons_egress=21))
SEGMENT = VALID.segments[0]

# One fault each: a bad plan, or a valid plan built with a bad input.
SINGLE_FAULTS = [
    pytest.param(plan, kwargs, id=name)
    for name, plan, kwargs in (
        ("four_segments", replace(VALID, segments=(SEGMENT,) * 4), {}),
        ("empty_segment", replace(VALID, segments=(SEGMENT, replace(SEGMENT, hops=()))), {}),
        ("interface_mismatch", one_segment(plain_hop(), reserved_hop(ingress=9, egress=9)), {}),
        ("plain_exp_time_300", one_segment(plain_hop(exp_time=300), reserved_hop()), {}),
        ("reserved_exp_time_300", one_segment(plain_hop(), reserved_hop(exp_time=300)), {}),
        ("plain_cons_egress", one_segment(plain_hop(cons_egress=1 << 16), reserved_hop()), {}),
        ("plain_hop_mac_5_bytes", one_segment(plain_hop(hop_mac=bytes(5)), reserved_hop()), {}),
        ("seg_id", replace(VALID, segments=(replace(SEGMENT, seg_id=1 << 16),)), {}),
        ("info_timestamp", replace(VALID, segments=(replace(SEGMENT, timestamp=1 << 32),)), {}),
        ("dst_isd", replace(VALID, dst_isd=1 << 16), {}),
        ("dst_as", replace(VALID, dst_as=1 << 48), {}),
        ("dst_as_no_flyover", one_segment(plain_hop(), dst_as=1 << 48), {}),
        ("res_id", one_segment(reserved_hop(res_id=1 << 22)), {}),
        ("bw", one_segment(reserved_hop(bw_code=1 << 10)), {}),
        ("res_duration", one_segment(reserved_hop(duration=1 << 16)), {}),
        ("26_flyovers_in_a_segment", one_segment(*[reserved_hop()] * 26), {}),
        ("hdr_len_over_255",
         replace(VALID, segments=(replace(SEGMENT, hops=(plain_hop(),) * 40),) * 3), {}),
        ("payload_len_0xFFFF", VALID, {"payload_len": 0xFFFF}),
        ("payload_len_negative", VALID, {"payload_len": -5}),
        ("clock_beyond_32_bits", VALID, {"now": (1 << 32) * S}),
        ("inactive_reservation", VALID, {"now": (BASE_S - 20) * S}),
        ("tag_len_7", VALID, {"tag_len": 7}),
        ("counter_exhausted", VALID, {
            "counter_state": source.CounterState((BASE_S, 0), source.MAX_COUNTER + 1),
        }),
    )
]


class TestMatchesOracle:
    """build_packet against `source_oracle`, the builder that re-checked
    and rebuilt the whole plan for every packet."""

    def test_random_plans(self):
        rng = random.Random(0xB1D)
        built = with_flyover = inactive = 0
        for _ in range(300):
            plan = random_plan(rng)
            kwargs = {"tag_len": rng.randint(1, 6), "allow_inactive": rng.random() < 0.5}
            now = BASE_NS + rng.randrange(S)
            states = source.CounterState(), source.CounterState()
            for _ in range(3):  # one plan, reused as a simulated flow does
                payload_len = rng.randrange(1500)
                expected, got = (
                    outcome(build_packet, plan, payload_len, now, state, **kwargs)
                    for build_packet, state in zip(
                        (source_oracle.build_packet, source.build_packet), states
                    )
                )
                assert got == expected
                assert states[0] == states[1]
                if isinstance(got, tuple):
                    assert got[0] is source.ReservationInactive
                    inactive += 1
                else:
                    encode_packet(got)
                    built += 1
                    with_flyover += any(hop.flyover for hop in got.path.hops)
                now += rng.choice((0, rng.randrange(MS), rng.randrange(S)))
        assert built >= 500 and with_flyover >= 300 and inactive >= 100

    @pytest.mark.parametrize("plan, kwargs", SINGLE_FAULTS)
    def test_single_fault(self, plan, kwargs):
        (expected, expected_state), (got, got_state) = against_oracle(plan, **kwargs)
        assert isinstance(expected, tuple)
        assert (got, got_state) == (expected, expected_state)

    @pytest.mark.parametrize("plan", [
        replace(VALID, segments=(SEGMENT,) * 4),
        one_segment(plain_hop(exp_time=300)),
        one_segment(source.HopPlan(1, 2, bytes(6), reservation=(make_reservation(), bytes(15)))),
    ], ids=["plan_check", "field_range", "reservation_key_length"])
    def test_a_bad_plan_raises_on_every_build(self, plan):
        for _ in range(2):
            with pytest.raises(ValueError):
                build(plan)
        assert "fixed_part" not in vars(plan)

    def test_reserved_hop_mac_of_5_bytes(self):
        """Known difference: the template's field check refuses it before a
        tag is computed, with WireError where the oracle's aggregate_mac
        raised CryptoError; the message is the same."""
        plan = one_segment(plain_hop(), reserved_hop(hop_mac=bytes(5)))
        (expected, expected_state), (got, got_state) = against_oracle(plan)
        assert expected == (crypto.CryptoError, "hop MAC must be 6 bytes, got 5")
        assert got == (WireError, "hop MAC must be 6 bytes, got 5")
        assert got_state == expected_state

    def test_negative_clock(self):
        """Known difference: refused with the other out-of-range clocks,
        before the counter advances; the oracle advanced the counter and
        then refused the meta header's base_timestamp."""
        plan = one_segment(plain_hop())
        (expected, expected_state), (got, got_state) = against_oracle(plan, now=-1)
        assert expected == (WireError, "base_timestamp out of range for 32-bit field: -1")
        assert expected_state.value == 1
        assert got == (source.SourceError, "clock beyond 32-bit unix seconds: -1")
        assert got_state == source.CounterState()

