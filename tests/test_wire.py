import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, MISSING, field, fields, replace
from pathlib import Path

import pytest

from hummingbird import ledger, vectors, wire
from hummingbird.wire import (
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
    ReservationInfo,
    WireError,
)

import wire_oracle
from conftest import random_hop, random_packet, random_path


def simple_meta(**overrides):
    fields = dict(
        curr_inf=0,
        curr_hf=0,
        seg_len=(3, 0, 0),
        base_timestamp=1_700_000_000,
        millis_timestamp=123,
        counter=7,
    )
    fields.update(overrides)
    return PathMetaHdr(**fields)


def plain_hop(**overrides):
    fields = dict(
        ingress_alert=False,
        egress_alert=False,
        exp_time=63,
        cons_ingress=1,
        cons_egress=2,
        mac=bytes.fromhex("aabbccddeeff"),
    )
    fields.update(overrides)
    return HopField(**fields)


def fly_hop(**overrides):
    fields = dict(
        ingress_alert=False,
        egress_alert=False,
        exp_time=63,
        cons_ingress=1,
        cons_egress=2,
        mac=bytes.fromhex("aabbccddeeff"),
        res_id=5,
        bw=130,
        res_start_offset=10,
        res_duration=300,
    )
    fields.update(overrides)
    return FlyoverHopField(**fields)


def one_segment_path(hops):
    words = sum(h.words for h in hops)
    return HummingbirdPath(
        meta=simple_meta(seg_len=(words, 0, 0)),
        infos=(InfoField(peering=False, cons_dir=True, seg_id=9, timestamp=1_700_000_000),),
        hops=tuple(hops),
    )


class TestFixedSizes:
    def test_field_lengths(self):
        assert len(simple_meta().pack()) == 12
        info = InfoField(peering=False, cons_dir=True, seg_id=1, timestamp=2)
        assert len(info.pack()) == 8
        assert len(plain_hop().pack()) == 12
        assert len(fly_hop().pack()) == 20

    def test_block_lengths(self):
        assert len(wire.mac_input_block(1, 2, 3, 4, 5, 6)) == 16
        res = ReservationInfo(1, 2, 3, 4, 5, 6)
        assert len(wire.resinfo_block(res)) == 16

    def test_example_path_length(self):
        # 1 info + 2 plain hops + 1 flyover: 12 + 8 + 12 + 12 + 20
        path = one_segment_path([plain_hop(), plain_hop(), fly_hop()])
        assert len(wire.encode_path(path)) == 64
        assert Packet(1, 2, 0, path).hdr_len * 4 == wire.PACKET_PREFIX_LEN + 64

    def test_empty_path(self):
        path = HummingbirdPath(meta=simple_meta(seg_len=(0, 0, 0)), infos=(), hops=())
        raw = wire.encode_path(path)
        assert len(raw) == 12
        assert wire.decode_path(raw) == path


class TestHopFields:
    def test_flyover_extends_plain(self):
        plain, fly = plain_hop(), fly_hop()
        assert fly != plain and plain != fly
        assert fly.pack()[0] == 0x80 | plain.pack()[0]
        assert fly.pack()[1:12] == plain.pack()[1:12]
        assert repr(fly) == (
            "FlyoverHopField(ingress_alert=False, egress_alert=False, exp_time=63, "
            "cons_ingress=1, cons_egress=2, mac=b'\\xaa\\xbb\\xcc\\xdd\\xee\\xff', "
            "res_id=5, bw=130, res_start_offset=10, res_duration=300)"
        )

    @pytest.mark.parametrize("bit", [0x04, 0x08, 0x10, 0x20, 0x40])
    def test_reserved_flag_bits_rejected(self, bit):
        for hop in (plain_hop(), fly_hop()):
            raw = bytearray(hop.pack())
            raw[0] |= bit
            with pytest.raises(WireError, match="reserved bits set in hop field flags"):
                type(hop).unpack_from(bytes(raw), 0)

    def test_flyover_checks_shared_fields_first(self):
        for bad, message in (
            (fly_hop(exp_time=256, res_id=1 << 22), "exp_time"),
            (fly_hop(mac=bytes(5), bw=1 << 10), "hop MAC"),
            (fly_hop(res_id=1 << 22), "res_id"),
            (fly_hop(res_duration=1 << 16), "res_duration"),
            (fly_hop(cons_egress=-1, bw=1 << 10), "cons_egress"),
            (fly_hop(mac=bytes(7), res_start_offset=-1), "hop MAC"),
        ):
            with pytest.raises(WireError, match=message):
                bad.pack()


def info_field(**overrides):
    fields = dict(peering=False, cons_dir=True, seg_id=9, timestamp=1_700_000_000)
    fields.update(overrides)
    return InfoField(**fields)


# (record builder, field, width, name in the message) for every range-checked field.
FIELD_WIDTHS = [
    (simple_meta, "curr_inf", 2, "curr_inf"),
    (simple_meta, "curr_hf", 8, "curr_hf"),
    (simple_meta, "base_timestamp", 32, "base_timestamp"),
    (simple_meta, "millis_timestamp", 10, "millis_timestamp"),
    (simple_meta, "counter", 22, "counter"),
    (info_field, "seg_id", 16, "seg_id"),
    (info_field, "timestamp", 32, "info timestamp"),
    *(
        (builder, name, bits, name)
        for builder in (plain_hop, fly_hop)
        for name, bits in (("exp_time", 8), ("cons_ingress", 16), ("cons_egress", 16))
    ),
    (fly_hop, "res_id", 22, "res_id"),
    (fly_hop, "bw", 10, "bw"),
    (fly_hop, "res_start_offset", 16, "res_start_offset"),
    (fly_hop, "res_duration", 16, "res_duration"),
]


def out_of_range_records():
    """(bad record, the message its check gives) for each field and bound."""
    for builder, field, bits, name in FIELD_WIDTHS:
        for value in (-1, 1 << bits):
            yield builder(**{field: value}), f"{name} out of range for {bits}-bit field: {value}"
    for i in range(3):
        seg_len = [3, 0, 0]
        seg_len[i] = 1 << 7
        yield simple_meta(seg_len=tuple(seg_len)), f"seg{i}_len out of range for 7-bit field: 128"
    yield simple_meta(seg_len=(3, 0)), "seg_len must have exactly three entries"
    yield simple_meta(millis_timestamp=1000), "millis_timestamp must be < 1000: 1000"
    for builder in (plain_hop, fly_hop):
        for length in (5, 7):
            yield builder(mac=bytes(length)), f"hop MAC must be 6 bytes, got {length}"
    # With two bad fields, the first in field order is named.
    yield simple_meta(curr_inf=4, counter=1 << 22), "curr_inf out of range for 2-bit field: 4"
    yield plain_hop(exp_time=256, mac=bytes(5)), "exp_time out of range for 8-bit field: 256"


def in_packet(record):
    """A packet that carries record and is valid everywhere else."""
    if isinstance(record, PathMetaHdr):
        return Packet(1, 2, 100, replace(one_segment_path([plain_hop()]), meta=record))
    if isinstance(record, InfoField):
        return Packet(1, 2, 100, replace(one_segment_path([plain_hop()]), infos=(record,)))
    return Packet(1, 2, 100, one_segment_path([record]))


class TestEncodeMessages:
    """Encoding leaves the byte-aligned fields to struct, yet every
    out-of-range value still gets the WireError that names it."""

    @pytest.mark.parametrize("record, message", list(out_of_range_records()))
    def test_pack_and_encode_name_the_field(self, record, message):
        with pytest.raises(WireError) as raised:
            record.pack()
        assert str(raised.value) == message
        with pytest.raises(WireError) as raised:
            wire.encode_packet(in_packet(record))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "field, bits", [("dst_isd", 16), ("dst_as", 48), ("payload_len", 16)]
    )
    @pytest.mark.parametrize("high", [False, True])
    def test_prefix_fields(self, field, bits, high):
        value = 1 << bits if high else -1
        packet = replace(in_packet(plain_hop()), **{field: value})
        with pytest.raises(WireError) as raised:
            wire.encode_packet(packet)
        assert str(raised.value) == f"{field} out of range for {bits}-bit field: {value}"

    def test_header_too_long_for_hdr_len(self):
        hops = [fly_hop()] * 25  # 125 words per segment
        path = HummingbirdPath(
            meta=simple_meta(seg_len=(125, 125, 125)),
            infos=(info_field(),) * 3,
            hops=tuple(hops * 3),
        )
        with pytest.raises(WireError) as raised:
            wire.encode_packet(Packet(1, 2, 100, path))
        assert str(raised.value) == "hdr_len 387 does not fit 8 bits"

    @pytest.mark.parametrize(
        "index, name, bits",
        [(0, "dst_isd", 16), (1, "dst_as", 48), (2, "pkt_len", 16),
         (3, "res_start_offset", 16), (4, "millis", 10), (5, "counter", 22)],
    )
    @pytest.mark.parametrize("high", [False, True])
    def test_mac_input_block(self, index, name, bits, high):
        args = [1, 2, 3, 4, 5, 6]
        args[index] = 1 << bits if high else -1
        with pytest.raises(WireError) as raised:
            wire.mac_input_block(*args)
        assert str(raised.value) == f"{name} out of range for {bits}-bit field: {args[index]}"

    @pytest.mark.parametrize(
        "name, bits",
        [("ingress", 16), ("egress", 16), ("res_id", 22), ("bw_code", 10),
         ("res_start", 32), ("duration", 16)],
    )
    @pytest.mark.parametrize("high", [False, True])
    def test_resinfo_block(self, name, bits, high):
        value = 1 << bits if high else -1
        res = replace(ReservationInfo(1, 2, 3, 4, 5, 6), **{name: value})
        with pytest.raises(WireError) as raised:
            wire.resinfo_block(res)
        assert str(raised.value) == f"{name} out of range for {bits}-bit field: {value}"


class TestMetaHdr:
    def test_segment_gap_rejected(self):
        with pytest.raises(WireError, match="empty segment"):
            simple_meta(seg_len=(3, 0, 3), curr_inf=0).validate()

    def test_curr_inf_out_of_range(self):
        with pytest.raises(WireError, match="curr_inf"):
            simple_meta(seg_len=(3, 3, 3), curr_inf=3).pack()

    def test_millis_cap(self):
        with pytest.raises(WireError, match="millis"):
            simple_meta(millis_timestamp=1000).pack()

    def test_reserved_bit_rejected(self):
        raw = bytearray(simple_meta().pack())
        raw[1] |= 0x20  # bit 10 of word 0
        with pytest.raises(WireError, match="reserved"):
            PathMetaHdr.unpack_from(bytes(raw), 0)

    def test_num_inf(self):
        assert simple_meta(seg_len=(0, 0, 0)).num_inf == 0
        assert simple_meta().num_inf == 1
        assert simple_meta(seg_len=(3, 5, 0)).num_inf == 2
        assert simple_meta(seg_len=(3, 5, 3)).num_inf == 3


class TestOffsets:
    def test_info_field_offset_example(self):
        meta = simple_meta(seg_len=(3, 3, 0), curr_inf=1, curr_hf=3)
        assert wire.info_field_offset(meta) == 20

    def test_hop_field_offset_example(self):
        meta = simple_meta(seg_len=(3, 3, 0), curr_inf=1, curr_hf=3)
        assert wire.hop_field_offset(meta) == 12 + 16 + 12

    def test_offsets_match_buffer_walk(self):
        rng = random.Random(7)
        for _ in range(200):
            path = random_path(rng, allow_empty=False)
            raw = wire.encode_path(path)
            # Info fields sit back to back after the meta header.
            for i in range(path.meta.num_inf):
                meta = simple_meta(
                    seg_len=path.meta.seg_len,
                    curr_inf=i,
                    curr_hf=sum(path.meta.seg_len[:i]),
                )
                offset = wire.info_field_offset(meta)
                assert raw[offset : offset + 8] == path.infos[i].pack()
            # Hop offsets: walk the buffer hop by hop and compare.
            walked = 12 + 8 * path.meta.num_inf
            for hop, words, segment in zip(path.hops, *path.hop_table()):
                meta = simple_meta(
                    seg_len=path.meta.seg_len,
                    curr_inf=segment,
                    curr_hf=words,
                )
                offset = wire.hop_field_offset(meta)
                assert offset == walked
                assert raw[offset : offset + 4 * hop.words] == hop.pack()
                walked += 4 * hop.words


class TestHopTiling:
    def test_hop_overruns_segment(self):
        # Segment declares 4 words: a plain hop leaves 1 word, nothing fits.
        path = HummingbirdPath(
            meta=simple_meta(seg_len=(4, 0, 0)),
            infos=(InfoField(peering=False, cons_dir=True, seg_id=0, timestamp=0),),
            hops=(plain_hop(), plain_hop()),
        )
        with pytest.raises(WireError):
            wire.encode_path(path)

    def test_curr_hf_must_sit_on_boundary(self):
        path = one_segment_path([plain_hop(), fly_hop()])
        bad = HummingbirdPath(
            meta=simple_meta(seg_len=path.meta.seg_len, curr_hf=4),
            infos=path.infos,
            hops=path.hops,
        )
        with pytest.raises(WireError, match="boundary"):
            wire.encode_path(bad)


class TestRoundTrip:
    def test_random_paths(self):
        rng = random.Random(1)
        for _ in range(500):
            path = random_path(rng)
            raw = wire.encode_path(path)
            assert wire.decode_path(raw) == path

    def test_bytes_round_trip(self):
        rng = random.Random(2)
        for _ in range(300):
            raw = wire.encode_path(random_path(rng))
            assert wire.encode_path(wire.decode_path(raw)) == raw

    def test_bit_flips_never_misparse(self):
        # Any single bit flip either fails to decode or decodes to a
        # path that re-encodes to exactly the flipped bytes.
        rng = random.Random(3)
        raw = wire.encode_path(random_path(rng, allow_empty=False))
        for _ in range(400):
            flipped = bytearray(raw)
            flipped[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            flipped = bytes(flipped)
            try:
                path = wire.decode_path(flipped)
            except WireError:
                continue
            assert wire.encode_path(path) == flipped

    def test_truncation_rejected(self):
        raw = wire.encode_path(one_segment_path([plain_hop(), fly_hop()]))
        for cut in range(len(raw)):
            with pytest.raises(WireError):
                wire.decode_path(raw[:cut])


def random_path_bytes(rng: random.Random) -> bytes:
    """Path-shaped bytes, from junk to valid, mostly near the valid domain."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randbytes(rng.randrange(120))
    raw = bytearray(wire.encode_path(random_path(rng)))
    if kind == 1:
        for _ in range(rng.randrange(1, 4)):
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(raw)
    if kind == 2:
        cut = rng.randrange(len(raw) + 1)
        return bytes(raw[:cut]) + rng.randbytes(rng.choice((0, 0, 4, 8, 12, 20)))
    # Valid hop fields under a meta header whose seg_len cuts the hop
    # words anywhere, and whose pointers land anywhere nearby.
    hops = [random_hop(rng) for _ in range(rng.randrange(7))]
    starts = [0]
    for hop in hops:
        starts.append(starts[-1] + hop.words)
    total = starts[-1]
    cuts = sorted(rng.randrange(total + 1) for _ in range(rng.randrange(3)))
    seg_len = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    seg_len = [length for length in seg_len if length][:3]
    seg_len += [0] * (3 - len(seg_len))
    num_inf = sum(1 for length in seg_len if length)
    meta = PathMetaHdr(
        curr_inf=rng.randrange(max(num_inf, 1)),
        curr_hf=rng.choice((rng.choice(starts), rng.randrange(total + 2))) if num_inf else 0,
        seg_len=tuple(seg_len),
        base_timestamp=0,
        millis_timestamp=0,
        counter=0,
    )
    infos = [InfoField(False, True, rng.randrange(1 << 16), 0) for _ in range(num_inf)]
    return b"".join([meta.pack(), *(i.pack() for i in infos), *(h.pack() for h in hops)])


class TestDecodeOracle:
    """The flat decoder against the per-segment one it replaced."""

    def test_random_buffers(self):
        rng = random.Random(13)
        accepted = 0
        for _ in range(5000):
            raw = random_path_bytes(rng)
            expected = wire_oracle.decoded_or_none(wire_oracle.decode_path, raw)
            assert wire_oracle.decoded_or_none(wire.decode_path, raw) == expected, raw.hex()
            accepted += expected is not None
        assert 1000 < accepted < 4000  # both outcomes are well exercised


class TestBandwidthCode:
    def test_examples(self):
        # (exponent, significand) = (0, 5), (1, 5) and (2, 0)
        assert wire.decode_bw(5) == 5
        assert wire.decode_bw(1 << 5 | 5) == 37
        assert wire.decode_bw(2 << 5) == 64
        assert wire.decode_bw(0) == 0
        assert wire.MAX_BW_VALUE == 63 << 30

    def test_monotone_and_quantize_inverse(self):
        values = [wire.decode_bw(code) for code in range(1024)]
        assert values == sorted(values)
        assert len(set(values)) == 1024
        for code in range(1024):
            assert wire.quantize_bw(values[code]) == code

    def test_quantize_rounds_up(self):
        rng = random.Random(4)
        for _ in range(2000):
            raw = rng.randrange(wire.MAX_BW_VALUE + 1)
            code = wire.quantize_bw(raw)
            assert wire.decode_bw(code) >= raw
            if code:
                assert wire.decode_bw(code - 1) < raw

    def test_out_of_range(self):
        with pytest.raises(WireError):
            wire.quantize_bw(wire.MAX_BW_VALUE + 1)
        with pytest.raises(WireError):
            wire.quantize_bw(-1)
        for code in (-1, 1024):
            with pytest.raises(WireError, match="bw code"):
                wire.decode_bw(code)


class TestPrfBlocks:
    def test_mac_input_block_layout(self):
        block = wire.mac_input_block(0x1234, 0xABCDEF012345, 0x0506, 0x0708, 999, 0x12345)
        assert block.hex() == "1234abcdef01234505060708f9c12345"

    def test_resinfo_block_layout(self):
        res = ReservationInfo(
            ingress=2, egress=3, res_id=0x155, bw_code=0x2AA,
            res_start=0x01020304, duration=0x00F0,
        )
        assert wire.resinfo_block(res).hex() == "00020003000556aa0102030400f00000"

    def test_resinfo_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            res = ReservationInfo(
                ingress=rng.randrange(1 << 16),
                egress=rng.randrange(1 << 16),
                res_id=rng.randrange(1 << 22),
                bw_code=rng.randrange(1 << 10),
                res_start=rng.randrange(1 << 32),
                duration=rng.randrange(1 << 16),
            )
            assert wire.parse_resinfo_block(wire.resinfo_block(res)) == res

    def test_resinfo_padding_checked(self):
        raw = bytearray(wire.resinfo_block(ReservationInfo(1, 2, 3, 4, 5, 6)))
        raw[15] = 1
        with pytest.raises(WireError, match="padding"):
            wire.parse_resinfo_block(bytes(raw))


class TestPacket:
    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(200):
            packet = random_packet(rng)
            raw = wire.encode_packet(packet)
            assert len(raw) == packet.hdr_len * 4
            meta = packet.path.meta
            assert len(raw) == wire.header_words(meta.num_inf, meta.total_hop_words) * 4
            assert wire.decode_packet(raw) == packet

    def test_hdr_len_mismatch_rejected(self):
        raw = bytearray(wire.encode_packet(random_packet(random.Random(8))))
        raw[10] += 1  # hdr_len byte
        with pytest.raises(WireError):
            wire.decode_packet(bytes(raw))

    def test_reserved_prefix_byte(self):
        raw = bytearray(wire.encode_packet(random_packet(random.Random(9))))
        raw[11] = 1
        with pytest.raises(WireError, match="reserved"):
            wire.decode_packet(bytes(raw))

    def test_pkt_len_overflow(self):
        packet = Packet(
            dst_isd=1,
            dst_as=2,
            payload_len=0xFFFF,
            path=one_segment_path([plain_hop()]),
        )
        with pytest.raises(wire.PktLenOverflow):
            wire.pkt_len_for_mac(packet.payload_len, packet.hdr_len)

    def test_pkt_len_example(self):
        packet = Packet(
            dst_isd=1,
            dst_as=2,
            payload_len=100,
            path=one_segment_path([plain_hop(), fly_hop()]),
        )
        # header: 12 prefix + 12 meta + 8 info + 12 + 20 = 64 bytes
        assert packet.hdr_len == 16
        assert wire.pkt_len_for_mac(packet.payload_len, packet.hdr_len) == 100 + 64


class TestPacketObj:
    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(500):
            packet = random_packet(rng)
            assert vectors.packet_from_obj(vectors.packet_to_obj(packet)) == packet

    def test_malformed_objects_rejected(self):
        packet = Packet(1, 2, 100, one_segment_path([fly_hop(), plain_hop()]))
        obj = vectors.packet_to_obj(packet)
        missing = {**obj, "meta": {k: v for k, v in obj["meta"].items() if k != "counter"}}
        hop = obj["hops"][0]
        for bad_hop, message in (
            ({**hop, "type": "bogus"}, "unknown hop type 'bogus'"),
            ({**hop, "mac": "zz" * 6}, "malformed packet object: non-hexadecimal"),
        ):
            with pytest.raises(WireError, match=message):
                vectors.packet_from_obj({**obj, "hops": [bad_hop] + obj["hops"][1:]})
        with pytest.raises(WireError, match="malformed packet object: 'counter'"):
            vectors.packet_from_obj(missing)
        # Encoding is the check: a bad layout is refused before a bad field.
        two_faults = {**obj, "infos": obj["infos"] * 2, "hops": [{**hop, "exp_time": 300}]}
        with pytest.raises(WireError, match="2 info fields but seg_len declares 1"):
            vectors.packet_from_obj(two_faults)


class TestValidateOnce:
    def test_each_check_runs_once_per_call(self, monkeypatch):
        """Encode checks the meta header and the layout once each and
        leaves the byte-aligned info and hop fields to struct; decode
        runs no width check, only the meta header's cross-field checks
        and the layout check, once each."""
        counts = Counter()
        for cls, method in (
            (HummingbirdPath, "_validate_layout"),
            (PathMetaHdr, "validate"),
            (PathMetaHdr, "_check_across_fields"),
            (InfoField, "validate"),
            (HopField, "validate"),
            (FlyoverHopField, "validate"),
        ):
            def counted(self, _original=getattr(cls, method), _name=f"{cls.__name__}.{method}"):
                counts[_name, id(self)] += 1
                _original(self)
            monkeypatch.setattr(cls, method, counted)

        def checks(check_name):
            return sum(n for (name, _), n in counts.items() if name == check_name)

        rng = random.Random(10)
        for _ in range(100):
            packet = random_packet(rng)
            counts.clear()
            raw = wire.encode_packet(packet)
            assert max(counts.values()) == 1  # no object is checked twice
            assert checks("PathMetaHdr.validate") == 1
            assert checks("PathMetaHdr._check_across_fields") == 1
            assert checks("HummingbirdPath._validate_layout") == 1
            assert sum(counts.values()) == 3
            counts.clear()
            assert wire.decode_packet(raw) == packet
            assert max(counts.values()) == 1
            assert checks("PathMetaHdr._check_across_fields") == 1
            assert checks("HummingbirdPath._validate_layout") == 1
            assert sum(counts.values()) == 2

    def test_encode_still_rejects_bad_prefix_and_path(self):
        packet = random_packet(random.Random(11))
        extra_info = InfoField(peering=False, cons_dir=True, seg_id=0, timestamp=0)
        bad_info = replace(packet.path.infos[0], seg_id=1 << 16)
        for bad in (
            replace(packet, dst_isd=1 << 16),
            replace(packet, dst_as=-1),
            replace(packet, payload_len=1 << 16),
            replace(packet, path=replace(packet.path, infos=packet.path.infos + (extra_info,))),
            replace(packet, path=replace(packet.path, infos=(bad_info,) + packet.path.infos[1:])),
            replace(packet, path=replace(packet.path, meta=replace(packet.path.meta, counter=1 << 22))),
        ):
            with pytest.raises(WireError):
                wire.encode_packet(bad)


def frozen_record_samples():
    """(class, field values in order) for every class built by `frozen_record`."""
    meta = simple_meta()
    info = InfoField(peering=False, cons_dir=True, seg_id=9, timestamp=1_700_000_000)
    path = one_segment_path([plain_hop()])
    return [
        (PathMetaHdr, vars(meta)),
        (InfoField, vars(info)),
        (HopField, vars(plain_hop())),
        (FlyoverHopField, vars(fly_hop())),
        (HummingbirdPath, dict(meta=meta, infos=(info,), hops=(plain_hop(),))),
        (Packet, dict(dst_isd=1, dst_as=2, payload_len=100, path=path)),
        (ReservationInfo, dict(ingress=1, egress=2, res_id=3, bw_code=4, res_start=5, duration=6)),
        (ledger.BandwidthAsset, dict(
            asset_id=1, as_id=2, bandwidth=3_000_000, start_time=0, expiration_time=600,
            interface=3, direction=ledger.Direction.EGRESS, time_granularity=60,
            min_bandwidth=1_000_000, owner="alice",
        )),
        (ledger.AuthToken, dict(token_id=1, as_id=2, account="asops")),
        (ledger.Listing, dict(listing_id=1, asset_id=2, unit_price=3, seller="bob")),
        (ledger.RedeemRequest, dict(
            request_id=1, as_id=2, owner="alice", ingress_interface=3, egress_interface=4,
            bandwidth=5, start_time=6, expiration_time=7, ephemeral_pubkey=bytes(32),
            delivered=True, credentials=b"sealed",
        )),
    ]


FROZEN_RECORDS = [
    pytest.param(cls, values, id=cls.__name__) for cls, values in frozen_record_samples()
]


def field_by_field(cls, values: dict):
    """What the dataclass `__init__` builds: one object.__setattr__ per field."""
    built = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(built, name, value)
    return built


class TestFrozenRecord:
    """A record's `__init__` fills its `__dict__` in one call, and the
    record behaves as the dataclass it still is."""

    @pytest.mark.parametrize("cls, values", FROZEN_RECORDS)
    def test_same_as_built_field_by_field(self, cls, values):
        assert [f.name for f in fields(cls)] == list(values)
        for built in (cls(*values.values()), cls(**values)):
            reference = field_by_field(cls, values)
            assert vars(built) == vars(reference)
            assert built == reference and reference == built
            assert hash(built) == hash(reference)
            assert repr(built) == repr(reference)
            assert replace(built) == built

    @pytest.mark.parametrize("cls, values", FROZEN_RECORDS)
    def test_same_signature_as_the_fields(self, cls, values):
        parameters = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.default) for p in parameters] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields(cls)
        ]

    @pytest.mark.parametrize("cls, values", FROZEN_RECORDS)
    def test_assignment_refused(self, cls, values):
        built = cls(**values)
        for name in values:
            with pytest.raises(FrozenInstanceError):
                setattr(built, name, values[name])
            with pytest.raises(FrozenInstanceError):
                delattr(built, name)
        assert vars(built) == values

    @pytest.mark.parametrize("cls, values", FROZEN_RECORDS)
    def test_wrong_arguments_refused(self, cls, values):
        args = list(values.values())
        required = sum(f.default is MISSING for f in fields(cls))
        with pytest.raises(TypeError):
            cls(*args[: required - 1])  # one required argument missing
        with pytest.raises(TypeError):
            cls(*args, args[0])  # one too many
        with pytest.raises(TypeError):
            cls(*args, colour=1)  # unknown
        with pytest.raises(TypeError):
            cls(*args, **{next(iter(values)): args[0]})  # given twice

    def test_defaults_fill_what_is_left_out(self):
        values = dict(frozen_record_samples())[ledger.RedeemRequest]
        required = {k: v for k, v in values.items() if k not in ("delivered", "credentials")}
        request = ledger.RedeemRequest(*required.values())
        assert (request.delivered, request.credentials) == (False, b"")
        assert vars(request) == {**required, "delivered": False, "credentials": b""}
        with pytest.raises(TypeError):
            ledger.RedeemRequest(*list(required.values())[:-1], delivered=True)

    def test_fields_it_cannot_fill_refused(self):
        """Its `__init__` would run no `__post_init__` and no default factory."""
        with pytest.raises(TypeError, match="cannot fill"):
            wire.frozen_record(type("Later", (), {"__post_init__": lambda self: None}))
        with pytest.raises(TypeError, match="cannot fill"):
            wire.frozen_record(type("Listed", (), {
                "__annotations__": {"items": "list"}, "items": field(default_factory=list),
            }))


def test_codec_policer_and_allocator_need_no_cryptography():
    """Importing the codec, the policer or the allocator loads no cipher
    code, and the codec round-trips every fixture packet without it."""
    fixtures = Path(__file__).parent / "vectors" / "packets.json"
    env = {**os.environ, "PYTHONPATH": str(Path(wire.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "codec_without_cryptography.py"),
         str(fixtures)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(" fixture packets round-trip without cryptography\n")
