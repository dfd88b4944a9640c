"""Wire formats for the Hummingbird path type.

Everything on the wire is big endian.  The path header is laid out as

    PathMetaHdr (12 B) | InfoField * NumINF (8 B each) | hop fields (12 or 20 B)

and rides behind a small fixed packet prefix standing in for the SCION
common and address headers (only the fields the data plane actually
reads are modeled: destination ISD/AS, payload length, header length).

All codec types are frozen dataclasses built in one write (`frozen_record`);
encode and decode validate the same invariants, so decode(encode(p)) == p
and encode(decode(b)) == b on the valid domain; encoding is the one check
of a whole packet.  Each record's layout is one precompiled `struct.Struct`,
which range-checks every byte-aligned field on encode; decode checks only
what field widths do not already guarantee.  Which word each hop starts at
and which segment it belongs to is walked at most once per path object, by
`HummingbirdPath.hop_table`.  A path built from one of the same seg_len and
hop classes (a forwarded packet's input, a built packet's plan template) is
handed its table, so encode's layout check reads what decode's walked.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields
from itertools import accumulate

META_LEN = 12
INFO_LEN = 8
HOP_LEN = 12
FLYOVER_HOP_LEN = 20
PACKET_PREFIX_LEN = 12

MAC_LEN = 6

_WORD = 4  # hop field lengths are multiples of this


class WireError(ValueError):
    """Raised on any encode or decode violation."""


class PktLenOverflow(WireError):
    """PayloadLen + 4 * HdrLen does not fit the 16-bit PktLen field."""


def _check(value: int, bits: int, name: str) -> int:
    if not 0 <= value < (1 << bits):
        raise WireError(f"{name} out of range for {bits}-bit field: {value!r}")
    return value


def _pack(record, *values) -> bytes:
    """The record's layout over values; on a refusal, validate() names the field."""
    try:
        return record._struct.pack(*values)
    except struct.error:
        record.validate()
        raise


def frozen_record(cls):
    """cls as a `@dataclass(frozen=True)` whose `__init__` fills `__dict__` in
    one call, not one `object.__setattr__` per field: same parameters, defaults and
    TypeErrors; all else is the dataclass's own.  Plain fields only."""
    cls = dataclass(frozen=True)(cls)
    if hasattr(cls, "__post_init__") or any(f.default_factory is not MISSING for f in fields(cls)):
        raise TypeError(f"{cls.__name__} has fields frozen_record cannot fill")
    names, namespace = [f.name for f in fields(cls)], {}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         f"    self.__dict__.update({', '.join(f'{name}={name}' for name in names)})", namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@frozen_record
class PathMetaHdr:
    """Path meta header.

        0                   1                   2                   3
        0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
       +---+---------------+-+-------------+-------------+-------------+
       | C |    CurrHF     |r|   Seg0Len   |   Seg1Len   |   Seg2Len   |
       +---+---------------+-+-------------+-------------+-------------+
       |                         BaseTimestamp                         |
       +-------------------+-------------------------------------------+
       |  MillisTimestamp  |                  Counter                  |
       +-------------------+-------------------------------------------+

    CurrHF counts in 4-byte words.  Seg lengths count 4-byte words per
    segment, so a plain hop contributes 3 and a flyover hop 5.
    BaseTimestamp is unix seconds; MillisTimestamp the millisecond part
    (< 1000); Counter disambiguates packets within one millisecond.
    """

    curr_inf: int
    curr_hf: int
    seg_len: tuple[int, int, int]
    base_timestamp: int
    millis_timestamp: int
    counter: int

    _struct = struct.Struct("!III")

    @property
    def num_inf(self) -> int:
        """Segments before the first empty one."""
        return (*self.seg_len, 0).index(0)

    @property
    def total_hop_words(self) -> int:
        return sum(self.seg_len)

    def validate(self) -> None:
        _check(self.curr_inf, 2, "curr_inf")
        _check(self.curr_hf, 8, "curr_hf")
        if len(self.seg_len) != 3:
            raise WireError("seg_len must have exactly three entries")
        for i, length in enumerate(self.seg_len):
            _check(length, 7, f"seg{i}_len")
        _check(self.base_timestamp, 32, "base_timestamp")
        _check(self.millis_timestamp, 10, "millis_timestamp")
        _check(self.counter, 22, "counter")
        self._check_across_fields()

    def _check_across_fields(self) -> None:
        """The checks that field widths do not already guarantee."""
        if self.millis_timestamp >= 1000:
            raise WireError(f"millis_timestamp must be < 1000: {self.millis_timestamp}")
        num_inf = self.num_inf
        for i in range(num_inf + 1, 3):
            if self.seg_len[i]:
                raise WireError(f"seg{i}_len > 0 after an empty segment")
        if num_inf == 0:
            if self.curr_inf != 0 or self.curr_hf != 0:
                raise WireError("empty path requires curr_inf == curr_hf == 0")
        elif self.curr_inf >= num_inf:
            raise WireError(f"curr_inf {self.curr_inf} >= num_inf {num_inf}")

    def pack(self) -> bytes:
        # Every field but the timestamp is bit-packed, so all are checked here.
        self.validate()
        seg0, seg1, seg2 = self.seg_len
        return self._struct.pack(
            self.curr_inf << 30 | self.curr_hf << 22 | seg0 << 14 | seg1 << 7 | seg2,
            self.base_timestamp,
            self.millis_timestamp << 22 | self.counter,
        )

    @classmethod
    def unpack_from(cls, buf, offset: int) -> PathMetaHdr:
        w0, base, w2 = cls._struct.unpack_from(buf, offset)
        if w0 >> 21 & 0x1:
            raise WireError("reserved bit set in path meta header")
        seg_len = (w0 >> 14 & 0x7F, w0 >> 7 & 0x7F, w0 & 0x7F)
        meta = cls(w0 >> 30, w0 >> 22 & 0xFF, seg_len, base, w2 >> 22, w2 & 0x3FFFFF)
        meta._check_across_fields()
        return meta


@frozen_record
class InfoField:
    """Segment info field.

        0                   1                   2                   3
       +-----------+-+-+---------------+-------------------------------+
       |  r (6 b)  |P|C|      RSV      |             SegID             |
       +-----------+-+-+---------------+-------------------------------+
       |                           Timestamp                           |
       +---------------------------------------------------------------+

    C is set when hop fields are traversed in construction direction, P
    marks a peering segment.  SegID seeds the per-hop MAC chain and is
    rewritten at every hop; Timestamp (unix seconds) anchors the
    relative hop expiry times of the segment.
    """

    peering: bool
    cons_dir: bool
    seg_id: int
    timestamp: int

    _struct = struct.Struct("!BBHI")

    def validate(self) -> None:
        _check(self.seg_id, 16, "seg_id")
        _check(self.timestamp, 32, "info timestamp")

    def pack(self) -> bytes:
        flags = self.peering << 1 | self.cons_dir
        return _pack(self, flags, 0, self.seg_id, self.timestamp)

    @classmethod
    def unpack_from(cls, buf, offset: int) -> InfoField:
        flags, rsv, seg_id, timestamp = cls._struct.unpack_from(buf, offset)
        if flags & ~0x03 or rsv:
            raise WireError("reserved bits set in info field")
        return cls(bool(flags & 0x02), bool(flags & 0x01), seg_id, timestamp)


@frozen_record
class HopField:
    """Plain hop field.

        0                   1                   2                   3
       +-+---------+-+-+---------------+-------------------------------+
       |F| r (5 b) |I|E|    ExpTime    |          ConsIngress          |
       +-+---------+-+-+---------------+-------------------------------+
       |          ConsEgress           |          HopFieldMAC          |
       +-------------------------------+                               |
       |                     HopFieldMAC (cont.)                       |
       +---------------------------------------------------------------+

    F is the flyover discriminator and is 0 here.  ExpTime is a
    relative expiry in units of 337.5 s added to the segment info
    timestamp.  The MAC covers the static hop fields and the current
    SegID under the AS forwarding key.
    """

    ingress_alert: bool
    egress_alert: bool
    exp_time: int
    cons_ingress: int
    cons_egress: int
    mac: bytes

    flyover = False
    words = HOP_LEN // _WORD
    _struct = struct.Struct("!BBHH6s")
    _what = "hop field"

    def validate(self) -> None:
        _check(self.exp_time, 8, "exp_time")
        _check(self.cons_ingress, 16, "cons_ingress")
        _check(self.cons_egress, 16, "cons_egress")
        if len(self.mac) != MAC_LEN:
            raise WireError(f"hop MAC must be {MAC_LEN} bytes, got {len(self.mac)}")

    def pack(self) -> bytes:
        # struct pads or cuts a bytes field, so the MAC length is checked here.
        if len(self.mac) != MAC_LEN:
            self.validate()
        flags = self.ingress_alert << 1 | self.egress_alert
        return _pack(self, flags, self.exp_time, self.cons_ingress, self.cons_egress, self.mac)

    @classmethod
    def unpack_from(cls, buf, offset: int) -> HopField:
        flags, *values = cls._struct.unpack_from(buf, offset)
        return cls(*_alerts(flags), *values)


def _alerts(flags: int) -> tuple[bool, bool]:
    """The ingress and egress alert bits of a hop field's flags byte."""
    if flags & 0x7C:
        raise WireError("reserved bits set in hop field flags")
    return bool(flags & 0x02), bool(flags & 0x01)


@frozen_record
class FlyoverHopField(HopField):
    """Hop field extended with an attached reservation.

    Shares the plain hop field layout for its first 12 bytes, with F=1
    and the aggregate MAC (HopFieldMAC xor FlyoverMAC) in the MAC slot,
    followed by

       +-------------------------------------------+-------------------+
       |                 ResID (22 b)              |     BW (10 b)     |
       +-------------------------------------------+-------------------+
       |        ResStartOffset         |          ResDuration          |
       +-------------------------------+-------------------------------+

    ResStartOffset is BaseTimestamp minus the reservation start, in
    seconds, so a packet can only reference reservations that already
    started.  BW is the encoded bandwidth code.  A flyover hop field
    never equals a plain one, whatever their shared fields hold.
    """

    res_id: int
    bw: int
    res_start_offset: int
    res_duration: int

    flyover = True
    words = FLYOVER_HOP_LEN // _WORD
    _struct = struct.Struct("!BBHH6sIHH")
    _what = "flyover hop field"

    def validate(self) -> None:
        super().validate()
        _check(self.res_id, 22, "res_id")
        _check(self.bw, 10, "bw")
        _check(self.res_start_offset, 16, "res_start_offset")
        _check(self.res_duration, 16, "res_duration")

    def pack(self) -> bytes:
        # As for a plain hop field, plus ResID and BW, which share one word.
        if len(self.mac) != MAC_LEN or not (0 <= self.res_id < 1 << 22 and 0 <= self.bw < 1 << 10):
            self.validate()
        flags = 0x80 | self.ingress_alert << 1 | self.egress_alert
        return _pack(
            self, flags, self.exp_time, self.cons_ingress, self.cons_egress, self.mac,
            self.res_id << 10 | self.bw, self.res_start_offset, self.res_duration,
        )

    @classmethod
    def unpack_from(cls, buf, offset: int) -> FlyoverHopField:
        flags, *values, res_word, start_offset, duration = cls._struct.unpack_from(buf, offset)
        return cls(
            *_alerts(flags), *values, res_word >> 10, res_word & 0x3FF, start_offset, duration
        )


class HopTable(tuple):
    """A path's hop layout, the pair (starts, segments) of `hop_table`.

    Every path laid out from this table shares it, so `steps` keeps what a
    reader derives from the layout alone, by CurrHF (the router's step at
    each hop).  It is no part of the pair: a table equals any walk of the
    same layout.
    """

    def __new__(cls, pair: tuple[list[int], list[int]]) -> HopTable:
        table = super().__new__(cls, pair)
        table.steps = {}
        return table


@frozen_record
class HummingbirdPath:
    """Full path header: meta, info fields, and the flat hop sequence.

    The meta header's seg_len entries are authoritative for segment
    membership; hops must tile the declared word counts exactly.
    `hop_table` derives the hop layout from them at most once per path
    object, or returns the table `laid_out` handed it from a path of the
    same seg_len and hop classes; `replace` or any other build walks anew.
    """

    meta: PathMetaHdr
    infos: tuple[InfoField, ...]
    hops: tuple[HopField, ...]

    _table = None  # not a field, so eq, repr and replace ignore the kept table

    @classmethod
    def laid_out(cls, meta, infos, hops, table: HopTable) -> HummingbirdPath:
        """A path laid out as `table`, the walk of a path of the same seg_len and
        hop classes (the router's input, a plan's template, a forged packet's own)."""
        path = object.__new__(cls)
        path.__dict__.update(meta=meta, infos=infos, hops=hops, _table=table)
        return path

    def hop_table(self) -> HopTable:
        """Each hop's start word plus the total, and each hop's segment,
        walked once and kept.  Raises WireError unless the hops tile seg_len.
        """
        if self._table is not None:
            return self._table
        seg_ends = list(accumulate(self.meta.seg_len[: self.meta.num_inf]))
        starts, segments, seg, word = [0], [], 0, 0
        end = seg_ends[0] if seg_ends else 0  # past the last segment: its end
        for hop in self.hops:
            if word == end:
                raise WireError("hop fields left over after the last segment")
            word += hop.words
            starts.append(word)
            segments.append(seg)
            if word >= end:
                if word > end:
                    raise WireError(f"hop fields do not tile segment {seg}")
                seg += 1
                end = seg_ends[seg] if seg < len(seg_ends) else word
        if seg != len(seg_ends):
            raise WireError(f"hop fields do not tile segment {seg}")
        self.__dict__["_table"] = table = HopTable((starts, segments))
        return table

    def _validate_layout(self) -> None:
        """The checks across fields; assumes each field is valid on its own."""
        meta = self.meta
        num_inf = meta.num_inf
        if len(self.infos) != num_inf:
            raise WireError(f"{len(self.infos)} info fields but seg_len declares {num_inf}")
        starts, segments = self.hop_table()
        if num_inf > 0:
            index = _hop_at(starts, meta.curr_hf)
            # Past the last hop, CurrINF stays on the last hop's segment.
            expect_inf = segments[min(index, len(segments) - 1)]
            if meta.curr_inf != expect_inf:
                raise WireError(
                    f"curr_inf {meta.curr_inf} does not match hop position"
                    f" (expected {expect_inf})"
                )


def _hop_at(starts: list[int], curr_hf: int) -> int:
    """Index of the hop starting at curr_hf, or the hop count at the end."""
    try:
        return starts.index(curr_hf)
    except ValueError:
        raise WireError(f"curr_hf {curr_hf} is not on a hop boundary") from None


# encode_path and decode_path check each field once, in pack or unpack_from,
# and then the layout across fields.
def encode_path(path: HummingbirdPath) -> bytes:
    parts = [path.meta.pack()]
    for info in path.infos:
        parts.append(info.pack())
    path._validate_layout()
    for hop in path.hops:
        parts.append(hop.pack())
    return b"".join(parts)


def decode_path(raw: bytes) -> HummingbirdPath:
    """Read the declared fields in place (raw may be a view); the F bit sizes each hop."""
    if len(raw) < META_LEN:
        raise WireError(f"truncated path: {len(raw)} bytes")
    meta = PathMetaHdr.unpack_from(raw, 0)
    pos = META_LEN + INFO_LEN * meta.num_inf
    end = pos + _WORD * meta.total_hop_words
    if len(raw) != end:
        raise WireError(f"meta header declares {end} path bytes, got {len(raw)}")
    infos = tuple(InfoField.unpack_from(raw, i) for i in range(META_LEN, pos, INFO_LEN))
    hops: list[HopField] = []
    while pos < end:
        cls = FlyoverHopField if raw[pos] & 0x80 else HopField
        hop_len = cls._struct.size
        if pos + hop_len > end:
            raise WireError(f"{cls._what} needs {hop_len} bytes, got {end - pos}")
        hops.append(cls.unpack_from(raw, pos))
        pos += hop_len
    path = HummingbirdPath(meta, infos, tuple(hops))
    path._validate_layout()
    return path


def info_field_offset(meta: PathMetaHdr) -> int:
    """Byte offset of the current info field from the start of the path."""
    meta.validate()
    if meta.num_inf == 0:
        raise WireError("empty path has no info fields")
    return META_LEN + INFO_LEN * meta.curr_inf


def hop_field_offset(meta: PathMetaHdr) -> int:
    """Byte offset of the current hop field from the start of the path."""
    meta.validate()
    return META_LEN + INFO_LEN * meta.num_inf + _WORD * meta.curr_hf


# ---------------------------------------------------------------------------
# Bandwidth encoding

# Bits per second of each 10-bit BW code: a 5-bit exponent, then a 5-bit significand.
BW_VALUES = [
    sig if exp == 0 else (32 + sig) << (exp - 1) for exp in range(32) for sig in range(32)
]
MAX_BW_VALUE = BW_VALUES[-1]


def decode_bw(code: int) -> int:
    """Bits-per-second value of a 10-bit BW code."""
    return BW_VALUES[_check(code, 10, "bw code")]


def quantize_bw(raw_bps: int) -> int:
    """Smallest BW code whose decoded value is >= raw_bps (never undersells)."""
    if raw_bps < 0:
        raise WireError(f"bandwidth must be non-negative: {raw_bps}")
    if raw_bps > MAX_BW_VALUE:
        raise WireError(f"bandwidth {raw_bps} exceeds the encodable maximum {MAX_BW_VALUE}")
    return bisect_left(BW_VALUES, raw_bps)


# ---------------------------------------------------------------------------
# Reservations and the two fixed PRF input blocks

@frozen_record
class ReservationInfo:
    """Attributes binding a reservation key to one AS hop.

    ingress/egress are the AS interface pair, res_id the per-ingress
    policing index, bw_code the encoded bandwidth, res_start unix
    seconds, duration seconds.
    """

    ingress: int
    egress: int
    res_id: int
    bw_code: int
    res_start: int
    duration: int

    _struct = struct.Struct("!HHIIH2x")

    def validate(self) -> None:
        _check(self.ingress, 16, "ingress")
        _check(self.egress, 16, "egress")
        _check(self.res_id, 22, "res_id")
        _check(self.bw_code, 10, "bw_code")
        _check(self.res_start, 32, "res_start")
        _check(self.duration, 16, "duration")


def resinfo_block(res: ReservationInfo) -> bytes:
    """16-byte key-derivation input: In | Eg | ResID | BW | StrT | Dur | pad."""
    return pack_resinfo(
        res.ingress, res.egress, res.res_id, res.bw_code, res.res_start, res.duration
    )


def pack_resinfo(*fields: int) -> bytes:
    """resinfo_block from the fields themselves, as a router reads them off a hop."""
    ingress, egress, res_id, bw_code, res_start, duration = fields
    # ResID and BW share one word, so their widths are checked here.
    if not (0 <= res_id < 1 << 22 and 0 <= bw_code < 1 << 10):
        ReservationInfo(*fields).validate()
    try:
        return ReservationInfo._struct.pack(
            ingress, egress, res_id << 10 | bw_code, res_start, duration
        )
    except struct.error:
        ReservationInfo(*fields).validate()
        raise


def parse_resinfo_block(raw: bytes) -> ReservationInfo:
    if len(raw) != 16:
        raise WireError(f"reservation block needs 16 bytes, got {len(raw)}")
    ingress, egress, res_word, res_start, duration = ReservationInfo._struct.unpack(raw)
    if raw[14:] != b"\x00\x00":
        raise WireError("reservation block padding must be zero")
    return ReservationInfo(ingress, egress, res_word >> 10, res_word & 0x3FF, res_start, duration)


_MAC_INPUT = struct.Struct("!HHIHHI")
_MAC_INPUT_WIDTHS = (
    (16, "dst_isd"), (48, "dst_as"), (16, "pkt_len"),
    (16, "res_start_offset"), (10, "millis"), (22, "counter"),
)


def mac_input_block(
    dst_isd: int, dst_as: int, pkt_len: int, res_start_offset: int, millis: int, counter: int
) -> bytes:
    """16-byte flyover MAC input: DstISD | DstAS | PktLen | offset | TS."""
    values = dst_isd, dst_as, pkt_len, res_start_offset, millis, counter
    # The timestamp pair shares one word, so its widths are checked here.
    if not (0 <= millis < 1 << 10 and 0 <= counter < 1 << 22):
        _check_each(values, _MAC_INPUT_WIDTHS)
    timestamp = millis << 22 | counter
    try:
        return _MAC_INPUT.pack(
            dst_isd, dst_as >> 32, dst_as & 0xFFFFFFFF, pkt_len, res_start_offset, timestamp
        )
    except struct.error:
        _check_each(values, _MAC_INPUT_WIDTHS)
        raise


def _check_each(values: tuple, widths: tuple) -> None:
    for value, (bits, name) in zip(values, widths):
        _check(value, bits, name)


# ---------------------------------------------------------------------------
# Packet: pseudo common/address prefix + path header

@frozen_record
class Packet:
    """One data-plane packet header.

    The 12-byte prefix stands in for the SCION common and address
    headers and carries only what forwarding reads:

        DstISD (2 B) | DstAS (6 B) | PayloadLen (2 B) | HdrLen (1 B) | 0 (1 B)

    HdrLen counts 4-byte words of the whole header (prefix plus path)
    and is derived from the path layout.  Payload bytes themselves are
    never materialized; PayloadLen is authoritative.
    """

    dst_isd: int
    dst_as: int
    payload_len: int
    path: HummingbirdPath

    _prefix = struct.Struct("!HHIHBB")  # DstAS as its high 16 and low 32 bits

    @property
    def hdr_len(self) -> int:
        return header_words(len(self.path.infos), sum(hop.words for hop in self.path.hops))

    @property
    def wire_length(self) -> int:
        """Total bytes this packet occupies on a link."""
        return self.hdr_len * _WORD + self.payload_len

    def _validate_prefix(self) -> None:
        _check(self.dst_isd, 16, "dst_isd")
        _check(self.dst_as, 48, "dst_as")
        _check(self.payload_len, 16, "payload_len")
        if self.hdr_len > 0xFF:
            raise WireError(f"hdr_len {self.hdr_len} does not fit 8 bits")


def header_words(num_inf: int, hop_words: int) -> int:
    """HdrLen: the prefix and the meta header (3 words each), 2 per info field, the hops."""
    return (PACKET_PREFIX_LEN + META_LEN + INFO_LEN * num_inf) // _WORD + hop_words


def pkt_len_for_mac(payload_len: int, hdr_len: int) -> int:
    """PktLen as covered by the flyover MAC; raises on 16-bit overflow."""
    total = payload_len + _WORD * hdr_len
    if total >= 1 << 16:
        raise PktLenOverflow(f"pkt_len {total} does not fit 16 bits")
    return total


# encode_packet and decode_packet check the prefix themselves and leave
# the path to encode_path and decode_path, so each check runs once.
def encode_packet(packet: Packet) -> bytes:
    isd, dst_as, payload_len = packet.dst_isd, packet.dst_as, packet.payload_len
    try:
        prefix = Packet._prefix.pack(
            isd, dst_as >> 32, dst_as & 0xFFFFFFFF, payload_len, packet.hdr_len, 0
        )
    except struct.error:
        packet._validate_prefix()
        raise
    return prefix + encode_path(packet.path)


def decode_packet(raw: bytes) -> Packet:
    """Every prefix value fits its field, and hdr_len its byte, by construction."""
    if len(raw) < PACKET_PREFIX_LEN:
        raise WireError(f"truncated packet prefix: {len(raw)} bytes")
    dst_isd, as_high, as_low, payload_len, hdr_len, rsv = Packet._prefix.unpack_from(raw)
    if rsv:
        raise WireError("reserved prefix byte must be zero")
    if len(raw) != hdr_len * _WORD:
        raise WireError(f"hdr_len declares {hdr_len * _WORD} bytes, got {len(raw)}")
    path = decode_path(memoryview(raw)[PACKET_PREFIX_LEN:])
    return Packet(dst_isd, as_high << 32 | as_low, payload_len, path)
