"""Keyed fuzzing corpus: random packets signed so they reach past the MAC check.

`keyed_cases(rng, count)` draws every prefix, meta, info and hop field
across its wire width (CurrINF, CurrHF and the segment lengths follow
from the drawn path and position), with edge values: ResID at or past
the policer, BW 0, 1 and 1023, a reservation offset that wraps
BaseTimestamp, duration 0, ExpTime 0 and 255, PktLen at 65535 and
65536, a crossing into the last segment, the last hop of the last
segment.  It then
signs valid hop MACs along each segment's SegID chain and a valid
aggregate MAC for the flyover the router owns, with a tag of 1 to 6
bytes; a few faults (a flipped MAC bit, a tag of the wrong length, a
reserved bit, an expired hop) are planted on purpose.  Router clock,
info timestamps and reservation windows are drawn relative to each
other, so every decision reason is reached.

`Spec` is the expected behaviour, written from the wire layout and the
paper's rules with its own AES calls and packing, apart from the
router: which packets forward, which earn priority, what the policer
holds, and the exact bytes a forwarded packet leaves with.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from random import Random

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

SV = bytes(range(100, 116))
FK = bytes(range(200, 216))
POLICER_ENTRIES = 64
MS = 1_000_000
S = 1_000_000_000
DELTA_NS = 500 * MS  # clock skew allowance
BIG_DELTA_NS = 1000 * MS  # freshness window
BURST_NS = 50 * MS  # policer burst time
EXP_UNIT_NS = 337_500_000_000  # hop expiry unit, 24 h / 256
T0 = 1_700_000_000  # the corpus clock starts here, in unix seconds

PREFIX = struct.Struct("!HHIHBB")
META = struct.Struct("!III")
INFO = struct.Struct("!BBHI")
HOP = struct.Struct("!BBHH6s")
RES = struct.Struct("!IHH")


def aes(key: bytes, block: bytes) -> bytes:
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(block) + encryptor.finalize()


def bw_bits(code: int) -> int:
    exponent, significand = code >> 5, code & 0x1F
    return significand if exponent == 0 else (32 + significand) << (exponent - 1)


@dataclass
class Hop:
    flyover: bool
    flags: int  # the two alert bits
    exp_time: int
    ingress: int
    egress: int
    mac: bytes = bytes(6)
    res_id: int = 0
    bw: int = 0
    offset: int = 0
    duration: int = 0

    @property
    def words(self) -> int:
        return 5 if self.flyover else 3


@dataclass
class Case:
    """One packet as drawn, its bytes, and the router clock and tag length."""

    now: int
    tag_len: int
    dst_isd: int
    dst_as: int
    payload_len: int
    base: int
    millis: int
    counter: int
    infos: list[list[int]]  # [flags, seg_id, timestamp] per segment
    segments: list[list[Hop]]
    position: int  # index of the first owned hop; the hop count means none
    parse_fault: bool = False
    raw: bytes = field(default=b"", repr=False)

    @property
    def hops(self) -> list[Hop]:
        return [hop for segment in self.segments for hop in segment]

    def segment_of(self) -> list[int]:
        return [s for s, segment in enumerate(self.segments) for _ in segment]

    def starts(self) -> list[int]:
        starts = [0]
        for hop in self.hops:
            starts.append(starts[-1] + hop.words)
        return starts

    def owned(self) -> list[int]:
        """The hops this router owns: one, or two at a segment crossing."""
        seg = self.segment_of()
        i = self.position
        if i + 1 < len(seg) and seg[i + 1] != seg[i]:
            return [i, i + 1]
        return [i]

    @property
    def hdr_len(self) -> int:
        return (PREFIX.size + META.size + 8 * len(self.infos) + 4 * self.starts()[-1]) // 4

    def pkt_len(self) -> int:
        return self.payload_len + 4 * self.hdr_len

    def encode(self) -> bytes:
        seg_len = [sum(h.words for h in segment) for segment in self.segments] + [0, 0]
        starts, seg = self.starts(), self.segment_of()
        curr_inf = seg[min(self.position, len(seg) - 1)]
        word0 = curr_inf << 30 | starts[self.position] << 22
        word0 |= seg_len[0] << 14 | seg_len[1] << 7 | seg_len[2]
        parts = [
            PREFIX.pack(
                self.dst_isd, self.dst_as >> 32, self.dst_as & 0xFFFFFFFF,
                self.payload_len, self.hdr_len, 0,
            ),
            META.pack(word0, self.base, self.millis << 22 | self.counter),
        ]
        parts += [INFO.pack(flags, 0, seg_id, ts) for flags, seg_id, ts in self.infos]
        for hop in self.hops:
            flags = hop.flyover << 7 | hop.flags
            parts.append(HOP.pack(flags, hop.exp_time, hop.ingress, hop.egress, hop.mac))
            if hop.flyover:
                parts.append(RES.pack(hop.res_id << 10 | hop.bw, hop.offset, hop.duration))
        return b"".join(parts)

    # -- the MACs, from the spec's own packing ---------------------------------

    def hop_mac(self, index: int, seg_id: int | None = None) -> bytes:
        """The hop MAC over the hop's static fields and its segment's info
        field, or the given SegID in place of the one the info carries."""
        hop = self.hops[index]
        _, carried, ts = self.infos[self.segment_of()[index]]
        seg_id = carried if seg_id is None else seg_id
        block = struct.pack("!HIBHH5x", seg_id, ts, hop.exp_time, hop.ingress, hop.egress)
        return aes(FK, block)[:6]

    def res_start(self, hop: Hop) -> int:
        return (self.base - hop.offset) % (1 << 32)

    def tag(self, hop: Hop, tag_len: int) -> bytes:
        """The flyover tag, zero-padded to the 6-byte MAC slot."""
        res_block = struct.pack(
            "!HHIIH2x", hop.ingress, hop.egress, hop.res_id << 10 | hop.bw,
            self.res_start(hop), hop.duration,
        )
        a_key = aes(SV, res_block)
        block = struct.pack(
            "!HHIHHI", self.dst_isd, self.dst_as >> 32, self.dst_as & 0xFFFFFFFF,
            self.pkt_len(), hop.offset, self.millis << 22 | self.counter,
        )
        return aes(a_key, block)[:tag_len].ljust(6, b"\0")


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _edge(rng: Random, edges: tuple, width: int, p: float = 0.15) -> int:
    return rng.choice(edges) if rng.random() < p else rng.randrange(1 << width)


def _draw(rng: Random, clock_ns: int) -> Case:
    segments = [
        [
            Hop(
                rng.random() < 0.35, rng.randrange(4) if rng.random() < 0.2 else 0,
                _edge(rng, (0, 255), 8, 0.3), rng.randrange(1 << 16), rng.randrange(1 << 16),
                rng.randbytes(6), rng.randrange(1 << 22), rng.randrange(1 << 10),
                rng.randrange(1 << 16), rng.randrange(1 << 16),
            )
            for _ in range(rng.randint(1, 3))
        ]
        for _ in range(rng.choice((1, 2, 2, 3, 3)))
    ]
    ends = [sum(len(s) for s in segments[: k + 1]) for k in range(len(segments))]
    n = ends[-1]
    pick = rng.random()
    if pick < 0.05:
        position = n  # no hop left
    elif pick < 0.3 and len(segments) > 1:
        position = rng.choice(ends[:-1]) - 1  # a crossing
    elif pick < 0.45:
        position = n - 1  # the last hop of the last segment
    else:
        position = rng.randrange(n)

    # The sender's stamp is `age` before the router clock, which stays
    # within a millisecond of the corpus clock unless the base is far off.
    if rng.random() < 0.85:
        age = rng.randrange(-DELTA_NS, BIG_DELTA_NS + DELTA_NS + 1)
    else:
        age = rng.choice((-DELTA_NS - 1, BIG_DELTA_NS + DELTA_NS + 1, -10 * S, 30 * S))
    stamp_ms = (clock_ns - age) // MS
    far = rng.random() < 0.08
    if far:
        base = rng.choice((rng.randrange(1, 1 << 16), (1 << 32) - 1 - rng.randrange(50)))
        stamp_ms = base * 1000 + stamp_ms % 1000
    base, millis = divmod(stamp_ms, 1000)
    case = Case(
        now=stamp_ms * MS + age, tag_len=rng.randint(1, 6),
        dst_isd=_edge(rng, (0, 0xFFFF), 16), dst_as=_edge(rng, (0, (1 << 48) - 1), 48),
        payload_len=rng.randrange(1500) if rng.random() < 0.9 else rng.randrange(1 << 16),
        base=base, millis=millis, counter=_edge(rng, (0, (1 << 22) - 1), 22),
        infos=[], segments=segments, position=position,
    )

    owned = case.owned() if position < n else []
    if owned:
        first = case.hops[owned[0]]
        first.flyover = rng.random() < 0.75
        if len(owned) == 2:
            case.hops[owned[1]].flyover = rng.random() < 0.12  # misplaced
        if first.flyover:
            _reserve(rng, case, first, far)
    for hop in case.hops:
        if not hop.flyover:
            hop.res_id = hop.bw = hop.offset = hop.duration = 0

    # Info timestamps: each owned hop unexpired unless an expiry is planted.
    now_s = case.now // S
    seg = case.segment_of()
    for s in range(len(segments)):
        ts = now_s - rng.randrange(338)
        if rng.random() < 0.05:
            ts = rng.randrange(1 << 32)
        mine = [i for i in owned if seg[i] == s]
        if mine and rng.random() < 0.06:
            lifetime = (case.hops[mine[0]].exp_time + 1) * EXP_UNIT_NS
            ts = (case.now - lifetime) // S - rng.randrange(1, 1000)
        flags = (rng.random() < 0.1) << 1 | (rng.random() < 0.7)
        case.infos.append([flags, rng.randrange(1 << 16), min(max(ts, 0), (1 << 32) - 1)])

    if rng.random() < 0.06:  # PktLen at 65535 or 65536, if PayloadLen can say so
        payload = 65535 - 4 * case.hdr_len + rng.randrange(2)
        case.payload_len = payload if payload < 1 << 16 else case.payload_len
    _sign(rng, case, owned)
    case.raw = case.encode()
    if rng.random() < 0.03:
        case.raw = _plant_reserved_bit(rng, case)
        case.parse_fault = True
    return case


def _reserve(rng: Random, case: Case, hop: Hop, far: bool) -> None:
    """The owned flyover's reservation, mostly active at the router clock."""
    pick = rng.random()
    hop.res_id = (
        rng.randrange(4) if pick < 0.75 and not far  # a small pool, to spend budgets
        else rng.randrange(POLICER_ENTRIES, 1 << 22) if pick < 0.88  # past the policer
        else rng.randrange(4, POLICER_ENTRIES)
    )
    pick = rng.random()
    hop.bw = (
        rng.randrange(560, 1 << 10) if pick < 0.65  # 2 Mbit/s and up
        else rng.randrange(400, 460) if pick < 0.8  # a few packets fill the burst
        else rng.choice((0, 1, 1023)) if pick < 0.9
        else rng.randrange(1 << 10)
    )
    pick = rng.random()
    if pick < 0.8:
        hop.offset = rng.randrange(min(case.base, 0xFFFF) + 1)
        hop.duration = min(hop.offset + rng.randrange(1, 600), 0xFFFF)
    elif pick < 0.9:
        hop.offset = rng.randrange(1 << 16)
        hop.duration = rng.choice((0, rng.randrange(hop.offset + 1)))
    else:  # past a small BaseTimestamp, so the start wraps
        hop.offset = rng.randrange(min(case.base + 1, 0xFFFF), 1 << 16)
        hop.duration = rng.randrange(1 << 16)


def _sign(rng: Random, case: Case, owned: list[int]) -> None:
    """Chain SegIDs and hop MACs per segment; sign the owned flyover."""
    first = 0
    for s, segment in enumerate(case.segments):
        seg_id = carried = case.infos[s][1]
        for index in range(first, first + len(segment)):
            if index == case.position:
                carried = seg_id  # the SegID that reaches the current hop
            mac = case.hop_mac(index, seg_id)
            hop = case.hops[index]
            hop.mac = mac if not hop.flyover else _xor(mac, rng.randbytes(6))
            seg_id ^= int.from_bytes(mac[:2], "big")
        first += len(segment)
        case.infos[s][1] = seg_id if case.position >= first else carried
    if not owned:
        return
    first = case.hops[owned[0]]
    if first.flyover and case.pkt_len() < 1 << 16:
        tag_len = case.tag_len
        if rng.random() < 0.04:
            tag_len = rng.choice([t for t in range(1, 7) if t != case.tag_len])
        first.mac = _xor(case.hop_mac(owned[0]), case.tag(first, tag_len))
    pick = rng.random()
    if pick < 0.06:
        victim = case.hops[owned[0]]
    elif pick < 0.12 and len(owned) == 2:
        victim = case.hops[owned[1]]
    else:
        return
    bit = rng.randrange(48)
    victim.mac = _xor(victim.mac, (1 << bit).to_bytes(6, "big"))


def _plant_reserved_bit(rng: Random, case: Case) -> bytes:
    raw = bytearray(case.raw)
    infos_at = PREFIX.size + META.size
    hops_at = infos_at + 8 * len(case.infos)
    where = rng.choice(("prefix", "meta", "info", "hop"))
    if where == "prefix":
        raw[11] = rng.randrange(1, 256)
    elif where == "meta":
        raw[PREFIX.size + 1] |= 0x20
    elif where == "info":
        raw[infos_at + 8 * rng.randrange(len(case.infos)) + rng.randrange(2)] |= 0x04
    else:
        raw[hops_at + 4 * rng.choice(case.starts()[:-1])] |= 0x04 << rng.randrange(5)
    return bytes(raw)


def keyed_cases(rng: Random, count: int):
    """count cases on a corpus clock that moves 0-5 ms per packet."""
    clock_ns = T0 * S
    for _ in range(count):
        clock_ns += rng.randrange(5 * MS)
        yield _draw(rng, clock_ns)


class Spec:
    """The router's expected behaviour, with its own policer model."""

    def __init__(self):
        self.budget_ends: dict[int, int] = {}

    def forwards(self, case: Case) -> bool:
        """Parsed, a hop left, no misplaced flyover, PktLen fits for a
        flyover, and every owned hop unexpired with a matching MAC."""
        if case.parse_fault or case.position == len(case.hops):
            return False
        owned, hops = case.owned(), case.hops
        first = hops[owned[0]]
        if len(owned) == 2 and hops[owned[1]].flyover:
            return False
        if first.flyover and case.pkt_len() >= 1 << 16:
            return False
        for index in owned:
            ts = case.infos[case.segment_of()[index]][2]
            if case.now > ts * S + (hops[index].exp_time + 1) * EXP_UNIT_NS:
                return False
        candidate = first.mac
        if first.flyover:
            candidate = _xor(first.mac, case.tag(first, case.tag_len))
        return candidate == case.hop_mac(owned[0]) and all(
            hops[i].mac == case.hop_mac(i) for i in owned[1:]
        )

    def priority(self, case: Case) -> bool:
        """Forwarded, a flyover first, fresh, active, BW > 0 and in budget;
        a priority packet is charged to the model."""
        if not self.forwards(case):
            return False
        first = case.hops[case.owned()[0]]
        if not first.flyover or not first.bw:
            return False
        age = case.now - (case.base * 1000 + case.millis) * MS
        start = case.res_start(first)
        if not -DELTA_NS <= age <= BIG_DELTA_NS + DELTA_NS:
            return False
        if not start * S <= case.now <= (start + first.duration) * S:
            return False
        if first.res_id >= POLICER_ENTRIES:
            return False
        service = -(-case.pkt_len() * 8 * S // bw_bits(first.bw))
        end = max(self.budget_ends.get(first.res_id, 0), case.now) + service
        if end > case.now + BURST_NS:
            return False
        self.budget_ends[first.res_id] = end
        return True

    def forwarded_bytes(self, case: Case) -> bytes:
        """The input with CurrINF/CurrHF moved past the owned hops, each
        owned segment's SegID chained, and the flyover slot holding the
        plain hop MAC; nothing else changes."""
        out = bytearray(case.raw)
        owned, seg, starts = case.owned(), case.segment_of(), case.starts()
        after = owned[-1] + 1
        (word0,) = struct.unpack_from("!I", out, PREFIX.size)
        word0 = seg[min(after, len(seg) - 1)] << 30 | starts[after] << 22 | word0 & (1 << 22) - 1
        struct.pack_into("!I", out, PREFIX.size, word0)
        for index in owned:
            mac = case.hop_mac(index)
            at = PREFIX.size + META.size + 8 * seg[index] + 2
            (seg_id,) = struct.unpack_from("!H", out, at)
            struct.pack_into("!H", out, at, seg_id ^ int.from_bytes(mac[:2], "big"))
        if case.hops[owned[0]].flyover:
            at = PREFIX.size + META.size + 8 * len(case.infos) + 4 * starts[owned[0]] + 6
            out[at : at + 6] = case.hop_mac(owned[0])
        return bytes(out)
