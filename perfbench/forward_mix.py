"""forward_mix: the data plane alone.

One op is one `router.process_packet_bytes` call on a pre-encoded packet,
against border routers whose clock the benchmark sets before each call.
The corpus is mostly valid flyover hops spread over many reservations
with skewed popularity, plus every other way a packet can end: plain
hops, segment-crossing pairs with and without a flyover, over-budget
reservations, stale and future timestamps, expired reservations and
forged tags.

The generator never asks the program for a key, a MAC or a verdict.  It
derives reservation keys and hop MACs with AES-128 straight from
`cryptography`, labels every packet with the (verdict, reason) it must
get, decides priority against over-budget with its own token-bucket
model, and computes the bytes each forwarded packet must leave with.
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate
from random import Random

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from hummingbird import router
from hummingbird.policing import TokenBucketArray
from hummingbird.router import RouterConfig
from hummingbird.source import CounterState, HopPlan, PathPlan, SegmentPlan, build_packet
from hummingbird.wire import ReservationInfo, encode_packet

from harness import RoundResult

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
T0_S = 1_700_000_000
T0_NS = T0_S * NS_PER_S
STEP_NS = 100_000  # injected clock advance between two packets
BURST_NS = 50 * NS_PER_MS
DELTA_NS = 500 * NS_PER_MS
BIG_DELTA_NS = 1000 * NS_PER_MS
INFO_TS = T0_S - 3600
MAX_PACKET = 1500

AS_COUNT = 4
INGRESS = (1, 2, 3)
EGRESS = (4, 5, 6, 7)
RES_PER_ROUTER = 2000  # live reservations per (AS, ingress) router
EXPIRED_PER_ROUTER = 50
# Reservation popularity, as shares of the packets that carry one: a few
# heavy reservations, a Zipf(1) warm set, and a cold tail drawn uniformly
# from everything else.  The cold tail alone puts thousands of distinct
# reservations into every pass over the corpus, most of them once.
HEAVY_OVER = 4  # heavy reservations sending above their rate
HEAVY_OK = 4  # heavy reservations within their rate
HEAVY_SHARE = 0.03  # per heavy reservation
WARM = 1000
WARM_SHARE = 0.26
PACKETS = 12_000

# Exact share of each packet kind in the corpus; order is shuffled.
MIX = (
    ("flyover", 0.60),
    ("plain", 0.12),
    ("cross_plain", 0.05),
    ("cross_flyover", 0.05),
    ("stale", 0.03),
    ("future", 0.03),
    ("inactive", 0.04),
    ("forged", 0.08),
)
FIXED_LABELS = {
    "plain": ("best_effort", "plain_hop"),
    "cross_plain": ("best_effort", "plain_hop"),
    "stale": ("best_effort", "stale_timestamp"),
    "future": ("best_effort", "future_timestamp"),
    "inactive": ("best_effort", "reservation_inactive"),
    "forged": ("drop", "mac_mismatch"),
}
POLICED = ("flyover", "cross_flyover")
PRIORITY = ("priority", "priority")
OVER_BUDGET = ("best_effort", "over_budget")


# -- independent reference computations --------------------------------------


def bw_bits(code: int) -> int:
    """Bits per second of a 10-bit bandwidth code (5-bit exponent, 5-bit significand)."""
    exponent, significand = code >> 5, code & 0x1F
    return significand if exponent == 0 else (32 + significand) << (exponent - 1)


_BW_TABLE = [bw_bits(code) for code in range(1024)]


def bw_code(bits: int) -> int:
    """Smallest code whose bandwidth is at least `bits`."""
    return bisect_left(_BW_TABLE, bits)


def aes_ecb(key: bytes):
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor()


def resinfo_block(ingress, egress, res_id, code, start, duration) -> bytes:
    return struct.pack("!HHIIH", ingress, egress, res_id << 10 | code, start, duration) + bytes(2)


def hop_mac_block(seg_id, info_ts, exp_time, ingress, egress) -> bytes:
    return struct.pack("!HIBHH", seg_id, info_ts, exp_time, ingress, egress) + bytes(5)


# -- corpus ---------------------------------------------------------------------


@dataclass(frozen=True)
class Reservation:
    router: int
    res_id: int
    ingress: int
    egress: int
    code: int
    start: int
    duration: int


@dataclass
class Record:
    """What the generator knows about one packet."""

    kind: str
    router: int
    now: int
    length: int  # header plus payload bytes
    segments: int
    seg_words: tuple[int, int, int]
    first_words: int  # words of the hop under test
    plain_macs: tuple[bytes, ...]  # one per processed hop field
    res: Reservation | None


@dataclass
class State:
    cfgs: list[RouterConfig]
    clock: list[int]
    records: list[Record]
    raws: list[bytes]
    outputs: list | None = None


def _reservations(rng: Random, sv_ciphers) -> tuple[list, list, dict[Reservation, bytes]]:
    """Live and expired reservations per router, and their keys A_K."""
    live, expired = [], []
    for r in range(AS_COUNT * len(INGRESS)):
        ingress = INGRESS[r % len(INGRESS)]
        for res_id in range(RES_PER_ROUTER + EXPIRED_PER_ROUTER):
            egress = rng.choice(EGRESS)
            if res_id < RES_PER_ROUTER:
                start = T0_S - rng.randint(60, 7200)
                duration = T0_S + 600 - start + rng.randint(0, 3600)
                code = bw_code(rng.randint(2_000_000, 64_000_000))
                live.append(Reservation(r, res_id, ingress, egress, code, start, duration))
            else:
                start = T0_S - rng.randint(3000, 20000)
                duration = rng.randint(60, 600)
                code = bw_code(rng.randint(2_000_000, 64_000_000))
                expired.append(Reservation(r, res_id, ingress, egress, code, start, duration))
    rng.shuffle(live)
    # The first reservations of the shuffled list are the heavy ones.
    for i in range(HEAVY_OVER + HEAVY_OK):
        bits = 400_000 if i < HEAVY_OVER else 400_000_000
        live[i] = replace(live[i], code=bw_code(bits))
    keys = {}
    for res in live + expired:
        block = resinfo_block(res.ingress, res.egress, res.res_id, res.code, res.start, res.duration)
        keys[res] = sv_ciphers[res.router // len(INGRESS)].update(block)
    return live, expired, keys


def _filler_hop(rng: Random) -> HopPlan:
    """A hop field that is never processed; it only gives the path its length."""
    ingress, egress = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
    reservation = None
    if rng.random() < 0.3:
        res = ReservationInfo(
            ingress=ingress, egress=egress, res_id=rng.randrange(1 << 22),
            bw_code=rng.randrange(1, 1024), res_start=T0_S - 100, duration=7200,
        )
        reservation = (res, rng.randbytes(16))
    return HopPlan(ingress, egress, rng.randbytes(6), 255, reservation)


def setup(seed: int, tracer=None, packets: int = PACKETS) -> State:
    rng = Random(f"{seed}:forward_mix")
    svs = [rng.randbytes(16) for _ in range(AS_COUNT)]
    fks = [rng.randbytes(16) for _ in range(AS_COUNT)]
    fk_ciphers = [aes_ecb(k) for k in fks]
    live, expired, keys = _reservations(rng, [aes_ecb(k) for k in svs])

    clock = [T0_NS]
    cfgs = [
        RouterConfig(
            sv=svs[r // len(INGRESS)],
            forwarding_key=fks[r // len(INGRESS)],
            policer=TokenBucketArray(RES_PER_ROUTER + EXPIRED_PER_ROUTER, BURST_NS),
            clock=lambda: clock[0],
            delta_ns=DELTA_NS,
            big_delta_ns=BIG_DELTA_NS,
        )
        for r in range(AS_COUNT * len(INGRESS))
    ]

    kinds = [k for k, share in MIX for _ in range(round(share * packets))]
    kinds = (kinds + ["flyover"] * packets)[:packets]
    rng.shuffle(kinds)
    heavy = HEAVY_OVER + HEAVY_OK
    warm_weights = list(accumulate(1 / (rank + 1) for rank in range(WARM)))

    def pick_reservation() -> Reservation:
        u = rng.random()
        if u < heavy * HEAVY_SHARE:
            return live[rng.randrange(heavy)]
        if u < heavy * HEAVY_SHARE + WARM_SHARE:
            return live[heavy + rng.choices(range(WARM), cum_weights=warm_weights)[0]]
        return live[rng.randrange(heavy + WARM, len(live))]

    counter = CounterState()
    records, raws = [], []
    smallest_done = False
    for i, kind in enumerate(kinds):
        # The first plain packet is the smallest valid one: one hop, no payload.
        smallest = kind == "plain" and not smallest_done
        smallest_done = smallest_done or smallest
        now = T0_NS + i * STEP_NS
        if kind == "inactive":
            res = rng.choice(expired)
        elif kind in ("plain", "cross_plain"):
            res = None
        else:
            res = pick_reservation()
        r = res.router if res else rng.randrange(len(cfgs))
        ingress = INGRESS[r % len(INGRESS)]
        egress = res.egress if res else rng.choice(EGRESS)
        fk = fk_ciphers[r // len(INGRESS)]

        crossing = kind.startswith("cross_")
        if smallest:
            shape = [1]
        elif crossing:
            shape = [1, rng.randint(1, 3)] + ([rng.randint(1, 2)] if rng.random() < 0.3 else [])
        else:
            n_seg = rng.choice((1, 1, 2, 3))
            shape = [rng.randint(1 if n_seg == 1 else 2, 4)] + [rng.randint(1, 3) for _ in range(n_seg - 1)]
        seg_ids = [rng.randrange(1 << 16) for _ in shape]

        plain_macs = [fk.update(hop_mac_block(seg_ids[0], INFO_TS, 255, ingress, egress))[:6]]
        first = HopPlan(ingress, egress, plain_macs[0], 255, (_res_info(res), keys[res]) if res else None)
        segments = []
        for s, count in enumerate(shape):
            hops = [_filler_hop(rng) for _ in range(count)]
            if s == 0:
                hops[0] = first
            if s == 1 and crossing:
                # The opening hop of the next segment, owned by the same AS.
                opening_egress = rng.choice(EGRESS)
                mac = fk.update(hop_mac_block(seg_ids[1], INFO_TS, 255, 0, opening_egress))[:6]
                plain_macs.append(mac)
                hops[0] = HopPlan(0, opening_egress, mac, 255, None)
            segments.append(SegmentPlan(seg_id=seg_ids[s], timestamp=INFO_TS, hops=tuple(hops)))
        plan = PathPlan(dst_isd=1, dst_as=rng.randrange(1 << 48), segments=tuple(segments))

        words = [sum(5 if h.reservation else 3 for h in seg.hops) for seg in segments]
        header = 24 + 8 * len(shape) + 4 * sum(words)
        length = header if smallest else rng.randint(header, MAX_PACKET)
        if kind == "stale":
            sent = now - BIG_DELTA_NS - DELTA_NS - rng.randint(2 * NS_PER_MS, 3 * NS_PER_S)
        elif kind == "future":
            sent = now + DELTA_NS + rng.randint(2 * NS_PER_MS, 2 * NS_PER_S)
        else:
            sent = now - rng.randint(0, 2 * NS_PER_MS)

        packet = build_packet(plan, length - header, lambda: sent, counter, allow_inactive=kind == "inactive")
        raw = encode_packet(packet)
        if kind == "forged":
            slot = 24 + 8 * len(shape) + 6
            mask = rng.randrange(1, 1 << 48).to_bytes(6, "big")
            raw = raw[:slot] + bytes(a ^ b for a, b in zip(raw[slot : slot + 6], mask)) + raw[slot + 6 :]
        records.append(
            Record(
                kind=kind, router=r, now=now, length=length, segments=len(shape),
                seg_words=tuple(words + [0] * (3 - len(words))),
                first_words=5 if res else 3, plain_macs=tuple(plain_macs), res=res,
            )
        )
        raws.append(raw)
    return State(cfgs=cfgs, clock=clock, records=records, raws=raws)


def _res_info(res: Reservation) -> ReservationInfo:
    return ReservationInfo(
        ingress=res.ingress, egress=res.egress, res_id=res.res_id,
        bw_code=res.code, res_start=res.start, duration=res.duration,
    )


def reset(state: State) -> None:
    """Fresh policer state, as after set-up, so the corpus can be replayed."""
    for cfg in state.cfgs:
        cfg.policer = TokenBucketArray(len(cfg.policer), BURST_NS)
    state.outputs = None


# -- the timed ops ----------------------------------------------------------------


def execute(state: State, tracer=None) -> tuple[list[int], list, int]:
    clock, cfgs, records, raws = state.clock, state.cfgs, state.records, state.raws
    op_ns, outputs, failed = [], [], 0
    clock_ns = time.perf_counter_ns
    for i in range(len(raws)):
        clock[0] = records[i].now
        cfg, raw = cfgs[records[i].router], raws[i]
        if tracer is not None:
            tracer.op = i
        start = clock_ns()
        try:
            out = router.process_packet_bytes(cfg, raw)
        except Exception as exc:  # a raising router is a failed op, not a crash
            out = exc
        op_ns.append(clock_ns() - start)
        if isinstance(out, Exception):
            failed += 1
        outputs.append(out)
    return op_ns, outputs, failed


def run(state: State, tracer=None) -> RoundResult:
    op_ns, outputs, failed = execute(state, tracer)
    state.outputs = outputs
    return RoundResult(op_ns=op_ns, failed=failed, errors=check(state, outputs))


# -- output checks ------------------------------------------------------------------


def labels(records: list[Record]) -> list[tuple[str, str]]:
    """(verdict, reason) per packet; policed packets go through a token
    bucket per reservation: service time is the packet's length at the
    reserved rate, rounded up to whole ns, and a packet is priority while
    the bucket stays within BURST_NS of now."""
    buckets: dict[tuple[int, int], int] = {}
    out = []
    for rec in records:
        if rec.kind not in POLICED:
            out.append(FIXED_LABELS[rec.kind])
            continue
        key = (rec.router, rec.res.res_id)
        service = -(-rec.length * 8 * NS_PER_S // bw_bits(rec.res.code))
        candidate = max(buckets.get(key, 0), rec.now) + service
        if candidate <= rec.now + BURST_NS:
            buckets[key] = candidate
            out.append(PRIORITY)
        else:
            out.append(OVER_BUDGET)
    return out


def expected_bytes(rec: Record, raw: bytes) -> bytes:
    """The packet after the hop: plain MACs back in the processed slots,
    SegIDs stepped, CurrHF past the processed hop field(s), CurrINF on the
    segment that CurrHF now points into."""
    out = bytearray(raw)
    hop = 24 + 8 * rec.segments
    out[hop + 6 : hop + 12] = rec.plain_macs[0]
    advance = rec.first_words
    if len(rec.plain_macs) == 2:
        advance += 3
    for seg, mac in enumerate(rec.plain_macs):
        at = 24 + 8 * seg + 2
        seg_id = int.from_bytes(out[at : at + 2], "big") ^ int.from_bytes(mac[:2], "big")
        out[at : at + 2] = seg_id.to_bytes(2, "big")
    total = sum(rec.seg_words)
    if advance == total:
        curr_inf = rec.segments - 1
    else:
        curr_inf = next(s for s in range(3) if advance < sum(rec.seg_words[: s + 1]))
    word0 = int.from_bytes(out[12:16], "big")
    word0 = curr_inf << 30 | advance << 22 | word0 & 0x3FFFFF
    out[12:16] = word0.to_bytes(4, "big")
    return bytes(out)


def check(state: State, outputs: list) -> list[str]:
    errors = []
    for i, (rec, raw, label, out) in enumerate(zip(state.records, state.raws, labels(state.records), outputs)):
        if isinstance(out, Exception):
            errors.append(f"packet {i} ({rec.kind}): raised {out!r}")
            continue
        decision, data = out
        got = (decision.verdict.value, decision.reason.value)
        if got != label:
            errors.append(f"packet {i} ({rec.kind}): decision {got}, expected {label}")
        elif label[0] == "drop":
            if data is not None:
                errors.append(f"packet {i} ({rec.kind}): dropped packet returned bytes")
        elif data != expected_bytes(rec, raw):
            errors.append(f"packet {i} ({rec.kind}): forwarded bytes differ from the expected header")
        if len(errors) >= 20:
            errors.append("further mismatches not listed")
            break
    if len(outputs) != len(state.raws):
        errors.append(f"{len(outputs)} outputs for {len(state.raws)} packets")
    return errors
