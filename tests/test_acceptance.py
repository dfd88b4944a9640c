"""System-level acceptance suite.

Twelve end-to-end guarantees, one test each, ordered so the pytest -v
output reads as a checklist: codec conformance, the forwarding decision
table, policing behavior and memory math, ResID assignment bounds,
ledger asset algebra, atomic path reservations, tag forgery resistance,
the four attack/defense scenarios, and a throughput report.

Expected values are derived independently of the implementation: fixed
sizes and offsets come from the wire layout definition, policing
fractions from token bucket arithmetic spelled out in the docstrings,
ledger prices from unit_price * bandwidth * duration, and scenario
thresholds from the bundled scenario files themselves.  Statistical
checks state their tolerance (3 sigma) next to the sample size.
"""

import itertools
import time
import warnings
from dataclasses import replace
from random import Random

import pytest

from hummingbird import crypto, sim, source, wire
from hummingbird.ledger import (
    ASControlService,
    AsIdentity,
    BandwidthAsset,
    Call,
    Direction,
    LedgerError,
    PkiRoot,
    Result,
    sealing_keypair,
    unseal_credentials,
)
from hummingbird.policing import (
    ENTRY_BYTES,
    monitor_code,
    size_array,
)
from hummingbird.residalloc import ResIdAllocator
from hummingbird.router import (
    Reason,
    RouterConfig,
    Verdict,
    process_packet,
)
from hummingbird.wire import (
    FLYOVER_HOP_LEN,
    HOP_LEN,
    INFO_LEN,
    META_LEN,
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
    ReservationInfo,
    decode_bw,
    decode_packet,
    decode_path,
    encode_packet,
    encode_path,
    hop_field_offset,
    info_field_offset,
    mac_input_block,
    quantize_bw,
    resinfo_block,
)

from alloc_oracle import active_intervals, optimal_coloring
from readers import Ledger, TokenBucketArray, array_bytes, check_expectations

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
BASE_S = 1_700_000_000
SEED = 1729


# ---------------------------------------------------------------------------
# helpers


def _random_path(rng: Random) -> HummingbirdPath:
    """A structurally valid random path with the cursor on a hop boundary."""
    seg_len = [0, 0, 0]
    hops = []
    num_inf = rng.randint(1, 3)
    for seg in range(num_inf):
        words = 0
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                hop = FlyoverHopField(
                    ingress_alert=rng.random() < 0.1,
                    egress_alert=rng.random() < 0.1,
                    exp_time=rng.randrange(256),
                    cons_ingress=rng.randrange(1 << 16),
                    cons_egress=rng.randrange(1 << 16),
                    mac=rng.randbytes(6),
                    res_id=rng.randrange(1 << 22),
                    bw=rng.randrange(1 << 10),
                    res_start_offset=rng.randrange(1 << 16),
                    res_duration=rng.randrange(1 << 16),
                )
            else:
                hop = HopField(
                    ingress_alert=rng.random() < 0.1,
                    egress_alert=rng.random() < 0.1,
                    exp_time=rng.randrange(256),
                    cons_ingress=rng.randrange(1 << 16),
                    cons_egress=rng.randrange(1 << 16),
                    mac=rng.randbytes(6),
                )
            hops.append(hop)
            words += hop.words
        seg_len[seg] = words
    boundaries = [0]
    for hop in hops:
        boundaries.append(boundaries[-1] + hop.words)
    curr_hf = rng.choice(boundaries)
    total = sum(seg_len)
    if curr_hf == total:
        curr_inf = num_inf - 1
    else:
        acc = 0
        for curr_inf, words in enumerate(seg_len):
            acc += words
            if curr_hf < acc:
                break
    meta = PathMetaHdr(
        curr_inf=curr_inf,
        curr_hf=curr_hf,
        seg_len=tuple(seg_len),
        base_timestamp=rng.randrange(1 << 32),
        millis_timestamp=rng.randrange(1000),
        counter=rng.randrange(1 << 22),
    )
    infos = tuple(
        InfoField(
            peering=rng.random() < 0.1,
            cons_dir=rng.random() < 0.5,
            seg_id=rng.randrange(1 << 16),
            timestamp=rng.randrange(1 << 32),
        )
        for _ in range(num_inf)
    )
    return HummingbirdPath(meta=meta, infos=infos, hops=tuple(hops))


def _chained_plan(ases, anchor_s, credentials=None):
    """Single-segment plan over `ases`, hop MACs chained through the SegID.

    ases is a list of (forwarding_key, ingress_iface, egress_iface);
    credentials an optional list of (ReservationInfo, key) per hop.
    """
    seg_id0 = 0x1234
    info_ts = anchor_s - 3600
    macs = crypto.segment_hop_macs(seg_id0, info_ts, [
        (crypto.Prf(fk), 255, ingress, egress) for fk, ingress, egress in ases
    ])
    hop_plans = [
        source.HopPlan(
            cons_ingress=ingress,
            cons_egress=egress,
            hop_mac=mac,
            reservation=None if credentials is None else credentials[index],
        )
        for index, ((_, ingress, egress), mac) in enumerate(zip(ases, macs))
    ]
    segment = source.SegmentPlan(seg_id=seg_id0, timestamp=info_ts, hops=tuple(hop_plans))
    return source.PathPlan(dst_isd=1, dst_as=0xFF00000222, segments=(segment,))


def _run_bundled(name: str) -> dict:
    scenario = sim.load_scenario(name)
    report = sim.Network(scenario, SEED).run()
    failures = check_expectations(report, scenario)
    assert failures == [], f"{name}: {failures}"
    return report


# ---------------------------------------------------------------------------
# 1. codec conformance


def test_01_codec_random_round_trips_and_fixed_layout():
    """10 000 random valid paths survive encode/decode bit-identically.

    Also pins every fixed structure size (12/8/12/20 byte headers, the
    two 16-byte PRF input blocks) and checks both cursor offset
    formulas against actual serialized buffers.
    """
    started = time.perf_counter()
    rng = Random(20260818)

    meta = PathMetaHdr(0, 0, (3, 0, 0), BASE_S, 1, 2)
    info = InfoField(False, True, 7, BASE_S)
    plain = HopField(False, False, 255, 1, 2, bytes(6))
    fly = FlyoverHopField(False, False, 255, 1, 2, bytes(6), 3, 4, 5, 6)
    res = ReservationInfo(1, 2, 3, 4, BASE_S, 60)
    assert len(meta.pack()) == META_LEN == 12
    assert len(info.pack()) == INFO_LEN == 8
    assert len(plain.pack()) == HOP_LEN == 12
    assert len(fly.pack()) == FLYOVER_HOP_LEN == 20
    assert len(resinfo_block(res)) == 16
    assert len(mac_input_block(1, 2, 3, 4, 5, 6)) == 16

    for trial in range(10_000):
        path = _random_path(rng)
        raw = encode_path(path)
        decoded = decode_path(raw)
        assert decoded == path
        assert encode_path(decoded) == raw

        meta = path.meta
        info_off = info_field_offset(meta)
        assert info_off == META_LEN + INFO_LEN * meta.curr_inf
        assert raw[info_off : info_off + INFO_LEN] == path.infos[meta.curr_inf].pack()
        hop_off = hop_field_offset(meta)
        assert hop_off == META_LEN + INFO_LEN * meta.num_inf + 4 * meta.curr_hf
        if meta.curr_hf < meta.total_hop_words:
            hop = path.hops[path.hop_table()[0].index(meta.curr_hf)]
            assert raw[hop_off : hop_off + 4 * hop.words] == hop.pack()

        packet = Packet(
            dst_isd=rng.randrange(1 << 16),
            dst_as=rng.randrange(1 << 48),
            payload_len=rng.randrange(1 << 10),
            path=path,
        )
        raw_pkt = encode_packet(packet)
        assert len(raw_pkt) == 12 + len(raw)
        assert decode_packet(raw_pkt) == packet

    assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# 2. decision table


# Budget True/False are realized by the reservation's bandwidth code:
# 608 decodes to 2**23 bit/s (one 152-byte packet needs ~145 us, well
# inside the 50 ms burst allowance), 328 decodes to 20480 bit/s (the
# same packet needs 59.375 ms, which can never fit the burst).
_BW_OK = quantize_bw(1 << 23)
_BW_TOO_SMALL = quantize_bw(20_480)
assert decode_bw(_BW_OK) == 1 << 23 and decode_bw(_BW_TOO_SMALL) == 20_480


def _expected_decision(flyover, tag_valid, fresh, active, hf_valid, budget):
    """Hand-derived outcome for one row of the decision table.

    A plain hop ignores the flyover-only predicates.  For flyover hops
    an invalid tag and an invalid hop MAC are indistinguishable by
    design (the tag is folded into the hop MAC slot), so either drops;
    freshness demotes before activity, and the budget only matters once
    everything else verified.
    """
    if not flyover:
        if not hf_valid:
            return (Verdict.DROP, Reason.MAC_MISMATCH)
        return (Verdict.BEST_EFFORT, Reason.PLAIN_HOP)
    if not (tag_valid and hf_valid):
        return (Verdict.DROP, Reason.MAC_MISMATCH)
    if not fresh:
        return (Verdict.BEST_EFFORT, Reason.STALE_TIMESTAMP)
    if not active:
        return (Verdict.BEST_EFFORT, Reason.RESERVATION_INACTIVE)
    if not budget:
        return (Verdict.BEST_EFFORT, Reason.OVER_BUDGET)
    return (Verdict.PRIORITY, Reason.PRIORITY)


def _decision_case(flyover, tag_valid, fresh, active, hf_valid, budget):
    """Build a packet and router config realizing one table row."""
    sv = bytes(range(16))
    fk = bytes.fromhex("2a" * 16)
    now_ns = BASE_S * NS_PER_S + 123_456_789
    base = BASE_S if fresh else BASE_S - 2  # stale by ~2.1 s vs the 1.5 s window
    offset = 10
    duration = 300 if active else 5  # expired 7 s (or 5 s) before now
    info = InfoField(peering=False, cons_dir=True, seg_id=0x4242, timestamp=BASE_S - 3600)

    if flyover:
        bw_code = _BW_OK if budget else _BW_TOO_SMALL
        res = ReservationInfo(
            ingress=3, egress=7, res_id=5, bw_code=bw_code,
            res_start=base - offset, duration=duration,
        )
        probe = FlyoverHopField(
            ingress_alert=False, egress_alert=False, exp_time=255,
            cons_ingress=3, cons_egress=7, mac=bytes(6),
            res_id=5, bw=bw_code, res_start_offset=offset, res_duration=duration,
        )
        hop_mac = crypto.hop_field_mac(crypto.Prf(fk), info.seg_id, info.timestamp, 255, 3, 7)
        pkt_len = 100 + 12 + META_LEN + INFO_LEN + FLYOVER_HOP_LEN
        tag = crypto.flyover_mac(
            crypto.Prf(crypto.derive_key(crypto.Prf(sv), res)), 1, 0xFF00000222, pkt_len, offset, 0, 0
        )
        if not hf_valid:
            hop_mac = bytes([hop_mac[0] ^ 0x01]) + hop_mac[1:]
        if not tag_valid:
            tag = tag[:1] + bytes([tag[1] ^ 0x01]) + tag[2:]
        hop = replace(probe, mac=crypto.aggregate_mac(hop_mac, tag))
        seg_len = (5, 0, 0)
    else:
        probe = HopField(
            ingress_alert=False, egress_alert=False, exp_time=255,
            cons_ingress=3, cons_egress=7, mac=bytes(6),
        )
        hop_mac = crypto.hop_field_mac(crypto.Prf(fk), info.seg_id, info.timestamp, 255, 3, 7)
        if not hf_valid:
            hop_mac = bytes([hop_mac[0] ^ 0x01]) + hop_mac[1:]
        hop = replace(probe, mac=hop_mac)
        seg_len = (3, 0, 0)

    packet = Packet(
        dst_isd=1,
        dst_as=0xFF00000222,
        payload_len=100,
        path=HummingbirdPath(
            meta=PathMetaHdr(0, 0, seg_len, base, 0, 0),
            infos=(info,),
            hops=(hop,),
        ),
    )
    cfg = RouterConfig(sv, fk, TokenBucketArray(64), clock=lambda: now_ns)
    return cfg, packet


def test_02_forwarding_decision_table_is_exhaustive():
    """All 64 combinations of the six forwarding predicates match the
    hand-derived table, with the exact verdict and reason for each."""
    rows = list(itertools.product([False, True], repeat=6))
    assert len(rows) == 64
    for row in rows:
        flyover, tag_valid, fresh, active, hf_valid, budget = row
        cfg, packet = _decision_case(*row)
        decision, _ = process_packet(cfg, packet)
        assert (decision.verdict, decision.reason) == _expected_decision(*row), row


# ---------------------------------------------------------------------------
# 3. policing behavior


def test_03_policer_exact_rate_double_rate_and_flood_conservation():
    """Token bucket outcomes over 10^5 packets per profile.

    With bw = 2**23 bit/s and 1000-byte packets the per-packet service
    time is ceil(8e12 / 2**23) = 953_675 ns.  Sending exactly one
    packet per service time is accepted 100%.  Sending at double rate
    admits the startup burst (50 ms / (S - S//2) ~ 104 packets) plus
    every other packet, i.e. 50% + ~0.05%, checked against a +/- 2%
    band.  A 10x flood can never get more priority bytes through than
    bandwidth x (flood duration + burst), an exact integer bound.
    """
    started = time.perf_counter()
    bw_code = quantize_bw(1 << 23)
    bw = decode_bw(bw_code)
    pkt_len = 1000
    service = -(-pkt_len * 8 * NS_PER_S // bw)
    assert service == 953_675
    n = 100_000

    bucket = TokenBucketArray(4)
    accepted = sum(
        monitor_code(bucket, 0, bw_code, pkt_len, k * service) for k in range(n)
    )
    assert accepted == n

    bucket = TokenBucketArray(4)
    interval = service // 2
    accepted = sum(
        monitor_code(bucket, 0, bw_code, pkt_len, k * interval) for k in range(n)
    )
    assert abs(accepted / n - 0.5) < 0.02

    bucket = TokenBucketArray(4)
    interval = service // 10
    accepted = sum(
        monitor_code(bucket, 0, bw_code, pkt_len, k * interval) for k in range(n)
    )
    flood_ns = (n - 1) * interval
    assert accepted * pkt_len * 8 * NS_PER_S <= bw * (flood_ns + bucket.burst_time_ns)

    # Same arithmetic end to end: a reservation sent at 2x through two
    # border routers settles at half priority traffic.
    report = _run_bundled("overuse")
    fraction = report["flows"]["cheat"]["priority_fraction"]
    assert 0.48 <= fraction <= 0.53

    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 4. policing memory math


def test_04_policer_array_sizing_examples():
    """A 100 Gbps interface needs 3e6 entries (24 MB) at 100 kbps
    minimum bandwidth and 75 000 entries (600 kB) at 4 Mbps minimum,
    with the default over-allocation factor of 3 and 8-byte entries."""
    entries = size_array(100_000_000_000, 100_000)
    assert entries == 3_000_000
    assert array_bytes(entries) == 24_000_000

    entries = size_array(100_000_000_000, 4_000_000)
    assert entries == 75_000
    assert array_bytes(entries) == 600_000

    assert ENTRY_BYTES == 8
    assert TokenBucketArray(75_000).nbytes == 600_000


# ---------------------------------------------------------------------------
# 5. ResID assignment


def test_05_first_fit_stays_within_bound_and_never_duplicates():
    """1000 random instances (up to 200 intervals each, a third with
    interleaved releases): the largest assigned id stays below 8x the
    instance's maximum overlap, and after every operation no two
    intervals sharing a ResID overlap (brute-force pairwise check)."""
    started = time.perf_counter()
    rng = Random(515151)
    for instance in range(1000):
        allocator = ResIdAllocator()
        n = rng.randint(1, 200)
        with_releases = instance % 3 == 0
        intervals = []
        res_ids = []
        live = []
        for k in range(n):
            start = rng.randrange(10_000)
            end = start + rng.randint(1, 500)
            handle = k
            res_ids.append(allocator.assign(0, start, end, handle))
            intervals.append((start, end))
            live.append(handle)
            stored = active_intervals(allocator, 0)
            by_id = {}
            for res_id, s, e in stored:
                for s2, e2 in by_id.get(res_id, ()):
                    assert e <= s2 or e2 <= s, (instance, res_id)
                by_id.setdefault(res_id, []).append((s, e))
            if with_releases and live and rng.random() < 0.3:
                victim = live.pop(rng.randrange(len(live)))
                allocator.release(victim)
        high = max(res_ids) + 1
        omega = optimal_coloring(intervals)
        assert high <= 8 * omega, (instance, high, omega)
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 6. asset algebra


def _ledger_with_asset(**overrides):
    rng = Random(606060)
    root = PkiRoot(rng)
    identity = AsIdentity(9, rng)
    ledger = Ledger(root.public_key, genesis={"op": 0})
    token = ledger.register_as("op", root.issue_cert(9, identity.public_key),
                               identity.proof_of_key("op"))
    fields = dict(
        bandwidth=100_000_000,
        start_time=9 * 3600,
        expiration_time=10 * 3600,
        interface=1,
        direction=Direction.INGRESS,
        time_granularity=600,
        min_bandwidth=5_000_000,
    )
    fields.update(overrides)
    return ledger, ledger.issue("op", token, **fields)


def test_06_split_fuse_examples_and_area_conservation():
    """A 9:00-10:00 asset at 10-minute granularity splits at 9:10 but
    not at 9:25; a 100 Mbps asset with 5 Mbps minimum splits into
    93+7 but not 97+3.  Rejections leave the state untouched, and
    bandwidth x time is conserved across 10 000 random operations."""
    ledger, asset = _ledger_with_asset()
    first, second = ledger.split_time("op", asset, 9 * 3600 + 600)
    assert (first.start_time, first.expiration_time) == (9 * 3600, 9 * 3600 + 600)
    assert (second.start_time, second.expiration_time) == (9 * 3600 + 600, 10 * 3600)
    fused = ledger.fuse_time("op", first, second)
    assert (fused.start_time, fused.expiration_time) == (9 * 3600, 10 * 3600)

    before = ledger.state_hash()
    with pytest.raises(LedgerError, match="granularity"):
        ledger.split_time("op", fused, 9 * 3600 + 25 * 60)
    assert ledger.state_hash() == before

    rest, part = ledger.split_bandwidth("op", fused, 7_000_000)
    assert (rest.bandwidth, part.bandwidth) == (93_000_000, 7_000_000)
    refused = ledger.fuse_bandwidth("op", rest, part)
    assert refused.bandwidth == 100_000_000

    before = ledger.state_hash()
    with pytest.raises(LedgerError, match="minimum"):
        ledger.split_bandwidth("op", refused, 3_000_000)
    assert ledger.state_hash() == before

    # Random walk: splits and fuses chosen among whatever is feasible,
    # with the pool steered between 4 and 60 assets so pair search and
    # state hashing stay cheap.
    ledger, asset = _ledger_with_asset(
        bandwidth=1_000_000_000,
        start_time=0,
        expiration_time=86_400,
        time_granularity=60,
        min_bandwidth=1_000_000,
    )
    area = ledger.reserved_area(9, 1, Direction.INGRESS)
    supply = ledger.total_supply()
    rng = Random(616161)
    gran, min_bw = 60, 1_000_000
    for step in range(10_000):
        assets = list(ledger.assets_owned_by("op"))
        ops = []
        for a in assets:
            if a.duration >= 2 * gran:
                ops.append(("split_time", a))
            if a.bandwidth >= 2 * min_bw:
                ops.append(("split_bw", a))
        by_start = {(a.start_time, a.bandwidth): a for a in assets}
        by_span = {}
        for a in assets:
            by_span.setdefault((a.start_time, a.expiration_time), []).append(a)
        for a in assets:
            b = by_start.get((a.expiration_time, a.bandwidth))
            if b is not None:
                ops.append(("fuse_time", (a, b)))
        for group in by_span.values():
            if len(group) >= 2:
                ops.append(("fuse_bw", (group[0], group[1])))
        if len(assets) >= 60:
            ops = [o for o in ops if o[0].startswith("fuse")] or ops
        elif len(assets) <= 4:
            ops = [o for o in ops if o[0].startswith("split")] or ops
        op, arg = rng.choice(ops)
        if op == "split_time":
            cuts = arg.duration // gran
            ledger.split_time("op", arg, arg.start_time + gran * rng.randint(1, cuts - 1))
        elif op == "split_bw":
            ledger.split_bandwidth(
                "op", arg, rng.randint(min_bw, arg.bandwidth - min_bw)
            )
        elif op == "fuse_time":
            ledger.fuse_time("op", arg[0], arg[1])
        else:
            ledger.fuse_bandwidth("op", arg[0], arg[1])
        assert ledger.reserved_area(9, 1, Direction.INGRESS) == area
        assert ledger.total_supply() == supply


# ---------------------------------------------------------------------------
# 7. atomic path reservations


def _path_market(n: int):
    """A ledger with n ASes, each selling ingress and egress capacity."""
    rng = Random(70_000 + n)
    root = PkiRoot(rng)
    ledger = Ledger(root.public_key, genesis={"buyer": 10**15})
    services = []
    listings = []  # (ingress_listing, egress_listing) per hop
    for as_id in range(1, n + 1):
        account = f"as{as_id}"
        ledger.open_account(account, 0)
        identity = AsIdentity(as_id, rng)
        token = ledger.register_as(
            account, root.issue_cert(as_id, identity.public_key),
            identity.proof_of_key(account),
        )
        ledger.register_seller(account)
        pair = []
        for iface, direction in ((1, Direction.INGRESS), (2, Direction.EGRESS)):
            asset = ledger.issue(
                account, token,
                bandwidth=100_000_000,
                start_time=BASE_S,
                expiration_time=BASE_S + 600,
                interface=iface,
                direction=direction,
                time_granularity=60,
                min_bandwidth=1_000_000,
            )
            pair.append(ledger.create_listing(account, asset, 1))
        listings.append(tuple(pair))
        services.append(ASControlService(as_id, rng.randbytes(16), rng))
    return ledger, services, listings


def _reservation_block(listings, pubkey, want_bw=5_000_000, bad_hop=None):
    """The buy/buy/redeem call sequence for a whole path, optionally
    sabotaged at one hop with an unfillable bandwidth ask."""
    block = []
    for hop, (l_in, l_eg) in enumerate(listings):
        ask = 200_000_000 if hop == bad_hop else want_bw
        for listing in (l_in, l_eg):
            block.append(Call("buy", ("buyer", listing.listing_id), dict(
                start_time=BASE_S, expiration_time=BASE_S + 600, bandwidth=ask,
            )))
        base = 3 * hop
        block.append(Call("redeem", ("buyer", Result(base), Result(base + 1), pubkey)))
    return block


def test_07_path_reservations_are_atomic_and_credentials_verify():
    """For path lengths 1, 2, 4, 8, and 16: a failure injected at any
    hop position rolls the whole reservation back (state hash and all
    balances unchanged); the all-success run yields credentials that
    drive a packet through every hop's router at priority."""
    for n in (1, 2, 4, 8, 16):
        ledger, services, listings = _path_market(n)
        rng = Random(71_000 + n)
        priv, pub = sealing_keypair(rng)

        for bad_hop in range(n):
            before_hash = ledger.state_hash()
            before_balances = {a: ledger.balance(a) for a in ["buyer"] + [f"as{i}" for i in range(1, n + 1)]}
            with pytest.raises(LedgerError, match="exceeds listed"):
                ledger.execute_atomic(_reservation_block(listings, pub, bad_hop=bad_hop))
            assert ledger.state_hash() == before_hash, (n, bad_hop)
            assert {a: ledger.balance(a) for a in before_balances} == before_balances

        results = ledger.execute_atomic(_reservation_block(listings, pub))
        credentials = []
        for hop in range(n):
            request = results[3 * hop + 2]
            blob = ledger.deliver_reservation(services[hop], request)
            credentials.append(unseal_credentials(priv, blob))
        for res, _ in credentials:
            assert (res.ingress, res.egress) == (1, 2)
            assert (res.res_start, res.duration) == (BASE_S, 600)
        assert ledger.balance("buyer") == 10**15 - n * 2 * 5_000_000 * 600

        # Forwarding keys are per AS and independent of the ledger.
        fks = [Random(72_000 + n * 100 + i).randbytes(16) for i in range(n)]
        plan = _chained_plan([(fks[i], 1, 2) for i in range(n)], BASE_S, credentials)

        now_ns = (BASE_S + 5) * NS_PER_S
        packet = source.build_packet(plan, 1000, lambda: now_ns, source.CounterState())
        for hop in range(n):
            cfg = RouterConfig(
                sv=services[hop].sv,
                forwarding_key=fks[hop],
                policer=TokenBucketArray(64),
                clock=lambda: now_ns,
            )
            decision, packet = process_packet(cfg, packet)
            assert (decision.verdict, decision.reason) == (Verdict.PRIORITY, Reason.PRIORITY), (n, hop)
        assert packet.path.meta.curr_hf == packet.path.meta.total_hop_words


# ---------------------------------------------------------------------------
# 8. forgery resistance


def _forgery_setup(tag_len: int):
    """One valid single-hop reservation packet plus everything needed
    to forge variants of it: returns (cfg, packet, hop_mac, true_tag)."""
    rng = Random(800_000 + tag_len)
    sv, fk = rng.randbytes(16), rng.randbytes(16)
    res = ReservationInfo(
        ingress=3, egress=7, res_id=5, bw_code=quantize_bw(1 << 23),
        res_start=BASE_S - 10, duration=600,
    )
    a_key = crypto.derive_key(crypto.Prf(sv), res)
    now_ns = BASE_S * NS_PER_S + 123_456_789
    plan = _chained_plan([(fk, 3, 7)], BASE_S, [(res, a_key)])
    packet = source.build_packet(
        plan, 100, lambda: now_ns, source.CounterState(), tag_len=tag_len
    )
    hop = packet.path.hops[0]
    true_tag = crypto.flyover_mac(
        crypto.Prf(a_key), plan.dst_isd, plan.dst_as,
        wire.pkt_len_for_mac(packet.payload_len, packet.hdr_len),
        hop.res_start_offset, packet.path.meta.millis_timestamp,
        packet.path.meta.counter, tag_len,
    )
    hop_mac = crypto.aggregate_mac(hop.mac, true_tag)  # unmask the plain MAC
    cfg = RouterConfig(sv, fk, TokenBucketArray(64), clock=lambda: now_ns, tag_len=tag_len)
    return cfg, packet, hop_mac, true_tag


def _forge(packet, hop_mac, guess: bytes):
    hop = replace(packet.path.hops[0], mac=crypto.aggregate_mac(hop_mac, guess))
    return replace(packet, path=replace(packet.path, hops=(hop,)))


def test_08_random_tag_acceptance_matches_tag_width():
    """An adversary who knows the plain hop MAC but guesses the tag is
    accepted with probability 2^-8 for 1-byte tags (checked within 3
    sigma over 10^6 trials: 3906 +/- 187) and never in 10^7 trials for
    6-byte tags.  The counting reduction (guess == true tag) is first
    validated against the full router pipeline on 2000 live packets."""
    cfg, packet, hop_mac, true_tag = _forgery_setup(tag_len=1)
    rng = Random(818181)
    pipeline_hits = reduction_hits = 0
    for _ in range(2000):
        guess = bytes([rng.randrange(256)])
        decision, _ = process_packet(cfg, _forge(packet, hop_mac, guess))
        hit = guess == true_tag
        reduction_hits += hit
        pipeline_hits += decision.verdict is Verdict.PRIORITY
        assert (decision.verdict is Verdict.PRIORITY) == hit
    assert pipeline_hits == reduction_hits

    target = true_tag[0]
    count = sum(rng.randrange(256) == target for _ in range(1_000_000))
    mean = 1_000_000 / 256
    sigma = (1_000_000 * (1 / 256) * (255 / 256)) ** 0.5
    assert abs(count - mean) <= 3 * sigma, (count, mean, 3 * sigma)

    cfg, packet, hop_mac, true_tag = _forgery_setup(tag_len=6)
    decision, _ = process_packet(cfg, _forge(packet, hop_mac, true_tag))
    assert decision.verdict is Verdict.PRIORITY  # the accept path exists
    for _ in range(200):
        guess = rng.randbytes(6)
        decision, _ = process_packet(cfg, _forge(packet, hop_mac, guess))
        assert (decision.verdict is Verdict.PRIORITY) == (guess == true_tag)

    target = int.from_bytes(true_tag, "big")
    count = sum(rng.getrandbits(48) == target for _ in range(10_000_000))
    assert count == 0


# ---------------------------------------------------------------------------
# 9-11. attack and defense scenarios


def test_09_reserved_goodput_survives_flooding_and_silence_frees_capacity():
    """Under a 10x best-effort flood the reserved flow keeps over 99%
    of its packets at priority with zero drops; an idle reservation
    leaves best effort the full link capacity."""
    report = _run_bundled("qos_flood")
    victim = report["flows"]["victim"]
    assert victim["priority_fraction"] >= 0.99
    assert victim["delivered_fraction"] >= 0.99
    assert victim["dropped_packets"] == 0

    report = _run_bundled("silent_reservation")
    assert report["flows"]["idle"]["offered_packets"] == 0
    bulk = report["flows"]["bulk"]
    assert bulk["delivered_fraction"] >= 0.99
    assert bulk["dropped_packets"] == 0


def test_10_replayed_tags_demote_shared_but_not_separate_reservations():
    """An AS that observes a reservation's tags on another path can
    replay them and demote at least 45% of the victim's traffic while
    the reservation is shared; giving the victim path its own
    reservation restores at least 99% priority delivery."""
    report = _run_bundled("replay_shared")
    shared = report["flows"]["victim"]["priority_fraction"]
    assert shared <= 0.55, shared

    report = _run_bundled("replay_separate")
    separate = report["flows"]["victim"]["priority_fraction"]
    assert separate >= 0.99, separate
    assert report["flows"]["victim"]["delivered_fraction"] >= 0.99


def test_11_buying_out_a_hop_costs_the_sum_of_listed_prices():
    """Hoarding every listing of one AS costs exactly the sum of the
    listed prices (unit price x bandwidth x window seconds per asset),
    recomputed here from the scenario topology alone."""
    scenario = sim.load_scenario("starvation")
    market = scenario["market"]
    target = scenario["buyouts"][0]["as"]
    capacities = [int(scenario.get("host_capacity_mbps", 10_000) * 1_000_000)]
    for link in scenario["topology"]["links"]:
        if target in (link["from"], link["to"]):
            capacities.append(int(link["capacity_mbps"] * 1_000_000))
    expected = sum(
        2 * market["unit_price"] * bps * market["window_s"] for bps in capacities
    )

    report = sim.Network(scenario, SEED).run()
    assert check_expectations(report, scenario) == []
    assert report["ledger"]["spend"]["hoarder"] == expected
    assert report["ledger"]["open_listings_by_as"][str(target)] == 0


# ---------------------------------------------------------------------------
# 12. throughput report


def test_12_per_stage_throughput_reported():
    """Measures the per-stage cost of handling a 1500-byte packet and
    reports it without asserting a target; the 10^6 packets/s/core
    figure belongs to native implementations, not this reference."""
    rng = Random(121212)
    sv, fk = rng.randbytes(16), rng.randbytes(16)
    res = ReservationInfo(
        ingress=3, egress=7, res_id=5, bw_code=quantize_bw(wire.MAX_BW_VALUE),
        res_start=BASE_S - 10, duration=600,
    )
    a_key = crypto.derive_key(crypto.Prf(sv), res)
    now_ns = BASE_S * NS_PER_S + 123_456_789
    plan = _chained_plan([(fk, 3, 7)], BASE_S, [(res, a_key)])
    payload = 1500 - (12 + META_LEN + INFO_LEN + FLYOVER_HOP_LEN)
    packet = source.build_packet(plan, payload, lambda: now_ns, source.CounterState())
    assert packet.wire_length == 1500
    raw = encode_packet(packet)

    n = 2000
    timings = {}

    start = time.perf_counter_ns()
    for _ in range(n):
        encode_packet(packet)
    timings["encode"] = (time.perf_counter_ns() - start) // n

    start = time.perf_counter_ns()
    for _ in range(n):
        decode_packet(raw)
    timings["decode"] = (time.perf_counter_ns() - start) // n

    cfg = RouterConfig(sv, fk, TokenBucketArray(64), clock=lambda: now_ns)
    start = time.perf_counter_ns()
    for _ in range(n):
        process_packet(cfg, packet)
    timings["verify+forward"] = (time.perf_counter_ns() - start) // n

    bucket = TokenBucketArray(64)
    start = time.perf_counter_ns()
    for _ in range(n):
        monitor_code(bucket, 5, res.bw_code, 1500, now_ns)
    timings["policer update"] = (time.perf_counter_ns() - start) // n

    per_packet = timings["decode"] + timings["verify+forward"]
    rate = NS_PER_S // per_packet
    breakdown = ", ".join(f"{k} {v} ns" for k, v in timings.items())
    warnings.warn(
        f"throughput (reported, not asserted): {breakdown}; "
        f"decode+verify {rate} packets/s/core on this interpreter"
    )
    assert all(v > 0 for v in timings.values())
