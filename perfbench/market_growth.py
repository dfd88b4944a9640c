"""market_growth: the control plane alone, on a ledger that grows all round.

Set-up registers 12 ASes, lists ingress and egress bandwidth for six
interfaces of each, and funds eight buyers.  An op is one marketplace
transaction; a round's ops come in fixed proportions, shuffled by seed:

- path reservation (55%, 1 to 4 hops in equal shares): one
  `execute_atomic` block that buys ingress and egress for every hop and
  redeems them, then `deliver_reservation` and `unseal_credentials` for
  each hop;
- resale (15%): a partial buy that is kept, a time or bandwidth split,
  a listing of one part at a mark-up, and a split and fuse of the other;
- read (20%): `open_listings`, `reserved_area` or `state_hash`;
- refused block (10%): a block the ledger must refuse.  It counts as
  done when the ledger raises and `state_hash()` is unchanged.

Every purchase fragments a listing, so by the end of a round the ledger
holds thousands of assets, listings and requests, and the late ops run
on a large ledger.  Choosing listings, snapshots and checks run between
ops and are not timed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from random import Random

from hummingbird import ledger as hb_ledger
from hummingbird.ledger import (
    ASControlService,
    AsIdentity,
    Call,
    Direction,
    Ledger,
    LedgerError,
    PkiRoot,
    Result,
    sealing_keypair,
)

from forward_mix import aes_ecb, bw_code, resinfo_block
from harness import RoundResult

T0 = 1_700_000_000
GRANULE_S = 300
GRANULES = 72  # listed window: six hours
AS_COUNT = 12
IFACES = (1, 2, 3, 4, 5, 6)
CAPACITY_BPS = 10_000_000_000
MIN_BPS = 1_000_000
BUYERS = 8
FUNDS = 10**18
RESALE_MARKUP = 2
OPS = 100
MIX = (("path", 0.55), ("resale", 0.15), ("read", 0.20), ("refused", 0.10))
READS = ("open_listings", "reserved_area", "state_hash")
REFUSALS = ("over_bandwidth", "wrong_direction", "unfunded")

Key = tuple[int, int, Direction]  # (AS, interface, direction)


@dataclass
class Offer:
    listing_id: int
    key: Key
    start: int
    end: int
    bandwidth: int
    unit_price: int
    seller: str


@dataclass
class State:
    rng: Random
    ledger: Ledger
    services: dict[int, ASControlService]
    svs: dict[int, bytes]
    prices: dict[int, int]
    genesis: dict[str, int]
    ops: list[tuple[str, int]]
    offers: dict[Key, dict[int, Offer]] = field(default_factory=dict)
    seen_listing: int = 0
    area: dict[Key, int] = field(default_factory=dict)
    outputs: list = field(default_factory=list)


def setup(seed: int, tracer=None, ops: int = OPS) -> State:
    rng = Random(f"{seed}:market_growth")
    root = PkiRoot(Random(f"{seed}:market_growth:pki"))
    genesis = {f"as{a}-ops": 0 for a in range(1, AS_COUNT + 1)}
    genesis.update({f"buyer{b}": FUNDS for b in range(BUYERS)})
    genesis["pauper"] = 1
    ledger = Ledger(root.public_key, genesis)
    services, svs, prices, area = {}, {}, {}, {}
    for as_id in range(1, AS_COUNT + 1):
        account = f"as{as_id}-ops"
        ident = AsIdentity(as_id, rng)
        token = ledger.register_as(account, root.issue_cert(as_id, ident.public_key), ident.proof_of_key(account))
        ledger.register_seller(account)
        svs[as_id] = rng.randbytes(16)
        services[as_id] = ASControlService(as_id, svs[as_id], Random(f"{seed}:market_growth:as{as_id}"))
        prices[as_id] = rng.randint(1, 5)
        for iface in IFACES:
            for direction in Direction:
                asset = ledger.issue(
                    account, token, bandwidth=CAPACITY_BPS, start_time=T0,
                    expiration_time=T0 + GRANULES * GRANULE_S, interface=iface,
                    direction=direction, time_granularity=GRANULE_S, min_bandwidth=MIN_BPS,
                )
                ledger.create_listing(account, asset, prices[as_id])
                area[(as_id, iface, direction)] = asset.area
    for b in range(BUYERS):
        ledger.register_seller(f"buyer{b}")

    kinds = []
    for kind, share in MIX:
        kinds += [(kind, i) for i in range(round(share * ops))]
    rng.shuffle(kinds)
    state = State(rng=rng, ledger=ledger, services=services, svs=svs, prices=prices,
                  genesis=genesis, ops=kinds, area=area)
    _refresh_offers(state)
    return state


# -- bookkeeping between ops (untimed) ---------------------------------------------


def _refresh_offers(state: State) -> None:
    """Add listings created since the last call; they have the highest ids."""
    newest = []
    for listing in reversed(state.ledger.open_listings()):
        if listing.listing_id <= state.seen_listing:
            break
        newest.append(listing)
    for listing in newest:
        asset = state.ledger.asset(listing.asset_id)
        key = (asset.as_id, asset.interface, asset.direction)
        state.offers.setdefault(key, {})[listing.listing_id] = Offer(
            listing.listing_id, key, asset.start_time, asset.expiration_time,
            asset.bandwidth, listing.unit_price, listing.seller,
        )
        state.seen_listing = max(state.seen_listing, listing.listing_id)


def _find(state: State, key: Key, start: int, end: int, bandwidth: int) -> Offer | None:
    for offer in state.offers.get(key, {}).values():
        rest = offer.bandwidth - bandwidth
        if offer.start <= start and end <= offer.end and (rest == 0 or rest >= MIN_BPS):
            return offer
    return None


def _window(rng: Random, min_granules: int = 1) -> tuple[int, int]:
    d = rng.randint(min_granules, 8)
    g = rng.randint(0, GRANULES - d)
    return T0 + g * GRANULE_S, T0 + (g + d) * GRANULE_S


def _path_offers(state: State, hops: int):
    """(AS, ingress, egress, ingress offer, egress offer) per hop, for one window."""
    rng = state.rng
    while True:
        start, end = _window(rng)
        bw = rng.randint(1, 20) * MIN_BPS
        plan = []
        for as_id in rng.sample(range(1, AS_COUNT + 1), hops):
            ingress, egress = rng.sample(IFACES, 2)
            o_in = _find(state, (as_id, ingress, Direction.INGRESS), start, end, bw)
            o_eg = _find(state, (as_id, egress, Direction.EGRESS), start, end, bw)
            if o_in is None or o_eg is None:
                break
            plan.append((as_id, ingress, egress, o_in, o_eg))
        else:
            return start, end, bw, plan


def _buy(buyer: str, offer: Offer, start: int, end: int, bw: int) -> Call:
    return Call("buy", (buyer, offer.listing_id), dict(start_time=start, expiration_time=end, bandwidth=bw))


def _expected_payments(buyer: str, buys) -> dict[str, int]:
    """Balance change per account: unit price x bandwidth x time, per buy."""
    delta: dict[str, int] = {}
    for offer, start, end, bw in buys:
        price = offer.unit_price * bw * (end - start)
        delta[buyer] = delta.get(buyer, 0) - price
        delta[offer.seller] = delta.get(offer.seller, 0) + price
    return delta


def _listed_price(state: State, offer: Offer) -> int:
    """What the benchmark itself listed that AS's bandwidth at, for this seller."""
    price = state.prices[offer.key[0]]
    return price if offer.seller.startswith("as") else price * RESALE_MARKUP


# -- ops ---------------------------------------------------------------------------


def _prepare(state: State, kind: str, index: int) -> dict:
    rng = state.rng
    buyer = f"buyer{index % BUYERS}"
    if kind == "path" or kind == "refused":
        hops = 1 + index % 4 if kind == "path" else 2
        start, end, bw, plan = _path_offers(state, hops)
        priv, pub = sealing_keypair(rng)
        calls, buys = [], []
        refusal = REFUSALS[index % len(REFUSALS)] if kind == "refused" else None
        if refusal == "unfunded":
            buyer = "pauper"
        for h, (as_id, ingress, egress, o_in, o_eg) in enumerate(plan):
            base = len(calls)
            last = h == len(plan) - 1
            eg_bw = o_eg.bandwidth + MIN_BPS if last and refusal == "over_bandwidth" else bw
            calls.append(_buy(buyer, o_in, start, end, bw))
            calls.append(_buy(buyer, o_eg, start, end, eg_bw))
            pair = (Result(base + 1), Result(base)) if last and refusal == "wrong_direction" else (Result(base), Result(base + 1))
            calls.append(Call("redeem", (buyer, *pair, pub)))
            buys += [(o_in, start, end, bw), (o_eg, start, end, bw)]
        return dict(kind=kind, buyer=buyer, calls=calls, plan=plan, priv=priv,
                    window=(start, end, bw), buys=buys, refusal=refusal)
    if kind == "resale":
        while True:
            start, end = _window(rng, 3)
            bw = rng.randint(3, 20) * MIN_BPS
            key = (rng.randint(1, AS_COUNT), rng.choice(IFACES), rng.choice(list(Direction)))
            offer = _find(state, key, start, end, bw)
            if offer is not None:
                break
        split = "time" if index % 2 == 0 else "bandwidth"
        return dict(kind=kind, buyer=buyer, offer=offer, window=(start, end, bw), split=split,
                    buys=[(offer, start, end, bw)])
    read = READS[index % len(READS)]
    key = (rng.randint(1, AS_COUNT), rng.choice(IFACES), rng.choice(list(Direction)))
    return dict(kind=kind, read=read, key=key, buys=[], area=state.area[key])


def _timed(state: State, op: dict):
    """The op itself; everything here is the program's work."""
    led = state.ledger
    kind = op["kind"]
    if kind == "path":
        results = led.execute_atomic(op["calls"])
        creds = []
        for h, (as_id, *_rest) in enumerate(op["plan"]):
            blob = led.deliver_reservation(state.services[as_id], results[3 * h + 2])
            creds.append(hb_ledger.unseal_credentials(op["priv"], blob))
        return creds
    if kind == "refused":
        try:
            led.execute_atomic(op["calls"])
        except LedgerError as exc:
            return exc
        return None
    if kind == "resale":
        buyer, price = op["buyer"], op["offer"].unit_price
        start, end, bw = op["window"]
        asset = led.buy(buyer, op["offer"].listing_id, start_time=start, expiration_time=end, bandwidth=bw)
        if op["split"] == "time":
            first, rest = led.split_time(buyer, asset, start + GRANULE_S)
            led.create_listing(buyer, first, price * RESALE_MARKUP)
            a, b = led.split_time(buyer, rest, start + 2 * GRANULE_S)
            return led.fuse_time(buyer, a, b)
        rest, part = led.split_bandwidth(buyer, asset, 2 * MIN_BPS)
        led.create_listing(buyer, rest, price * RESALE_MARKUP)
        a, b = led.split_bandwidth(buyer, part, MIN_BPS)
        return led.fuse_bandwidth(buyer, a, b)
    if op["read"] == "open_listings":
        return led.open_listings()
    if op["read"] == "reserved_area":
        return led.reserved_area(*op["key"])
    return led.state_hash()


def run(state: State, tracer=None) -> RoundResult:
    op_ns, errors, failed = [], [], 0
    led = state.ledger
    accounts = sorted(state.genesis)
    clock_ns = time.perf_counter_ns

    def untraced():
        return tracer.paused() if tracer is not None else nullcontext()

    for index, (kind, k) in enumerate(state.ops):
        with untraced():
            op = _prepare(state, kind, k)
            before = {a: led.balance(a) for a in accounts}
            hash_before = led.state_hash() if kind == "refused" else None
        if tracer is not None:
            tracer.op = index
            token = tracer.open("market.op")
        start = clock_ns()
        try:
            out = _timed(state, op)
        except Exception as exc:  # a transaction that should succeed and did not
            out = exc
        op_ns.append(clock_ns() - start)
        if tracer is not None:
            tracer.close(token, "market.op")
        with untraced():
            if isinstance(out, Exception) and kind != "refused":
                failed += 1
                errors.append(f"op {index} ({kind}) raised {out!r}")
                continue
            after = {a: led.balance(a) for a in accounts}
            hash_after = led.state_hash() if kind == "refused" else None
            state.outputs.append((op, out, before, after, hash_before, hash_after))
            _account(state, op)
            _refresh_offers(state)
    errors += check(state)
    return RoundResult(op_ns=op_ns, failed=failed, errors=errors[:20])


def _account(state: State, op: dict) -> None:
    """Apply a successful op to the benchmark's own tallies and offer index."""
    if op["kind"] in ("path", "resale"):
        for offer, *_ in op["buys"]:
            state.offers[offer.key].pop(offer.listing_id, None)
    if op["kind"] == "path":
        start, end, bw = op["window"]
        for as_id, ingress, egress, _, _ in op["plan"]:
            state.area[(as_id, ingress, Direction.INGRESS)] -= bw * (end - start)
            state.area[(as_id, egress, Direction.EGRESS)] -= bw * (end - start)


# -- output checks -------------------------------------------------------------------


def check(state: State) -> list[str]:
    errors = []
    grants: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for index, (op, out, before, after, hash_before, hash_after) in enumerate(state.outputs):
        kind = op["kind"]
        delta = {a: after[a] - before[a] for a in before if after[a] != before[a]}
        if kind == "refused":
            if not isinstance(out, LedgerError):
                errors.append(f"op {index}: block ({op['refusal']}) was not refused")
            if hash_after != hash_before:
                errors.append(f"op {index}: state hash changed after a refused block")
            if delta:
                errors.append(f"op {index}: balances changed after a refused block: {delta}")
            continue
        for offer, *_ in op["buys"]:
            if offer.unit_price != _listed_price(state, offer):
                errors.append(f"op {index}: listing {offer.listing_id} priced {offer.unit_price}")
        payments = _expected_payments(op["buyer"], op["buys"]) if op["buys"] else {}
        expected = {a: d for a, d in payments.items() if d}
        if delta != expected:
            errors.append(f"op {index} ({kind}): balance changes {delta}, expected {expected}")
        if kind == "path":
            start, end, bw = op["window"]
            for (as_id, ingress, egress, _, _), (res, key) in zip(op["plan"], out):
                fields = (res.ingress, res.egress, res.bw_code, res.res_start, res.duration)
                if fields != (ingress, egress, bw_code(bw), start, end - start):
                    errors.append(f"op {index}: AS {as_id} credential covers {fields}")
                block = resinfo_block(res.ingress, res.egress, res.res_id, res.bw_code, res.res_start, res.duration)
                if key != aes_ecb(state.svs[as_id]).update(block):
                    errors.append(f"op {index}: AS {as_id} key is not AES(SV, reservation)")
                grants.setdefault((as_id, ingress), []).append((res.res_id, start, end))
        if kind == "read" and op["read"] == "reserved_area" and out != op["area"]:
            errors.append(f"op {index}: reserved_area {out}, tally {op['area']}")
    errors += _check_res_ids(grants)
    supply = sum(state.ledger.balance(a) for a in state.genesis)
    if supply != sum(state.genesis.values()):
        errors.append(f"total supply {supply}, genesis {sum(state.genesis.values())}")
    for key, area in state.area.items():
        got = state.ledger.reserved_area(*key)
        if got != area:
            errors.append(f"bandwidth x time at {key}: ledger {got}, tally {area}")
    return errors


def _check_res_ids(grants) -> list[str]:
    """Reservations overlapping in time on one ingress never share a ResID."""
    errors = []
    for (as_id, ingress), items in grants.items():
        by_id: dict[int, list[tuple[int, int]]] = {}
        for res_id, start, end in items:
            by_id.setdefault(res_id, []).append((start, end))
        for res_id, spans in by_id.items():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                if s2 < e1:
                    errors.append(f"AS {as_id} ingress {ingress}: ResID {res_id} on overlapping [{s1},{e1}) and [{s2},{e2})")
    return errors
