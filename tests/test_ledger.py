import dataclasses
import functools
import hashlib
import json
from itertools import combinations
from operator import attrgetter
from random import Random
from types import SimpleNamespace

import pytest
from cryptography.exceptions import InvalidTag

from hummingbird import crypto
from hummingbird import ledger as ledger_mod
from hummingbird.ledger import (
    ASControlService,
    AsIdentity,
    AuthToken,
    BandwidthAsset,
    Call,
    Direction,
    LedgerError,
    Listing,
    MARKET_ACCOUNT,
    PkiRoot,
    RedeemRequest,
    Result,
    sealing_keypair,
    unseal_credentials,
)
from hummingbird.residalloc import MAX_IDS
from hummingbird.wire import quantize_bw

from alloc_oracle import active_intervals
from readers import Ledger

AS_ID = 7
SV = bytes(range(16))
# Low-order X25519 points: no credentials can be sealed to them.
LOW_ORDER_KEYS = (bytes(32), b"\x01" + bytes(31))

# Marketplace example window: one hour at 10-minute granularity.
H9 = 9 * 3600
H10 = 10 * 3600
MIN10 = 600
MBPS = 1_000_000


def fresh_ledger():
    rng = Random(2024)
    root = PkiRoot(rng)
    led = Ledger(
        root.public_key,
        genesis={"asops": 10**15, "alice": 10**15, "bob": 10**15},
    )
    ident = AsIdentity(AS_ID, rng)
    cert = root.issue_cert(AS_ID, ident.public_key)
    token = led.register_as("asops", cert, ident.proof_of_key("asops"))
    return led, token, root, rng


HOUR = dict(
    bandwidth=100 * MBPS,
    start_time=H9,
    expiration_time=H10,
    interface=1,
    direction=Direction.INGRESS,
    time_granularity=MIN10,
    min_bandwidth=5 * MBPS,
)


def hour_asset(led, token, **overrides):
    return led.issue("asops", token, **dict(HOUR, **overrides))


class TestRegistration:
    def test_valid_cert_yields_token(self):
        led, token, _, _ = fresh_ledger()
        assert token.as_id == AS_ID
        assert token.account == "asops"

    def test_forged_proof_rejected(self):
        led, _, root, rng = fresh_ledger()
        ident = AsIdentity(8, rng)
        cert = root.issue_cert(8, ident.public_key)
        impostor = AsIdentity(8, rng)  # different key, same claim
        before = led.state_hash()
        with pytest.raises(LedgerError, match="proof of key"):
            led.register_as("alice", cert, impostor.proof_of_key("alice"))
        assert led.state_hash() == before

    def test_cert_from_unknown_root_rejected(self):
        led, _, _, rng = fresh_ledger()
        other_root = PkiRoot(Random(999))
        ident = AsIdentity(8, rng)
        cert = other_root.issue_cert(8, ident.public_key)
        with pytest.raises(LedgerError, match="certificate"):
            led.register_as("alice", cert, ident.proof_of_key("alice"))

    def test_proof_bound_to_account(self):
        led, _, root, rng = fresh_ledger()
        ident = AsIdentity(8, rng)
        cert = root.issue_cert(8, ident.public_key)
        with pytest.raises(LedgerError, match="proof of key"):
            led.register_as("bob", cert, ident.proof_of_key("alice"))


class TestIssue:
    def test_valid_issue(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        assert asset.owner == "asops"
        assert asset.as_id == AS_ID
        assert asset.duration == 3600
        assert led.asset(asset.asset_id) == asset

    def test_granularity_violation_rejected(self):
        led, token, _, _ = fresh_ledger()
        with pytest.raises(LedgerError, match="granularity"):
            hour_asset(led, token, expiration_time=H10 + 17)

    def test_below_minimum_rejected(self):
        led, token, _, _ = fresh_ledger()
        with pytest.raises(LedgerError, match="below minimum"):
            hour_asset(led, token, bandwidth=4 * MBPS)

    def test_backwards_window_rejected(self):
        led, token, _, _ = fresh_ledger()
        with pytest.raises(LedgerError, match="precede"):
            hour_asset(led, token, start_time=H10, expiration_time=H9)

    def test_foreign_token_rejected(self):
        led, token, _, _ = fresh_ledger()
        before = led.state_hash()
        with pytest.raises(LedgerError, match="belongs to"):
            led.issue(
                "alice",
                token,
                bandwidth=100 * MBPS,
                start_time=H9,
                expiration_time=H10,
                interface=1,
                direction=Direction.INGRESS,
                time_granularity=MIN10,
                min_bandwidth=5 * MBPS,
            )
        assert led.state_hash() == before

    def test_unknown_token_rejected(self):
        led, _, _, _ = fresh_ledger()
        with pytest.raises(LedgerError, match="no such token"):
            led.issue(
                "asops",
                424242,
                bandwidth=100 * MBPS,
                start_time=H9,
                expiration_time=H10,
                interface=1,
                direction=Direction.INGRESS,
                time_granularity=MIN10,
                min_bandwidth=5 * MBPS,
            )


class TestSplitTime:
    def test_cut_on_granularity(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        first, second = led.split_time("asops", asset, H9 + MIN10)
        assert (first.start_time, first.expiration_time) == (H9, H9 + MIN10)
        assert (second.start_time, second.expiration_time) == (H9 + MIN10, H10)
        assert first.bandwidth == second.bandwidth == asset.bandwidth
        with pytest.raises(LedgerError, match="no such asset"):
            led.asset(asset.asset_id)

    def test_cut_off_granularity_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        before = led.state_hash()
        with pytest.raises(LedgerError, match="not aligned"):
            led.split_time("asops", asset, H9 + 25 * 60)
        assert led.state_hash() == before
        assert led.asset(asset.asset_id) == asset

    def test_cut_at_boundary_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        for cut in (H9, H10):
            with pytest.raises(LedgerError, match="outside"):
                led.split_time("asops", asset, cut)

    def test_non_owner_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        with pytest.raises(LedgerError, match="owned by"):
            led.split_time("alice", asset, H9 + MIN10)


class TestSplitBandwidth:
    def test_part_above_minimum(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        rest, part = led.split_bandwidth("asops", asset, 7 * MBPS)
        assert rest.bandwidth == 93 * MBPS
        assert part.bandwidth == 7 * MBPS
        assert rest.area + part.area == asset.area

    def test_part_below_minimum_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        with pytest.raises(LedgerError, match="minimum"):
            led.split_bandwidth("asops", asset, 3 * MBPS)

    def test_rest_below_minimum_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        with pytest.raises(LedgerError, match="minimum"):
            led.split_bandwidth("asops", asset, 97 * MBPS)

    def test_whole_bandwidth_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        with pytest.raises(LedgerError, match="positive"):
            led.split_bandwidth("asops", asset, asset.bandwidth)


class TestFuse:
    def test_time_split_then_fuse_restores(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        first, second = led.split_time("asops", asset, H9 + 3 * MIN10)
        fused = led.fuse_time("asops", first, second)
        assert (fused.start_time, fused.expiration_time) == (H9, H10)
        assert fused.bandwidth == asset.bandwidth
        assert fused.area == asset.area

    def test_bandwidth_split_then_fuse_restores(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        rest, part = led.split_bandwidth("asops", asset, 40 * MBPS)
        fused = led.fuse_bandwidth("asops", rest, part)
        assert fused.bandwidth == asset.bandwidth
        assert (fused.start_time, fused.expiration_time) == (H9, H10)

    def test_fuse_with_itself_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        before = led.state_hash()
        for fuse in (led.fuse_time, led.fuse_bandwidth):
            with pytest.raises(LedgerError, match="two distinct assets"):
                fuse("asops", asset, asset)
        assert led.state_hash() == before
        assert led.asset(asset.asset_id) == asset

    def test_gap_rejected(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        a, bc = led.split_time("asops", asset, H9 + MIN10)
        b, c = led.split_time("asops", bc, H9 + 2 * MIN10)
        with pytest.raises(LedgerError, match="adjacent"):
            led.fuse_time("asops", a, c)

    def test_mismatched_interface_rejected(self):
        led, token, _, _ = fresh_ledger()
        a = hour_asset(led, token, interface=1)
        b = hour_asset(led, token, interface=2, start_time=H10, expiration_time=H10 + 3600)
        with pytest.raises(LedgerError, match="interface differs"):
            led.fuse_time("asops", a, b)

    def test_mismatched_bandwidth_rejected_for_time_fuse(self):
        led, token, _, _ = fresh_ledger()
        a = hour_asset(led, token)
        b = hour_asset(led, token, bandwidth=50 * MBPS, start_time=H10,
                       expiration_time=H10 + 3600)
        with pytest.raises(LedgerError, match="bandwidth differs"):
            led.fuse_time("asops", a, b)

    def test_mismatched_span_rejected_for_bandwidth_fuse(self):
        led, token, _, _ = fresh_ledger()
        a = hour_asset(led, token)
        b = hour_asset(led, token, start_time=H10, expiration_time=H10 + 3600)
        with pytest.raises(LedgerError, match="spans differ"):
            led.fuse_bandwidth("asops", a, b)

    def test_area_conserved_over_random_sequence(self):
        led, token, _, rng = fresh_ledger()
        hour_asset(led, token, bandwidth=960 * MBPS, min_bandwidth=MBPS,
                   time_granularity=60)
        area = led.reserved_area(AS_ID, 1, Direction.INGRESS)
        for _ in range(300):
            assets = [a for a in led.assets_owned_by("asops")]
            asset = rng.choice(assets)
            op = rng.randrange(4)
            try:
                if op == 0:
                    cuts = list(range(asset.start_time + 60, asset.expiration_time, 60))
                    if cuts:
                        led.split_time("asops", asset, rng.choice(cuts))
                elif op == 1:
                    if asset.bandwidth > MBPS:
                        led.split_bandwidth(
                            "asops", asset, rng.randrange(MBPS, asset.bandwidth, MBPS)
                        )
                elif op == 2:
                    partner = next(
                        (
                            b
                            for b in assets
                            if b.start_time == asset.expiration_time
                            and b.bandwidth == asset.bandwidth
                        ),
                        None,
                    )
                    if partner:
                        led.fuse_time("asops", asset, partner)
                else:
                    partner = next(
                        (
                            b
                            for b in assets
                            if b.asset_id != asset.asset_id
                            and (b.start_time, b.expiration_time)
                            == (asset.start_time, asset.expiration_time)
                        ),
                        None,
                    )
                    if partner:
                        led.fuse_bandwidth("asops", asset, partner)
            except LedgerError:
                pass  # rejected ops must not change the area either
            assert led.reserved_area(AS_ID, 1, Direction.INGRESS) == area


def listed_hour(led, token, unit_price=3):
    asset = hour_asset(led, token)
    led.register_seller("asops")
    listing = led.create_listing("asops", asset, unit_price)
    return asset, listing


class TestMarket:
    def test_listing_requires_seller_registration(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        with pytest.raises(LedgerError, match="not a registered seller"):
            led.create_listing("asops", asset, 1)

    def test_double_registration_rejected(self):
        led, _, _, _ = fresh_ledger()
        led.register_seller("asops")
        with pytest.raises(LedgerError, match="already"):
            led.register_seller("asops")

    def test_listing_escrows_asset(self):
        led, token, _, _ = fresh_ledger()
        asset, _ = listed_hour(led, token)
        assert led.asset(asset.asset_id).owner == MARKET_ACCOUNT
        with pytest.raises(LedgerError, match="owned by"):
            led.split_time("asops", asset, H9 + MIN10)

    def test_buy_entire_listing(self):
        led, token, _, _ = fresh_ledger()
        asset, listing = listed_hour(led, token, unit_price=3)
        seller_before = led.balance("asops")
        buyer_before = led.balance("alice")
        bought = led.buy(
            "alice",
            listing,
            start_time=H9,
            expiration_time=H10,
            bandwidth=asset.bandwidth,
        )
        price = 3 * asset.bandwidth * 3600
        assert bought.asset_id == asset.asset_id  # untouched, just transferred
        assert bought.owner == "alice"
        assert led.open_listings() == ()
        assert led.balance("alice") == buyer_before - price
        assert led.balance("asops") == seller_before + price

    def test_buy_middle_leaves_three_remainders(self):
        led, token, _, _ = fresh_ledger()
        asset, listing = listed_hour(led, token)
        bought = led.buy(
            "alice",
            listing,
            start_time=H9 + MIN10,
            expiration_time=H9 + 3 * MIN10,
            bandwidth=40 * MBPS,
        )
        assert (bought.start_time, bought.expiration_time) == (H9 + MIN10, H9 + 3 * MIN10)
        assert bought.bandwidth == 40 * MBPS
        remainders = led.open_listings()
        assert len(remainders) == 3
        assert all(l.unit_price == listing.unit_price for l in remainders)
        assert all(l.seller == "asops" for l in remainders)
        leftover = [led.asset(l.asset_id) for l in remainders]
        assert bought.area + sum(a.area for a in leftover) == asset.area

    def test_buy_suffix_leaves_one_remainder(self):
        led, token, _, _ = fresh_ledger()
        asset, listing = listed_hour(led, token)
        led.buy(
            "alice",
            listing,
            start_time=H9 + 5 * MIN10,
            expiration_time=H10,
            bandwidth=asset.bandwidth,
        )
        assert len(led.open_listings()) == 1

    def test_misaligned_want_rejected(self):
        led, token, _, _ = fresh_ledger()
        _, listing = listed_hour(led, token)
        before = led.state_hash()
        with pytest.raises(LedgerError, match="not aligned"):
            led.buy(
                "alice",
                listing,
                start_time=H9 + 25 * 60,
                expiration_time=H10,
                bandwidth=10 * MBPS,
            )
        assert led.state_hash() == before

    def test_window_outside_listing_rejected(self):
        led, token, _, _ = fresh_ledger()
        _, listing = listed_hour(led, token)
        with pytest.raises(LedgerError, match="outside"):
            led.buy(
                "alice",
                listing,
                start_time=H9 - MIN10,
                expiration_time=H10,
                bandwidth=10 * MBPS,
            )

    def test_bandwidth_below_minimum_rejected(self):
        led, token, _, _ = fresh_ledger()
        _, listing = listed_hour(led, token)
        with pytest.raises(LedgerError, match="below minimum"):
            led.buy(
                "alice", listing, start_time=H9, expiration_time=H10, bandwidth=MBPS
            )

    def test_stranding_remainder_rejected(self):
        led, token, _, _ = fresh_ledger()
        _, listing = listed_hour(led, token)
        with pytest.raises(LedgerError, match="strand"):
            led.buy(
                "alice",
                listing,
                start_time=H9,
                expiration_time=H10,
                bandwidth=97 * MBPS,
            )

    def test_insufficient_funds_rejected(self):
        led, token, _, _ = fresh_ledger()
        _, listing = listed_hour(led, token, unit_price=10**9)
        before = led.state_hash()
        with pytest.raises(LedgerError, match="needs"):
            led.buy(
                "alice",
                listing,
                start_time=H9,
                expiration_time=H10,
                bandwidth=100 * MBPS,
            )
        assert led.state_hash() == before

    def test_sequential_race_second_buyer_loses(self):
        led, token, _, _ = fresh_ledger()
        asset, listing = listed_hour(led, token)
        want = dict(start_time=H9, expiration_time=H10, bandwidth=asset.bandwidth)
        led.buy("alice", listing, **want)
        with pytest.raises(LedgerError, match="no such listing"):
            led.buy("bob", listing, **want)

    def test_buyer_can_resell(self):
        led, token, _, _ = fresh_ledger()
        asset, listing = listed_hour(led, token)
        bought = led.buy(
            "alice",
            listing,
            start_time=H9,
            expiration_time=H10,
            bandwidth=asset.bandwidth,
        )
        led.register_seller("alice")
        relisting = led.create_listing("alice", bought, 5)
        assert relisting.seller == "alice"


def redeemable_pair(led, token, **overrides):
    common = dict(
        bandwidth=50 * MBPS,
        start_time=H9,
        expiration_time=H10,
        time_granularity=MIN10,
        min_bandwidth=5 * MBPS,
    )
    common.update(overrides)
    ingress = led.issue(
        "asops", token, interface=1, direction=Direction.INGRESS, **common
    )
    egress = led.issue(
        "asops", token, interface=2, direction=Direction.EGRESS, **common
    )
    return ingress, egress


class TestRedeem:
    def test_matched_pair(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        _, pub = sealing_keypair(rng)
        request = led.request(
            led.redeem("asops", ingress, egress, pub).request_id
        )
        assert request.as_id == AS_ID
        assert (request.ingress_interface, request.egress_interface) == (1, 2)
        assert request.bandwidth == 50 * MBPS
        assert (request.start_time, request.expiration_time) == (H9, H10)
        assert not request.delivered
        for gone in (ingress, egress):
            with pytest.raises(LedgerError, match="no such asset"):
                led.asset(gone.asset_id)

    def test_redeemed_assets_cannot_come_back(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        _, pub = sealing_keypair(rng)
        led.redeem("asops", ingress, egress, pub)
        led.register_seller("asops")
        with pytest.raises(LedgerError, match="no such asset"):
            led.create_listing("asops", ingress, 1)
        with pytest.raises(LedgerError, match="no such asset"):
            led.split_time("asops", egress, H9 + MIN10)
        with pytest.raises(LedgerError, match="no such asset"):
            led.redeem("asops", ingress, egress, pub)

    def test_mismatched_bandwidth_rejected(self):
        led, token, _, rng = fresh_ledger()
        ingress, _ = redeemable_pair(led, token)
        other = led.issue(
            "asops",
            token,
            bandwidth=40 * MBPS,
            start_time=H9,
            expiration_time=H10,
            interface=2,
            direction=Direction.EGRESS,
            time_granularity=MIN10,
            min_bandwidth=5 * MBPS,
        )
        _, pub = sealing_keypair(rng)
        with pytest.raises(LedgerError, match="bandwidth differs"):
            led.redeem("asops", ingress, other, pub)

    def test_direction_pair_enforced(self):
        led, token, _, rng = fresh_ledger()
        a = hour_asset(led, token, interface=1)
        b = hour_asset(led, token, interface=2)
        _, pub = sealing_keypair(rng)
        with pytest.raises(LedgerError, match="directions"):
            led.redeem("asops", a, b, pub)

    def test_validity_mismatch_rejected(self):
        led, token, _, rng = fresh_ledger()
        ingress, _ = redeemable_pair(led, token)
        late = led.issue(
            "asops",
            token,
            bandwidth=50 * MBPS,
            start_time=H10,
            expiration_time=H10 + 3600,
            interface=2,
            direction=Direction.EGRESS,
            time_granularity=MIN10,
            min_bandwidth=5 * MBPS,
        )
        _, pub = sealing_keypair(rng)
        with pytest.raises(LedgerError, match="validity"):
            led.redeem("asops", ingress, late, pub)

    def test_oversized_duration_rejected(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(
            led, token, start_time=0, expiration_time=70_000, time_granularity=100
        )
        _, pub = sealing_keypair(rng)
        with pytest.raises(LedgerError, match="16-bit"):
            led.redeem("asops", ingress, egress, pub)

    def test_bad_pubkey_rejected(self):
        led, token, _, _ = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        with pytest.raises(LedgerError, match="32 bytes"):
            led.redeem("asops", ingress, egress, b"short")

    @pytest.mark.parametrize("key", LOW_ORDER_KEYS, ids=("zero", "one"))
    def test_low_order_key_rejected(self, key):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        service = ASControlService(AS_ID, SV, rng)
        before = led.state_hash()
        balances = {a: led.balance(a) for a in ("asops", "alice", "bob")}
        with pytest.raises(LedgerError, match="low-order"):
            request = led.redeem("asops", ingress, egress, key)
            led.deliver_reservation(service, request)
        assert led.state_hash() == before
        assert {a: led.balance(a) for a in balances} == balances
        assert active_intervals(service.allocator, ingress.interface) == []

    @pytest.mark.parametrize("key", LOW_ORDER_KEYS, ids=("zero", "one"))
    def test_low_order_key_fails_whole_block(self, key):
        led, token, _, rng = fresh_ledger()
        led.register_seller("asops")
        ing, eg = redeemable_pair(led, token)
        l_in = led.create_listing("asops", ing, 2)
        l_eg = led.create_listing("asops", eg, 2)
        service = ASControlService(AS_ID, SV, rng)
        want = dict(start_time=H9, expiration_time=H10, bandwidth=50 * MBPS)
        before = led.state_hash()
        balances = {a: led.balance(a) for a in ("asops", "alice", "bob")}
        with pytest.raises(LedgerError, match="low-order"):
            _, _, request = led.execute_atomic(
                [
                    Call("buy", ("alice", l_in), dict(want)),
                    Call("buy", ("alice", l_eg), dict(want)),
                    Call("redeem", ("alice", Result(0), Result(1), key)),
                ]
            )
            led.deliver_reservation(service, request)
        assert led.state_hash() == before
        assert {a: led.balance(a) for a in balances} == balances
        assert active_intervals(service.allocator, ing.interface) == []


class TestDelivery:
    def test_credentials_match_redeemed_assets(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        priv, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        service = ASControlService(AS_ID, SV, rng)
        blob = led.deliver_reservation(service, request)
        res, key = unseal_credentials(priv, blob)
        assert res.ingress == ingress.interface
        assert res.egress == egress.interface
        assert res.bw_code == quantize_bw(50 * MBPS)
        assert res.res_start == H9
        assert res.duration == 3600
        assert key == crypto.derive_key(crypto.Prf(SV), res)
        assert led.request(request.request_id).delivered

    def test_failed_sealing_releases_the_res_id(self, monkeypatch):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        priv, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        service = ASControlService(AS_ID, SV, rng)
        real_seal = ledger_mod.seal_credentials
        calls = []

        def seal_failing_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ValueError("sealing failed")
            return real_seal(*args)

        monkeypatch.setattr(ledger_mod, "seal_credentials", seal_failing_once)
        before = led.state_hash()
        with pytest.raises(ValueError, match="sealing failed"):
            led.deliver_reservation(service, request)
        assert led.state_hash() == before
        assert active_intervals(service.allocator, ingress.interface) == []
        res, _ = unseal_credentials(priv, led.deliver_reservation(service, request))
        assert active_intervals(service.allocator, ingress.interface) == [
            (res.res_id, H9, H10)
        ]
        assert led.request(request.request_id).delivered

    def test_double_delivery_rejected(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        priv, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        service = ASControlService(AS_ID, SV, rng)
        led.deliver_reservation(service, request)
        with pytest.raises(LedgerError, match="already delivered"):
            led.deliver_reservation(service, request)

    def test_wrong_as_rejected(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        _, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        stranger = ASControlService(AS_ID + 1, SV, rng)
        with pytest.raises(LedgerError, match="addressed to"):
            led.deliver_reservation(stranger, request)

    def test_concurrent_reservations_get_distinct_ids(self):
        led, token, _, rng = fresh_ledger()
        service = ASControlService(AS_ID, SV, rng)
        ids = []
        for _ in range(2):
            ingress, egress = redeemable_pair(led, token)
            priv, pub = sealing_keypair(rng)
            request = led.redeem("asops", ingress, egress, pub)
            res, _ = unseal_credentials(priv, led.deliver_reservation(service, request))
            ids.append(res.res_id)
        assert ids == [0, 1]

    def test_tampered_blob_fails_open(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        priv, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        service = ASControlService(AS_ID, SV, rng)
        blob = bytearray(led.deliver_reservation(service, request))
        blob[40] ^= 1
        with pytest.raises(InvalidTag):
            unseal_credentials(priv, bytes(blob))


class TestAtomic:
    def test_empty_block(self):
        led, _, _, _ = fresh_ledger()
        before = led.state_hash()
        assert led.execute_atomic([]) == ()
        assert led.state_hash() == before

    def test_result_chaining(self):
        led, token, _, rng = fresh_ledger()
        _, pub = sealing_keypair(rng)
        attrs = dict(
            bandwidth=50 * MBPS,
            start_time=H9,
            expiration_time=H10,
            time_granularity=MIN10,
            min_bandwidth=5 * MBPS,
        )
        results = led.execute_atomic(
            [
                Call("issue", ("asops", token),
                     dict(attrs, interface=1, direction=Direction.INGRESS)),
                Call("issue", ("asops", token),
                     dict(attrs, interface=2, direction=Direction.EGRESS)),
                Call("redeem", ("asops", Result(0), Result(1), pub)),
            ]
        )
        assert results[2].as_id == AS_ID
        assert led.request(results[2].request_id) == results[2]

    def test_tuple_result_indexing(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        results = led.execute_atomic(
            [
                Call("split_time", ("asops", asset, H9 + MIN10)),
                Call("split_time", ("asops", Result(0, 1), H9 + 2 * MIN10)),
            ]
        )
        assert results[1][0].start_time == H9 + MIN10

    def test_failure_rolls_back_everything(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        before = led.state_hash()
        balances = {a: led.balance(a) for a in ("asops", "alice", "bob")}
        with pytest.raises(LedgerError, match="owned by"):
            led.execute_atomic(
                [
                    Call("register_seller", ("asops",)),
                    Call("create_listing", ("asops", asset, 2)),
                    # The escrow above makes this third call fail and must
                    # drag the first two down with it.
                    Call("split_time", ("asops", asset, H9 + MIN10)),
                ]
            )
        assert led.state_hash() == before
        assert {a: led.balance(a) for a in balances} == balances
        assert led.asset(asset.asset_id).owner == "asops"  # escrow undone
        led.register_seller("asops")  # registration was rolled back too

    def test_buy_plus_redeem_block(self):
        led, token, _, rng = fresh_ledger()
        led.register_seller("asops")
        ing, eg = redeemable_pair(led, token)
        l_in = led.create_listing("asops", ing, 2)
        l_eg = led.create_listing("asops", eg, 2)
        _, pub = sealing_keypair(rng)
        want = dict(start_time=H9, expiration_time=H10, bandwidth=50 * MBPS)
        results = led.execute_atomic(
            [
                Call("buy", ("alice", l_in), dict(want)),
                Call("buy", ("alice", l_eg), dict(want)),
                Call("redeem", ("alice", Result(0), Result(1), pub)),
            ]
        )
        assert results[2].owner == "alice"
        price = 2 * 50 * MBPS * 3600
        assert led.balance("alice") == 10**15 - 2 * price

    def test_sold_out_hop_fails_whole_block(self):
        led, token, _, rng = fresh_ledger()
        led.register_seller("asops")
        ing, eg = redeemable_pair(led, token)
        l_in = led.create_listing("asops", ing, 2)
        l_eg = led.create_listing("asops", eg, 2)
        want = dict(start_time=H9, expiration_time=H10, bandwidth=50 * MBPS)
        led.buy("bob", l_eg, **want)  # bob got there first
        _, pub = sealing_keypair(rng)
        alice_before = led.balance("alice")
        before = led.state_hash()
        with pytest.raises(LedgerError, match="no such listing"):
            led.execute_atomic(
                [
                    Call("buy", ("alice", l_in), dict(want)),
                    Call("buy", ("alice", l_eg), dict(want)),
                    Call("redeem", ("alice", Result(0), Result(1), pub)),
                ]
            )
        assert led.balance("alice") == alice_before
        assert led.state_hash() == before
        assert led.asset(eg.asset_id).owner == "bob"  # bob's purchase intact

    def test_failed_block_touching_every_container_changes_nothing(self):
        led, token, root, rng = fresh_ledger()
        led.register_seller("asops")
        held_asset = hour_asset(led, token, interface=3)
        ing, eg = redeemable_pair(led, token)
        held_listings = (led.create_listing("asops", ing, 2), led.create_listing("asops", eg, 2))
        held_request = led.redeem("asops", *redeemable_pair(led, token), sealing_keypair(rng)[1])
        ident = AsIdentity(AS_ID + 1, rng)
        cert = root.issue_cert(AS_ID + 1, ident.public_key)
        _, pub = sealing_keypair(rng)
        want = dict(start_time=H9, expiration_time=H10, bandwidth=50 * MBPS)
        accounts = ("asops", "alice", "bob", MARKET_ACCOUNT)
        before = led.state_hash()
        balances = {a: led.balance(a) for a in accounts}
        owned = {a: led.assets_owned_by(a) for a in accounts}
        listings = led.open_listings()
        with pytest.raises(LedgerError, match="no such asset"):
            led.execute_atomic(
                [
                    Call("register_as", ("bob", cert, ident.proof_of_key("bob"))),
                    Call("register_seller", ("bob",)),
                    Call("issue", ("bob", Result(0)), dict(
                        bandwidth=100 * MBPS, start_time=H9, expiration_time=H10,
                        interface=1, direction=Direction.INGRESS,
                        time_granularity=MIN10, min_bandwidth=5 * MBPS,
                    )),
                    Call("create_listing", ("bob", Result(2), 1)),
                    Call("split_time", ("asops", held_asset, H9 + MIN10)),
                    Call("buy", ("alice", held_listings[0]), dict(want)),
                    Call("buy", ("alice", held_listings[1]), dict(want)),
                    Call("redeem", ("alice", Result(5), Result(6), pub)),
                    # The redeem above destroyed both assets.
                    Call("redeem", ("alice", Result(5), Result(6), pub)),
                ]
            )
        assert led.state_hash() == before
        assert {a: led.balance(a) for a in accounts} == balances
        assert {a: led.assets_owned_by(a) for a in accounts} == owned
        assert led.open_listings() == listings
        assert led.asset(held_asset.asset_id) == held_asset
        assert tuple(led.listing(x.listing_id) for x in held_listings) == held_listings
        assert led.request(held_request.request_id) == held_request
        led.register_seller("bob")  # the seller registration was rolled back

    def test_stored_values_are_frozen(self):
        # Blocks stage on copies of the containers only, which is exact
        # only while no stored value can change in place.
        for cls in (BandwidthAsset, Listing, RedeemRequest, AuthToken):
            assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen

    def test_delivery_not_allowed_in_block(self):
        led, token, _, rng = fresh_ledger()
        ingress, egress = redeemable_pair(led, token)
        _, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        service = ASControlService(AS_ID, SV, rng)
        with pytest.raises(LedgerError, match="not allowed"):
            led.execute_atomic([Call("deliver_reservation", (service, request))])

    def test_unknown_op_rejected_before_execution(self):
        led, _, _, _ = fresh_ledger()
        before = led.state_hash()
        with pytest.raises(LedgerError, match="not allowed"):
            led.execute_atomic(
                [Call("register_seller", ("asops",)), Call("open_account", ("mallory", 1))]
            )
        assert led.state_hash() == before


# Ops given a value of a type the ledger does not store; each builds its
# call from the set-up TestDoor.ledger() returns.
REFUSED_TYPES = {
    "issue-float-bandwidth": lambda s: Call(
        "issue", ("asops", s.token), dict(HOUR, bandwidth=100.0 * MBPS)),
    "issue-float-times": lambda s: Call(
        "issue", ("asops", s.token), dict(HOUR, start_time=float(H9), expiration_time=float(H10))),
    "issue-bool-interface": lambda s: Call(
        "issue", ("asops", s.token), dict(HOUR, interface=True)),
    "split_time-float-cut": lambda s: Call("split_time", ("asops", s.held, float(H9 + MIN10))),
    "split_bandwidth-float-part": lambda s: Call(
        "split_bandwidth", ("asops", s.held, 50.0 * MBPS)),
    "create_listing-float-price": lambda s: Call("create_listing", ("asops", s.held, 1.0)),
    "create_listing-bool-price": lambda s: Call("create_listing", ("asops", s.held, True)),
    "buy-whole-float-start": lambda s: Call(
        "buy", ("alice", s.listed), dict(start_time=float(H9), expiration_time=H10,
                                         bandwidth=100 * MBPS)),
    "buy-whole-float-expiration": lambda s: Call(
        "buy", ("alice", s.listed), dict(start_time=H9, expiration_time=float(H10),
                                         bandwidth=100 * MBPS)),
    "buy-whole-float-bandwidth": lambda s: Call(
        "buy", ("alice", s.listed), dict(start_time=H9, expiration_time=H10,
                                         bandwidth=100.0 * MBPS)),
    "redeem-bytearray-key": lambda s: Call(
        "redeem", ("asops", s.held, s.egress, bytearray(s.pub))),
}


class TestDoor:
    """A value the state hash does not write is refused where it enters,
    before any write, alone and inside a block."""

    @staticmethod
    def ledger():
        """A ledger where asops holds an ingress and an egress asset that
        redeem together and lists a third, and alice can pay for it."""
        led, token, _, rng = fresh_ledger()
        led.register_seller("asops")
        held = hour_asset(led, token)
        egress = hour_asset(led, token, interface=2, direction=Direction.EGRESS)
        listed = led.create_listing("asops", hour_asset(led, token), 1)
        _, pub = sealing_keypair(rng)
        return led, SimpleNamespace(token=token, held=held, egress=egress, listed=listed, pub=pub)

    @staticmethod
    def snapshot(led) -> tuple:
        return led.state_hash(), dict(led._state.balances), led._state.next_id

    @pytest.mark.parametrize("in_block", [False, True], ids=["alone", "in-block"])
    @pytest.mark.parametrize("case", REFUSED_TYPES)
    def test_refused_op_changes_nothing(self, case, in_block):
        led, setup = self.ledger()
        call = REFUSED_TYPES[case](setup)
        before = self.snapshot(led)
        with pytest.raises(LedgerError):
            if in_block:
                led.execute_atomic([Call("register_seller", ("alice",)), call])
            else:
                getattr(led, call.op)(*call.args, **call.kwargs)
        assert self.snapshot(led) == before

    @pytest.mark.parametrize("account, balance", [
        (7, 10**9), (b"alice", 10**9), ("carol", True), ("carol", 1.5), ("carol", 10.0**9),
    ], ids=repr)
    def test_refused_account_changes_nothing(self, account, balance):
        led, _ = self.ledger()
        before = self.snapshot(led)
        with pytest.raises(LedgerError):
            led.open_account(account, balance)
        assert self.snapshot(led) == before

    def test_genesis_with_an_int_name_is_refused(self):
        with pytest.raises(LedgerError, match="account name must be a str"):
            Ledger(PkiRoot(Random(1)).public_key, genesis={"asops": 0, 7: 10**9})


class TestIntegrity:
    def test_state_hash_deterministic(self):
        hashes = []
        for _ in range(2):
            led, token, _, _ = fresh_ledger()
            asset = hour_asset(led, token)
            led.split_time("asops", asset, H9 + MIN10)
            hashes.append(led.state_hash())
        assert hashes[0] == hashes[1]

    def test_log_one_record_per_call(self):
        led, token, _, _ = fresh_ledger()
        base = len(led.export_log())
        asset = hour_asset(led, token)
        led.split_time("asops", asset, H9 + MIN10)
        led.execute_atomic([])
        log = led.export_log()
        assert len(log) == base + 3
        assert [r["op"] for r in log[base:]] == ["issue", "split_time", "execute_atomic"]
        assert all(
            set(r) == {"seq", "op", "args", "result", "state"} for r in log
        )
        assert log[-1]["state"] == led.state_hash()
        assert len(led.format_log().splitlines()) == len(log)


def rows(table) -> list:
    """A ledger table's (id, value) pairs, by id."""
    return sorted((key, table[key]) for key in table)


def canonical_state_hash(led) -> str:
    """Reference: the whole state as one dict, dumped in one go."""
    state = led._state
    canonical = {
        "balances": dict(sorted(state.balances.items())),
        "assets": {
            str(k): {
                "as_id": v.as_id,
                "bandwidth": v.bandwidth,
                "start_time": v.start_time,
                "expiration_time": v.expiration_time,
                "interface": v.interface,
                "direction": v.direction.value,
                "time_granularity": v.time_granularity,
                "min_bandwidth": v.min_bandwidth,
                "owner": v.owner,
            }
            for k, v in rows(state.assets)
        },
        "listings": {
            str(k): {
                "asset_id": v.asset_id,
                "unit_price": v.unit_price,
                "seller": v.seller,
            }
            for k, v in rows(state.listings)
        },
        "requests": {
            str(k): {
                "as_id": v.as_id,
                "owner": v.owner,
                "ingress_interface": v.ingress_interface,
                "egress_interface": v.egress_interface,
                "bandwidth": v.bandwidth,
                "start_time": v.start_time,
                "expiration_time": v.expiration_time,
                "ephemeral_pubkey": v.ephemeral_pubkey.hex(),
                "delivered": v.delivered,
                "credentials": v.credentials.hex(),
            }
            for k, v in rows(state.requests)
        },
        "tokens": {
            str(k): {"as_id": v.as_id, "account": v.account}
            for k, v in rows(state.tokens)
        },
        "sellers": sorted(state.sellers),
        "next_id": state.next_id,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# Operators issue; everyone trades.  JSON must escape a quote, a
# backslash and non-ASCII characters in these names.
OPERATORS = ("asops", 'q"uote')
TRADERS = ("back\\slash", "ünï✓", "alice")
KEEPER = "keeper"  # issues one asset per id length and never trades


class MarketWalk:
    """Seeded random ops on one ledger, refused ones included.

    Alongside the ledger it keeps a small model: the currency supply and
    the reserved area per (AS, interface, direction).  Issuing adds area,
    redeeming takes it away, and splits, fuses, listings and purchases
    only move it between assets.  `step` checks the ledger against the
    model after every move, refused or not.
    """

    def __init__(self, seed: int):
        self.rng = rng = Random(seed)
        root = PkiRoot(rng)
        accounts = (*OPERATORS, *TRADERS, KEEPER)
        self.supply = 10**15 * len(accounts)
        self.led = Ledger(root.public_key, genesis={a: 10**15 for a in accounts})
        self.tokens, self.services, self.as_ids = {}, {}, {}
        self.area: dict[tuple, int] = {}  # the model's area per resource
        self.sealing_keys = {}  # ephemeral public key -> private key
        self.rolled_back = self.failed_seals = 0
        for as_id, account in enumerate((*OPERATORS, KEEPER), start=AS_ID):
            self.as_ids[account] = as_id
            ident = AsIdentity(as_id, rng)
            self.tokens[account] = self.led.register_as(
                account, root.issue_cert(as_id, ident.public_key), ident.proof_of_key(account)
            )
            self.services[as_id] = ASControlService(as_id, SV, rng)
        for account in (*OPERATORS, *TRADERS):
            self.led.register_seller(account)
        self.keeper_ids: list[int] = []
        self.split = None, ()  # owner and the pair of the last split
        self.moves = (
            (self.issue, 3), (self.issue_batch, 20), (self.split_time, 3),
            (self.split_bandwidth, 3), (self.fuse, 3), (self.list_asset, 3),
            (self.buy, 4), (self.buy_and_redeem, 3), (self.failing_block, 3),
            (self.deliver, 3), (self.deliver_after_failed_seal, 1), (self.refused_op, 3),
        )

    def step(self) -> None:
        move = self.rng.choices(*zip(*self.moves))[0]
        if not self.holders():
            move = self.issue_batch
        try:
            move()
        finally:
            self.check()

    def check(self) -> None:
        """The ledger agrees with the model, every table keeps its
        state_hash entries sorted, and no two reservations that overlap in
        time share a ResID on one ingress."""
        led = self.led
        assert led.total_supply() == self.supply
        for key, area in self.area.items():
            assert led.reserved_area(*key) == area, key
        assert sum(a.area for a in led._state.assets.values()) == sum(self.area.values())
        for name in ("assets", "listings", "requests", "tokens"):
            table = getattr(led._state, name)
            assert table.order == sorted(v._fragment for v in table.values()), name
        requests = led._state.requests.values()
        for as_id, ingress in {(r.as_id, r.ingress_interface) for r in requests}:
            allocator = self.services[as_id].allocator
            intervals = active_intervals(allocator, ingress)
            assert all(0 <= res_id < MAX_IDS for res_id, _, _ in intervals)
            for (a_id, a_start, a_end), (b_id, b_start, b_end) in combinations(intervals, 2):
                assert a_id != b_id or a_end <= b_start or b_end <= a_start, (as_id, ingress)

    def issued(self, account: str, attrs: dict) -> None:
        """Model an issue of attrs by account."""
        key = (self.as_ids[account], attrs["interface"], Direction(attrs["direction"]))
        area = attrs["bandwidth"] * (attrs["expiration_time"] - attrs["start_time"])
        self.area[key] = self.area.get(key, 0) + area

    def atomic(self, block: list) -> tuple:
        try:
            return self.led.execute_atomic(block)
        except LedgerError:
            self.rolled_back += 1
            raise

    def keep_id_length(self) -> None:
        """Have the keeper hold an asset whose id has as many digits as next_id."""
        next_id = self.led._state.next_id
        if not self.keeper_ids or len(str(next_id)) > len(str(self.keeper_ids[-1])):
            attrs = self.attrs()
            self.keeper_ids.append(self.led.issue(KEEPER, self.tokens[KEEPER], **attrs).asset_id)
            self.issued(KEEPER, attrs)

    def attrs(self, **overrides) -> dict:
        rng = self.rng
        start = H9 + rng.randrange(12) * MIN10
        attrs = dict(
            bandwidth=rng.randrange(2, 41) * 5 * MBPS,
            start_time=start,
            expiration_time=start + rng.randrange(1, 13) * MIN10,
            interface=rng.randrange(1, 5),
            direction=rng.choice(list(Direction)),
            time_granularity=MIN10,
            min_bandwidth=5 * MBPS,
        )
        attrs.update(overrides)
        return attrs

    def owned(self, account: str) -> list:
        return list(self.led.assets_owned_by(account))

    def holders(self) -> list[str]:
        owners = {a.owner for a in self.led._state.assets.values()}
        return [a for a in (*OPERATORS, *TRADERS) if a in owners]

    def pick_owned(self):
        """An account with assets and one of its assets."""
        account = self.rng.choice(self.holders())
        return account, self.rng.choice(self.owned(account))

    # -- moves; each is one ledger call or one block, and may be refused

    def issue(self) -> None:
        operator = self.rng.choice(OPERATORS)
        attrs = self.attrs()
        if self.rng.random() < 0.2:
            attrs["expiration_time"] += 7  # off the granularity: refused
        self.led.issue(operator, self.tokens[operator], **attrs)
        self.issued(operator, attrs)

    def issue_batch(self) -> None:
        operator = self.rng.choice(OPERATORS)
        token = self.tokens[operator]
        block = [Call("issue", (operator, token), self.attrs())
                 for _ in range(self.rng.randrange(15, 46))]
        if self.rng.random() < 0.2:  # fails on the last call
            block.append(Call("issue", (operator, token), self.attrs(min_bandwidth=10**12)))
        self.atomic(block)
        for call in block:
            self.issued(operator, call.kwargs)

    def split_time(self) -> None:
        account, asset = self.pick_owned()
        step = MIN10 if self.rng.random() < 0.8 else MIN10 // 2  # off-grid: refused
        cut = asset.start_time + self.rng.randrange(0, asset.duration + 1, step)
        self.split = account, self.led.split_time(account, asset, cut)

    def split_bandwidth(self) -> None:
        account, asset = self.pick_owned()
        part = self.rng.randrange(0, asset.bandwidth + 1, 5 * MBPS)
        self.split = account, self.led.split_bandwidth(account, asset, part)

    def fuse(self) -> None:
        """Fuse the last split pair back if it is still there, else any two."""
        account, pair = self.split
        if not pair or any(self.led._state.assets.get(a.asset_id) is not a for a in pair):
            account, a = self.pick_owned()
            pair = a, self.rng.choice(self.owned(account))
        a, b = pair
        if a.expiration_time == b.start_time:
            self.led.fuse_time(account, a, b)
        else:
            self.led.fuse_bandwidth(account, a, b)

    def list_asset(self) -> None:
        account, asset = self.pick_owned()
        self.led.create_listing(account, asset, self.rng.randrange(1, 4))

    def buy(self) -> None:
        listings = self.led.open_listings()
        if not listings:
            return self.list_asset()
        listing = self.rng.choice(listings)
        asset = self.led.asset(listing.asset_id)
        slots = asset.duration // MIN10
        first = self.rng.randrange(slots)
        start = asset.start_time + first * MIN10 + self.rng.choice((0, 0, 0, 60))
        self.led.buy(
            self.rng.choice(TRADERS), listing,
            start_time=start,
            expiration_time=asset.start_time + self.rng.randrange(first + 1, slots + 1) * MIN10,
            bandwidth=self.rng.randrange(1, asset.bandwidth // (5 * MBPS) + 1) * 5 * MBPS,
        )

    def buy_and_redeem(self) -> None:
        """Issue, list, buy and redeem an ingress/egress pair in one block."""
        operator, buyer = self.rng.choice(OPERATORS), self.rng.choice(TRADERS)
        token = self.tokens[operator]
        common = self.attrs()
        del common["interface"], common["direction"]
        want = dict(start_time=common["start_time"], expiration_time=common["expiration_time"],
                    bandwidth=common["bandwidth"])
        priv, pub = sealing_keypair(self.rng)
        self.sealing_keys[pub] = priv
        if self.rng.random() < 0.2:
            pub = self.rng.choice(LOW_ORDER_KEYS)  # the redeem fails
        # The redeem takes back the area the two issues add.
        self.atomic([
            Call("issue", (operator, token), dict(common, interface=1, direction=Direction.INGRESS)),
            Call("issue", (operator, token), dict(common, interface=2, direction=Direction.EGRESS)),
            Call("create_listing", (operator, Result(0), 2)),
            Call("create_listing", (operator, Result(1), 2)),
            Call("buy", (buyer, Result(2)), dict(want)),
            Call("buy", (buyer, Result(3)), dict(want)),
            Call("redeem", (buyer, Result(4), Result(5), pub)),
        ])

    def failing_block(self) -> None:
        """Valid calls, then one that fails part-way through the block."""
        account, asset = self.pick_owned()
        cut = asset.start_time + MIN10
        self.atomic([
            Call("create_listing", (account, asset, 1)),
            Call("issue", (OPERATORS[0], self.tokens[OPERATORS[0]]), self.attrs()),
            # The escrow above makes this fail.
            Call("split_time", (account, asset, cut)),
        ])

    def deliver(self) -> None:
        requests = list(self.led._state.requests.values())
        if not requests:
            return self.buy_and_redeem()
        waiting = [r for r in requests if not r.delivered]
        if waiting and self.rng.random() < 0.7:
            requests = waiting
        request = self.rng.choice(requests)  # a delivered one is refused
        self.delivered(request)

    def delivered(self, request) -> None:
        """Deliver request; its credentials unseal to what was redeemed."""
        blob = self.led.deliver_reservation(self.services[request.as_id], request)
        res, _ = unseal_credentials(self.sealing_keys[request.ephemeral_pubkey], blob)
        assert (res.ingress, res.egress, res.res_start, res.duration) == (
            request.ingress_interface, request.egress_interface,
            request.start_time, request.expiration_time - request.start_time,
        )
        assert res.bw_code == quantize_bw(request.bandwidth)

    def deliver_after_failed_seal(self) -> None:
        """A delivery whose sealing fails once changes nothing; the retry
        delivers."""
        waiting = [r for r in self.led._state.requests.values() if not r.delivered]
        if not waiting:
            return self.buy_and_redeem()
        request = self.rng.choice(waiting)
        allocator = self.services[request.as_id].allocator
        before = self.led.state_hash(), active_intervals(allocator, request.ingress_interface)

        def seal_failing(*args):
            raise ValueError("sealing failed")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ledger_mod, "seal_credentials", seal_failing)
            with pytest.raises(ValueError, match="sealing failed"):
                self.led.deliver_reservation(self.services[request.as_id], request)
        assert (self.led.state_hash(), active_intervals(allocator, request.ingress_interface)) == before
        self.failed_seals += 1
        self.delivered(request)

    def refused_op(self) -> None:
        account, asset = self.pick_owned()
        self.rng.choice((
            lambda: self.led.split_time(account, asset, asset.expiration_time),
            lambda: self.led.redeem(account, asset, asset, bytes(32)),
            lambda: self.led.create_listing(KEEPER, asset, 1),
            lambda: self.led.register_seller(account),
            lambda: self.led.buy(account, 10**9, start_time=H9, expiration_time=H10, bandwidth=MBPS),
        ))()


class TestStateHash:
    TABLES = (("assets", "asset_id"), ("listings", "listing_id"),
              ("requests", "request_id"), ("tokens", "token_id"))

    def test_matches_full_dump_on_random_walk(self):
        walk = MarketWalk(seed=11)
        led = walk.led
        refused = 0
        while len(led._state.assets) < 2000:
            walk.keep_id_length()
            before = led.state_hash()
            try:
                walk.step()
            except LedgerError:
                refused += 1
                assert led.state_hash() == before
            assert led.state_hash() == canonical_state_hash(led)
            for table, id_name in self.TABLES:
                values = getattr(led._state, table)
                assert list(map(attrgetter(id_name), values.values())) == list(values), table
        state = led._state
        assert refused >= 40 and walk.rolled_back >= 10 and walk.failed_seals >= 2
        assert sum(r.delivered for r in state.requests.values()) >= 5
        assert len(state.listings) >= 10 and len(state.tokens) == 3
        assert {len(str(k)) for k in state.assets} == {1, 2, 3, 4}
        assert set(walk.keeper_ids) <= set(state.assets)

    def test_table_copy_keeps_its_own_order(self):
        """A staged copy's writes never reach the original's order, read
        before or after the copy's."""
        table = ledger_mod._Table()
        for token_id in (9, 10, 100):
            table.put(AuthToken(token_id, AS_ID, "asops"))
        staged = table.copy()
        staged.put(AuthToken(11, AS_ID, "alice"))
        staged.remove(9)
        assert [entry[:5] for entry in staged.order] == ['"10":', '"100"', '"11":']
        assert [entry[:5] for entry in table.order] == ['"10":', '"100"', '"9":{']

    def test_fragment_holds_every_field(self):
        """Entries are rendered from the dataclass fields, so a field added
        to a stored class is hashed with no further code."""

        @dataclasses.dataclass(frozen=True)
        class Stored(ledger_mod._Stored):
            item_id: int
            direction: Direction
            blob: bytes
            added: bool

        value = Stored(7, Direction.EGRESS, b"\x00\xff", True)
        assert value._fragment == '"7":{"added":true,"blob":"00ff","direction":"egress"}'

    def test_one_op_serialises_a_bounded_amount(self, monkeypatch):
        """One op on a large ledger renders its own entries and no more:
        no table entry already rendered and no whole-state dump."""
        led, token, _, _ = fresh_ledger()
        for _ in range(1000):
            hour_asset(led, token)
        written = []
        render, dumps = ledger_mod._Stored._fragment.func, ledger_mod._dumps

        def counting(function):
            def wrapper(value):
                text = function(value)
                written.append(len(text))
                return text

            return wrapper

        rendered = functools.cached_property(counting(render))
        rendered.__set_name__(ledger_mod._Stored, "_fragment")
        monkeypatch.setattr(ledger_mod._Stored, "_fragment", rendered)
        monkeypatch.setattr(ledger_mod, "_dumps", counting(dumps))
        hour_asset(led, token)
        led.state_hash()
        assert 0 < sum(written) < 1000


class CountingSha256:
    """hashlib.sha256 that counts the bytes fed to any of its objects."""

    fed = 0

    def __init__(self, data: bytes = b"", state=None):
        self.state = hashlib.sha256() if state is None else state
        self.update(data)

    def update(self, data: bytes) -> None:
        CountingSha256.fed += len(data)
        self.state.update(data)

    def copy(self) -> "CountingSha256":
        return CountingSha256(state=self.state.copy())

    def digest(self) -> bytes:
        return self.state.digest()

    def hexdigest(self) -> str:
        return self.state.hexdigest()


class TestResumedHash:
    """state_hash resumes each table at its first changed entry; every
    case here is checked against canonical_state_hash, which dumps the
    whole state in one go."""

    @staticmethod
    def listed_ledger(assets: int = 3 * ledger_mod._STRIDE + 5):
        """A ledger of `assets` assets, hashed, spanning several strides of
        kept states, with asops a registered seller."""
        led, token, root, rng = fresh_ledger()
        led.register_seller("asops")
        for _ in range(assets):
            hour_asset(led, token)
        assert led.state_hash() == canonical_state_hash(led)
        return led, token, rng

    @staticmethod
    def by_position(led) -> list[int]:
        """The asset ids in the order state_hash writes them."""
        return sorted(led._state.assets, key=str)

    def test_first_and_last_entry_changed(self):
        led, _, _ = self.listed_ledger()
        ids = self.by_position(led)
        for asset_id in (ids[0], ids[-1], ids[1], ids[-2]):
            led.create_listing("asops", asset_id, 3)
            assert led.state_hash() == canonical_state_hash(led)

    def test_removal_only(self):
        """A pending batch that only removes entries, ahead of every kept
        state but the first."""
        led, _, rng = self.listed_ledger()
        ids = self.by_position(led)
        ingress, egress = ids[0], ids[1]
        led._state.assets.put(dataclasses.replace(led.asset(egress), direction=Direction.EGRESS))
        led.state_hash()
        _, pub = sealing_keypair(rng)
        led.redeem("asops", ingress, egress, pub)
        assert led.state_hash() == canonical_state_hash(led)

    def test_hash_inside_a_block_that_rolls_back(self, monkeypatch):
        led, _, _ = self.listed_ledger()
        ids = self.by_position(led)
        inside = []
        register_seller = led.register_seller

        def register_and_hash(account):
            register_seller(account)
            inside.append((led.state_hash(), canonical_state_hash(led)))

        monkeypatch.setattr(led, "register_seller", register_and_hash)
        committed = led.state_hash()
        with pytest.raises(LedgerError, match="already a registered seller"):
            led.execute_atomic([
                Call("create_listing", ("asops", ids[0], 5)),
                Call("register_seller", ("alice",)),
                Call("register_seller", ("alice",)),
            ])
        assert len(inside) == 1 and inside[0][0] == inside[0][1] != committed
        assert led.state_hash() == canonical_state_hash(led) == committed
        # The kept states after the first stride still belong to the
        # committed order, not to the rolled-back one.
        led.create_listing("asops", ids[-1], 5)
        assert led.state_hash() == canonical_state_hash(led)

    def test_staged_copy_hashed_then_the_original(self):
        led, _, _ = self.listed_ledger()
        ids = self.by_position(led)
        committed = led._state
        staged = led._state = committed.copy()
        staged.assets.put(dataclasses.replace(staged.assets[ids[0]], owner="bob"))
        staged.assets.remove(ids[-1])
        assert led.state_hash() == canonical_state_hash(led)
        led._state = committed
        assert led.state_hash() == canonical_state_hash(led)
        led.create_listing("asops", ids[-1], 5)
        assert led.state_hash() == canonical_state_hash(led)
        led._state = staged
        led.create_listing("asops", ids[len(ids) // 2], 5)
        assert led.state_hash() == canonical_state_hash(led)

    def test_order_read_between_writes_without_a_hash(self):
        led, _, _ = self.listed_ledger()
        ids = self.by_position(led)
        table = led._state.assets
        for first, second in ((ids[0], ids[-1]), (ids[-2], ids[1])):
            table.put(dataclasses.replace(table[first], owner="bob"))
            table.order
            table.put(dataclasses.replace(table[second], owner="bob"))
            table.order
            assert led.state_hash() == canonical_state_hash(led)

    def test_table_emptied_and_refilled(self):
        led, token, _ = self.listed_ledger(ledger_mod._STRIDE + 3)
        for asset_id in list(led._state.assets):
            led.create_listing("asops", asset_id, 1)
        assert len(led._state.listings) > ledger_mod._STRIDE
        for listing_id in list(led._state.listings):
            led.buy("alice", listing_id, start_time=H9, expiration_time=H10, bandwidth=100 * MBPS)
            assert led.state_hash() == canonical_state_hash(led)
        assert len(led._state.listings) == 0
        led.register_seller("alice")
        for asset in led.assets_owned_by("alice")[:3]:
            led.create_listing("alice", asset, 2)
            assert led.state_hash() == canonical_state_hash(led)

    def test_owner_needing_escapes(self):
        owner = 'q"uo\\te ünï✓ \x07'
        led, token, _, _ = fresh_ledger()
        led.open_account(owner, 10**15)
        led.register_seller("asops")
        listing = led.create_listing("asops", hour_asset(led, token), 1)
        bought = led.buy(owner, listing, start_time=H9, expiration_time=H10, bandwidth=100 * MBPS)
        assert led.state_hash() == canonical_state_hash(led)
        assert bought._fragment.isascii() and json.loads("{%s}" % bought._fragment)[
            str(bought.asset_id)
        ]["owner"] == owner

    def test_balance_equal_to_the_last_dump_but_of_another_type(self):
        """True == 1 == 1.0, but the dumps would read true, 1 and 1.0, so
        the ledger refuses a bool or float balance or price: the dump it
        resumes from only ever holds ints."""
        led, token, _, _ = fresh_ledger()
        led.register_seller("asops")
        asset = hour_asset(led, token)
        before = led.state_hash()
        with pytest.raises(LedgerError, match="balance must be a non-negative int"):
            led.open_account("frugal", True)
        with pytest.raises(LedgerError, match="unit price must be a non-negative int"):
            led.create_listing("asops", asset, 0.0)
        assert led.state_hash() == before == canonical_state_hash(led)
        listing = led.create_listing("asops", asset, 0)
        led.buy("alice", listing, start_time=H9, expiration_time=H10, bandwidth=100 * MBPS)
        assert type(led.balance("alice")) is int
        assert led.state_hash() == canonical_state_hash(led)

    def test_one_delivery_hashes_less_than_the_assets(self, monkeypatch):
        monkeypatch.setattr(ledger_mod, "hashlib", SimpleNamespace(sha256=CountingSha256))
        led, token, rng = self.listed_ledger(1000)
        ingress = hour_asset(led, token, interface=2)
        egress = hour_asset(led, token, interface=3, direction=Direction.EGRESS)
        priv, pub = sealing_keypair(rng)
        request = led.redeem("asops", ingress, egress, pub)
        CountingSha256.fed = 0
        blob = led.deliver_reservation(ASControlService(AS_ID, SV, rng), request)
        assert CountingSha256.fed < len(",".join(led._state.assets.order))
        assert led.state_hash() == canonical_state_hash(led)
        assert unseal_credentials(priv, blob)[0].ingress == 2


def stored_json(value) -> str:
    """The JSON value canonical_state_hash writes for a Direction or bytes."""
    return value.value if isinstance(value, Direction) else value.hex()


def sample(annotation: str, rng: Random):
    """A value for a stored field declared with this annotation."""
    if annotation == "int":
        return rng.choice((0, 1, -1, 2**64, rng.randrange(-(10**20), 10**20)))
    if annotation == "bool":
        return rng.random() < 0.5
    if annotation == "str":
        return "".join(rng.choice('aZ0 "\\/\x00\x1f\x7fé✓\U0001f600') for _ in range(rng.randrange(8)))
    if annotation == "bytes":
        return rng.randbytes(rng.randrange(40))
    if annotation == "Direction":
        return rng.choice(list(Direction))
    raise AssertionError(f"no sample for a stored field of type {annotation}")


class TestRenderer:
    STORED = (BandwidthAsset, AuthToken, Listing, RedeemRequest)

    def test_every_stored_class_is_covered(self):
        module_classes = {
            cls for cls in ledger_mod._Stored.__subclasses__()
            if cls.__module__ == ledger_mod.__name__
        }
        assert module_classes == set(self.STORED)

    @pytest.mark.parametrize("cls", STORED, ids=lambda cls: cls.__name__)
    def test_entries_match_json_dumps(self, cls):
        rng = Random(cls.__name__)
        key, *rest = (f.name for f in dataclasses.fields(cls))
        for _ in range(200):
            value = cls(**{
                f.name: sample(f.type, rng) for f in dataclasses.fields(cls)
            })
            expected = f'"{getattr(value, key)}":' + json.dumps(
                {name: getattr(value, name) for name in rest},
                sort_keys=True, separators=(",", ":"), default=stored_json,
            )
            assert value._fragment == expected

    @pytest.mark.parametrize("value", [
        0, -7, 2**70, True, False, "", 'a"b\\c\n\u2028✓\U0001f600', b"", b"\x00\xff",
        Direction.INGRESS,
    ], ids=repr)
    def test_encoder_matches_json_dumps(self, value):
        """What `_fragment` writes for a field of each stored type: an int
        as it is, anything else through its encoder."""
        text = "%s" % value if type(value) is int else ledger_mod._ENCODERS[type(value)](value)
        assert text == json.dumps(value, default=stored_json)


class TestChangedCopies:
    """A value the ledger copies with changes (`_Stored._with`) renders its
    own entry: it never carries its source's cached `_fragment`, and it
    renders only when read."""

    @staticmethod
    def assert_entries_fresh(led):
        state = led._state
        for table in (state.assets, state.listings, state.requests, state.tokens):
            for value in table.values():
                assert value._fragment == ledger_mod._Stored._fragment.func(value), value

    def test_copy_renders_only_when_read(self):
        led, token, _, _ = fresh_ledger()
        asset = hour_asset(led, token)
        asset._fragment  # cached on the source
        copy = asset._with(owner="bob")
        assert "_fragment" not in vars(copy)
        assert dataclasses.asdict(copy) == {**dataclasses.asdict(asset), "owner": "bob"}
        assert copy._fragment == asset._fragment.replace('"asops"', '"bob"')

    def test_every_op_that_copies_renders_the_copies_afresh(self):
        led, token, _, rng = fresh_ledger()
        led.register_seller("asops")
        steps = {
            "split_time": lambda: led.split_time("asops", hour_asset(led, token), H9 + MIN10),
            "split_bandwidth": lambda: led.split_bandwidth(
                "asops", hour_asset(led, token), 20 * MBPS
            ),
            "fuse_time": lambda: led.fuse_time(
                "asops", *led.split_time("asops", hour_asset(led, token), H9 + MIN10)
            ),
            "fuse_bandwidth": lambda: led.fuse_bandwidth(
                "asops", *led.split_bandwidth("asops", hour_asset(led, token), 20 * MBPS)
            ),
            "create_listing": lambda: led.create_listing("asops", hour_asset(led, token), 2),
            "buy": lambda: led.buy(
                "alice", led.create_listing("asops", hour_asset(led, token), 1),
                start_time=H9 + MIN10, expiration_time=H10 - MIN10, bandwidth=20 * MBPS,
            ),
        }
        for step in steps.values():
            led.state_hash()  # every stored entry rendered and cached
            step()
            self.assert_entries_fresh(led)
        ingress, egress = redeemable_pair(led, token)
        request = led.redeem("asops", ingress, egress, sealing_keypair(rng)[1])
        led.state_hash()
        assert "_fragment" in vars(led.request(request.request_id))
        led.deliver_reservation(ASControlService(AS_ID, SV, rng), request)
        delivered = led.request(request.request_id)
        assert delivered.delivered and '"delivered":true' in delivered._fragment
        self.assert_entries_fresh(led)
