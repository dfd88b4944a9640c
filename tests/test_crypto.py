import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from hummingbird import crypto
from hummingbird.wire import ReservationInfo, mac_input_block, resinfo_block

# FIPS-197 appendix C.1 example vector.
FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestPrf:
    def test_zero_kat(self):
        # AES-128 of the zero block under the zero key.
        assert crypto.prf_block(crypto.Prf(bytes(16)), bytes(16)).hex() == (
            "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )

    def test_fips_kat(self):
        assert crypto.prf_block(crypto.Prf(FIPS_KEY), FIPS_PT) == FIPS_CT

    def test_input_must_be_one_block(self):
        with pytest.raises(crypto.CryptoError):
            crypto.prf_block(crypto.Prf(bytes(16)), bytes(15))
        with pytest.raises(crypto.CryptoError):
            crypto.prf_block(crypto.Prf(bytes(15)), bytes(16))


def fresh_cipher_block(key: bytes, block: bytes) -> bytes:
    """Reference: a new AES-ECB cipher for the one block."""
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


class TestPrfReuse:
    def test_matches_a_fresh_cipher_per_block(self):
        rng = random.Random(3)
        for _ in range(1000):
            key, block = rng.randbytes(16), rng.randbytes(16)
            assert crypto.prf_block(crypto.Prf(key), block) == fresh_cipher_block(key, block)

    def test_reuse_in_any_order_gives_the_same_outputs(self):
        rng = random.Random(4)
        key = rng.randbytes(16)
        blocks = [rng.randbytes(16) for _ in range(200)]
        expected = {block: fresh_cipher_block(key, block) for block in blocks}
        prf = crypto.Prf(key)
        order = blocks * 3
        rng.shuffle(order)
        assert [crypto.prf_block(prf, block) for block in order] == [
            expected[block] for block in order
        ]

    @pytest.mark.parametrize("length", [0, 15, 17, 32])
    def test_key_must_be_16_bytes(self, length):
        with pytest.raises(crypto.CryptoError, match=f"PRF key must be 16 bytes, got {length}"):
            crypto.Prf(bytes(length))


class TestDeriveKey:
    def test_is_prf_of_reservation_block(self):
        sv = crypto.Prf(bytes(range(16)))
        res = ReservationInfo(1, 2, 3, 4, 1_700_000_000, 600)
        assert crypto.derive_key(sv, res) == crypto.prf_block(sv, resinfo_block(res))

    def test_distinct_reservations_distinct_keys(self):
        sv = crypto.Prf(bytes(range(16)))
        base = dict(ingress=1, egress=2, res_id=3, bw_code=4, res_start=5, duration=6)
        keys = {crypto.derive_key(sv, ReservationInfo(**base))}
        for field, value in [
            ("ingress", 9), ("egress", 9), ("res_id", 9),
            ("bw_code", 9), ("res_start", 9), ("duration", 9),
        ]:
            keys.add(crypto.derive_key(sv, ReservationInfo(**{**base, field: value})))
        assert len(keys) == 7


class TestFlyoverMac:
    def test_matches_prf_composition(self):
        key = crypto.Prf(bytes(range(16)))
        tag = crypto.flyover_mac(key, 10, 20, 30, 40, 50, 60)
        block = mac_input_block(10, 20, 30, 40, 50, 60)
        assert tag == crypto.prf_block(key, block)[:6]
        assert len(tag) == 6

    def test_tag_len_profiles(self):
        key = crypto.Prf(bytes(range(16)))
        full = crypto.prf_block(key, mac_input_block(1, 2, 3, 4, 5, 6))
        for tag_len in range(1, crypto.TAG_LEN + 1):
            assert crypto.flyover_mac(key, 1, 2, 3, 4, 5, 6, tag_len=tag_len) == full[:tag_len]
        for tag_len in (0, 7, 16):
            with pytest.raises(crypto.CryptoError, match=f"^tag_len must be 1 to 6: {tag_len}$"):
                crypto.flyover_mac(key, 1, 2, 3, 4, 5, 6, tag_len=tag_len)

    def test_sensitive_to_every_field(self):
        key = crypto.Prf(bytes(range(16)))
        base = (0x1234, 0x5678, 400, 30, 17, 99)
        tags = {crypto.flyover_mac(key, *base)}
        for i in range(6):
            args = list(base)
            args[i] += 1
            tags.add(crypto.flyover_mac(key, *args))
        assert len(tags) == 7


class TestAggregateMac:
    def test_xor_involution(self):
        rng = random.Random(1)
        for _ in range(50):
            hop_mac = rng.randbytes(6)
            tag = rng.randbytes(6)
            agg = crypto.aggregate_mac(hop_mac, tag)
            assert crypto.aggregate_mac(agg, tag) == hop_mac
            assert agg == bytes(a ^ b for a, b in zip(hop_mac, tag))

    def test_short_tag_padding(self):
        hop_mac = bytes.fromhex("0102030405ff")
        agg = crypto.aggregate_mac(hop_mac, b"\xf0")
        assert agg == bytes.fromhex("f102030405ff")


class TestHopFieldMac:
    FIELDS = dict(seg_id=7, timestamp=1_700_000_000, exp_time=63, cons_ingress=1, cons_egress=2)

    def mac(self, key, **overrides):
        return crypto.hop_field_mac(key, **dict(self.FIELDS, **overrides))

    def test_width_and_determinism(self):
        key = crypto.Prf(bytes(16))
        mac = self.mac(key)
        assert len(mac) == 6
        assert mac == self.mac(key)

    def test_covers_seg_id_and_static_fields(self):
        key = crypto.Prf(bytes(16))
        base = self.mac(key)
        assert self.mac(key, seg_id=8) != base
        assert self.mac(key, timestamp=1) != base
        assert self.mac(key, exp_time=64) != base
        assert self.mac(key, cons_ingress=9) != base
        assert self.mac(key, cons_egress=9) != base

    def test_segment_chain_covers_the_seg_id_each_hop_sees(self):
        keys = [crypto.Prf(bytes([i]) * 16) for i in range(3)]
        hops = [(key, 255, i, i + 1) for i, key in enumerate(keys)]
        macs = crypto.segment_hop_macs(0x1234, 1_700_000_000, hops)
        seg_id = 0x1234
        for (key, exp_time, ingress, egress), mac in zip(hops, macs):
            assert mac == crypto.hop_field_mac(key, seg_id, 1_700_000_000, exp_time, ingress, egress)
            seg_id = crypto.update_seg_id(seg_id, mac)
        assert len(macs) == 3
        assert crypto.segment_hop_macs(0x1234, 1_700_000_000, []) == []


class TestSegIdChain:
    def test_xor_of_leading_mac_bytes(self):
        assert crypto.update_seg_id(0x1234, bytes.fromhex("ff00aabbccdd")) == 0x1234 ^ 0xFF00

    def test_applied_twice_is_identity(self):
        rng = random.Random(2)
        for _ in range(50):
            seg = rng.randrange(1 << 16)
            mac = rng.randbytes(6)
            assert crypto.update_seg_id(crypto.update_seg_id(seg, mac), mac) == seg
