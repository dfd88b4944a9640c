"""Reservation keys and packet tags.

The per-packet authenticator chain is built from a single PRF, one
AES-128 block encryption:

    A_K        = PRF(SV_K, reservation block)        per-reservation key
    FlyoverMAC = PRF(A_K, DstAddr | PktLen | TS)     per-packet tag
    AggMAC     = HopFieldMAC xor FlyoverMAC          carried in the header

Both PRF inputs are exactly one cipher block (16 bytes), so no mode or
padding is involved.  The hop field MAC itself stands in for the SCION
beaconing MAC: same width, same verification flow, but computed over a
fixed local packing, so it is not interoperable with real SCION ASes.

A key holder keeps a `Prf`: one AES-128 key with its ECB encryptor,
built once.  ECB chains nothing and pads nothing, so each 16-byte
block is encrypted on its own; reusing the encryptor, in any order and
after any other block, cannot change an output.  For the same reason
every `Prf` shares one stateless ECB mode object.  So every function
here is still a pure function of its keys and inputs.
"""

from __future__ import annotations

import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .wire import ReservationInfo, mac_input_block, resinfo_block

KEY_LEN = 16
TAG_LEN = 6  # default flyover tag width; test profiles may shrink it
_HOP_MAC_INPUT = struct.Struct("!HIBHH5x")  # the block hop_field_mac encrypts

# Alias for readability: the reservation key is a raw AES-128 key.
ReservationKey = bytes

# Looked up once: both sit behind the library's deprecation wrapper.
_AES = algorithms.AES
_ECB = modes.ECB()


class CryptoError(ValueError):
    pass


def _choose_context():
    """Chosen once, at import: the private binding call `Cipher(...).encryptor()`
    ends in, if it encrypts the FIPS-197 C.1 vector right; else the public API."""
    try:
        from cryptography.hazmat.bindings._rust import openssl
        create = openssl.ciphers.create_encryption_ctx
        kat = create(_AES(bytes(range(16))), _ECB).update(bytes(range(0, 256, 17)))
        if kat.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a":
            return create
    except Exception:  # a private module: absent, moved or changed
        pass
    return lambda algorithm, mode: Cipher(algorithm, mode).encryptor()


_new_context = _choose_context()


class Prf:
    """AES-128 under one fixed key, its cipher built once for every block."""

    __slots__ = ("_update",)

    def __init__(self, key: bytes):
        if len(key) != KEY_LEN:
            raise CryptoError(f"PRF key must be {KEY_LEN} bytes, got {len(key)}")
        self._update = _new_context(_AES(key), _ECB).update


def prf_block(prf: Prf, block: bytes) -> bytes:
    """One AES-128 block encryption; the only primitive used here."""
    if len(block) != 16:
        raise CryptoError(f"PRF input must be one 16-byte block, got {len(block)}")
    return prf._update(block)


def derive_key(sv: Prf, res: ReservationInfo) -> ReservationKey:
    """Per-reservation key, recomputable by the AS from packet fields alone."""
    return prf_block(sv, resinfo_block(res))


def flyover_mac(
    a_key: Prf,
    dst_isd: int,
    dst_as: int,
    pkt_len: int,
    res_start_offset: int,
    millis: int,
    counter: int,
    tag_len: int = TAG_LEN,
) -> bytes:
    """Per-packet tag over destination, length, and the timestamp triple."""
    check_tag_len(tag_len)
    block = mac_input_block(dst_isd, dst_as, pkt_len, res_start_offset, millis, counter)
    return prf_block(a_key, block)[:tag_len]


def check_tag_len(tag_len: int) -> None:
    """Refuse a flyover tag that aggregate_mac could not fold into a hop MAC."""
    if not 1 <= tag_len <= TAG_LEN:
        raise CryptoError(f"tag_len must be 1 to {TAG_LEN}: {tag_len}")


def aggregate_mac(hop_mac: bytes, fly_tag: bytes) -> bytes:
    """Bytewise xor; short tags (test profiles) are zero-padded on the right."""
    if len(hop_mac) != TAG_LEN:
        raise CryptoError(f"hop MAC must be {TAG_LEN} bytes, got {len(hop_mac)}")
    if len(fly_tag) > TAG_LEN:
        raise CryptoError(f"tag longer than {TAG_LEN} bytes: {len(fly_tag)}")
    tag = int.from_bytes(fly_tag, "big") << 8 * (TAG_LEN - len(fly_tag))
    return (int.from_bytes(hop_mac, "big") ^ tag).to_bytes(TAG_LEN, "big")


def hop_field_mac(
    forwarding_key: Prf,
    seg_id: int,
    timestamp: int,
    exp_time: int,
    cons_ingress: int,
    cons_egress: int,
) -> bytes:
    """Stand-in for the SCION hop field MAC.

    Covers the current SegID, the info field's timestamp and the static
    hop fields in a fixed 16-byte packing, truncated to 6 bytes:

        SegID (2) | InfoTimestamp (4) | ExpTime (1) | ConsIngress (2) |
        ConsEgress (2) | zero (5)
    """
    block = _HOP_MAC_INPUT.pack(seg_id, timestamp, exp_time, cons_ingress, cons_egress)
    return prf_block(forwarding_key, block)[:TAG_LEN]


def update_seg_id(seg_id: int, hop_mac: bytes) -> int:
    """SegID chaining step, isolated so the real beaconing rule could slot in."""
    return seg_id ^ int.from_bytes(hop_mac[:2], "big")


def segment_hop_macs(seg_id: int, timestamp: int, hops) -> list[bytes]:
    """One segment's hop MACs as beaconing issues them.  `hops` holds a
    (forwarding `Prf`, exp_time, cons_ingress, cons_egress) per hop; each
    MAC covers the SegID that the hops before it leave."""
    macs = []
    for forwarding_key, exp_time, cons_ingress, cons_egress in hops:
        mac = hop_field_mac(forwarding_key, seg_id, timestamp, exp_time, cons_ingress, cons_egress)
        seg_id = update_seg_id(seg_id, mac)
        macs.append(mac)
    return macs
