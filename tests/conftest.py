"""Shared builders for randomized tests, and a bounded policer stub.

Random structures are drawn from caller-seeded random.Random instances
so every failure reproduces from the printed seed.
"""

from __future__ import annotations

import random

import pytest

from hummingbird import sim
from hummingbird.policing import TokenBucketArray
from hummingbird.residalloc import MAX_IDS
from hummingbird.wire import (
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    Packet,
    PathMetaHdr,
)


def random_hop(rng: random.Random, flyover: bool | None = None):
    if flyover is None:
        flyover = rng.random() < 0.4
    common = dict(
        ingress_alert=rng.random() < 0.1,
        egress_alert=rng.random() < 0.1,
        exp_time=rng.randrange(256),
        cons_ingress=rng.randrange(1 << 16),
        cons_egress=rng.randrange(1 << 16),
        mac=rng.randbytes(6),
    )
    if not flyover:
        return HopField(**common)
    return FlyoverHopField(
        **common,
        res_id=rng.randrange(1 << 22),
        bw=rng.randrange(1 << 10),
        res_start_offset=rng.randrange(1 << 16),
        res_duration=rng.randrange(1 << 16),
    )


def random_path(rng: random.Random, allow_empty: bool = True) -> HummingbirdPath:
    """A structurally valid path with random contents and pointers."""
    num_inf = rng.choice([0, 1, 1, 2, 2, 3]) if allow_empty else rng.choice([1, 1, 2, 2, 3])
    infos = []
    hops = []
    seg_len = [0, 0, 0]
    for i in range(num_inf):
        infos.append(
            InfoField(
                peering=rng.random() < 0.1,
                cons_dir=rng.random() < 0.7,
                seg_id=rng.randrange(1 << 16),
                timestamp=rng.randrange(1 << 32),
            )
        )
        words = 0
        for _ in range(rng.randint(1, 5)):
            hop = random_hop(rng)
            if words + hop.words > 0x7F:
                break
            hops.append(hop)
            words += hop.words
        seg_len[i] = words

    # Pick a consistent (curr_inf, curr_hf) pair on a hop boundary.
    boundaries = [0]
    for hop in hops:
        boundaries.append(boundaries[-1] + hop.words)
    curr_hf = rng.choice(boundaries) if num_inf else 0
    total = sum(seg_len)
    if num_inf == 0:
        curr_inf = 0
    elif curr_hf == total:
        curr_inf = num_inf - 1
    else:
        acc = 0
        curr_inf = 0
        for i in range(num_inf):
            acc += seg_len[i]
            if curr_hf < acc:
                curr_inf = i
                break
    meta = PathMetaHdr(
        curr_inf=curr_inf,
        curr_hf=curr_hf,
        seg_len=tuple(seg_len),
        base_timestamp=rng.randrange(1 << 32),
        millis_timestamp=rng.randrange(1000),
        counter=rng.randrange(1 << 22),
    )
    return HummingbirdPath(meta=meta, infos=tuple(infos), hops=tuple(hops))


def random_packet(rng: random.Random) -> Packet:
    return Packet(
        dst_isd=rng.randrange(1 << 16),
        dst_as=rng.randrange(1 << 48),
        payload_len=rng.randrange(1 << 12),
        path=random_path(rng),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def bounded_policer(monkeypatch):
    """Stands in for sim.TokenBucketArray: a policer past MAX_IDS entries is
    never allocated (tiny min_bandwidth values ask for about 3*10^10)."""

    def policer(entries, *args):
        if entries > MAX_IDS:
            raise MemoryError(f"{entries} policer entries")
        return TokenBucketArray(entries, *args)

    monkeypatch.setattr(sim, "TokenBucketArray", policer)
