"""Per-reservation traffic policing.

One token bucket per ResID, stored as a flat array of 8-byte
nanosecond timestamps indexed by ResID.  The stored value is the
virtual time at which the reservation's traffic budget is used up; a
packet is priority-eligible while that time stays within BurstTime of
now.  Rejected packets leave the state untouched, so best-effort
overflow never hurts the reservation's future budget.

All arithmetic is integer nanoseconds with ceiling division, which
rounds service times against the sender: a reservation can never gain
budget from rounding.
"""

from __future__ import annotations

from array import array

from .wire import BW_VALUES, WireError, decode_bw

NS_PER_S = 1_000_000_000
DEFAULT_BURST_NS = 50_000_000  # absorbs scheduling jitter; see size notes below
OVER_ALLOCATION = 3  # ResID space head room for the online allocator
ENTRY_BYTES = 8


class PolicingError(ValueError):
    pass


class TokenBucketArray:
    """Policer state for one ingress interface."""

    def __init__(self, entries: int, burst_time_ns: int = DEFAULT_BURST_NS):
        if entries <= 0:
            raise PolicingError(f"need at least one entry, got {entries}")
        self.ts = array("q", bytes(ENTRY_BYTES * entries))
        self.burst_time_ns = burst_time_ns
        self.out_of_range = 0

    def __len__(self) -> int:
        return len(self.ts)


def monitor_code(
    state: TokenBucketArray,
    res_id: int,
    bw_code: int,
    pkt_len: int,
    now: int,
) -> bool:
    """Charge one packet against a reservation; True means priority.

    bw_code is the packet's 10-bit BW code, pkt_len in bytes, now in ns.
    The packet occupies the reservation for ceil(pkt_len * 8e9 / bits) ns,
    computed exactly; code 0 carries no bandwidth and is refused.
    """
    if not 0 < bw_code < 1 << 10:
        try:
            decode_bw(bw_code)
        except WireError as exc:
            raise PolicingError(str(exc)) from exc
        raise PolicingError("bw code 0 carries no bandwidth")
    bits = BW_VALUES[bw_code]
    service_ns = (pkt_len * 8 * NS_PER_S + bits - 1) // bits
    if not 0 <= res_id < len(state.ts):
        # Unreachable behind MAC verification, but a router must not
        # crash on a junk index: demote and count it.
        state.out_of_range += 1
        return False
    candidate = max(state.ts[res_id], now) + service_ns
    if candidate <= now + state.burst_time_ns:
        state.ts[res_id] = candidate
        return True
    return False


def size_array(total_bw: int, min_bw: int) -> int:
    """Entries needed so first-fit ResIDs fit: ceil(R * total / min)."""
    if total_bw <= 0 or min_bw <= 0:
        raise PolicingError("bandwidths must be positive")
    return (OVER_ALLOCATION * total_bw + min_bw - 1) // min_bw
