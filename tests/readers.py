"""What only tests read, kept out of `src/`.

- `service_time_ns`: the policer's reference, the ceiling division that
  `policing.monitor_code` charges, written from `wire.decode_bw`.
- `array_bytes` and `TokenBucketArray.nbytes`: a policer's memory.
- `Ledger.assets_owned_by` and `Ledger.total_supply`: a ledger's assets by
  owner and its currency in circulation.
- `check_expectations`: every failed `expect` of a scenario's report.

`TokenBucketArray` and `Ledger` here are the program's own classes with the
readers added, so a test that builds one from this module reads them as
methods.
"""

from __future__ import annotations

from hummingbird import ledger, policing, sim
from hummingbird.policing import ENTRY_BYTES, NS_PER_S, PolicingError
from hummingbird.wire import decode_bw


def service_time_ns(bw_code: int, pkt_len: int) -> int:
    """Nanoseconds a pkt_len-byte packet occupies a bw_code reservation:
    ceil(pkt_len * 8e9 / bw_bits) exactly.  A code outside 10 bits raises
    `decode_bw`'s WireError, which the policer raises as a PolicingError
    with the same message."""
    bits = decode_bw(bw_code)
    if bits == 0:
        raise PolicingError("bw code 0 carries no bandwidth")
    return (pkt_len * 8 * NS_PER_S + bits - 1) // bits


def array_bytes(entries: int) -> int:
    return ENTRY_BYTES * entries


class TokenBucketArray(policing.TokenBucketArray):
    @property
    def nbytes(self) -> int:
        return ENTRY_BYTES * len(self.ts)


class Ledger(ledger.Ledger):
    def assets_owned_by(self, account: str) -> tuple[ledger.BandwidthAsset, ...]:
        return tuple(a for a in self._state.assets.values() if a.owner == account)

    def total_supply(self) -> int:
        return sum(self._state.balances.values())


def check_expectations(report: dict, scenario: dict) -> list[str]:
    """Evaluate the scenario's embedded assertions; returns failures."""
    failures = (sim.expectation_failure(report, expect) for expect in scenario["expect"])
    return [failure for failure in failures if failure is not None]
