from fractions import Fraction

import pytest

from hummingbird import policing
from hummingbird.policing import PolicingError, TokenBucketArray, monitor_code
from hummingbird.wire import WireError, decode_bw, quantize_bw

from readers import array_bytes, service_time_ns

S = 1_000_000_000


class TestServiceTime:
    def test_example(self):
        # 1 Mbit/s is not exactly encodable; the code above it is.
        assert decode_bw(quantize_bw(1_000_000)) == 1_015_808
        # 2**20 bit/s is: 1250 B then occupy ceil(1e4 * 1e9 / 2**20) ns.
        code = quantize_bw(1 << 20)
        assert decode_bw(code) == 1 << 20
        assert service_time_ns(code, 1250) == 9_536_744

    def test_rounds_up(self):
        code = quantize_bw(3)  # 3 bit/s, pathological but encodable
        assert service_time_ns(code, 1) == -(-8 * S // 3)

    def test_zero_bandwidth_code(self):
        with pytest.raises(policing.PolicingError):
            service_time_ns(0, 100)


# 2**20 bit/s, exactly encodable: a 1250-byte packet occupies 9.54 ms.
CODE = quantize_bw(1 << 20)
PKT = 1250
SERVICE = service_time_ns(CODE, PKT)


def drive(gap_ns: int, count: int, burst=policing.DEFAULT_BURST_NS):
    state = TokenBucketArray(8, burst_time_ns=burst)
    verdicts = []
    for k in range(count):
        verdicts.append(monitor_code(state, 0, CODE, PKT, k * gap_ns))
    return verdicts


class TestMonitor:
    def test_exact_rate_never_demoted(self):
        # Packets spaced exactly one service time apart all go priority.
        verdicts = drive(gap_ns=SERVICE, count=10_000)
        assert all(verdicts)

    def test_double_rate_pattern(self):
        # At twice the rate, packet k arrives at k*g and would use the
        # budget up to 2(k+1)*g; with burst B it passes while (k+2)*g <= B.
        # B/g = 10.49 here: 9 straight accepts, then the burst allowance
        # is exhausted and every other packet demotes.
        assert SERVICE % 2 == 0
        verdicts = drive(gap_ns=SERVICE // 2, count=24)
        assert "".join("P" if v else "b" for v in verdicts) == "PPPPPPPPPbPbPbPbPbPbPbPb"

    @pytest.mark.parametrize("factor", [2, 4, 10])
    def test_overuse_converges_to_one_over_k(self, factor):
        count = 10_000
        verdicts = drive(gap_ns=SERVICE // factor, count=count)
        share = sum(verdicts) / count
        assert abs(share - 1 / factor) < 0.02

    def test_flood_priority_bytes_bounded(self):
        # However hard a reservation floods, accepted service time can
        # never exceed the window plus one burst allowance.
        state = TokenBucketArray(4)
        window = 2 * S
        accepted = 0
        gap = SERVICE // 10
        t = 0
        while t <= window:
            if monitor_code(state, 2, CODE, PKT, t):
                accepted += PKT
            t += gap
        bytes_per_s = Fraction(decode_bw(CODE), 8)
        assert accepted / bytes_per_s <= Fraction(window + policing.DEFAULT_BURST_NS, S)

    def test_reject_leaves_state_unchanged(self):
        state = TokenBucketArray(4)
        assert monitor_code(state, 1, CODE, PKT, 0)
        snapshot = bytes(state.ts.tobytes())
        # Far over budget: at 8 bit/s the service time exceeds burst.
        assert not monitor_code(state, 1, quantize_bw(8), PKT, 1)
        assert state.ts.tobytes() == snapshot

    def test_out_of_range_res_id(self):
        state = TokenBucketArray(4)
        snapshot = bytes(state.ts.tobytes())
        assert not monitor_code(state, 4, CODE, PKT, 0)
        assert state.out_of_range == 1
        assert state.ts.tobytes() == snapshot

    def test_bad_bandwidth(self):
        state = TokenBucketArray(4)
        for code in (0, -1, 1024):
            with pytest.raises(policing.PolicingError):
                monitor_code(state, 0, code, PKT, 0)


@pytest.mark.parametrize("pkt_len", [0, 1, 44, 1500, 65535])
def test_charge_matches_the_reference_division(pkt_len):
    """`monitor_code` charges from its BW-code table what the ceiling
    division through `service_time_ns` gives, or raises what it raises (a
    code outside 10 bits as a PolicingError with decode_bw's message)."""
    now = 10 * S
    for code in range(-1, 1025):
        state = TokenBucketArray(2)
        ts = [0, 0]
        # Twice on one bucket at one instant, once more later, once out of range.
        for res_id, at in ((0, now), (0, now), (0, now + 1), (2, now)):
            try:
                service_ns = service_time_ns(code, pkt_len)
            except (WireError, PolicingError) as exc:
                with pytest.raises(PolicingError) as raised:
                    monitor_code(state, res_id, code, pkt_len, at)
                assert (type(raised.value), str(raised.value)) == (PolicingError, str(exc))
                continue
            verdict = monitor_code(state, res_id, code, pkt_len, at)
            if res_id < len(ts):
                candidate = max(ts[res_id], at) + service_ns
                assert verdict is (candidate <= at + state.burst_time_ns), (code, res_id)
                if verdict:
                    ts[res_id] = candidate
            else:
                assert verdict is False
            assert list(state.ts) == ts, code
        assert state.out_of_range == (0 < code < 1024), code


class TestSizing:
    def test_spec_examples(self):
        entries = policing.size_array(100_000_000_000, 100_000)
        assert entries == 3_000_000
        assert array_bytes(entries) == 24_000_000
        entries = policing.size_array(100_000_000_000, 4_000_000)
        assert entries == 75_000
        assert array_bytes(entries) == 600_000

    def test_ceiling(self):
        # 3 * 10 / 9 = 3.33 rounds up at the fixed factor.
        assert policing.size_array(10, 9) == 4
        assert policing.size_array(10, 10) == 3

    def test_validation(self):
        with pytest.raises(policing.PolicingError):
            policing.size_array(0, 1)
        with pytest.raises(policing.PolicingError):
            policing.size_array(1, 0)
