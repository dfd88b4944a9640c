"""Keyed fuzzing past the MAC check: `keyed_corpus` packets through the
router, against `router_oracle` and against the corpus's own spec."""

from collections import Counter
from random import Random

from hummingbird import router
from hummingbird.policing import TokenBucketArray
from hummingbird.router import Reason, RouterConfig, Verdict

import keyed_corpus
import router_oracle
from keyed_corpus import Spec, keyed_cases

CASES = 2500


class Clock:
    now = 0

    def __call__(self) -> int:
        return self.now


def routers(clock: Clock) -> dict[int, RouterConfig]:
    """One router per tag length, all on one policer."""
    policer = TokenBucketArray(keyed_corpus.POLICER_ENTRIES, keyed_corpus.BURST_NS)
    return {
        tag_len: RouterConfig(
            sv=keyed_corpus.SV, forwarding_key=keyed_corpus.FK, policer=policer, clock=clock,
            delta_ns=keyed_corpus.DELTA_NS, big_delta_ns=keyed_corpus.BIG_DELTA_NS,
            tag_len=tag_len,
        )
        for tag_len in range(1, 7)
    }


def test_keyed_corpus_matches_oracle_and_spec():
    clock = Clock()
    cfgs, refs = routers(clock), routers(clock)
    policer, ref_policer = cfgs[1].policer, refs[1].policer
    spec = Spec()
    reasons = Counter()
    for case in keyed_cases(Random(0x4B1D), CASES):
        clock.now = case.now
        before = policer.ts.tobytes()
        decision, out = router.process_packet_bytes(cfgs[case.tag_len], case.raw)
        expected = router_oracle.process_packet_bytes(refs[case.tag_len], case.raw)
        assert (decision, out) == expected, case
        assert policer.ts == ref_policer.ts and policer.out_of_range == ref_policer.out_of_range

        forwards, priority = spec.forwards(case), spec.priority(case)
        assert (decision.verdict is not Verdict.DROP) == forwards, case
        assert (decision.verdict is Verdict.PRIORITY) == priority, case
        assert (policer.ts.tobytes() != before) == priority, case
        if forwards:
            assert out == spec.forwarded_bytes(case), case
        reasons[decision.reason] += 1
    assert set(reasons) == set(Reason), reasons
    assert reasons[Reason.PRIORITY] >= CASES // 10, reasons
