"""The benchmark's own tests: short runs pass, planted wrong outputs fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

import forward_mix
import market_growth
import sim_contended
from harness import Measurement, round_figures, tail_percentile
from hummingbird import router, sim
from hummingbird.router import ForwardDecision, Reason, Verdict
from tracing import WRAPPED, Tracer


@pytest.fixture(scope="module")
def forward_round():
    state = forward_mix.setup(7, packets=800)
    result = forward_mix.run(state)
    return state, result


@pytest.fixture(scope="module")
def sim_round():
    state = sim_contended.setup(7, duration_s=0.2)
    result = sim_contended.run(state)
    return state, result


@pytest.fixture(scope="module")
def market_round():
    state = market_growth.setup(7, ops=40)
    result = market_growth.run(state)
    return state, result


# -- short runs pass ---------------------------------------------------------------


def test_forward_mix_short_run_passes(forward_round):
    state, result = forward_round
    assert result.failed == 0 and result.errors == []
    assert len(result.op_ns) == 800
    got = {(d.verdict.value, d.reason.value) for d, _ in state.outputs}
    assert ("priority", "priority") in got and ("best_effort", "over_budget") in got
    assert ("drop", "mac_mismatch") in got and ("best_effort", "stale_timestamp") in got
    assert min(r.length for r in state.records) == 44 and max(r.length for r in state.records) <= 1500


def test_sim_contended_short_run_passes(sim_round):
    state, result = sim_round
    assert result.failed == 0 and result.errors == []
    assert len(result.op_ns) == round(0.2e9) // sim_contended.SLICE_NS


def test_market_growth_short_run_passes(market_round):
    state, result = market_round
    assert result.failed == 0 and result.errors == []
    kinds = {op["kind"] for op, *_ in state.outputs}
    assert kinds == {"path", "resale", "read", "refused"}


# -- planted wrong outputs fail ----------------------------------------------------


def test_forward_mix_flipped_verdict_fails(forward_round):
    state, _ = forward_round
    outputs = list(state.outputs)
    i = next(i for i, (d, _) in enumerate(outputs) if d.verdict is Verdict.PRIORITY)
    outputs[i] = (ForwardDecision(Verdict.BEST_EFFORT, Reason.OVER_BUDGET), outputs[i][1])
    assert forward_mix.check(state, state.outputs) == []
    assert any("decision" in e for e in forward_mix.check(state, outputs))


def test_forward_mix_altered_mac_slot_fails(forward_round):
    state, _ = forward_round
    outputs = list(state.outputs)
    i = next(i for i, (d, b) in enumerate(outputs) if b is not None)
    slot = 24 + 8 * state.records[i].segments + 6
    data = bytearray(outputs[i][1])
    data[slot] ^= 0x01
    outputs[i] = (outputs[i][0], bytes(data))
    assert any("bytes differ" in e for e in forward_mix.check(state, outputs))


def test_forward_mix_dropped_packet_with_bytes_fails(forward_round):
    state, _ = forward_round
    outputs = list(state.outputs)
    i = next(i for i, (d, _) in enumerate(outputs) if d.verdict is Verdict.DROP)
    outputs[i] = (outputs[i][0], state.raws[i])
    assert any("returned bytes" in e for e in forward_mix.check(state, outputs))


def test_sim_contended_wrong_balance_fails(sim_round):
    state, _ = sim_round
    report = {**state.report, "ledger": {**state.report["ledger"]}}
    report["ledger"]["spend"] = {**report["ledger"]["spend"], "victim": report["ledger"]["spend"]["victim"] + 1}
    assert sim_contended.check(state.scenario, state.report) == []
    assert any("ledger.spend.victim" in e for e in sim_contended.check(state.scenario, report))


@pytest.mark.parametrize(
    "flow, field, value",
    [
        ("forger", "priority_packets", 1),
        ("victim", "priority_fraction", 1.0),
        ("r000", "priority_fraction", 0.9),
        ("overuser", "priority_bytes", 10**9),
    ],
)
def test_sim_contended_broken_guarantee_fails(sim_round, flow, field, value):
    state, _ = sim_round
    flows = {**state.report["flows"], flow: {**state.report["flows"][flow], field: value}}
    report = {**state.report, "flows": flows}
    assert any(f"flows.{flow}.{field}" in e for e in sim_contended.check(state.scenario, report))


def _planted(state, kind, change):
    """Check the market round again with one recorded output changed."""
    saved = list(state.outputs)
    i = next(i for i, (op, *_) in enumerate(saved) if op["kind"] == kind)
    row = list(saved[i])
    change(row)
    state.outputs[i] = tuple(row)
    try:
        return market_growth.check(state)
    finally:
        state.outputs[:] = saved


def test_market_growth_wrong_balance_fails(market_round):
    state, _ = market_round
    assert market_growth.check(state) == []

    def pay_seller_one_more(row):
        op, after = row[0], dict(row[3])
        seller = op["buys"][0][0].seller
        after[seller] += 1
        row[3] = after

    assert any("balance changes" in e for e in _planted(state, "path", pay_seller_one_more))


def test_market_growth_hash_change_after_refusal_fails(market_round):
    state, _ = market_round

    def rehash(row):
        row[5] = "0" * 64

    assert any("state hash changed" in e for e in _planted(state, "refused", rehash))


def test_market_growth_wrong_key_fails(market_round):
    state, _ = market_round

    def flip_key(row):
        res, key = row[1][0]
        row[1] = [(res, bytes([key[0] ^ 1]) + key[1:])] + list(row[1][1:])

    assert any("not AES(SV" in e for e in _planted(state, "path", flip_key))


def test_market_growth_colliding_res_ids_fail():
    grants = {(1, 2): [(0, 100, 200), (0, 150, 250), (0, 250, 300)]}
    assert len(market_growth._check_res_ids(grants)) == 1


# -- harness and tracing -------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(12_000) == 99.9
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(500) == 98.0


def test_tail_is_the_median_window():
    # Twelve windows of 1000 ops: eleven end in eleven 300 ns ops, one
    # holds fifty 9 ms stalls.
    ops = [100] * 12_000
    ops[:50] = [9_000_000] * 50
    for w in range(1, 12):
        ops[w * 1000 : w * 1000 + 11] = [300] * 11
    assert tail_percentile(1000) == 99.0
    assert round_figures(ops)[2] == 300


def test_run_figures_are_medians_over_rounds():
    m = Measurement(setup_ns=[2, 1, 3], rounds=[[1000] * 100, [2000] * 100, [50_000] * 100])
    figures = m.end_to_end()
    assert figures["ops_per_s"][0] == 1e9 / 2000
    assert figures["op_p50_us"][0] == 2.0 and figures["op_tail_us"][0] == 2.0
    assert figures["setup_s"][0] == 2e-9


def test_slice_markers_leave_the_report_unchanged():
    scenario = sim_contended.make_scenario(3, 0.1)
    plain = sim.report_json(sim.Network(scenario, 3).run())
    state = sim_contended.State(scenario=scenario, network=sim.Network(scenario, 3))
    _, report = sim_contended.execute(state)
    assert sim.report_json(report) == plain


def test_tracing_restores_the_program_and_records_children():
    original = router.process_packet_bytes
    tracer = Tracer("forward_mix")
    state = forward_mix.setup(8, packets=50)
    with tracer.installed():
        tracer.begin_phase("ops")
        forward_mix.execute(state, tracer)
        tracer.end_phase()
    assert router.process_packet_bytes is original
    for owner, attr, _ in WRAPPED:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")
    roots = tracer.select("router.process_packet_bytes")
    assert len(roots) == 50
    root_ids = {s[0] for s in roots}
    decodes = tracer.select("wire.decode_packet")
    assert decodes and all(s[4] in root_ids for s in decodes)
    selfs = tracer.self_times_ns("router.process_packet_bytes")
    assert all(0 <= t <= s[3] - s[2] for t, s in zip(selfs, roots))
