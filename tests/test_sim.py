"""Simulator behavior: determinism, conservation laws, scenario contracts."""

import copy
import hashlib
import importlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from hummingbird import cli, sim
from hummingbird.ledger import Direction
from hummingbird.policing import size_array
from hummingbird.router import Reason, RouterConfig, process_packet
from hummingbird.source import build_packet
from hummingbird.sim import (
    Network,
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    report_json,
    validate_scenario,
)

import router_oracle
import source_oracle
from readers import check_expectations


def mini_topology():
    return {
        "ases": [{"id": 1}, {"id": 2}],
        "links": [{"from": 1, "to": 2, "capacity_mbps": 10, "delay_ms": 1}],
    }


def chain_scenario(length: int, flow: dict, **overrides):
    """One flow along a chain of `length` ASes, 1 -> 2 -> ... -> length."""
    scenario = {
        "name": "chain",
        "duration_s": 1,
        "topology": {
            "ases": [{"id": i} for i in range(1, length + 1)],
            "links": [{"from": i, "to": i + 1, "capacity_mbps": 10} for i in range(1, length)],
        },
        "market": {},
        "flows": [{"name": "f", "path": list(range(1, length + 1)), "rate_mbps": 1,
                   "packet_bytes": 1500, **flow}],
    }
    scenario.update(overrides)
    return scenario


def exact_rate(**flow):
    scenario = load_scenario("exact_rate")
    scenario["flows"][0].update(flow)
    return scenario


def victim_sharing_at_as_4():
    """bait enters AS 4 from AS 3, victim from AS 2: one credential cannot serve both."""
    scenario = load_scenario("replay_shared")
    scenario["flows"][1]["share"] = {"4": "bait"}
    return scenario


# Scenarios that pass validation but hold a flow whose packets the source
# refuses to build: set-up builds each sender's last packet, so each is a
# scenario error that names the flow, raised before any event runs.
UNBUILDABLE = [
    pytest.param(chain_scenario(90, {"class": "best_effort"}),
                 "flow f: path too long: hdr_len 278", id="best-effort-90-ases"),
    pytest.param(chain_scenario(26, {"class": "reserved", "reserve_mbps": 1}),
                 "flow f: seg0_len out of range for 7-bit field: 130", id="reserved-26-ases"),
    pytest.param(exact_rate(packet_bytes=70_000),
                 "flow victim: pkt_len 70000 does not fit 16 bits", id="packet-70000-bytes"),
    pytest.param(exact_rate(stop_s=700),
                 r"flow victim: reservation \[\d+, \d+\] not active", id="sends-past-window"),
    pytest.param(exact_rate(start_s=650, stop_s=651),
                 r"flow victim: reservation \[\d+, \d+\] not active", id="starts-past-window"),
    pytest.param(chain_scenario(2, {"class": "best_effort", "start_s": 2.6e9, "stop_s": 2.6e9 + 1},
                                duration_s=2.7e9, market={"window_s": 2_700_000_000}),
                 "flow f: clock beyond 32-bit unix seconds", id="clock-past-2106"),
    pytest.param(victim_sharing_at_as_4(),
                 r"flow victim: reservation interfaces \(\d+, \d+\) do not match hop",
                 id="credential-for-other-interfaces"),
]


def mini_scenario(**overrides):
    scenario = {
        "name": "mini",
        "duration_s": 0.2,
        "topology": mini_topology(),
        "market": {
            "granularity_s": 60,
            "window_s": 600,
            "min_bandwidth": 1_000_000,
            "unit_price": 1,
        },
        "flows": [
            {
                "name": "res",
                "class": "reserved",
                "path": [1, 2],
                "reserve_mbps": 2,
                "rate_mbps": 2,
                "packet_bytes": 1000,
            },
            {
                "name": "be",
                "class": "best_effort",
                "path": [1, 2],
                "rate_mbps": 4,
                "packet_bytes": 1000,
            },
        ],
    }
    scenario.update(overrides)
    return scenario


class TestSimulator:
    """The event loop alone: order, arguments, and events in the past."""

    def test_equal_times_run_in_insertion_order_with_or_without_arguments(self):
        loop, ran = sim.Simulator(), []
        loop.schedule(20, ran.append, "late")
        loop.schedule(10, lambda: ran.append("first"))
        loop.schedule(10, ran.append, "second")
        loop.schedule(10, lambda *args: ran.append(args), "third", 3)
        loop.schedule(10, lambda: ran.append("fourth"))
        loop.run()
        assert ran == ["first", "second", ("third", 3), "fourth", "late"]
        assert loop.now == 20

    def test_an_event_without_arguments_runs_and_can_schedule_more(self):
        loop, seen = sim.Simulator(), []

        def mark() -> None:
            seen.append(loop.now)
            if loop.now < 30:
                loop.schedule(loop.now + 10, mark)

        loop.schedule(0, mark)
        loop.run()
        assert seen == [0, 10, 20, 30]

    def test_an_event_in_the_past_raises_and_pushes_nothing(self):
        loop, ran = sim.Simulator(), []
        loop.schedule(5, ran.append, 5)
        loop.run()
        with pytest.raises(RuntimeError, match="in the past"):
            loop.schedule(4, ran.append, 4)
        loop.run()
        assert ran == [5] and loop.now == 5
        loop.schedule(5, ran.append, "now")  # the present is not the past
        loop.run()
        assert ran == [5, "now"]


class TestDeterminism:
    def test_same_inputs_byte_identical_report(self):
        scenario = mini_scenario()
        a = report_json(Network(scenario, 42).run())
        b = report_json(Network(copy.deepcopy(scenario), 42).run())
        assert a == b

    def test_seed_changes_keys_not_validity(self):
        scenario = mini_scenario()
        a = Network(scenario, 1).run()
        b = Network(scenario, 2).run()
        assert a["seed"] == 1 and b["seed"] == 2
        # Same deterministic traffic pattern, different entity keys.
        assert a["flows"]["res"]["offered_packets"] == b["flows"]["res"]["offered_packets"]
        assert a["ledger"]["state_hash"] != b["ledger"]["state_hash"]

    def test_entity_prng_streams_are_isolated(self):
        # Adding an unrelated flow must not disturb another flow's stream
        # of random draws (per-entity namespacing).
        base = mini_scenario()
        extra = mini_scenario()
        extra["flows"] = extra["flows"] + [
            {
                "name": "zz-late",
                "class": "best_effort",
                "path": [1, 2],
                "rate_mbps": 1,
                "packet_bytes": 1000,
                "start_s": 0.19,
            }
        ]
        a = Network(base, 9).run()
        b = Network(extra, 9).run()
        assert a["flows"]["res"] == b["flows"]["res"]


class TestConservation:
    def test_every_offered_packet_is_accounted_for(self):
        # Oversubscribed best effort: offered == delivered + dropped once
        # the event heap drains (no packets are lost by the simulator).
        scenario = mini_scenario()
        scenario["flows"][1]["rate_mbps"] = 30
        report = Network(scenario, 5).run()
        for stats in report["flows"].values():
            assert (
                stats["offered_packets"]
                == stats["delivered_packets"] + stats["dropped_packets"]
            )
        assert report["flows"]["be"]["dropped_packets"] > 0

    def test_link_cannot_serve_beyond_capacity(self):
        scenario = mini_scenario()
        scenario["flows"][1]["rate_mbps"] = 30
        report = Network(scenario, 5).run()
        link = report["links"]["1->2"]
        served_bits = (link["priority_bytes"] + link["best_effort_bytes"]) * 8
        # duration plus drained queue (be buffer is 50 ms of capacity)
        budget = 10_000_000 * (0.2 + 0.06)
        assert served_bits <= budget

    def test_work_conservation_unused_reservation_feeds_best_effort(self):
        # The reserved flow is silent, best effort runs at link capacity
        # and gets essentially all of it.
        scenario = mini_scenario()
        scenario["flows"][0]["stop_s"] = 0.0
        scenario["flows"][1]["rate_mbps"] = 10
        report = Network(scenario, 5).run()
        assert report["flows"]["res"]["offered_packets"] == 0
        assert report["flows"]["be"]["delivered_fraction"] >= 0.99
        assert report["flows"]["be"]["dropped_packets"] == 0

    def test_demoted_packets_queue_as_best_effort_and_can_drop(self):
        # An overuser's excess is demoted into a best-effort queue that a
        # flood keeps full, so some of its packets are lost downstream.
        scenario = mini_scenario()
        scenario["flows"][0] = {
            "name": "res",
            "class": "adversary",
            "kind": "overuse",
            "path": [1, 2],
            "reserve_mbps": 2,
            "rate_mbps": 6,
            "packet_bytes": 1000,
        }
        scenario["flows"][1]["rate_mbps"] = 20
        scenario["duration_s"] = 0.5
        report = Network(scenario, 5).run()
        res = report["flows"]["res"]
        assert res["priority_packets"] > 0
        assert res["dropped_packets"] > 0
        assert res["best_effort_packets"] > 0
        assert (
            res["offered_packets"]
            == res["delivered_packets"] + res["dropped_packets"]
        )


class TestReservationUse:
    def test_credentials_bought_on_ledger_verify_at_every_hop(self):
        report = Network(mini_scenario(), 3).run()
        # 2 Mbit/s in 1000 B packets over 0.2 s -> 50 packets, all priority
        assert report["flows"]["res"]["priority_packets"] == 50
        assert report["hops"]["res"]["1"] == {"priority:priority": 50}
        assert report["hops"]["res"]["2"] == {"priority:priority": 50}
        # two assets per hop AS at unit price over the whole window
        spend = 2 * 2_000_000 * 600 * 2
        assert report["ledger"]["spend"]["res"] == spend

    def test_report_includes_ledger_state_hash(self):
        report = Network(mini_scenario(), 3).run()
        assert len(report["ledger"]["state_hash"]) == 64

    def test_reservation_beyond_every_listing_is_refused(self):
        scenario = mini_scenario()
        scenario["flows"][0]["reserve_mbps"] = 11  # the 1->2 link carries 10
        with pytest.raises(
            ScenarioError,
            match=(r"^flow res: no listing covers AS 1 iface \d+ egress 11000000 bit/s "
                   r"over \(\d+, \d+\)$"),
        ):
            Network(scenario, 3)

    def test_reservation_across_an_interface_too_slow_to_sell_is_refused(self):
        scenario = mini_scenario()
        scenario["topology"]["links"][0]["capacity_mbps"] = 0.5  # below min_bandwidth
        with pytest.raises(ScenarioError, match=r"^flow res: no listing covers AS 1 iface 1 egress "):
            Network(scenario, 3)

    @pytest.mark.parametrize("name", list(bundled_scenarios()))
    def test_each_resource_has_at_most_one_open_listing_over_the_window(self, name):
        """Every purchase at set-up spans the market window, so the open
        listings map one-to-one onto (AS, interface, direction): the fact
        that lets set-up find a resource's listing by its key alone."""
        net = Network(load_scenario(name), 1)
        listed = [(l, net.ledger.asset(l.asset_id)) for l in net.ledger.open_listings()]
        keys = {(a.as_id, a.interface, a.direction) for _, a in listed}
        assert len(keys) == len(listed)
        assert all((a.start_time, a.expiration_time) == net.window for _, a in listed)
        listings = net._listings()
        for listing, asset in listed:
            key = (asset.as_id, asset.interface, asset.direction)
            for bandwidth in (1, asset.bandwidth // 2, asset.bandwidth):
                assert net._find_listing(listings, *key, bandwidth) == listing
            with pytest.raises(ScenarioError, match="no listing covers"):
                net._find_listing(listings, *key, asset.bandwidth + 1)
        unlisted = {
            (as_id, iface, direction)
            for as_id, border in net.ases.items()
            for iface in range(len(border.capacities))
            for direction in Direction
        } - keys
        for key in unlisted:
            with pytest.raises(ScenarioError, match="no listing covers"):
                net._find_listing(listings, *key, 1)
        # Only starvation's bought-out AS has resources without a listing.
        assert {as_id for as_id, *_ in unlisted} == ({2} if name == "starvation" else set())

    @pytest.mark.parametrize("name", list(bundled_scenarios()))
    def test_one_interface_list_sizes_each_router(self, name):
        net = Network(load_scenario(name), 1)
        for border in net.ases.values():
            assert len(border.routers) == len(border.capacities)
            assert border.capacities[0] == net.host_capacity_bps
            for router, capacity in zip(border.routers, border.capacities):
                assert len(router.policer) == size_array(capacity, net.market["min_bandwidth"])


class TestSchemaRejections:
    def run_invalid(self, scenario, match):
        with pytest.raises(ScenarioError, match=match):
            validate_scenario(scenario)

    def test_missing_duration(self):
        scenario = mini_scenario()
        del scenario["duration_s"]
        self.run_invalid(scenario, "missing 'duration_s'")

    def test_negative_duration(self):
        self.run_invalid(mini_scenario(duration_s=-1), "positive")

    def test_unknown_flow_class(self):
        scenario = mini_scenario()
        scenario["flows"][0]["class"] = "turbo"
        self.run_invalid(scenario, "unknown class")

    def test_unknown_adversary_kind(self):
        scenario = mini_scenario()
        scenario["flows"][1]["class"] = "adversary"
        scenario["flows"][1]["kind"] = "ddos"
        self.run_invalid(scenario, "unknown adversary kind")

    @pytest.mark.parametrize("kind", sim.ADVERSARY_KINDS)
    def test_adversary_kind_needs_class_adversary(self, kind):
        scenario = mini_scenario()
        scenario["flows"][1]["kind"] = kind
        self.run_invalid(scenario, f"^flow be: kind '{kind}' needs class adversary$")

    def test_other_kind_on_a_non_adversary_flow_is_a_label(self):
        scenario = mini_scenario()
        scenario["flows"][1]["kind"] = "bulk"
        assert validate_scenario(scenario)["flows"][1]["kind"] == "bulk"

    def test_path_without_link(self):
        scenario = mini_scenario()
        scenario["flows"][0]["path"] = [2, 1]
        self.run_invalid(scenario, "no link 2->1")

    def test_path_with_undeclared_as(self):
        scenario = mini_scenario()
        scenario["flows"][0]["path"] = [1, 7]
        self.run_invalid(scenario, "AS 7 not declared")

    def test_duplicate_flow_names(self):
        scenario = mini_scenario()
        scenario["flows"][1]["name"] = "res"
        self.run_invalid(scenario, "duplicate flow name")

    def test_duplicate_as_ids(self):
        scenario = mini_scenario()
        scenario["topology"]["ases"].append({"id": 1})
        self.run_invalid(scenario, "duplicate AS id")

    def test_link_from_an_as_to_itself(self):
        """Both ends would number the same AS's interfaces, so none is sized."""
        scenario = mini_scenario()
        scenario["topology"]["links"].append({"from": 1, "to": 1, "capacity_mbps": 10})
        self.run_invalid(scenario, "^link 1->1 connects AS 1 to itself$")

    def test_reserved_path_visits_an_as_twice(self):
        """A reserving flow holds one credential per AS; a best-effort one needs none."""
        scenario = mini_scenario()
        scenario["topology"]["links"].append({"from": 2, "to": 1, "capacity_mbps": 10})
        scenario["flows"][1]["path"] = [1, 2, 1, 2]
        validate_scenario(scenario)
        scenario["flows"][0]["path"] = [1, 2, 1, 2]
        self.run_invalid(scenario, "^flow res: path visits AS 1 twice$")

    def test_reserved_flow_needs_market(self):
        scenario = mini_scenario()
        del scenario["market"]
        self.run_invalid(scenario, "market")

    def test_reserved_flow_needs_bandwidth(self):
        scenario = mini_scenario()
        del scenario["flows"][0]["reserve_mbps"]
        self.run_invalid(scenario, "reserve_mbps")

    def test_share_must_point_at_earlier_flow(self):
        scenario = mini_scenario()
        scenario["flows"][0]["share"] = {"2": "be"}
        self.run_invalid(scenario, "share source")

    def test_replayer_needs_on_path_observation_point(self):
        scenario = mini_scenario()
        scenario["flows"].append(
            {
                "name": "rep",
                "class": "adversary",
                "kind": "replay_on_reservation_set",
                "path": [1, 2],
                "at_as": 9,
                "replays_flow": "res",
            }
        )
        self.run_invalid(scenario, "at_as 9 not on path")

    def test_replayed_flow_must_exist(self):
        scenario = mini_scenario()
        scenario["flows"].append(
            {
                "name": "rep",
                "class": "adversary",
                "kind": "replay_on_reservation_set",
                "path": [1, 2],
                "at_as": 1,
                "replays_flow": "ghost",
            }
        )
        self.run_invalid(scenario, "replays_flow")

    def test_replayer_path_must_be_the_replayed_flows(self):
        """Its copies go on along the replayed flow's path, from the hop where it sits."""
        scenario = load_scenario("replay_separate")
        scenario["flows"][2]["path"] = [3, 4]
        self.run_invalid(scenario, r"^flow replayer: path \[3, 4\] is not the path of 'bait'$")

    def test_replayer_cannot_replay_itself(self):
        scenario = load_scenario("replay_separate")
        scenario["flows"][2]["replays_flow"] = "replayer"
        self.run_invalid(
            scenario, "^flow replayer: replays_flow 'replayer' must be declared earlier$"
        )

    def test_one_replayer_per_as(self):
        scenario = load_scenario("replay_shared")
        scenario["flows"].append(dict(scenario["flows"][2], name="copycat"))
        self.run_invalid(scenario, "^flow copycat: AS 3 already has replayer replayer$")

    def test_bad_expect_op(self):
        scenario = mini_scenario()
        scenario["expect"] = [{"metric": "flows.res.offered_packets", "op": "~", "value": 1}]
        self.run_invalid(scenario, "unknown expect op")

    def test_market_window_alignment(self):
        scenario = mini_scenario()
        scenario["market"]["window_s"] = 601
        self.run_invalid(scenario, "not a multiple")

    def test_market_lead_alignment(self):
        scenario = mini_scenario()
        scenario["market"]["lead_s"] = 7
        self.run_invalid(scenario, "lead")

    def test_rejection_happens_before_simulation(self):
        scenario = mini_scenario()
        scenario["flows"][0]["path"] = [2, 1]
        with pytest.raises(ScenarioError):
            Network(scenario, 1)

    def test_packet_smaller_than_header(self):
        scenario = mini_scenario()
        scenario["flows"][0]["packet_bytes"] = 40
        with pytest.raises(ScenarioError, match="header"):
            Network(scenario, 1)

    @pytest.mark.parametrize("scenario, match", UNBUILDABLE)
    def test_packet_the_source_refuses(self, scenario, match):
        validate_scenario(scenario)
        with pytest.raises(ScenarioError, match=f"^{match}"):
            Network(scenario, 1)


class TestExpectations:
    def test_missing_metric_is_a_failure_not_a_crash(self):
        report = Network(mini_scenario(), 1).run()
        failures = check_expectations(
            report, {"expect": [{"metric": "flows.nobody.offered_packets", "op": "==", "value": 1}]}
        )
        assert failures == ["flows.nobody.offered_packets: no such metric"]

    def test_failed_comparison_reports_both_sides(self):
        report = Network(mini_scenario(), 1).run()
        failures = check_expectations(
            report, {"expect": [{"metric": "flows.res.offered_packets", "op": "==", "value": 7}]}
        )
        assert failures == ["flows.res.offered_packets: 50 == 7 is false"]

    def test_metric_that_is_no_number_is_a_failure_not_a_crash(self):
        report = Network(mini_scenario(), 1).run()
        failures = check_expectations(
            report, {"expect": [{"metric": "flows.res", "op": ">=", "value": 1}]}
        )
        assert failures == ["flows.res: no such metric"]


class TestFilledScenario:
    def test_every_default_is_filled_in_and_the_argument_kept(self):
        scenario = mini_scenario()
        del scenario["topology"]["links"][0]["delay_ms"]
        scenario["flows"].append(
            {
                "name": "rep",
                "class": "adversary",
                "kind": "replay_on_reservation_set",
                "path": [1, 2],
                "at_as": 1,
                "replays_flow": "res",
            }
        )
        before = copy.deepcopy(scenario)
        filled = validate_scenario(scenario)
        assert scenario == before
        assert filled == {
            **before,
            "host_capacity_mbps": 10_000,
            "burst_ms": 50,
            "funding": 10**18,
            "topology": {
                "ases": [{"id": 1, "clock_offset_ms": 0}, {"id": 2, "clock_offset_ms": 0}],
                "links": [
                    {"from": 1, "to": 2, "capacity_mbps": 10, "delay_ms": 1, "be_buffer_ms": 50}
                ],
            },
            "market": {**before["market"], "lead_s": 0},
            "flows": [
                *(
                    {**flow, "account": flow["name"], "kind": "", "share": {},
                     "start_s": 0, "stop_s": 0.2}
                    for flow in before["flows"][:2]
                ),
                {**before["flows"][2], "account": "rep", "share": {}, "multiplicity": 1},
            ],
            "buyouts": [],
            "expect": [],
        }
        # A checked scenario checks again unchanged, so Network may be handed one.
        assert validate_scenario(filled) == filled
        # The copy shares no list or object with the argument.
        filled["topology"]["ases"][0]["id"] = 7
        filled["flows"][0]["path"].append(3)
        filled["market"]["unit_price"] = 5
        assert scenario == before

    def test_a_scenario_without_market_gets_the_default_one(self):
        scenario = mini_scenario()
        del scenario["market"]
        del scenario["flows"][0]
        assert validate_scenario(scenario)["market"] == {
            "granularity_s": 60,
            "window_s": 600,
            "lead_s": 0,
            "min_bandwidth": 1_000_000,
            "unit_price": 1,
        }

    def test_as_id_the_ledger_cannot_sign_is_refused(self):
        scenario = mini_scenario()
        scenario["topology"]["ases"].append({"id": 1 << 64})
        with pytest.raises(ScenarioError, match=r"ases\.2\.id must be below 2\*\*64"):
            validate_scenario(scenario)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_scenario_validates(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        scenario = importlib.import_module("sim_contended").make_scenario(seed)
        filled = validate_scenario(scenario)
        assert [f["name"] for f in filled["flows"]] == [f["name"] for f in scenario["flows"]]


class TestBundledScenarios:
    def test_all_nine_ship_and_validate(self):
        names = set(bundled_scenarios())
        assert names == {
            "exact_rate",
            "qos_flood",
            "silent_reservation",
            "overuse",
            "replay_shared",
            "replay_separate",
            "clock_skew",
            "forgery",
            "starvation",
        }
        for name in names:
            validate_scenario(load_scenario(name))

    # sha256 of report_json at seed 1729, for every bundled scenario.  A
    # report that changes by one byte fails here; re-pin only for a change
    # that means to alter it.
    PINNED_REPORTS = {
        "exact_rate": "3809745f3963f703d86daad552e9514103e312bfb35ad928e6ed664ac236e7d1",
        "forgery": "893ba104d24c58f60d6b253669982e2912ea570d101e8a73173bec3eb53982da",
        "starvation": "d65a6346d686f87cbb9b63f40dddfa6f3531b9fbd4aebed5c52320c28844ce9a",
        "clock_skew": "26a53c9184e9fa4f92522c2a8cd2a84df2f0746069160b4e99cc7af55f9fb11f",
        "silent_reservation": "fe792e8eb7d36f9588555486e08e21f887c63d4d90836d415e92c676e9e2d705",
        "qos_flood": "aa8ebce0686af3dbd6a2ce6abe7a7bb30266df416438c5a9dda2825e47265225",
        "overuse": "2d36ebd86b89b92d393b38f68432b32bff7a3fbe054748f61b655bdc305d699c",
        "replay_shared": "5ff48f7917288bb6b17719f22bc8be75658a699675676d7a9c96a5cac260bbda",
        "replay_separate": "6782b1f66fdda61e138fb3cc0c400844d09c32bf04494787f66be3c0ca617349",
    }

    @pytest.mark.parametrize("name", list(PINNED_REPORTS))
    def test_bundled_scenarios_meet_their_assertions(self, name):
        scenario = load_scenario(name)
        report = Network(scenario, 1729).run()
        assert check_expectations(report, scenario) == []
        digest = hashlib.sha256(report_json(report).encode()).hexdigest()
        assert digest == self.PINNED_REPORTS[name]

    # sha256 of report_json for the benchmark's sim_contended scenario
    # (perfbench/sim_contended.py), by seed.
    PINNED_BENCHMARK_REPORTS = {
        1: "af9d934b3c15cb5c6bec4b0c969241a77417b5550c3c49b6e1d87d7ad9df534d",
        5: "ab27c33097c54ca2829f63b6be5af44ff49b46417a63bcc39e22167b64347a44",
    }

    @pytest.mark.parametrize("seed", list(PINNED_BENCHMARK_REPORTS))
    def test_benchmark_scenario_reports_are_pinned(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        scenario = importlib.import_module("sim_contended").make_scenario(seed)
        report = Network(scenario, seed).run()
        digest = hashlib.sha256(report_json(report).encode()).hexdigest()
        assert digest == self.PINNED_BENCHMARK_REPORTS[seed]

    # sha256 of `hummingbird ledger-demo --format records` at seed 1729.
    # Every line carries its op's state hash, so this pins the digest of
    # every logged op, not only the last.
    PINNED_LEDGER_RECORDS = "48ac7bb4282a615d6cfae205add1277f3e764f3cf9f7b10d22ca413caf7af8d9"

    def test_ledger_demo_records_are_pinned(self, capsys):
        assert cli.main(["ledger-demo", "--format", "records", "--seed", "1729"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.PINNED_LEDGER_RECORDS

    def test_unknown_scenario_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            load_scenario("no_such_scenario")


class TestAgainstOracles:
    """A whole scenario run with every router step checked against
    `router_oracle` and every packet build against `source_oracle`."""

    @pytest.mark.parametrize("name", ["replay_shared", "forgery"])
    def test_every_hop_and_build_matches_the_oracles(self, monkeypatch, name):
        calls = Counter()

        def checked_process(cfg, packet):
            reference = RouterConfig(cfg.sv, cfg.forwarding_key, copy.deepcopy(cfg.policer),
                                     cfg.clock, cfg.delta_ns, cfg.big_delta_ns, cfg.tag_len)
            expected = router_oracle.process_packet(reference, packet)
            decision, out = process_packet(cfg, packet)
            assert (decision, out) == expected
            assert cfg.policer.ts == reference.policer.ts
            assert out.path.hop_table() == replace(out.path).hop_table()
            calls[decision.reason] += 1
            return decision, out

        def checked_build(plan, payload_len, clock, counter_state):
            expected = source_oracle.build_packet(
                plan, payload_len, clock, copy.copy(counter_state)
            )
            packet = build_packet(plan, payload_len, clock, counter_state)
            assert packet == expected
            assert packet.path.hop_table() == replace(packet.path).hop_table()
            calls["build"] += 1
            return packet

        monkeypatch.setattr(sim, "process_packet", checked_process)
        monkeypatch.setattr(sim, "build_packet", checked_build)
        scenario = load_scenario(name)
        network = Network(scenario, 1)
        calls.clear()  # set-up builds each sender's last packet; count the run's
        report = network.run()
        assert check_expectations(report, scenario) == []
        # replay_shared: priority and over-budget hops; forgery: forged tags
        # on paths rebuilt with their plan's hop table, all refused at the
        # first hop.
        assert calls["build"] >= 500 and sum(calls.values()) >= 2 * calls["build"]


class TestClockSkew:
    def test_fresh_traffic_never_demoted_for_freshness_under_skew(self):
        scenario = load_scenario("clock_skew")
        report = Network(scenario, 11).run()
        victim = report["flows"]["victim"]
        assert victim["priority_fraction"] == 1.0
        for counts in report["hops"]["victim"].values():
            assert set(counts) == {"priority:priority"}
