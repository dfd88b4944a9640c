"""Command-line behavior: exit codes, determinism, formats."""

import copy
import json
from dataclasses import fields
from pathlib import Path

import pytest

from hummingbird import cli, sim, vectors
from hummingbird.policing import TokenBucketArray
from hummingbird.residalloc import MAX_IDS
from hummingbird.sim import bundled_scenarios, validate_scenario
from hummingbird.wire import FlyoverHopField, InfoField, Packet, PathMetaHdr


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corrupted_file(tmp_path, name, where, value):
    """Bundled scenario `name` with the field at key path `where` set to
    `value`, written to a file."""
    scenario = json.loads(bundled_scenarios()[name])
    *parents, key = where
    record = scenario
    for step in parents:
        record = record[step]
    record[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    return bad


@pytest.fixture()
def decision_case():
    return json.loads(vectors.generate()["decisions.json"])["cases"][0]


# Where each record sits in a packet object, and every field it holds.
# Each field gets a str, a float and None; an int field also gets a
# bool, a flag an int, and a MAC or seg_len a list holding a None.
WRONG_TYPED = [
    pytest.param(where, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for where, cls in (
        ((), Packet),
        (("meta",), PathMetaHdr),
        (("infos", 0), InfoField),
        (("hops", 0), FlyoverHopField),
    )
    for f in fields(cls)
    if f.name != "path"
    for value in ("0", 0.5, None, {"bool": 1, "int": True}.get(f.type, [None, 0, 0]))
]


# One-field corruptions of a bundled scenario, each of which once crashed
# the run with a traceback, ran on a float where the ledger keeps integer
# amounts and times, silently did nothing, or failed at set-up with a plain
# `error:`, instead of a scenario error.
CORRUPTED_FIELDS = [
    pytest.param(scenario, where, value, id=f"{'.'.join(map(str, where))}={value!r}")
    for scenario, cases in {
        "qos_flood": (
            (("flows", 0, "rate_mbps"), 0),
            (("flows", 0, "rate_mbps"), -1),
            (("flows", 0, "rate_mbps"), 1e-9),
            (("flows", 0, "rate_mbps"), "5"),
            (("flows", 0, "packet_bytes"), "1250"),
            (("flows", 0, "packet_bytes"), 1250.5),
            (("flows", 0, "start_s"), -0.5),
            (("flows", 0, "start_s"), "0"),
            (("flows", 0, "stop_s"), "1"),
            (("flows", 0, "reserve_mbps"), "5"),
            (("flows", 0, "path"), 1),
            (("topology", "links", 0, "delay_ms"), -1),
            (("topology", "links", 0, "delay_ms"), "1"),
            (("topology", "links", 0, "capacity_mbps"), "100"),
            (("flows", 0, "share"), 5),
            (("topology", "links", 0, "be_buffer_ms"), None),
            (("topology", "ases", 0, "clock_offset_ms"), "1"),
            (("host_capacity_mbps",), "x"),
            (("burst_ms",), "x"),
            (("funding",), "x"),
            (("market", "granularity_s"), 0),
            (("market", "granularity_s"), "60"),
            (("market", "min_bandwidth"), "x"),
            (("market", "unit_price"), "x"),
            (("market", "granularity_s"), 60.0),
            (("market", "window_s"), 600.0),
            (("market", "lead_s"), 0.0),
            (("market", "min_bandwidth"), 1e6),
            (("market", "unit_price"), 1.5),
            (("funding",), 1e18),
            (("funding",), -1),
            (("market", "unit_price"), -1),
            (("flows", 0, "name"), 5),
            (("flows", 0, "account"), 5),
            (("market", "min_bandwidth"), 1),
            (("market",), None),
            (("flows",), 5),
            (("host_capacity_mbps",), 0),
            (("topology", "ases", 0, "id"), True),
            (("topology", "links", 0, "from"), True),
            (("topology", "links", 0, "from"), []),
            (("flows", 0, "path", 0), True),
            (("flows", 0, "path", 0), []),
            (("topology", "links", 0, "be_buffer_ms"), 1e300),
            (("flows", 0, "start_s"), 1e300),
            (("flows", 0, "stop_s"), float("nan")),
            (("expect", 0, "metric"), 0),
            (("expect", 0, "value"), []),
            # About 10^-14 ns between packets: the event loop would never advance.
            (("flows", 1, "rate_mbps"), 10**30),
            # Packets for 10^15 s: more than MAX_PACKETS, a run that would never end.
            (("flows", 0, "stop_s"), 10**15),
            # Valid fields that fail at set-up: a reserved packet smaller
            # than its header, and a reservation no listing covers.
            (("flows", 0, "packet_bytes"), 40),
            (("flows", 0, "reserve_mbps"), 10**6),
        ),
        "replay_shared": (
            (("flows", 1, "share"), {"x": "bait"}),
            # Fails at set-up: the donor holds no credential at AS 2.
            (("flows", 1, "share"), {"2": "bait"}),
            (("flows", 2, "multiplicity"), "3"),
            (("flows", 2, "multiplicity"), 2.5),
            (("flows", 2, "multiplicity"), -1),
            (("flows", 2, "at_as"), True),
            # 10^30 copies of each forwarded packet; 1001 copies stay below
            # MAX_PACKETS, so only the cap on multiplicity refuses them.
            (("flows", 2, "multiplicity"), 10**30),
            (("flows", 2, "multiplicity"), 1001),
        ),
        "forgery": (
            # Fails at set-up: the forger's junk reservation cannot encode its rate.
            (("flows", 0, "rate_mbps"), 100000),
        ),
        "starvation": (
            (("buyouts",), {"account": "hoarder", "as": 2}),
            (("buyouts", 0), {"as": 2}),
            (("buyouts", 0), {"account": "hoarder"}),
            (("buyouts", 0, "as"), 3),
            (("buyouts", 0, "account"), 5),
            (("buyouts", 0, "as"), True),
        ),
    }.items()
    for where, value in cases
]


@pytest.fixture(scope="module")
def flyover_packet_obj():
    cases = json.loads((Path(__file__).parent / "vectors" / "packets.json").read_text())
    packet = cases["cases"][0]["packet"]
    assert packet["hops"][0]["type"] == "flyover"
    return packet


class TestRun:
    def test_bundled_scenario_passes_and_writes_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "run", "--scenario", "exact_rate", "--out", str(out)
        )
        assert code == 0
        assert "all assertions passed" in stdout
        report = json.loads(out.read_text())
        assert report["flows"]["victim"]["priority_fraction"] == 1.0

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "run", "--scenario", "forgery", "--out", str(a))
        run_cli(capsys, "run", "--scenario", "forgery", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_scenario_nonzero_with_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "duration_s": 1}')
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2
        assert "missing" in stderr

    @pytest.mark.parametrize("name, where, value", CORRUPTED_FIELDS)
    def test_corrupted_field_is_a_scenario_error(
        self, capsys, tmp_path, bounded_policer, name, where, value
    ):
        bad = corrupted_file(tmp_path, name, where, value)
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2
        assert stderr.startswith("scenario error: ")
        assert "Traceback" not in stderr

    def test_endless_duration_is_a_scenario_error(self, capsys, tmp_path):
        """A 10^15 s run under a market window that covers it sends more
        than MAX_PACKETS packets; it is refused, not run."""
        scenario = {
            "name": "endless",
            "duration_s": 10**15,
            "market": {"window_s": 60 * 10**14},
            "topology": {
                "ases": [{"id": 1}, {"id": 2}],
                "links": [{"from": 1, "to": 2, "capacity_mbps": 10}],
            },
            "flows": [
                {"name": "f", "class": "best_effort", "path": [1, 2], "rate_mbps": 1,
                 "packet_bytes": 1000}
            ],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2
        assert stderr.startswith("scenario error: flows send up to ")

    def test_packet_the_source_refuses_is_a_scenario_error(self, capsys, tmp_path):
        """A sender whose last packet would carry a clock past 2^32 unix seconds."""
        scenario = json.loads(bundled_scenarios()["exact_rate"])
        scenario["duration_s"] = 2.7e9
        scenario["market"]["window_s"] = 2_700_000_000
        scenario["flows"][0].update({"class": "best_effort", "start_s": 2.6e9, "stop_s": 2.6e9 + 1})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2
        assert stderr.startswith("scenario error: flow victim: clock beyond 32-bit unix seconds")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("links, path, message", [
        ([(1, 1)], [1], "link 1->1 connects AS 1 to itself"),
        ([(1, 2), (2, 1), (2, 3)], [1, 2, 1, 2, 3], "flow f: path visits AS 1 twice"),
    ], ids=["self-link", "reserved-path-visits-an-as-twice"])
    def test_link_or_path_set_up_cannot_serve_is_a_scenario_error(
        self, capsys, tmp_path, links, path, message
    ):
        """A link whose ends are one AS, and a reserving flow that would need
        two credentials from one AS: refused, not a set-up crash."""
        scenario = {
            "name": "revisits",
            "duration_s": 1,
            "market": {},
            "topology": {
                "ases": [{"id": i} for i in set(path)],
                "links": [{"from": a, "to": b, "capacity_mbps": 10} for a, b in links],
            },
            "flows": [
                {"name": "f", "class": "reserved", "path": path, "reserve_mbps": 1,
                 "rate_mbps": 1, "packet_bytes": 1000}
            ],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2
        assert stderr == f"scenario error: {message}\n"
        assert "Traceback" not in stderr

    def test_best_effort_over_an_interface_too_slow_to_sell_runs(self, capsys, tmp_path):
        """A link below the market's min_bandwidth gets no listing, and
        nothing that runs best effort over it needs one."""
        scenario = {
            "name": "slow",
            "duration_s": 0.1,
            "topology": {
                "ases": [{"id": 1}, {"id": 2}],
                "links": [{"from": 1, "to": 2, "capacity_mbps": 0.5}],
            },
            "flows": [
                {"name": "f", "class": "best_effort", "path": [1, 2], "rate_mbps": 0.1,
                 "packet_bytes": 500}
            ],
        }
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(scenario))
        code, stdout, stderr = run_cli(capsys, "run", "--scenario", str(path))
        assert (code, stderr) == (0, "")
        assert "all assertions passed" in stdout

    @pytest.mark.parametrize("name, where, value, message", [
        ("exact_rate", ("flows", 0, "reserve_mbps"), 99.5,
         "flow victim: purchase would strand 500000 bit/s below minimum 1000000"),
        ("exact_rate", ("funding",), 10, "flow victim: 'victim' has 10, needs 3000000000"),
        ("starvation", ("funding",), 5,
         "buyout of AS 2 by 'hoarder': 'hoarder' has 5, needs 6000000000000"),
        # A lead past the epoch: each AS would issue assets that start before unix time 0.
        ("exact_rate", ("market",), {"lead_s": 1_700_000_040, "window_s": 1_700_000_100},
         "AS 1: start -40 must precede expiration 1700000060"),
    ], ids=[
        "stranding-reservation", "flow-cannot-pay", "buyout-cannot-pay", "asset-before-unix-zero",
    ])
    def test_market_refusal_at_set_up_is_a_scenario_error(
        self, capsys, tmp_path, name, where, value, message
    ):
        bad = corrupted_file(tmp_path, name, where, value)
        code, _, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2
        assert stderr == f"scenario error: {message}\n"

    def test_scenario_is_validated_once(self, capsys, monkeypatch):
        calls = []

        def counted(scenario):
            calls.append(scenario["name"])
            return validate_scenario(scenario)

        monkeypatch.setattr(sim, "validate_scenario", counted)
        code, _, _ = run_cli(capsys, "run", "--scenario", "exact_rate")
        assert code == 0
        assert calls == ["exact_rate"]

    def test_unknown_bundled_name(self, capsys):
        code, _, stderr = run_cli(capsys, "run", "--scenario", "nope")
        assert code == 2
        assert "unknown scenario" in stderr

    def test_failed_assertion_exit_one(self, capsys, tmp_path):
        scenario = {
            "name": "impossible",
            "duration_s": 0.05,
            "topology": {
                "ases": [{"id": 1}, {"id": 2}],
                "links": [{"from": 1, "to": 2, "capacity_mbps": 10, "delay_ms": 1}],
            },
            "flows": [
                {
                    "name": "f",
                    "class": "best_effort",
                    "path": [1, 2],
                    "rate_mbps": 1,
                    "packet_bytes": 1000,
                }
            ],
            "expect": [
                {"metric": "flows.f.offered_packets", "op": "==", "value": 10**9}
            ],
        }
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(scenario))
        code, stdout, stderr = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 1
        assert "[FAIL]" in stdout
        assert "assertion(s) failed" in stderr

    def test_each_assertion_gets_its_own_verdict(self, capsys, tmp_path):
        """qos_flood bounds one metric from both sides; only the broken bound fails."""
        bad = corrupted_file(tmp_path, "qos_flood", ("expect", 2, "value"), -1.0)
        code, stdout, stderr = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 1
        fails = [line for line in stdout.splitlines() if "[FAIL]" in line]
        assert fails == ["  [FAIL] flows.flood.delivered_fraction <= -1.0"]
        assert "  [ok] flows.flood.delivered_fraction >= 0.05" in stdout.splitlines()
        assert stderr == "1 assertion(s) failed\n"

    def test_records_format_emits_json_lines(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "run", "--scenario", "forgery", "--format", "records"
        )
        assert code == 0
        kinds = set()
        for line in stdout.splitlines():
            if line.startswith("{"):
                kinds.add(json.loads(line)["record"])
        assert kinds == {"flow", "hop", "ledger"}

    def test_env_seed_overrides_flag(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("HB_SEED", "4242")
        run_cli(capsys, "run", "--scenario", "forgery", "--seed", "1", "--out", str(out))
        assert json.loads(out.read_text())["seed"] == 4242

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HB_SEED", "elephant")
        code, _, stderr = run_cli(capsys, "run", "--scenario", "forgery")
        assert code == 2
        assert "HB_SEED" in stderr


class TestLedgerDemo:
    def test_deterministic_walkthrough(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "ledger-demo")
        code_b, out_b, _ = run_cli(capsys, "ledger-demo")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "state hash: " in out_a

    def test_seed_changes_the_hash(self, capsys):
        _, out_a, _ = run_cli(capsys, "ledger-demo", "--seed", "1")
        _, out_b, _ = run_cli(capsys, "ledger-demo", "--seed", "2")
        assert out_a.splitlines()[-1] != out_b.splitlines()[-1]

    def test_records_format_is_the_log(self, capsys):
        _, out, _ = run_cli(capsys, "ledger-demo", "--format", "records")
        ops = [json.loads(line)["op"] for line in out.splitlines() if line.startswith("{")]
        assert ops[0] == "register_as"
        assert "execute_atomic" in ops
        assert "deliver_reservation" in ops


    @pytest.mark.parametrize("fmt", ["table", "records"])
    def test_out_writes_what_stdout_shows(self, capsys, tmp_path, fmt):
        out = tmp_path / "demo.txt"
        _, shown, _ = run_cli(capsys, "ledger-demo", "--format", fmt)
        code, stdout, _ = run_cli(capsys, "ledger-demo", "--format", fmt, "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert out.read_text() == shown


class TestPacket:
    def test_encode_decode_round_trip(self, capsys, tmp_path):
        case = json.loads(vectors.generate()["packets.json"])["cases"][0]
        spec = tmp_path / "packet.json"
        spec.write_text(json.dumps(case["packet"]))
        code, stdout, _ = run_cli(capsys, "packet", "encode", "--spec", str(spec))
        assert code == 0
        assert stdout.strip() == case["hex"]

        code, stdout, _ = run_cli(
            capsys, "packet", "decode", case["hex"], "--format", "records"
        )
        assert code == 0
        assert json.loads(stdout) == case["packet"]

    def test_decode_table_mentions_each_hop(self, capsys):
        case = json.loads(vectors.generate()["packets.json"])["cases"][0]
        code, stdout, _ = run_cli(capsys, "packet", "decode", case["hex"])
        assert code == 0
        assert stdout.count("hop[") == len(case["packet"]["hops"])

    def test_decode_rejects_garbage_hex(self, capsys):
        code, _, stderr = run_cli(capsys, "packet", "decode", "zz")
        assert code == 2 and "hex" in stderr

    def test_decode_rejects_undecodable_bytes(self, capsys):
        code, _, stderr = run_cli(capsys, "packet", "decode", "00" * 7)
        assert code == 2 and "undecodable" in stderr

    def test_encode_rejects_bad_spec(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"dst_isd": 1}')
        code, _, stderr = run_cli(capsys, "packet", "encode", "--spec", str(spec))
        assert code == 2 and "bad packet spec" in stderr

    def test_encode_rejects_out_of_range_hop_field(self, capsys, tmp_path, flyover_packet_obj):
        obj = copy.deepcopy(flyover_packet_obj)
        obj["hops"][0]["exp_time"] = 300
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(obj))
        code, stdout, stderr = run_cli(capsys, "packet", "encode", "--spec", str(spec))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("bad packet spec: ") and "exp_time" in stderr

    @pytest.mark.parametrize("where, name, value", WRONG_TYPED)
    def test_encode_rejects_wrong_typed_value(
        self, capsys, tmp_path, flyover_packet_obj, where, name, value
    ):
        obj = copy.deepcopy(flyover_packet_obj)
        record = obj
        for key in where:
            record = record[key]
        record[name] = value
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(obj))
        code, stdout, stderr = run_cli(capsys, "packet", "encode", "--spec", str(spec))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("bad packet spec: ")

    def test_verify_golden_vector(self, capsys, decision_case):
        code, stdout, _ = run_cli(
            capsys,
            "packet", "verify", decision_case["packets"][0],
            "--sv", decision_case["sv"],
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", str(decision_case["now_ns"]),
            "--format", "records",
        )
        assert code == 0
        record = json.loads(stdout)
        expected_verdict, expected_reason = decision_case["expected"][0].split(":")
        assert record["verdict"] == expected_verdict
        assert record["reason"] == expected_reason
        assert record["advanced"]

    @pytest.mark.parametrize("fmt", ["table", "records"])
    def test_verify_out_writes_what_stdout_shows(self, capsys, tmp_path, decision_case, fmt):
        out = tmp_path / "verdict.txt"
        argv = [
            "packet", "verify", decision_case["packets"][0],
            "--sv", decision_case["sv"],
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", str(decision_case["now_ns"]),
            "--format", fmt,
        ]
        _, shown, _ = run_cli(capsys, *argv)
        code, stdout, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert out.read_text() == shown
        assert "priority" in shown

    def test_verify_zero_bw_flyover_forwards(self, capsys):
        # An authentic flyover whose reservation carries BW code 0.
        code, stdout, stderr = run_cli(
            capsys,
            "packet", "verify",
            "000100000000000200640d00000140006553f10000000000010000076553f09c80ff"
            "00010002b0c2cfadb5ec00000c00000a012c",
            "--sv", "000102030405060708090a0b0c0d0e0f",
            "--forwarding-key", "101112131415161718191a1b1c1d1e1f",
            "--now-ns", "1700000000001000000",
            "--format", "records",
        )
        assert (code, stderr) == (0, "")
        record = json.loads(stdout)
        assert (record["verdict"], record["reason"]) == ("best_effort", "over_budget")

    def test_verify_with_wrong_sv_drops(self, capsys, decision_case):
        code, stdout, _ = run_cli(
            capsys,
            "packet", "verify", decision_case["packets"][0],
            "--sv", "00" * 16,
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", str(decision_case["now_ns"]),
            "--format", "records",
        )
        assert code == 0
        assert json.loads(stdout)["verdict"] == "drop"

    def test_verify_rejects_short_key(self, capsys, decision_case):
        code, _, stderr = run_cli(
            capsys,
            "packet", "verify", decision_case["packets"][0],
            "--sv", "0011",
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", "1",
        )
        assert code == 2 and "16 bytes" in stderr

    def test_encode_missing_spec_file(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "packet", "encode", "--spec", str(tmp_path / "missing.json")
        )
        assert code == 2 and stderr.startswith("error: ")

    def test_decode_missing_hex_file(self, capsys, tmp_path):
        code, _, stderr = run_cli(capsys, "packet", "decode", f"@{tmp_path / 'missing'}")
        assert code == 2 and stderr.startswith("error: ")

    def test_decode_unwritable_out(self, capsys, tmp_path):
        case = json.loads(vectors.generate()["packets.json"])["cases"][0]
        code, _, stderr = run_cli(
            capsys, "packet", "decode", case["hex"], "--out", str(tmp_path / "no" / "out")
        )
        assert code == 2 and stderr.startswith("error: ")

    def test_verify_rejects_empty_policer(self, capsys, decision_case):
        code, _, stderr = run_cli(
            capsys,
            "packet", "verify", decision_case["packets"][0],
            "--sv", decision_case["sv"],
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", str(decision_case["now_ns"]),
            "--policer-entries", "0",
        )
        assert code == 2 and stderr.startswith("error: ")

    def test_verify_refuses_more_policer_entries_than_res_ids(
        self, capsys, monkeypatch, decision_case
    ):
        def policer(entries, *args):  # nothing that large is allocated
            if entries > MAX_IDS:
                raise MemoryError(f"{entries} policer entries")
            return TokenBucketArray(entries, *args)

        monkeypatch.setattr(cli, "TokenBucketArray", policer)
        code, _, stderr = run_cli(
            capsys,
            "packet", "verify", decision_case["packets"][0],
            "--sv", decision_case["sv"],
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", str(decision_case["now_ns"]),
            "--policer-entries", str(MAX_IDS + 1),
        )
        assert code == 2 and stderr.startswith("error: --policer-entries must be 1 to ")

    @pytest.mark.parametrize("tag_len", ["0", "7", "17"])
    def test_verify_rejects_unusable_tag_len(self, capsys, decision_case, tag_len):
        # The golden packet carries a flyover hop, so the tag is computed.
        code, _, stderr = run_cli(
            capsys,
            "packet", "verify", decision_case["packets"][0],
            "--sv", decision_case["sv"],
            "--forwarding-key", decision_case["forwarding_key"],
            "--now-ns", str(decision_case["now_ns"]),
            "--tag-len", tag_len,
        )
        assert code == 2 and stderr.startswith("error: ")


class TestVectors:
    def test_committed_fixtures_match_regeneration(self, capsys):
        code, stdout, _ = run_cli(capsys, "vectors", "--check", "--out", "tests/vectors")
        assert code == 0
        assert "match regeneration" in stdout

    def test_regeneration_into_fresh_directory_is_identical(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "vectors", "--out", str(tmp_path))
        assert code == 0
        for name in vectors.FIXTURE_FILES:
            fresh = (tmp_path / name).read_bytes()
            committed = open(f"tests/vectors/{name}", "rb").read()
            assert fresh == committed, name

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        parent = tmp_path / "file"
        parent.write_text("")
        code, _, stderr = run_cli(capsys, "vectors", "--out", str(parent / "vectors"))
        assert code == 2 and stderr.startswith(f"error: cannot write {parent / 'vectors'}: ")

    def test_check_detects_tampering(self, capsys, tmp_path):
        run_cli(capsys, "vectors", "--out", str(tmp_path))
        target = tmp_path / "bw_codes.json"
        target.write_text(target.read_text().replace("43000", "43001", 1))
        code, _, stderr = run_cli(capsys, "vectors", "--check", "--out", str(tmp_path))
        assert code == 1
        assert "bw_codes.json: differs" in stderr


class TestParser:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--scenario", "forgery", "--frpm", "x"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["packet", "encode", "--spec", "-", "--seed", "1"],
            ["packet", "encode", "--spec", "-", "--format", "records"],
            ["packet", "decode", "00", "--seed", "1"],
            ["packet", "verify", "00", "--sv", "00", "--forwarding-key", "00",
             "--now-ns", "1", "--seed", "1"],
            ["vectors", "--check", "--seed", "1"],
        ],
        ids=["encode-seed", "encode-format", "decode-seed", "verify-seed", "vectors-seed"],
    )
    def test_options_that_nothing_reads_are_refused(self, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
