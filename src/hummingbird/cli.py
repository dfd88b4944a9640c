"""Command-line front end.

Subcommands:
    run          execute a scenario and judge its embedded assertions
    ledger-demo  scripted walk through the bandwidth marketplace
    packet       encode / decode / verify single packets
    vectors      regenerate (or check) the golden fixture files

Exit codes: 0 success, 1 failed assertions or mismatched fixtures,
2 usage or input errors.  `run` and `ledger-demo` take --seed
(default 1729); the HB_SEED environment variable overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random

from . import vectors as vectors_mod
from .crypto import TAG_LEN, CryptoError, derive_key
from .ledger import (
    AsIdentity,
    ASControlService,
    Call,
    Direction,
    Ledger,
    LedgerError,
    PkiRoot,
    Result,
    sealing_keypair,
    unseal_credentials,
)
from .policing import PolicingError, TokenBucketArray
from .residalloc import MAX_IDS
from .router import RouterConfig, process_packet_bytes
from .sim import (
    Network,
    ScenarioError,
    bundled_scenarios,
    expectation_failure,
    load_scenario,
    report_json,
)
from .wire import WireError, decode_packet, encode_packet

DEFAULT_SEED = 1729


class UsageError(Exception):
    pass


def _seed_from(args) -> int:
    env = os.environ.get("HB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"HB_SEED must be an integer, got {env!r}")
    return args.seed


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}")


def _table(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


# ---------------------------------------------------------------------------
# run


def _flow_rows(report: dict) -> list[list[str]]:
    rows = [
        ["flow", "class", "offered", "delivered", "priority%", "dropped", "p99_ms"]
    ]
    for name, f in report["flows"].items():
        latency = f["latency_ns"]
        rows.append(
            [
                name,
                f["kind"] or f["class"],
                str(f["offered_packets"]),
                str(f["delivered_packets"]),
                f"{100 * f['priority_fraction']:.1f}",
                str(f["dropped_packets"]),
                f"{latency['p99'] / 1e6:.3f}" if latency else "-",
            ]
        )
    return rows


def _hop_rows(report: dict) -> list[list[str]]:
    rows = [["flow", "as", "verdict:reason", "packets"]]
    for flow, per_as in report["hops"].items():
        for as_id, counts in per_as.items():
            for key, count in counts.items():
                rows.append([flow, as_id, key, str(count)])
    return rows


def cmd_run(args) -> int:
    seed = _seed_from(args)
    try:
        network = Network(load_scenario(args.scenario), seed)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    scenario = network.scenario
    report = network.run()
    if args.out:
        _emit(report_json(report), args.out)
    if args.format == "records":
        for name, f in report["flows"].items():
            print(json.dumps({"record": "flow", "name": name, **f}, sort_keys=True))
        for flow, per_as in report["hops"].items():
            for as_id, counts in per_as.items():
                print(
                    json.dumps(
                        {"record": "hop", "flow": flow, "as": int(as_id), **counts},
                        sort_keys=True,
                    )
                )
        print(json.dumps({"record": "ledger", **report["ledger"]}, sort_keys=True))
    else:
        print(f"scenario {report['scenario']!r}  seed {seed}")
        print(_table(_flow_rows(report)))
        print()
        print(_table(_hop_rows(report)))
    failures = 0
    print()
    for expect in scenario["expect"]:
        failed = expectation_failure(report, expect) is not None
        failures += failed
        print(f"  [{'FAIL' if failed else 'ok'}] {expect['metric']} {expect['op']} {expect['value']}")
    if failures:
        print(f"{failures} assertion(s) failed", file=sys.stderr)
        return 1
    print("all assertions passed")
    return 0


# ---------------------------------------------------------------------------
# ledger-demo


def cmd_ledger_demo(args) -> int:
    seed = _seed_from(args)
    rng = Random(f"{seed}:ledger-demo")
    lines = []
    say = lines.append if args.format == "table" else (lambda _: None)

    root = PkiRoot(rng)
    ledger = Ledger(root.public_key, {"asops": 10**9, "alice": 10**9})
    say("genesis: accounts asops and alice, one billion each")

    ident = AsIdentity(7, rng)
    token = ledger.register_as("asops", root.issue_cert(7, ident.public_key),
                               ident.proof_of_key("asops"))
    ledger.register_seller("asops")
    say("AS 7 registered with a root-signed certificate and proof of key")

    asset = ledger.issue(
        "asops", token, bandwidth=100, start_time=32400, expiration_time=36000,
        interface=1, direction=Direction.INGRESS, time_granularity=600,
        min_bandwidth=5,
    )
    egress = ledger.issue(
        "asops", token, bandwidth=100, start_time=32400, expiration_time=36000,
        interface=2, direction=Direction.EGRESS, time_granularity=600,
        min_bandwidth=5,
    )
    l_in = ledger.create_listing("asops", asset, 2)
    l_eg = ledger.create_listing("asops", egress, 2)
    say(f"issued assets {asset.asset_id} (ingress) and {egress.asset_id} (egress), listed at unit price 2")

    priv, pub = sealing_keypair(rng)
    bought_in, bought_eg, request = ledger.execute_atomic([
        Call("buy", ("alice", l_in.listing_id),
             dict(start_time=32400, expiration_time=33600, bandwidth=10)),
        Call("buy", ("alice", l_eg.listing_id),
             dict(start_time=32400, expiration_time=33600, bandwidth=10)),
        Call("redeem", ("alice", Result(0), Result(1), pub)),
    ])
    say(
        f"alice atomically bought assets {bought_in.asset_id} and "
        f"{bought_eg.asset_id} (10 bit/s, 09:00-09:20) and redeemed them; "
        f"paid {10**9 - ledger.balance('alice')}"
    )

    service = ASControlService(7, rng.randbytes(16), rng)
    blob = ledger.deliver_reservation(service, request)
    res, key = unseal_credentials(priv, blob)
    say(
        f"AS 7 delivered sealed credentials: ResID {res.res_id}, "
        f"bw code {res.bw_code}, key {key.hex()}"
    )
    assert key == derive_key(service.sv_prf, res)

    if args.format == "records":
        lines.extend(json.dumps(entry, sort_keys=True) for entry in ledger.export_log())
    else:
        say("")
        say(ledger.format_log())
    lines.append(f"state hash: {ledger.state_hash()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# packet


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")


def _read_packet_hex(value: str) -> bytes:
    if value == "-":
        value = sys.stdin.read()
    elif value.startswith("@"):
        value = _read_text(value[1:])
    try:
        return bytes.fromhex("".join(value.split()))
    except ValueError:
        raise UsageError(f"not valid hex: {value[:40]!r}")


def _read_key(value: str, name: str) -> bytes:
    try:
        key = bytes.fromhex(value)
    except ValueError:
        raise UsageError(f"--{name} must be hex")
    if len(key) != 16:
        raise UsageError(f"--{name} must be 16 bytes, got {len(key)}")
    return key


def cmd_packet_encode(args) -> int:
    text = sys.stdin.read() if args.spec == "-" else _read_text(args.spec)
    try:
        packet = vectors_mod.packet_from_obj(json.loads(text))
    except (json.JSONDecodeError, WireError) as exc:
        print(f"bad packet spec: {exc}", file=sys.stderr)
        return 2
    _emit(encode_packet(packet).hex() + "\n", args.out)
    return 0


def cmd_packet_decode(args) -> int:
    raw = _read_packet_hex(args.hex)
    try:
        packet = decode_packet(raw)
    except WireError as exc:
        print(f"undecodable packet: {exc}", file=sys.stderr)
        return 2
    obj = vectors_mod.packet_to_obj(packet)
    if args.format == "records":
        _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
        return 0
    meta = obj["meta"]
    lines = [
        f"dst_isd {obj['dst_isd']}  dst_as {obj['dst_as']:#x}  "
        f"payload {obj['payload_len']} B  wire {packet.wire_length} B",
        f"meta: curr_inf {meta['curr_inf']}  curr_hf {meta['curr_hf']}  "
        f"seg_len {meta['seg_len']}  ts {meta['base_timestamp']}"
        f"+{meta['millis_timestamp']}ms  counter {meta['counter']}",
    ]
    for index, info in enumerate(obj["infos"]):
        lines.append(
            f"info[{index}]: seg_id {info['seg_id']:#06x}  ts {info['timestamp']}  "
            f"cons_dir {info['cons_dir']}  peering {info['peering']}"
        )
    for index, hop in enumerate(obj["hops"]):
        extra = (
            f"  res_id {hop['res_id']}  bw {hop['bw']}  "
            f"offset {hop['res_start_offset']}  duration {hop['res_duration']}"
            if hop["type"] == "flyover"
            else ""
        )
        lines.append(
            f"hop[{index}] {hop['type']}: in {hop['cons_ingress']} "
            f"out {hop['cons_egress']}  exp {hop['exp_time']}  "
            f"mac {hop['mac']}{extra}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_packet_verify(args) -> int:
    raw = _read_packet_hex(args.hex)
    if not 1 <= args.policer_entries <= MAX_IDS:  # one entry per 22-bit ResID at most
        raise UsageError(f"--policer-entries must be 1 to {MAX_IDS}, got {args.policer_entries}")
    cfg = RouterConfig(
        sv=_read_key(args.sv, "sv"),
        forwarding_key=_read_key(args.forwarding_key, "forwarding-key"),
        policer=TokenBucketArray(args.policer_entries),
        clock=lambda: args.now_ns,
        tag_len=args.tag_len,
    )
    decision, advanced = process_packet_bytes(cfg, raw)
    record = {
        "verdict": decision.verdict.value,
        "reason": decision.reason.value,
        "advanced": advanced.hex() if advanced is not None else None,
    }
    if args.format == "records":
        lines = [json.dumps(record, sort_keys=True)]
    else:
        lines = [f"verdict: {record['verdict']}", f"reason:  {record['reason']}"]
        if record["advanced"]:
            lines.append(f"advanced: {record['advanced']}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# vectors


def cmd_vectors(args) -> int:
    if args.check:
        problems = vectors_mod.check(args.out)
        for problem in problems:
            print(problem, file=sys.stderr)
        if not problems:
            print(f"fixtures in {args.out} match regeneration")
        return 1 if problems else 0
    try:
        written = vectors_mod.write(args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}")
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hummingbird",
        description="Bandwidth-reservation data plane, marketplace, and simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"PRNG seed (default {DEFAULT_SEED}; HB_SEED overrides)")
        output(p)

    def output(p, formats=True):
        p.add_argument("--out", help="write primary output to this file")
        if formats:
            p.add_argument("--format", choices=("table", "records"), default="table")

    p_run = sub.add_parser("run", help="run a scenario and check its assertions")
    p_run.add_argument(
        "--scenario", required=True,
        help="bundled name (%s) or path to a JSON file"
        % ", ".join(bundled_scenarios()),
    )
    seeded(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_demo = sub.add_parser("ledger-demo", help="scripted marketplace walkthrough")
    seeded(p_demo)
    p_demo.set_defaults(fn=cmd_ledger_demo)

    p_packet = sub.add_parser("packet", help="encode, decode, or verify one packet")
    packet_sub = p_packet.add_subparsers(dest="packet_command", required=True)

    p_enc = packet_sub.add_parser("encode", help="JSON packet object to hex")
    p_enc.add_argument("--spec", required=True, help="JSON file, or - for stdin")
    output(p_enc, formats=False)
    p_enc.set_defaults(fn=cmd_packet_encode)

    p_dec = packet_sub.add_parser("decode", help="hex to a readable dump")
    p_dec.add_argument("hex", help="hex string, @file, or - for stdin")
    output(p_dec)
    p_dec.set_defaults(fn=cmd_packet_decode)

    p_ver = packet_sub.add_parser("verify", help="run the router pipeline on hex")
    p_ver.add_argument("hex", help="hex string, @file, or - for stdin")
    p_ver.add_argument("--sv", required=True, help="16-byte secret value, hex")
    p_ver.add_argument("--forwarding-key", required=True, help="16-byte key, hex")
    p_ver.add_argument("--now-ns", type=int, required=True,
                       help="router clock in unix nanoseconds")
    p_ver.add_argument("--tag-len", type=int, default=TAG_LEN)
    p_ver.add_argument("--policer-entries", type=int, default=64)
    output(p_ver)
    p_ver.set_defaults(fn=cmd_packet_verify)

    p_vec = sub.add_parser("vectors", help="regenerate or check golden fixtures")
    p_vec.add_argument("--out", default="tests/vectors",
                       help="fixture directory (default tests/vectors)")
    p_vec.add_argument("--check", action="store_true",
                       help="compare instead of writing")
    p_vec.set_defaults(fn=cmd_vectors)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ScenarioError, LedgerError, WireError, CryptoError, PolicingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
