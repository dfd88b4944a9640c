"""sim_contended: one generated scenario run by `sim.Network(scenario, seed).run()`.

About a hundred reserved flows on paths of 2 to 5 ASes over a six-AS
mesh, all bought through the marketplace at set-up.  A best-effort flood
at twice a link's capacity overloads one link that a quarter of the
reserved flows cross, so its best-effort queue fills and tail-drops.
One overuse adversary sends at twice its reservation, one forger sends
made-up tags, and one replayer copies a bait flow's packets into a
reservation the bait shares with a victim.

An op is one fixed slice of simulated time.  Slice boundaries are no-op
events put on the simulator's heap through `Simulator.schedule` before
`run()`; the heap orders by (time, insertion sequence), so they leave
the relative order of the program's own events unchanged.

The scenario embeds an `expect` block derived from the method's
guarantees, and the benchmark evaluates it itself.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from random import Random

from hummingbird import sim

from forward_mix import bw_bits, bw_code
from harness import RoundResult

NS_PER_S = 1_000_000_000
AS_IDS = (1, 2, 3, 4, 5, 6)
# Ring plus chords, each pair linked in both directions.
PAIRS = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4), (2, 5), (3, 6))
CAPACITY_BPS = 20_000_000
RESERVED_LIMIT_BPS = 12_000_000  # reserved load per link the generator allows
FLOOD_FACTOR = 2
RESERVED_FLOWS = 96  # plus bait and victim
CROSSING_FLOOD = 24  # reserved flows forced across the flooded link
RATES_BPS = (1 << 18, 1 << 19)  # exact bandwidth codes, so reserved = policed
PACKET_BYTES = (700, 850, 1000)
DURATION_S = 1.2
SLICE_NS = 6_000_000
BURST_MS = 50
WINDOW_S = 600
UNIT_PRICE = 3
REPLAY_MULTIPLICITY = 3
MIN_PRIORITY = 0.99  # reserved flows not under attack
MAX_VICTIM_PRIORITY = 0.55  # a shared reservation under replay demotes at least 45%


def _links() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {a: [] for a in AS_IDS}
    for a, b in PAIRS:
        out[a].append(b)
        out[b].append(a)
    return out


def _walk(rng: Random, nbrs, length: int, start: int | None = None) -> list[int] | None:
    path = [rng.choice(AS_IDS) if start is None else start]
    while len(path) < length:
        options = [n for n in nbrs[path[-1]] if n not in path]
        if not options:
            return None
        path.append(rng.choice(options))
    return path


def make_scenario(seed: int, duration_s: float = DURATION_S) -> dict:
    """The scenario, with the spend the benchmark expects for each account
    among its `expect` entries."""
    rng = Random(f"{seed}:sim_contended")
    nbrs = _links()
    load: dict[tuple[int, int], int] = {}
    flooded = rng.choice([(a, b) for a in AS_IDS for b in nbrs[a]])

    def fits(path, bps) -> bool:
        return all(load.get(l, 0) + bps <= RESERVED_LIMIT_BPS for l in zip(path, path[1:]))

    def book(path, bps) -> None:
        for l in zip(path, path[1:]):
            load[l] = load.get(l, 0) + bps

    def draw(length: int, bps: int, must_cross=None) -> list[int]:
        while True:
            path = _walk(rng, nbrs, length)
            if path is None or not fits(path, bps):
                continue
            crosses = flooded in zip(path, path[1:])
            if must_cross is not None and crosses != must_cross:
                continue
            book(path, bps)
            return path

    flows, spend = [], {}

    def reserved(name, path, bps, packet, **extra):
        flows.append({
            "name": name, "class": "reserved", "path": path,
            "reserve_mbps": bps / 1e6, "rate_mbps": bps / 1e6, "packet_bytes": packet, **extra,
        })
        own = len(path) - len(extra.get("share", {}))
        spend[name] = 2 * own * UNIT_PRICE * bps * WINDOW_S

    # Bait and victim share the last two ASes; the replayer sits at the
    # bait's first AS and copies its packets into the shared reservation.
    # Both keep off the flooded link, so the copies reach the shared AS
    # instead of dying in a full best-effort queue.
    while True:
        bait_path = draw(4, REPLAY_MULTIPLICITY * RATES_BPS[0] + RATES_BPS[0], must_cross=False)
        a, b, c, d = bait_path
        entries = [e for e in nbrs[b] if e not in bait_path and (e, b) != flooded]
        if entries:
            break
    victim_path = [rng.choice(entries), b, c, d]
    book(victim_path, RATES_BPS[0])
    # The victim's packets are larger than the bait's: a bucket kept near
    # full by the replayed copies then has room for the bait's packets
    # before it has room for the victim's, whatever the arrival phase.
    reserved("bait", bait_path, RATES_BPS[0], 700)
    reserved("victim", victim_path, RATES_BPS[0], 1000, share={str(c): "bait", str(d): "bait"})

    lengths = [2 + i % 4 for i in range(RESERVED_FLOWS)]
    rng.shuffle(lengths)
    for i, length in enumerate(lengths):
        bps = RATES_BPS[i % 2]
        path = draw(length, bps, True if i < CROSSING_FLOOD else None)
        reserved(f"r{i:03d}", path, bps, PACKET_BYTES[i % len(PACKET_BYTES)])

    over_bps = RATES_BPS[0]
    over_path = draw(rng.choice((2, 3)), 2 * over_bps)
    flows.append({
        "name": "overuser", "class": "adversary", "kind": "overuse", "path": over_path,
        "reserve_mbps": over_bps / 1e6, "rate_mbps": 2 * over_bps / 1e6, "packet_bytes": 1000,
    })
    spend["overuser"] = 2 * len(over_path) * UNIT_PRICE * over_bps * WINDOW_S
    flows.append({
        "name": "forger", "class": "adversary", "kind": "tag_forgery",
        "path": _walk(rng, nbrs, 2), "rate_mbps": 1.0, "packet_bytes": 1000,
    })
    flows.append({
        "name": "replayer", "class": "adversary", "kind": "replay_on_reservation_set",
        "path": bait_path, "at_as": a, "replays_flow": "bait",
        "multiplicity": REPLAY_MULTIPLICITY,
    })
    flows.append({
        "name": "flood", "class": "adversary", "kind": "best_effort_flood",
        "path": list(flooded), "rate_mbps": FLOOD_FACTOR * CAPACITY_BPS / 1e6, "packet_bytes": 1250,
    })
    for name in ("forger", "replayer", "flood"):
        spend[name] = 0

    burst_ns = BURST_MS * 1_000_000
    over_bound = bw_bits(bw_code(over_bps)) * (round(duration_s * NS_PER_S) + burst_ns) // (8 * NS_PER_S)
    expect = [
        {"metric": f"flows.{f['name']}.priority_fraction", "op": ">=", "value": MIN_PRIORITY}
        for f in flows
        if f["class"] == "reserved" and f["name"] not in ("bait", "victim")
    ]
    expect += [
        {"metric": "flows.forger.priority_packets", "op": "==", "value": 0},
        {"metric": "flows.overuser.priority_bytes", "op": "<=", "value": over_bound},
        {"metric": "flows.victim.priority_fraction", "op": "<=", "value": MAX_VICTIM_PRIORITY},
        {"metric": f"links.{flooded[0]}->{flooded[1]}.dropped_packets", "op": ">", "value": 0},
    ]
    expect += [
        {"metric": f"ledger.spend.{name}", "op": "==", "value": value}
        for name, value in sorted(spend.items())
    ]
    scenario = {
        "name": "sim_contended",
        "duration_s": duration_s,
        "burst_ms": BURST_MS,
        "topology": {
            "ases": [{"id": a} for a in AS_IDS],
            "links": [
                {"from": x, "to": y, "capacity_mbps": CAPACITY_BPS / 1e6, "delay_ms": 1}
                for a, b in PAIRS
                for x, y in ((a, b), (b, a))
            ],
        },
        "market": {
            "granularity_s": 60, "window_s": WINDOW_S,
            "min_bandwidth": RATES_BPS[0], "unit_price": UNIT_PRICE,
        },
        "flows": flows,
        "expect": expect,
    }
    return scenario


@dataclass
class State:
    scenario: dict
    network: sim.Network
    report: dict | None = None


def setup(seed: int, tracer=None, duration_s: float = DURATION_S) -> State:
    scenario = make_scenario(seed, duration_s)
    return State(scenario=scenario, network=sim.Network(scenario, seed))


def execute(state: State, tracer=None) -> tuple[list[int], dict | Exception]:
    """Run the scenario; returns the wall time of each slice and the report."""
    marks: list[int] = []
    n = round(state.scenario["duration_s"] * NS_PER_S) // SLICE_NS
    token = None

    def mark() -> None:
        nonlocal token
        marks.append(time.perf_counter_ns())
        if tracer is not None:
            if token is not None:
                tracer.close(token, "sim.slice")
                token = None
            if len(marks) <= n:
                tracer.op = len(marks) - 1
                token = tracer.open("sim.slice")

    net = state.network
    with tracer.paused() if tracer is not None else nullcontext():
        for k in range(n + 1):
            net.sim.schedule(k * SLICE_NS, mark)
    try:
        report = net.run()
    except Exception as exc:  # every slice of the round then counts as failed
        report = exc
    op_ns = [b - a for a, b in zip(marks, marks[1:])]
    return op_ns + [0] * (n - len(op_ns)), report


def run(state: State, tracer=None) -> RoundResult:
    op_ns, report = execute(state, tracer)
    if isinstance(report, Exception):
        return RoundResult(op_ns=op_ns, failed=len(op_ns), errors=[f"run raised {report!r}"])
    state.report = report
    return RoundResult(op_ns=op_ns, failed=0, errors=check(state.scenario, report))


_OPS = {
    "==": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def check(scenario: dict, report: dict) -> list[str]:
    errors = []
    for expect in scenario["expect"]:
        node = report
        for part in expect["metric"].split("."):
            node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            errors.append(f"{expect['metric']}: missing from the report")
        elif not _OPS[expect["op"]](node, expect["value"]):
            errors.append(f"{expect['metric']}: {node!r} {expect['op']} {expect['value']!r} is false")
    return errors
