"""Deterministic discrete-event network simulator.

A scenario wires hosts, per-AS border routers, priority-queued links,
and the control-plane ledger into one event loop.  Reserved flows go
through the full economic path at setup: the AS issues and lists
bandwidth assets, the flow's account buys and redeems them in one
atomic block, the AS control service delivers sealed credentials, and
the flow decrypts them into the hop plan its packets are built from.

Determinism rules:
  - every event goes through `Simulator.schedule` onto one heap, ordered
    by (time, insertion sequence); an event carries its function and that
    function's arguments, so no two events ever compare beyond the sequence;
  - every random draw comes from a PRNG namespaced per entity
    (f"{seed}:{entity}"), so adding a flow never perturbs another
    flow's stream;
  - the report is rebuilt from integer counters, so equal (scenario,
    seed) pairs produce byte-identical JSON.

ASes have no internal congestion: a packet leaving a router is queued
only at the next inter-AS link.  Links serve the priority queue
strictly first and give best effort a finite buffer (tail drop).
Demoted reservation packets join the best-effort queue and may drop
there; nothing downgrades the header, so a later AS judges the same
packet independently.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from random import Random
from typing import Callable

from . import crypto
from .ledger import (
    ASControlService,
    AsIdentity,
    Call,
    Direction,
    Ledger,
    LedgerError,
    Listing,
    PkiRoot,
    Result,
    sealing_keypair,
    unseal_credentials,
)
from .policing import TokenBucketArray, size_array
from .residalloc import MAX_IDS
from .router import RouterConfig, Verdict, process_packet
from .source import (
    CounterState,
    HopPlan,
    PathPlan,
    SegmentPlan,
    SourceError,
    build_packet,
)
from .wire import Packet, ReservationInfo, WireError, quantize_bw

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
EPOCH_S = 1_700_000_000  # unix time at simulation instant zero
EPOCH_NS = EPOCH_S * NS_PER_S

# The verdicts receive tests, as module constants: a module global reads in
# a fraction of the time of an Enum member.
_DROP, _PRIORITY = Verdict.DROP, Verdict.PRIORITY

ADVERSARY_KINDS = (
    "best_effort_flood",
    "tag_forgery",
    "overuse",
    "replay_on_reservation_set",
)


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Event loop


class Simulator:
    def __init__(self):
        self.now = 0  # ns since scenario start
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0

    def schedule(self, at_ns: int, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) at at_ns, after every event already due then."""
        if at_ns < self.now:
            raise RuntimeError(f"event scheduled in the past: {at_ns} < {self.now}")
        heapq.heappush(self._heap, (at_ns, self._seq, fn, args))
        self._seq += 1

    def run(self) -> None:
        heap, pop = self._heap, heapq.heappop
        while heap:
            self.now, _, fn, args = pop(heap)
            fn(*args)


# ---------------------------------------------------------------------------
# Data plane entities


@dataclass
class FlowStats:
    """A flow's counters; the report writes each under its field name."""

    offered_packets: int = 0
    offered_bytes: int = 0
    priority_packets: int = 0
    priority_bytes: int = 0
    best_effort_packets: int = 0
    best_effort_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0


@dataclass(slots=True)
class _Transit:
    """One packet in flight, with its end-to-end bookkeeping."""

    flow: "Flow"
    packet: Packet
    sent_ns: int
    wire_bytes: int
    hop: int = 0  # index into the flow path's AS list
    clean: bool = True  # PRIORITY verdict at every hop so far


@dataclass
class LinkStats:
    """A link's counters; the report writes each under its field name."""

    priority_bytes: int = 0
    best_effort_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0


class Link:
    """Directed inter-AS link: strict priority over a finite BE buffer."""

    def __init__(self, sim: Simulator, dst: "BorderAS", dst_iface: int,
                 capacity_bps: int, delay_ns: int, be_buffer_bytes: int):
        self.sim = sim
        self.dst = dst
        self.dst_iface = dst_iface
        self.capacity_bps = capacity_bps
        self.delay_ns = delay_ns
        self.be_buffer_bytes = be_buffer_bytes
        self.stats = LinkStats()
        self._priority: deque[_Transit] = deque()
        self._best_effort: deque[_Transit] = deque()
        self._be_bytes = 0
        self._busy = False

    def enqueue(self, transit: _Transit, priority: bool) -> None:
        if priority:
            self._priority.append(transit)
        else:
            if self._be_bytes + transit.wire_bytes > self.be_buffer_bytes:
                self.stats.dropped_packets += 1
                self.stats.dropped_bytes += transit.wire_bytes
                transit.flow.stats.dropped_packets += 1
                transit.flow.stats.dropped_bytes += transit.wire_bytes
                return
            self._best_effort.append(transit)
            self._be_bytes += transit.wire_bytes
        if not self._busy:
            self._serve()

    def _serve(self) -> None:
        """Start sending the head of a queue; one of them holds a packet."""
        if self._priority:
            transit = self._priority.popleft()
            self.stats.priority_bytes += transit.wire_bytes
        else:
            transit = self._best_effort.popleft()
            self._be_bytes -= transit.wire_bytes
            self.stats.best_effort_bytes += transit.wire_bytes
        self._busy = True
        tx_ns = transit.wire_bytes * 8 * NS_PER_S // self.capacity_bps
        self.sim.schedule(self.sim.now + tx_ns, self._sent, transit)

    def _sent(self, transit: _Transit) -> None:
        self.sim.schedule(self.sim.now + self.delay_ns, self.dst.receive, transit, self.dst_iface)
        if self._priority or self._best_effort:
            self._serve()
        else:
            self._busy = False


class BorderAS:
    """One AS: a router per ingress interface plus shared keys and clock."""

    def __init__(self, as_id: int, sim: Simulator, rng: Random,
                 clock_offset_ns: int, burst_ns: int, min_bandwidth: int):
        self.as_id = as_id
        self.sim = sim
        self.clock_offset_ns = clock_offset_ns
        self.burst_ns = burst_ns
        self.min_bandwidth = min_bandwidth
        self.sv = rng.randbytes(16)
        self.forwarding_key = rng.randbytes(16)
        self.forwarding_prf = crypto.Prf(self.forwarding_key)
        self.control = ASControlService(as_id, self.sv, rng)
        # Indexed by interface id: each interface's bit/s and its router.
        self.capacities: list[int] = []
        self.routers: list[RouterConfig] = []
        self.links: dict[int, Link] = {}  # next-hop AS id -> link
        self.egress_iface: dict[int, int] = {}  # next-hop AS id -> iface
        self.ingress_iface: dict[int, int] = {}  # previous AS id -> iface
        self.replay: "Flow | None" = None  # the replayer at this AS

    def clock(self) -> int:
        return EPOCH_NS + self.sim.now + self.clock_offset_ns

    def add_interface(self, capacity_bps: int) -> int:
        """The id of a new interface, whose router polices capacity_bps."""
        self.capacities.append(capacity_bps)
        self.routers.append(RouterConfig(
            sv=self.sv,
            forwarding_key=self.forwarding_key,
            policer=TokenBucketArray(size_array(capacity_bps, self.min_bandwidth), self.burst_ns),
            clock=self.clock,
        ))
        return len(self.routers) - 1

    def receive(self, transit: _Transit, iface: int) -> None:
        decision, transit.packet = process_packet(self.routers[iface], transit.packet)
        flow = transit.flow
        counts = flow.hop_counts[self.as_id]
        counts[decision.label] = counts.get(decision.label, 0) + 1
        verdict = decision.verdict
        if verdict is _DROP:
            flow.stats.dropped_packets += 1
            flow.stats.dropped_bytes += transit.wire_bytes
            return
        priority = verdict is _PRIORITY
        transit.clean = transit.clean and priority
        if self.replay is not None:
            self._maybe_replay(transit)
        transit.hop = hop = transit.hop + 1
        path = flow.path
        if hop == len(path):
            stats = flow.stats
            if transit.clean:
                stats.priority_packets += 1
                stats.priority_bytes += transit.wire_bytes
            else:
                stats.best_effort_packets += 1
                stats.best_effort_bytes += transit.wire_bytes
            flow.latencies_ns.append(self.sim.now - transit.sent_ns)
            return
        self.links[path[hop]].enqueue(transit, priority)

    def _maybe_replay(self, transit: _Transit) -> None:
        """On-path adversary: re-emit copies of a forwarded packet."""
        replayer = self.replay
        if transit.flow.name != replayer.spec["replays_flow"]:
            return
        path = transit.flow.path
        if transit.hop + 1 >= len(path):
            return  # nothing downstream to replay into
        link = self.links[path[transit.hop + 1]]
        for _ in range(replayer.spec["multiplicity"]):
            # identical header, same tags
            clone = _Transit(replayer, transit.packet, self.sim.now, transit.wire_bytes, transit.hop + 1)
            replayer.stats.offered_packets += 1
            replayer.stats.offered_bytes += clone.wire_bytes
            # The adversary owns its egress scheduling and marks the
            # copies priority; downstream policers are the defense.
            link.enqueue(clone, priority=True)


# ---------------------------------------------------------------------------
# Flows


class Flow:
    def __init__(self, spec: dict, rng: Random):
        self.name = spec["name"]
        self.spec = spec
        self.rng = rng
        self.path: list[int] = list(spec["path"])
        self.route: list[tuple[int, int, int]] = []  # each hop's (AS, ingress, egress)
        self.account = spec["account"]
        self.kind = spec["kind"]
        self.stats = FlowStats()
        self.latencies_ns: list[int] = []  # of each delivered packet
        # AS id -> "verdict:reason" -> hops; an AS appears once a hop is counted there
        self.hop_counts: defaultdict[int, dict[str, int]] = defaultdict(dict)
        self.counter = CounterState()
        self.plan: PathPlan | None = None
        self.payload_len = 0
        self.wire_bytes = 0
        self.credentials: dict[int, tuple] = {}  # as_id -> (ResInfo, key)


# ---------------------------------------------------------------------------
# The network: scenario realization


# The JSON types of scenario fields, named as errors name them.  A number
# is bounded so that no product of two fields overflows a float.
INTEGER, NUMBER, STRING = "an integer", "a number within 1e15", "a string"
_IS = {
    INTEGER: lambda v: type(v) is int,
    NUMBER: lambda v: type(v) in (int, float) and -1e15 <= v <= 1e15,
    STRING: lambda v: type(v) is str,
}
_BOUNDS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "non-empty": len,
    "at least 1 bit/s": lambda mbps: round(mbps * 1_000_000) >= 1,
    "below 2**64": lambda v: 0 <= v < 1 << 64,  # the ledger signs an AS id as 8 bytes
}
REQUIRED = object()
MAX_MULTIPLICITY, MAX_PACKETS = 1000, 10**7  # copies of a packet; packets in a run: runs end

# Every scenario field.  A type is a key of _IS, a record (a JSON object),
# or a one-item list of either (a JSON list); a default that is a function
# gets the record and the scenario.  validate_scenario picks a flow's other
# records.  Ledger amounts and times, such as the market's, are integers.
_FIELDS = [
    # record        field                 type         default         lower bound
    ("scenario",    "name",               STRING,      REQUIRED,       None),
    ("scenario",    "duration_s",         NUMBER,      REQUIRED,       "positive"),
    ("scenario",    "host_capacity_mbps", NUMBER,      10_000,         "at least 1 bit/s"),
    ("scenario",    "burst_ms",           NUMBER,      50,             "non-negative"),
    ("scenario",    "funding",            INTEGER,     10**18,         "non-negative"),
    ("scenario",    "topology",           "topology",  REQUIRED,       None),
    ("scenario",    "market",             "market",    {},             None),
    ("scenario",    "flows",              ["flow"],    [],             None),
    ("scenario",    "buyouts",            ["buyout"],  [],             None),
    ("scenario",    "expect",             ["expect"],  [],             None),
    ("topology",    "ases",               ["as"],      REQUIRED,       None),
    ("topology",    "links",              ["link"],    REQUIRED,       None),
    ("as",          "id",                 INTEGER,     REQUIRED,       "below 2**64"),
    ("as",          "clock_offset_ms",    NUMBER,      0,              None),
    ("link",        "from",               INTEGER,     REQUIRED,       None),
    ("link",        "to",                 INTEGER,     REQUIRED,       None),
    ("link",        "capacity_mbps",      NUMBER,      REQUIRED,       "at least 1 bit/s"),
    ("link",        "delay_ms",           NUMBER,      1,              "non-negative"),
    ("link",        "be_buffer_ms",       NUMBER,      50,             "non-negative"),
    ("market",      "granularity_s",      INTEGER,     60,             "positive"),
    ("market",      "window_s",           INTEGER,     600,            "positive"),
    ("market",      "lead_s",             INTEGER,     0,              "non-negative"),
    ("market",      "min_bandwidth",      INTEGER,     1_000_000,      "positive"),
    ("market",      "unit_price",         INTEGER,     1,              "non-negative"),
    ("flow",        "name",               STRING,      REQUIRED,       None),
    ("flow",        "account",            STRING,      lambda f, _: f["name"], None),
    ("flow",        "class",              STRING,      REQUIRED,       None),
    ("flow",        "kind",               STRING,      "",             None),
    ("flow",        "path",               [INTEGER],   REQUIRED,       "non-empty"),
    ("flow",        "share",              "share",     {},             None),
    ("sender",      "rate_mbps",          NUMBER,      REQUIRED,       "at least 1 bit/s"),
    ("sender",      "packet_bytes",       INTEGER,     REQUIRED,       "positive"),
    ("sender",      "start_s",            NUMBER,      0,              "non-negative"),
    ("sender",      "stop_s",             NUMBER,      lambda _, s: s["duration_s"], None),
    ("replayer",    "at_as",              INTEGER,     REQUIRED,       None),
    ("replayer",    "replays_flow",       STRING,      REQUIRED,       None),
    ("replayer",    "multiplicity",       INTEGER,     1,              "non-negative"),
    ("reservation", "reserve_mbps",       NUMBER,      REQUIRED,       "at least 1 bit/s"),
    ("buyout",      "account",            STRING,      REQUIRED,       None),
    ("buyout",      "as",                 INTEGER,     REQUIRED,       None),
    ("expect",      "metric",             STRING,      REQUIRED,       None),
    ("expect",      "op",                 STRING,      REQUIRED,       None),
    ("expect",      "value",              NUMBER,      REQUIRED,       None),
]
_RECORDS = {kind: [row[1:] for row in _FIELDS if row[0] == kind] for kind, *_ in _FIELDS}
_RECORDS["share"] = []  # AS ids to earlier flows' names, checked with the flows


def _checked(kind: str, value, at, scenario: dict, out: dict | None = None) -> dict:
    """`value`, found at `at`, checked as record `kind`: a copy with its defaults
    filled in, or `out` filled in.  Scalar fields and the items of a list of
    scalars are checked here; only a record in a field or a list recurses.
    `at` is a name or a (parent, key) pair, spelled out only for an error."""
    if type(value) is not dict:
        raise ScenarioError(f"{_dotted(at)} must be an object, got {value!r}")
    if out is None:
        out = dict(value)
    for key, field_kind, default, bound in _RECORDS[kind]:
        if key in value:
            field = value[key]
        elif default is REQUIRED:
            raise ScenarioError(f"{_dotted(at)} is missing {key!r}")
        else:
            field = default(out, scenario) if callable(default) else default
        if type(field_kind) is list:
            if type(field) is not list:
                raise ScenarioError(f"{_dotted((at, key))} must be a list, got {field!r}")
            item_kind = field_kind[0]
            if item_kind in _RECORDS:
                field = [_checked(item_kind, item, ((at, key), i), scenario)
                         for i, item in enumerate(field)]
            else:
                is_kind = _IS[item_kind]
                for i, item in enumerate(field):
                    if not is_kind(item):
                        raise ScenarioError(
                            f"{_dotted(((at, key), i))} must be {item_kind}, got {item!r}"
                        )
                field = list(field)
        elif field_kind in _RECORDS:
            field = _checked(field_kind, field, (at, key), scenario)
        elif not _IS[field_kind](field):
            raise ScenarioError(f"{_dotted((at, key))} must be {field_kind}, got {field!r}")
        out[key] = field
        if bound and not _BOUNDS[bound](field):
            raise ScenarioError(f"{_dotted((at, key))} must be {bound}, got {field!r}")
    return out


def _dotted(at) -> str:
    return at if isinstance(at, str) else f"{_dotted(at[0])}.{at[1]}"


def _schedule(spec: dict) -> tuple[int, int, int]:
    """A sender's (start_ns, interval_ns, stop_ns): it ticks from start_ns,
    every interval_ns, while before stop_ns."""
    interval_ns = spec["packet_bytes"] * 8 * NS_PER_S // round(spec["rate_mbps"] * 1_000_000)
    return round(spec["start_s"] * NS_PER_S), interval_ns, round(spec["stop_s"] * NS_PER_S)


def _reserves(spec: dict) -> bool:
    """Whether a flow buys its reservations through the market."""
    return spec["class"] == "reserved" or spec["kind"] == "overuse"


def validate_scenario(scenario: dict) -> dict:
    """A copy of the scenario with the defaults of _FIELDS filled in, once all checks pass."""
    out = _checked("scenario", scenario, "scenario", scenario)
    as_ids, links = set(), set()
    for entry in out["topology"]["ases"]:
        if entry["id"] in as_ids:
            raise ScenarioError(f"duplicate AS id {entry['id']}")
        as_ids.add(entry["id"])
    for entry in out["topology"]["links"]:
        src, dst = link = entry["from"], entry["to"]
        if not as_ids.issuperset(link):
            raise ScenarioError(f"link {src}->{dst} has an end that is not a declared AS")
        if src == dst:
            raise ScenarioError(f"link {src}->{dst} connects AS {src} to itself")
        if link in links:
            raise ScenarioError(f"duplicate link {src}->{dst}")
        links.add(link)
    paths = {}  # an earlier flow's name -> its path
    packets = {}  # a flow's name -> at most how many packets it sends
    replayers = {}  # AS id -> the name of the one replayer there
    for i, spec in enumerate(out["flows"]):
        name, kind, path = spec["name"], spec["kind"], spec["path"]
        if name in paths:
            raise ScenarioError(f"duplicate flow name {name!r}")
        if spec["class"] not in ("reserved", "best_effort", "adversary"):
            raise ScenarioError(f"flow {name}: unknown class {spec['class']!r}")
        if spec["class"] == "adversary" and kind not in ADVERSARY_KINDS:
            raise ScenarioError(f"flow {name}: unknown adversary kind {kind!r}")
        if kind in ADVERSARY_KINDS and spec["class"] != "adversary":
            raise ScenarioError(f"flow {name}: kind {kind!r} needs class adversary")
        extra = "replayer" if kind == "replay_on_reservation_set" else "sender"
        _checked(extra, spec, ("scenario.flows", i), out, spec)
        if _reserves(spec):
            _checked("reservation", spec, ("scenario.flows", i), out, spec)
            if len(set(path)) < len(path):  # a flow holds one credential per AS
                twice = next(hop for j, hop in enumerate(path) if hop in path[:j])
                raise ScenarioError(f"flow {name}: path visits AS {twice} twice")
        for hop in path:
            if hop not in as_ids:
                raise ScenarioError(f"flow {name}: path AS {hop} not declared")
        for a, b in zip(path, path[1:]):
            if (a, b) not in links:
                raise ScenarioError(f"flow {name}: no link {a}->{b}")
        if kind == "replay_on_reservation_set":
            if spec["at_as"] not in path:
                raise ScenarioError(f"flow {name}: at_as {spec['at_as']} not on path")
            replayed = spec["replays_flow"]
            if replayed not in paths:
                raise ScenarioError(
                    f"flow {name}: replays_flow {replayed!r} must be declared earlier"
                )
            if path != paths[replayed]:  # its copies go on along the replayed flow's path
                raise ScenarioError(f"flow {name}: path {path} is not the path of {replayed!r}")
            if spec["at_as"] in replayers:
                raise ScenarioError(
                    f"flow {name}: AS {spec['at_as']} already has replayer {replayers[spec['at_as']]}"
                )
            replayers[spec["at_as"]] = name
            if spec["multiplicity"] > MAX_MULTIPLICITY:
                raise ScenarioError(f"flow {name}: multiplicity above {MAX_MULTIPLICITY}")
            packets[name] = spec["multiplicity"] * packets[replayed]
        else:
            start_ns, interval_ns, stop_ns = _schedule(spec)
            if interval_ns < 1:
                raise ScenarioError(f"flow {name}: sends packets less than 1 ns apart")
            packets[name] = max(0, -(-(stop_ns - start_ns) // interval_ns))
        for shared_as, source in spec["share"].items():
            if not (str(shared_as).isdecimal() and int(shared_as) in path):
                raise ScenarioError(f"flow {name}: shared AS {shared_as} not on path")
            if type(source) is not str or source not in paths:
                raise ScenarioError(f"flow {name}: share source {source!r} is no earlier flow")
        paths[name] = path
    if sum(packets.values()) > MAX_PACKETS:
        raise ScenarioError(f"flows send up to {sum(packets.values())} packets, max {MAX_PACKETS}")
    for entry in out["buyouts"]:
        if entry["as"] not in as_ids:
            raise ScenarioError(f"buyout AS {entry['as']} is not a declared AS")
    if "market" not in scenario and (out["buyouts"] or any(map(_reserves, out["flows"]))):
        raise ScenarioError("scenario needs a market block for reservations")
    market, duration = out["market"], out["duration_s"]
    window, gran, lead = market["window_s"], market["granularity_s"], market["lead_s"]
    if window % gran:
        raise ScenarioError(f"market window {window}s not a multiple of {gran}s")
    if lead % gran:
        raise ScenarioError(f"market lead {lead}s must be a multiple of {gran}s")
    if lead + duration > window:
        raise ScenarioError(
            f"market window {window}s does not cover lead {lead}s plus "
            f"duration {duration}s"
        )
    capacities = [link["capacity_mbps"] for link in out["topology"]["links"]]
    widest = round(max(out["host_capacity_mbps"], *capacities) * 1_000_000)
    if size_array(widest, market["min_bandwidth"]) > MAX_IDS:
        raise ScenarioError(
            f"market min_bandwidth must size the policer of a {widest} bit/s "
            f"interface within {MAX_IDS} entries, got {market['min_bandwidth']}"
        )
    for expect in out["expect"]:
        if expect["op"] not in _OPS:
            raise ScenarioError(f"unknown expect op {expect['op']!r}")
    return out


@contextmanager
def _refused_at(where: str):
    """Set-up of `where` (an AS, a buyout or a flow): what the ledger, the
    source, the codec or the scenario refuses there is a scenario error."""
    try:
        yield
    except (LedgerError, SourceError, WireError, ScenarioError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


class Network:
    """A scenario set up for one seed, and the one place a scenario is checked:
    `self.scenario` is what `validate_scenario` returned.  A scenario that
    fails the check or the set-up raises `ScenarioError`."""

    def __init__(self, scenario: dict, seed: int):
        self.scenario = scenario = validate_scenario(scenario)
        self.seed = seed
        self.sim = Simulator()
        self.market = scenario["market"]
        self.host_capacity_bps = round(scenario["host_capacity_mbps"] * 1_000_000)

        # Interface numbering: 0 is the host side; link endpoints count up
        # from 1 in scenario order, one id per directed link end.
        self.ases: dict[int, BorderAS] = {}
        for entry in scenario["topology"]["ases"]:
            as_id = entry["id"]
            self.ases[as_id] = BorderAS(
                as_id,
                self.sim,
                self._rng(f"as{as_id}"),
                clock_offset_ns=round(entry["clock_offset_ms"] * NS_PER_MS),
                burst_ns=round(scenario["burst_ms"] * NS_PER_MS),
                min_bandwidth=self.market["min_bandwidth"],
            )
            self.ases[as_id].add_interface(self.host_capacity_bps)

        self.links: dict[tuple[int, int], Link] = {}
        for entry in scenario["topology"]["links"]:
            src, dst = entry["from"], entry["to"]
            capacity = round(entry["capacity_mbps"] * 1_000_000)
            self.ases[src].egress_iface[dst] = self.ases[src].add_interface(capacity)
            self.ases[dst].ingress_iface[src] = dst_iface = self.ases[dst].add_interface(capacity)
            buffer_bytes = round(entry["be_buffer_ms"] * NS_PER_MS * capacity / (8 * NS_PER_S))
            self.links[src, dst] = self.ases[src].links[dst] = Link(
                self.sim,
                self.ases[dst],
                dst_iface,
                capacity,
                round(entry["delay_ms"] * NS_PER_MS),
                buffer_bytes,
            )

        # Interface 0 is the host side at either end of a flow's route.
        self.flows: dict[str, Flow] = {}
        for spec in scenario["flows"]:
            flow = Flow(spec, self._rng(f"flow:{spec['name']}"))
            links = list(zip(flow.path, flow.path[1:]))
            ingress = [0, *(self.ases[b].ingress_iface[a] for a, b in links)]
            egress = [*(self.ases[a].egress_iface[b] for a, b in links), 0]
            flow.route = list(zip(flow.path, ingress, egress))
            self.flows[flow.name] = flow

        self._setup_ledger()
        self._setup_plans()

    def _rng(self, name: str) -> Random:
        return Random(f"{self.seed}:{name}")

    # -- control plane -------------------------------------------------------

    def _setup_ledger(self) -> None:
        rng = self._rng("ledger")
        root = PkiRoot(rng)
        funding = self.scenario["funding"]
        genesis = {}
        for as_id in self.ases:
            genesis[f"as{as_id}-ops"] = 0
        accounts = {f.account for f in self.flows.values()}
        accounts.update(b["account"] for b in self.scenario["buyouts"])
        for account in sorted(accounts):
            genesis[account] = funding
        self.genesis = dict(genesis)
        self.ledger = Ledger(root.public_key, genesis)

        window = self.market["window_s"]
        start = EPOCH_S - self.market["lead_s"]
        end = start + window
        self.window = (start, end)
        for as_id in sorted(self.ases):
            with _refused_at(f"AS {as_id}"):
                account = f"as{as_id}-ops"
                ident = AsIdentity(as_id, self._rng(f"as{as_id}:ident"))
                cert = root.issue_cert(as_id, ident.public_key)
                token = self.ledger.register_as(account, cert, ident.proof_of_key(account))
                self.ledger.register_seller(account)
                for iface, capacity in enumerate(self.ases[as_id].capacities):
                    if capacity < self.market["min_bandwidth"]:
                        continue  # too slow to sell: its traffic runs best effort
                    for direction in (Direction.INGRESS, Direction.EGRESS):
                        asset = self.ledger.issue(
                            account,
                            token,
                            bandwidth=capacity,
                            start_time=start,
                            expiration_time=end,
                            interface=iface,
                            direction=direction,
                            time_granularity=self.market["granularity_s"],
                            min_bandwidth=self.market["min_bandwidth"],
                        )
                        self.ledger.create_listing(account, asset, self.market["unit_price"])

        for entry in self.scenario["buyouts"]:
            account, as_id = entry["account"], entry["as"]
            with _refused_at(f"buyout of AS {as_id} by {account!r}"):
                self._buy_out_as(account, as_id)

        for flow in self.flows.values():
            if _reserves(flow.spec):
                with _refused_at(f"flow {flow.name}"):
                    self._reserve_for_flow(flow)

    def _listings(self) -> dict[tuple, tuple[Listing, int]]:
        """Each open listing, with its asset's bandwidth, by (AS, interface,
        direction).  Every purchase here spans the market window, so a
        resource has at most one open listing, and it spans the window."""
        listings = {}
        for listing in self.ledger.open_listings():
            asset = self.ledger.asset(listing.asset_id)
            listings[asset.as_id, asset.interface, asset.direction] = (listing, asset.bandwidth)
        return listings

    def _find_listing(self, listings: dict, as_id: int, iface: int,
                      direction: Direction, bandwidth: int) -> Listing:
        """The resource's open listing, if it has bandwidth."""
        listing, available = listings.get((as_id, iface, direction), (None, 0))
        if available < bandwidth:
            raise ScenarioError(
                f"no listing covers AS {as_id} iface {iface} {direction.value} "
                f"{bandwidth} bit/s over {self.window}"
            )
        return listing

    def _reserve_for_flow(self, flow: Flow) -> None:
        """Buy, redeem, and decrypt credentials for every hop of the path."""
        share = {int(k): v for k, v in flow.spec["share"].items()}
        bandwidth = round(flow.spec["reserve_mbps"] * 1_000_000)
        start, end = self.window
        priv, pub = sealing_keypair(flow.rng)

        # Nothing changes the listings before the block below runs.
        listings = self._listings()
        calls = []
        own_hops = []
        for as_id, ingress, egress in flow.route:
            if as_id in share:
                continue
            l_in = self._find_listing(listings, as_id, ingress, Direction.INGRESS, bandwidth)
            l_eg = self._find_listing(listings, as_id, egress, Direction.EGRESS, bandwidth)
            want = dict(start_time=start, expiration_time=end, bandwidth=bandwidth)
            base = len(calls)
            calls.append(Call("buy", (flow.account, l_in.listing_id), dict(want)))
            calls.append(Call("buy", (flow.account, l_eg.listing_id), dict(want)))
            calls.append(
                Call("redeem", (flow.account, Result(base), Result(base + 1), pub))
            )
            own_hops.append((as_id, base + 2))
        results = self.ledger.execute_atomic(calls)

        for as_id, result_index in own_hops:
            request = results[result_index]
            blob = self.ledger.deliver_reservation(self.ases[as_id].control, request)
            flow.credentials[as_id] = unseal_credentials(priv, blob)
        for as_id, other in share.items():
            donor = self.flows[other]
            if as_id not in donor.credentials:
                raise ScenarioError(f"{other!r} has no credential at AS {as_id}")
            flow.credentials[as_id] = donor.credentials[as_id]

    def _buy_out_as(self, account: str, as_id: int) -> None:
        """Purchase every open listing of one AS in full."""
        for listing in sorted(
            self.ledger.open_listings(), key=lambda l: l.listing_id
        ):
            asset = self.ledger.asset(listing.asset_id)
            if asset.as_id != as_id:
                continue
            self.ledger.buy(
                account,
                listing,
                start_time=asset.start_time,
                expiration_time=asset.expiration_time,
                bandwidth=asset.bandwidth,
            )

    # -- data plane ------------------------------------------------------------

    def _setup_plans(self) -> None:
        """Each sender's plan and payload, and its last packet built: the source
        refuses at set-up any packet it would refuse during the run.  Every
        reservation starts by instant zero, so the last tick fails first."""
        for flow in self.flows.values():
            if flow.kind == "replay_on_reservation_set":
                continue
            with _refused_at(f"flow {flow.name}"):
                flow.plan = self._build_plan(flow)
                overhead = 4 * flow.plan.fixed_part[1]  # hdr_len counts 4-byte words
                flow.payload_len = flow.spec["packet_bytes"] - overhead
                if flow.payload_len < 0:
                    raise ScenarioError(
                        f"packet_bytes {flow.spec['packet_bytes']} "
                        f"smaller than the {overhead} byte header"
                    )
                flow.wire_bytes = flow.spec["packet_bytes"]
                start_ns, interval_ns, stop_ns = _schedule(flow.spec)
                if start_ns < stop_ns:
                    last_ns = stop_ns - 1 - (stop_ns - 1 - start_ns) % interval_ns
                    build_packet(flow.plan, flow.payload_len, lambda: EPOCH_NS + last_ns,
                                 CounterState())

    def _build_plan(self, flow: Flow) -> PathPlan:
        seg_id = flow.rng.randrange(1 << 16)
        info_ts = EPOCH_S - 3600
        macs = crypto.segment_hop_macs(seg_id, info_ts, [
            (self.ases[as_id].forwarding_prf, 255, ingress, egress)
            for as_id, ingress, egress in flow.route
        ])
        hops = []
        for (as_id, ingress, egress), mac in zip(flow.route, macs):
            reservation = flow.credentials.get(as_id)
            if reservation is None and flow.kind == "tag_forgery":
                # Plausible-looking reservation nobody ever bought; the
                # key is junk, so the tags are effectively random.
                res = ReservationInfo(
                    ingress=ingress,
                    egress=egress,
                    res_id=0,
                    bw_code=quantize_bw(round(flow.spec["rate_mbps"] * 1_000_000)),
                    res_start=self.window[0],
                    duration=self.market["window_s"],
                )
                reservation = (res, flow.rng.randbytes(16))
            hops.append(HopPlan(ingress, egress, mac, 255, reservation))
        return PathPlan(
            dst_isd=1,
            dst_as=flow.rng.randrange(1 << 32),
            segments=(
                SegmentPlan(seg_id=seg_id, timestamp=info_ts, hops=tuple(hops)),
            ),
        )

    def host_clock(self) -> int:
        """What a sending host reads: unix ns, with no skew."""
        return EPOCH_NS + self.sim.now

    def _schedule_flow(self, flow: Flow) -> None:
        start_ns, interval_ns, stop_ns = _schedule(flow.spec)
        self.sim.schedule(start_ns, self._tick, flow, start_ns, interval_ns, stop_ns)

    def _tick(self, flow: Flow, at_ns: int, interval_ns: int, stop_ns: int) -> None:
        """Send one packet at at_ns, and come back after interval_ns while before stop_ns."""
        if at_ns >= stop_ns:
            return
        packet = build_packet(flow.plan, flow.payload_len, self.host_clock, flow.counter)
        flow.stats.offered_packets += 1
        flow.stats.offered_bytes += flow.wire_bytes
        self.ases[flow.path[0]].receive(_Transit(flow, packet, at_ns, flow.wire_bytes), 0)
        at_ns += interval_ns
        self.sim.schedule(at_ns, self._tick, flow, at_ns, interval_ns, stop_ns)

    def run(self) -> dict:
        for flow in self.flows.values():
            if flow.kind == "replay_on_reservation_set":
                self.ases[flow.spec["at_as"]].replay = flow
                continue
            self._schedule_flow(flow)
        self.sim.run()
        return self._report()

    # -- metrics -------------------------------------------------------------------

    @staticmethod
    def _percentile(sorted_values: list[int], q: int) -> int:
        rank = -(-q * len(sorted_values) // 100)  # nearest-rank, ceil
        return sorted_values[max(rank - 1, 0)]

    def _report(self) -> dict:
        flows = {}
        for name, flow in sorted(self.flows.items()):
            s = flow.stats
            delivered_packets = s.priority_packets + s.best_effort_packets
            delivered_bytes = s.priority_bytes + s.best_effort_bytes
            lat = sorted(flow.latencies_ns)
            flows[name] = {
                "class": flow.spec["class"],
                "kind": flow.kind,
                **asdict(s),
                "delivered_packets": delivered_packets,
                "delivered_bytes": delivered_bytes,
                "priority_fraction": (
                    s.priority_bytes / s.offered_bytes if s.offered_bytes else 0.0
                ),
                "delivered_fraction": (
                    delivered_bytes / s.offered_bytes if s.offered_bytes else 0.0
                ),
                "latency_ns": (
                    {
                        "p50": self._percentile(lat, 50),
                        "p90": self._percentile(lat, 90),
                        "p99": self._percentile(lat, 99),
                        "max": lat[-1],
                    }
                    if lat
                    else None
                ),
            }
        hops = {
            name: {str(as_id): dict(sorted(counts.items()))
                   for as_id, counts in sorted(flow.hop_counts.items())}
            for name, flow in sorted(self.flows.items())
        }
        links = {
            f"{src}->{dst}": asdict(link.stats) for (src, dst), link in sorted(self.links.items())
        }
        open_by_as = {str(as_id): 0 for as_id in sorted(self.ases)}
        for listing in self.ledger.open_listings():
            open_by_as[str(self.ledger.asset(listing.asset_id).as_id)] += 1
        balances = {a: self.ledger.balance(a) for a in sorted(self.genesis)}
        ops_accounts = {f"as{as_id}-ops" for as_id in self.ases}
        spend = {
            a: self.genesis[a] - balances[a]
            for a in sorted(self.genesis)
            if a not in ops_accounts
        }
        return {
            "scenario": self.scenario["name"],
            "seed": self.seed,
            "duration_s": self.scenario["duration_s"],
            "flows": flows,
            "hops": hops,
            "links": links,
            "ledger": {
                "balances": balances,
                "spend": spend,
                "open_listings_by_as": dict(sorted(open_by_as.items())),
                "state_hash": self.ledger.state_hash(),
            },
        }


# ---------------------------------------------------------------------------
# Entry points


def bundled_scenarios() -> dict[str, str]:
    """Scenario name -> JSON text for everything shipped in the package."""
    out = {}
    for entry in resources.files(__package__).joinpath("scenarios").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = entry.read_text()
    return dict(sorted(out.items()))


def load_scenario(ref: str) -> dict:
    """Read and parse a scenario from a file path or a bundled name; `Network` checks it."""
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {ref!r}: {exc}") from exc
    else:
        bundled = bundled_scenarios()
        if ref not in bundled:
            raise ScenarioError(
                f"unknown scenario {ref!r}; bundled: {', '.join(bundled)}"
            )
        text = bundled[ref]
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {ref!r} is not valid JSON: {exc}") from exc


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _lookup(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    if type(node) not in (int, float):  # expect values are numbers
        raise KeyError(dotted)
    return node


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def expectation_failure(report: dict, expect: dict) -> str | None:
    """Why one of a scenario's embedded assertions fails on report; None if it holds."""
    metric, op, value = expect["metric"], expect["op"], expect["value"]
    try:
        actual = _lookup(report, metric)
    except KeyError:
        return f"{metric}: no such metric"
    if not _OPS[op](actual, value):
        return f"{metric}: {actual!r} {op} {value!r} is false"
    return None
