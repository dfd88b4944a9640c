"""Spans around calls into the layers, recorded from the benchmark's side.

Tracing wraps public functions of the hummingbird modules for the
duration of a traced run and restores them afterwards; nothing under
src/ knows about it.  A span is (id, name, start_ns, end_ns, parent id,
op id, phase).  Spans stay in memory and are written out once, when the
run ends.  A span's self time is its duration minus the part of it that
its direct child spans cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import hummingbird.crypto
import hummingbird.ledger
import hummingbird.residalloc
import hummingbird.router
import hummingbird.sim

# (owner, attribute, span name): every layer boundary the trace records.
# Module attributes are the names the calling module looks up, so a
# patch catches calls made from inside the program too.
WRAPPED = (
    (hummingbird.router, "process_packet_bytes", "router.process_packet_bytes"),
    (hummingbird.router, "decode_packet", "wire.decode_packet"),
    (hummingbird.router, "encode_packet", "wire.encode_packet"),
    (hummingbird.router, "monitor_code", "policing.monitor_code"),
    (hummingbird.crypto, "prf_block", "crypto.prf_block"),
    (hummingbird.sim, "process_packet", "router.process_packet"),
    (hummingbird.sim, "build_packet", "source.build_packet"),
    (hummingbird.sim.Link, "enqueue", "sim.link_enqueue"),
    (hummingbird.sim.Network, "_setup_ledger", "sim.setup_ledger"),
    (hummingbird.ledger.Ledger, "execute_atomic", "ledger.execute_atomic"),
    (hummingbird.ledger.Ledger, "state_hash", "ledger.state_hash"),
    (hummingbird.ledger.Ledger, "open_listings", "ledger.open_listings"),
    (hummingbird.ledger.Ledger, "deliver_reservation", "ledger.deliver_reservation"),
    (hummingbird.ledger, "unseal_credentials", "ledger.unseal_credentials"),
    (hummingbird.sim, "unseal_credentials", "ledger.unseal_credentials"),
    (hummingbird.residalloc.ResIdAllocator, "assign", "residalloc.assign"),
)

# (owner, attribute, counter name): boundaries that are counted, not timed.
COUNTED = ((hummingbird.sim.Simulator, "schedule", "sim.events"),)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.phase = ""
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 1

    # -- phases and ops -----------------------------------------------------

    def begin_phase(self, phase: str) -> None:
        self.phase = phase
        self.op = -1
        self.active = True

    def end_phase(self) -> None:
        self.active = False

    @contextmanager
    def paused(self):
        """Benchmark bookkeeping between ops stays out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def open(self, name: str) -> tuple[int, int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def close(self, token, name: str) -> None:
        sid, parent, start = token
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op, self.phase))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, name)

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing the wrappers ------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            for owner, attr, name in COUNTED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.counting(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def select(self, name: str, phase: str = "ops") -> list[tuple]:
        return [s for s in self.spans if s[1] == name and s[6] == phase]

    def durations_ns(self, name: str, phase: str = "ops") -> list[int]:
        return [s[3] - s[2] for s in self.select(name, phase)]

    def p50(self, name: str, unit_ns: float, phase: str = "ops") -> float:
        return statistics.median(self.durations_ns(name, phase)) / unit_ns

    def self_times_ns(self, name: str, phase: str = "ops") -> list[int]:
        """Duration minus the union of direct children, per span of `name`."""
        parents = {s[0]: s for s in self.select(name, phase)}
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for s in self.spans:
            if s[4] in parents:
                children[s[4]].append((s[2], s[3]))
        out = []
        for sid, s in parents.items():
            covered = 0
            reach = s[2]
            for start, end in sorted(children.get(sid, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(s[3] - s[2] - covered)
        return out

    def write(self, fh) -> None:
        """One CSV row per span, to an open text file."""
        for s in self.spans:
            fh.write(f"{self.workload},{','.join(map(str, s))}\n")
