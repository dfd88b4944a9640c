"""Measurement loop, statistics and run metadata shared by the workloads.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns.  A run is made of whole rounds; a round runs
the workload's fixed op sequence on a state set up from the seed and
then checks the outputs.  Rounds of one seed are identical, so a run's
figures do not depend on how many rounds fit into its time budget, and
the share of failed ops is the same in every run.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Percentiles considered for the tail metric, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_WINDOW = 1000  # ops per window the tail percentile is taken over
SETUPS = 3  # set-ups per run at least, so that setup_s is a median


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    for q in TAIL_LADDER:
        # integer form of samples * (100 - q) / 100 >= TAIL_BEYOND
        if samples * (1000 - round(q * 10)) >= TAIL_BEYOND * 1000:
            return q
    return 50.0


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-round(q * 10) * len(sorted_values) // 1000)
    return sorted_values[max(rank - 1, 0)]


def round_figures(op_ns: list[int]) -> tuple[float, float, float]:
    """(ops per second, median ns, tail ns) of one round's op wall times.

    The tail is taken in windows of about TAIL_WINDOW consecutive ops,
    each at the highest percentile with TAIL_BEYOND samples beyond it,
    and the round reports the median window.  Over a whole 12 000-op
    round that percentile would count the machine's stalls (a few per
    second, of milliseconds each) rather than the program's slow ops.
    """
    n = max(len(op_ns) // TAIL_WINDOW, 1)
    bounds = [len(op_ns) * k // n for k in range(n + 1)]
    tails = []
    for lo, hi in zip(bounds, bounds[1:]):
        window = sorted(op_ns[lo:hi])
        tails.append(percentile(window, tail_percentile(len(window))))
    return len(op_ns) * 1e9 / sum(op_ns), statistics.median(op_ns), statistics.median(tails)


@dataclass
class RoundResult:
    """What one round of a workload reports back to the loop."""

    op_ns: list[int]
    failed: int
    errors: list[str]


@dataclass
class Measurement:
    setup_ns: list[int] = field(default_factory=list)
    rounds: list[list[int]] = field(default_factory=list)  # op wall times, per round
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def op_time_ns(self) -> int:
        return sum(sum(r) for r in self.rounds)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics.  Op figures are computed per round and
        the run reports their median over rounds, so a burst of machine
        stalls in one round does not set the run's figure."""
        per_round = [round_figures(r) for r in self.rounds]
        med = [statistics.median(col) for col in zip(*per_round)]
        return {
            "ops_per_s": (med[0], "1/s"),
            "op_p50_us": (med[1] / 1e3, "us"),
            "op_tail_us": (med[2] / 1e3, "us"),
            "setup_s": (statistics.median(self.setup_ns) / 1e9, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def summary(self) -> dict:
        return {
            "rounds": len(self.rounds),
            "ops_per_round": len(self.rounds[0]),
            "tail_percentile": tail_percentile(min(len(self.rounds[0]), TAIL_WINDOW)),
            "setup_s_each": [round(ns / 1e9, 6) for ns in self.setup_ns],
            "op_time_s": round(self.op_time_ns / 1e9, 6),
        }


def measure(workload, seed: int, seconds: float, min_rounds: int, tracer=None) -> Measurement:
    """Run whole rounds until the ops have used `seconds` of wall time.

    Every round sets the workload up afresh, except that a workload with
    a `reset` (one whose set-up its ops do not consume) is set up SETUPS
    times and then reset between rounds.  Set-up is timed from its start
    to the moment the first op may start; resets and output checks are
    untimed.  When a tracer is given its spans cover set-up and ops.
    """
    m = Measurement()
    state = None
    reset = getattr(workload, "reset", None)
    while len(m.rounds) < min_rounds or m.op_time_ns < seconds * 1e9:
        if reset is not None and len(m.setup_ns) >= SETUPS:
            reset(state)
            gc.collect()
        else:
            state = None
            gc.collect()
            if tracer is not None:
                tracer.begin_phase("setup")
            start = time.perf_counter_ns()
            state = workload.setup(seed, tracer)
            m.setup_ns.append(time.perf_counter_ns() - start)
        if tracer is not None:
            tracer.begin_phase("ops")
        result = workload.run(state, tracer)
        if tracer is not None:
            tracer.end_phase()
        m.rounds.append(result.op_ns)
        m.failed += result.failed
        m.errors.extend(f"round {len(m.rounds)}: {e}" for e in result.errors)
    return m


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(root: Path) -> dict:
    import cryptography

    return {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
    }
