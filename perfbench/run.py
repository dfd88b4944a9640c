"""Hummingbird benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload forward_mix --seed 1 --seconds 10 --trace 0

With --trace 0 the named workload runs untraced and the end-to-end
metrics are reported.  With --trace 1 all three workloads run once more
with spans around every layer boundary, each for a third of --seconds,
and the per-layer metrics are reported; the named workload only decides
which runs first.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A fuller record (metadata, per-round figures, check errors) goes to
perfbench/results/, and with --trace 1 the spans go there as gzipped CSV.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("forward_mix", "sim_contended", "market_growth")
MIN_ROUNDS = 3  # per untraced run, so that its op figures are medians over rounds


def _modules():
    import forward_mix
    import market_growth
    import sim_contended

    return {"forward_mix": forward_mix, "sim_contended": sim_contended, "market_growth": market_growth}


def end_to_end(workload: str, seed: int, seconds: float):
    from harness import measure

    m = measure(_modules()[workload], seed, seconds, MIN_ROUNDS)
    return m, m.end_to_end(), {workload: m.summary()}


def per_layer(first: str, seed: int, seconds: float):
    """Trace every workload; returns measurements, metrics, summary, tracers."""
    from harness import measure, round_figures
    from tracing import Tracer

    modules = _modules()
    order = [first] + [w for w in WORKLOADS if w != first]
    runs, tracers = {}, {}
    for name in order:
        tracer = Tracer(name)
        with tracer.installed():
            runs[name] = measure(modules[name], seed, seconds / len(order), 1, tracer)
        tracers[name] = tracer

    fm, sc, mg = tracers["forward_mix"], tracers["sim_contended"], tracers["market_growth"]
    us, ms, s = 1e3, 1e6, 1e9
    fm_ops = runs["forward_mix"].attempted
    sc_rounds = len(runs["sim_contended"].rounds)
    mg_round = len(runs["market_growth"].rounds[0])
    tenth = max(mg_round // 10, 1)
    atomic = mg.select("ledger.execute_atomic")
    metrics = {
        "router.process_packet_bytes.p50_us": (fm.p50("router.process_packet_bytes", us), "us"),
        "router.self.p50_us": (statistics.median(fm.self_times_ns("router.process_packet_bytes")) / us, "us"),
        "wire.decode_packet.p50_us": (fm.p50("wire.decode_packet", us), "us"),
        "wire.encode_packet.p50_us": (fm.p50("wire.encode_packet", us), "us"),
        "crypto.prf_block.p50_us": (fm.p50("crypto.prf_block", us), "us"),
        "crypto.prf_block.per_op": (len(fm.select("crypto.prf_block")) / fm_ops, "count"),
        "policing.monitor_code.p50_us": (fm.p50("policing.monitor_code", us), "us"),
        "source.build_packet.p50_us": (sc.p50("source.build_packet", us), "us"),
        "router.process_packet.p50_us": (sc.p50("router.process_packet", us), "us"),
        "sim.link_enqueue.p50_us": (sc.p50("sim.link_enqueue", us), "us"),
        "sim.events_per_op": (sc.counts["sim.events"] / runs["sim_contended"].attempted, "count"),
        "sim.self_s": (sum(sc.self_times_ns("sim.slice")) / sc_rounds / s, "s"),
        "sim.setup_ledger_s": (sc.p50("sim.setup_ledger", s, phase="setup"), "s"),
        "ledger.open_listings.calls": (len(sc.select("ledger.open_listings", "setup")) / sc_rounds, "count"),
        "ledger.execute_atomic.p50_ms": (mg.p50("ledger.execute_atomic", ms), "ms"),
        "ledger.execute_atomic.first_tenth_ms": (
            statistics.median(x[3] - x[2] for x in atomic if x[5] < tenth) / ms, "ms"),
        "ledger.execute_atomic.last_tenth_ms": (
            statistics.median(x[3] - x[2] for x in atomic if x[5] >= mg_round - tenth) / ms, "ms"),
        "ledger.state_hash.p50_ms": (mg.p50("ledger.state_hash", ms), "ms"),
        "ledger.state_hash.per_op": (len(mg.select("ledger.state_hash")) / runs["market_growth"].attempted, "count"),
        "ledger.deliver_reservation.p50_ms": (mg.p50("ledger.deliver_reservation", ms), "ms"),
        "ledger.unseal_credentials.p50_us": (mg.p50("ledger.unseal_credentials", us), "us"),
        "residalloc.assign.p50_us": (mg.p50("residalloc.assign", us), "us"),
    }
    for name in WORKLOADS:
        m = runs[name]
        metrics[f"traced.{name}.ops_per_s"] = (statistics.median(round_figures(r)[0] for r in m.rounds), "1/s")
    summary = {name: runs[name].summary() for name in order}
    return runs, metrics, summary, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hummingbird" / "__init__.py").is_file():
        print(f"perfbench: no hummingbird sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hummingbird

    if Path(hummingbird.__file__).resolve().parent != SRC / "hummingbird":
        print(f"perfbench: imported hummingbird from {hummingbird.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import metadata

    if args.trace:
        runs, metrics, summary, tracers = per_layer(args.workload, args.seed, args.seconds)
    else:
        m, metrics, summary = end_to_end(args.workload, args.seed, args.seconds)
        runs = {args.workload: m}

    errors = [f"{name}: {e}" for name, m in runs.items() for e in m.errors]
    result = {
        "correct": not errors,
        "attempted": sum(m.attempted for m in runs.values()),
        "failed": sum(m.failed for m in runs.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **result, "rounds": summary, "errors": errors[:50], "meta": metadata(ROOT),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with gzip.open(RESULTS / f"spans-{stem}.csv.gz", "wt", compresslevel=1) as fh:
            fh.write("workload,id,name,start_ns,end_ns,parent,op,phase\n")
            for tracer in tracers.values():
                tracer.write(fh)

    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
