"""One workload in its own process.

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE(0|1) MODE(setup|run)

Imports banditlab from the checkout's src/, builds round 0's inputs and prints
READY.  In setup mode it exits there.  Otherwise it plays whole rounds until
SECONDS have passed, reads its peak resident memory, checks every output and
prints one JSON line with the results.  With TRACE 1 it also re-plays sample
games through the protocol, adds the per-layer metrics and writes its spans
to bench/results/.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, mode = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    sys.path.insert(0, str(SRC))
    try:
        import banditlab
    except ImportError as err:
        print(f"cannot import banditlab from {SRC}: {err}", file=sys.stderr)
        return 2
    if SRC not in Path(banditlab.__file__).resolve().parents:
        print(f"banditlab was imported from {banditlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import PER_LAYER, WORKLOADS

    tracer = Tracer(trace)
    wl = WORKLOADS[workload](seed, tracer)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    round_s = []
    start = perf_counter()
    while not round_s or perf_counter() - start < seconds:
        round_s.append(wl.run_round(len(round_s)))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check_all()

    layers = None
    if trace:
        wl.replay()
        totals = tracer.totals()
        values = {name: 0.0 for name, _ in PER_LAYER}
        values.update(wl.common_layers(totals))
        values.update(wl.layer_metrics(totals))
        layers = {name: [values[name], unit] for name, unit in PER_LAYER}
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        tracer.write(results / f"{workload}-seed{seed}.spans.jsonl")

    parts = wl.part_values()
    print(
        json.dumps(
            {
                "correct": not wl.problems,
                "problems": wl.problems[:20],
                "attempted": sum(c.games for c in wl.calls),
                "failed": sum(c.games for c in wl.calls if c.failed),
                "rounds": round_s,
                "round_s": wl.round_time(),
                "peak_rss_mib": peak_rss_mib,
                "parts": [[name, unit, parts[name]] for name, unit in wl.parts],
                "layers": layers,
                "repeats": wl.repeats(),
                "timeline": wl.timeline(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
