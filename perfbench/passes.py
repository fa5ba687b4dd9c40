"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Usage::

    python3 perfbench/passes.py --workload NAME --config-seeds S1,S2,... \
        --mode {setup,measure,traced} --t0 MONOTONIC --workdir DIR \
        [--trace-out FILE]

The pass builds its inputs from the config seeds ``run.py`` chose for
it, so each pass of a run measures its own realization of the workload.

``--t0`` is the parent's monotonic clock just before it started this
interpreter, so ``setup_s`` covers interpreter start, imports and the
workload's set-up.  ``setup`` mode stops there; ``measure`` runs one
untraced pass; ``traced`` runs the same pass with every layer entry
point wrapped and writes the spans to ``--trace-out``.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config-seeds", required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "traced"), required=True
    )
    parser.add_argument("--t0", type=float, default=_T_START)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from workloads import WORKLOADS, DecisionTimer, decision_metrics

    seeds = [int(seed) for seed in args.config_seeds.split(",")]
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](seeds, workdir)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timer = DecisionTimer().install()
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer().install()
        tracer.active = True
    try:
        outcome = workload.measure(tracer)
    finally:
        workload.close()
    outcome.update(decision_metrics(timer.samples))
    outcome["setup_s"] = setup_s
    outcome["peak_rss_mb"] = _rss()
    if tracer is not None:
        start, end = outcome["window_ns"]
        layers = outcome["layers"]
        for name, seconds in tracer.self_times().items():
            layers[f"{name}_s"] = layers.get(f"{name}_s", 0.0) + seconds
        layers.update(tracer.counters)
        layers["trace.coverage"] = tracer.coverage(start, end)
        layers["trace.spans"] = len(tracer.spans)
        outcome["missing_targets"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(outcome))
    return 0


def _rss() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
