"""The repository benchmark: closed-loop workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {compare_small,campaign_service} \
        --seed N --seconds S --trace {0,1}

Every measured pass runs in a fresh interpreter (``passes.py``) with
one job, so caches start cold as they do for a user.  The config seeds
of each pass are drawn from ``--seed`` and the pass index here, before
the pass interpreter starts, so that search stays out of every timing.
With ``--trace 0`` the run first starts ``SETUP_PROBES`` set-up-only
interpreters, then runs about ``--seconds`` worth of untraced passes
(at least one), and reports the end-to-end metrics as medians over
passes.  With ``--trace 1`` it runs one traced pass and one untraced
pass and reports the per-layer metrics, the tracing overhead (traced
minus untraced ``wall_s``) and the share of ``wall_s`` covered by named
layer spans.  Counts that must repeat exactly are compared with the
previous traced run of the same workload, seed and program sources.

Scratch files live under ``.bench_work/`` in the checkout; the span
trace of the last traced run is kept at
``.bench_work/traces/<workload>-seed<N>.jsonl``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("compare_small", "campaign_service")

#: Set-up-only interpreters started before the measured passes.
SETUP_PROBES = 4

#: Nominal seconds of one measured pass; a run makes
#: ``max(1, round(seconds / NOMINAL_PASS_S))`` passes, so the work per
#: run does not depend on how fast the host happens to be.
NOMINAL_PASS_S = {"compare_small": 9.0, "campaign_service": 15.0}

#: Whole-run budget; a pass that would overrun it is killed.
BUDGET_S = 170.0

#: Metric names and units, from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Traced counts that must repeat exactly between traced runs.
EXACT_COUNTS = (
    "workload.rng_for_calls",
    "core.embedding_iterations",
    "sim.vm_slots",
    "store.puts",
    "suite.ledger_records",
    "service.requests",
)

#: Span names whose self time is reported under another metric name.
RENAMED = {"sim.observe_s": "sim.observe_self_s", "sim.step_s": "sim.step_self_s"}

#: ROADMAP item 1's span-coverage target (reported, not gated).
COVERAGE_TARGET = 0.95


class PassError(RuntimeError):
    """A pass interpreter failed, timed out or printed no result."""


def _child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def pass_seeds(args, index: int) -> list[int]:
    """Config seeds of pass ``index``, chosen in this process."""
    from workloads import config_seeds

    return config_seeds(args.workload, args.seed, index)


def run_pass(args, mode: str, seeds: list[int], workdir: pathlib.Path,
             deadline: float, trace_out: pathlib.Path | None = None) -> dict:
    """Start one pass interpreter and return its JSON result."""
    command = [
        sys.executable, str(HERE / "passes.py"),
        "--workload", args.workload,
        "--config-seeds", ",".join(str(seed) for seed in seeds),
        "--mode", mode, "--workdir", str(workdir),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError(f"no time left for a {mode} pass")
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass exceeded the {BUDGET_S:.0f} s budget")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise PassError(f"{mode} pass exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise PassError(f"{mode} pass printed no result")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Medians over passes (set-up over every probe and pass)."""
    values = {
        name: statistics.median(float(p[name]) for p in passes)
        for name in END_TO_END
        if name != "setup_s"
    }
    values["setup_s"] = statistics.median(setups)
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END.items()}


def per_layer(traced: dict, untraced: dict, compared: int) -> dict:
    layers = {RENAMED.get(name, name): value
              for name, value in traced["layers"].items()}
    # Volume spans are labelled by slot; the layer total covers both.
    layers["workload.volumes_s"] = layers.get(
        "workload.volumes_s", 0.0
    ) + layers.get("workload.volumes_slot0_s", 0.0)
    layers["sim.audit_violations"] = traced["audit_violations"]
    # Timings of whole calls come from the untraced pass.
    layers["core.decision_p50_s"] = untraced["decision_p50_s"]
    layers["core.decision_tail_s"] = untraced["decision_tail_s"]
    layers["orchestrator.warm_runs_per_s"] = untraced.get(
        "warm_runs_per_s", 0.0
    )
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    layers["trace.counts_compared"] = compared
    return {
        name: _metric(float(layers.get(name, 0)), unit)
        for name, unit in PER_LAYER.items()
    }


def source_digest() -> str:
    """sha256 over the program's sources: names the code being measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(args, layers: dict) -> tuple[int, list[str]]:
    """Compare exact counts with the last traced run of the same sources.

    The stored counts are keyed by workload, seed and source digest, so
    two runs of one program are compared, never runs of two versions;
    the file is rewritten after every comparison.
    """
    path = (WORK / "counts"
            / f"{args.workload}-seed{args.seed}-{source_digest()}.json")
    current = {name: layers.get(name, 0) for name in EXACT_COUNTS}
    mismatches: list[str] = []
    compared = 0
    if path.exists():
        previous = json.loads(path.read_text())
        for name in EXACT_COUNTS:
            if name in previous:
                compared += 1
                if previous[name] != current[name]:
                    mismatches.append(
                        f"{name}: {previous[name]} then {current[name]}"
                    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, sort_keys=True) + "\n")
    return compared, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {SRC / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]

    deadline = time.monotonic() + BUDGET_S
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args, workdir, deadline)
        else:
            result = untraced_run(args, workdir, deadline)
    except PassError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(args, workdir: pathlib.Path, deadline: float) -> dict:
    count = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    seeds = [pass_seeds(args, index) for index in range(count)]
    setups = []
    for index in range(SETUP_PROBES):
        probe = run_pass(args, "setup", seeds[0], workdir / f"setup{index}",
                         deadline)
        setups.append(probe["setup_s"])
    passes: list[dict] = []
    for index in range(count):
        outcome = run_pass(args, "measure", seeds[index],
                           workdir / f"pass{index}", deadline)
        passes.append(outcome)
        setups.append(outcome["setup_s"])
    for index, outcome in enumerate(passes):
        warm = outcome.get("warm_runs_per_s")
        print(f"pass {index}: wall_s={outcome['wall_s']:.3f} "
              f"setup_s={outcome['setup_s']:.3f} "
              + (f"warm_runs_per_s={warm:.1f} " if warm else "")
              + f"decision tail=p{outcome['decision_tail_pct']} of "
              f"{outcome['decision_samples']} slots "
              f"(p0 = maximum) proposed_response_s="
              f"{outcome['proposed_response_s']:.4f} failed={outcome['failed']}")
        for note in outcome["notes"]:
            print(f"  {note}")
    metrics = end_to_end(passes, setups)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    failed = sum(int(p["failed"]) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(int(p["attempted"]) for p in passes),
        "failed": failed,
        "metrics": metrics,
    }


def traced_run(args, workdir: pathlib.Path, deadline: float) -> dict:
    seeds = pass_seeds(args, 0)
    trace_out = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    traced = run_pass(args, "traced", seeds, workdir / "traced", deadline,
                      trace_out)
    untraced = run_pass(args, "measure", seeds, workdir / "untraced",
                        deadline)
    compared, mismatches = check_counts(args, traced["layers"])
    metrics = per_layer(traced, untraced, compared)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    coverage = traced["layers"]["trace.coverage"]
    if coverage < COVERAGE_TARGET:
        print(f"note: named layer spans cover {coverage:.1%} of wall_s, "
              f"under the {COVERAGE_TARGET:.0%} target")
    if traced["missing_targets"]:
        print("note: entry points not found: "
              + ", ".join(traced["missing_targets"]))
    for mismatch in mismatches:
        print(f"error: traced count changed between runs: {mismatch}")
    print(f"spans written to {trace_out.relative_to(ROOT)}")
    failed = int(traced["failed"]) + int(untraced["failed"]) + len(mismatches)
    return {
        "correct": failed == 0,
        "attempted": int(traced["attempted"]) + int(untraced["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
