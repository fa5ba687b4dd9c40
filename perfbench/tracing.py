"""Span tracing for the benchmark, installed from outside the program.

The tracer rebinds each layer's public entry points -- module functions
where they are imported by name, methods on their classes -- with
wrappers that record one span per call: name, start, end, parent span
and run id.  Spans stay in memory and are written out once, when the
pass ends.  Nothing under ``src/`` is edited; a missing entry point is
reported, not fatal, so the benchmark keeps running when a later change
moves a function.

A layer's *self time* is its span's duration minus the part its child
spans (on the same thread) cover.  Counters ride on the same wrappers.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import threading
import time

#: Spans that only wrap other layers; their self time is glue, so they
#: are left out of the coverage union.
CONTAINERS = frozenset(
    {"orchestrator.execute", "service.submit", "service.as_done"}
)

#: The six modules that import ``repro.seeding.rng_for`` by name.
RNG_FOR_IMPORTERS = (
    "repro.core.controller",
    "repro.datacenter.pv",
    "repro.network.ber",
    "repro.workload.datacorr",
    "repro.workload.recorded",
    "repro.workload.traces",
)


def _volumes_label(args, kwargs):
    slot = args[2] if len(args) > 2 else kwargs.get("slot")
    return "workload.volumes_slot0" if slot == 0 else "workload.volumes"


def _count_rows(args, kwargs, result):
    return {"workload.demand_rows": len(args[1])}


def _count_one_row(args, kwargs, result):
    return {"workload.demand_rows": 1}


def _count_iterations(args, kwargs, result):
    return {"core.embedding_iterations": int(result.iterations)}


def _count_vm_slots(args, kwargs, result):
    return {"sim.vm_slots": len(args[2])}


def _count_latency(args, kwargs, result):
    return {"sim.latency_calls": 1}


def _count_puts(args, kwargs, result):
    return {"store.puts": 1}


def _count_fetches(args, kwargs, result):
    return {"store.fetches": 1}


def _count_record(args, kwargs, result):
    return {"suite.ledger_records": _ledger_entries(args[1])}


def _count_records(args, kwargs, result):
    return {
        "suite.ledger_records": sum(_ledger_entries(r) for r in args[1])
    }


def _ledger_entries(record: dict) -> int:
    """Per-run entries a ledger record carries (batches expand).

    Counting entries rather than ``append`` calls keeps the count
    exact: the driver's flush batching depends on wall time, the set of
    entries it writes does not.
    """
    for key in ("runs", "records", "fingerprints"):
        if isinstance(record.get(key), list):
            return len(record[key])
    return 1


def _run_of_launch(args, kwargs):
    fingerprint = args[2] if len(args) > 2 else kwargs.get("fingerprint")
    return str(fingerprint)[:12]


#: (owner, attribute, span name or labeler, counter hook, run-id hook).
#: Owners are ``module`` or ``module:Class``.
LAYER_SPANS = (
    # workload
    ("repro.workload.datacorr:DataCorrelationProcess", "volumes",
     _volumes_label, None, None),
    ("repro.workload.traces:TraceLibrary", "slot_demand_many",
     "workload.demand", _count_rows, None),
    ("repro.workload.traces:TraceLibrary", "slot_demand",
     "workload.demand", _count_one_row, None),
    ("repro.workload.arrivals:VMPopulation", "generate",
     "workload.population", None, None),
    ("repro.workload.packs:TracePack", "build_traces",
     "workload.build", None, None),
    ("repro.workload.packs:TracePack", "build_volumes",
     "workload.build", None, None),
    # core (Proposed)
    ("repro.core.controller:ProposedPolicy", "place", "core.place",
     None, None),
    ("repro.core.controller", "attraction_matrix", "core.attraction",
     None, None),
    ("repro.core.controller", "repulsion_matrix", "core.repulsion",
     None, None),
    ("repro.core.forces:ForceDirectedEmbedding", "run", "core.embedding",
     _count_iterations, None),
    ("repro.core.controller", "compute_capacity_caps", "core.caps",
     None, None),
    ("repro.core.controller", "warm_start_centroids", "core.kmeans",
     None, None),
    ("repro.core.controller", "constrained_kmeans", "core.kmeans",
     None, None),
    ("repro.core.controller", "revise_migrations", "core.migration",
     None, None),
    # baselines
    ("repro.baselines.ener_aware:EnerAwarePolicy", "place",
     "baselines.place", None, None),
    ("repro.baselines.pri_aware:PriAwarePolicy", "place",
     "baselines.place", None, None),
    ("repro.baselines.net_aware:NetAwarePolicy", "place",
     "baselines.place", None, None),
    ("repro.baselines.base", "enforce_migration_constraint",
     "baselines.enforce", None, None),
    ("repro.baselines.base", "build_allocations", "baselines.alloc",
     None, None),
    # sim
    ("repro.sim.kernel:SlotKernel", "observe", "sim.observe", None, None),
    ("repro.sim.kernel:SlotKernel", "step", "sim.step",
     _count_vm_slots, None),
    ("repro.core.green:GreenController", "run_slot_fleet", "sim.green",
     None, None),
    ("repro.core.green:GreenController", "run_slot", "sim.green",
     None, None),
    ("repro.sim.kernel", "fleet_pue", "sim.pue", None, None),
    ("repro.network.latency:LatencyModel", "destination_latency",
     "sim.latency", _count_latency, None),
    ("repro.sim.state:FleetPlacement", "validate", "sim.validate",
     None, None),
    # experiments
    ("repro.experiments.orchestrator:Orchestrator", "launch",
     "orchestrator.execute", None, _run_of_launch),
    # store
    ("repro.store.core:ResultStore", "put", "store.put", _count_puts,
     None),
    ("repro.store.core:ResultStore", "fetch", "store.fetch",
     _count_fetches, None),
    # service
    ("repro.service.client:ServiceClient", "submit_many",
     "service.submit", None, None),
    ("repro.service.client:ServiceClient", "as_done", "service.as_done",
     None, None),
    ("repro.service.client", "encode_request", "service.codec",
     None, None),
    ("repro.service.client", "decode_artifact", "service.codec",
     None, None),
    ("repro.service.server", "decode_request", "service.codec",
     None, None),
    ("repro.service.server", "encode_artifact", "service.codec",
     None, None),
    ("repro.service.server:ExperimentDaemon", "handle_batch",
     "service.daemon", None, None),
    ("repro.service.server:ExperimentDaemon", "handle_poll_batch",
     "service.daemon", None, None),
    ("repro.service.server:ExperimentDaemon", "handle_poll",
     "service.daemon", None, None),
    # suite
    ("repro.suite.spec:SuiteSpec", "expand", "suite.expand", None, None),
    ("repro.suite.ledger:CampaignLedger", "append",
     "suite.ledger_append", _count_record, None),
    ("repro.suite.ledger:CampaignLedger", "append_many",
     "suite.ledger_append", _count_records, None),
    ("repro.suite.outputs", "generate_outputs", "suite.outputs",
     None, None),
)


class Tracer:
    """In-memory span recorder plus the layer rebinding that feeds it.

    Spans are ``[name, start_ns, end_ns, parent, run, thread]`` lists
    whose ``parent`` is the enclosing span list on the same thread (or
    None).  Wrappers pass straight through while :attr:`active` is
    false, so output checks after a pass run untraced.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, run: str | None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if run is None:
            run = parent[4] if parent is not None else None
        span = [name, time.perf_counter_ns(), 0, parent, run,
                threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, values: dict) -> None:
        with self._lock:
            self.counters.update(values)

    def wrap(self, fn, name, counter=None, run_of=None):
        """``fn`` recording one span per call (per resume for generators)."""
        tracer = self

        def label(args, kwargs) -> str:
            return name(args, kwargs) if callable(name) else name

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if not tracer.active:
                    return (yield from fn(*args, **kwargs))
                generator = fn(*args, **kwargs)
                span_name = label(args, kwargs)
                try:
                    while True:
                        span = tracer._open(span_name, None)
                        try:
                            item = next(generator)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer._close(span)
                        yield item
                finally:
                    generator.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            run = run_of(args, kwargs) if run_of is not None else None
            span = tracer._open(label(args, kwargs), run)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                tracer.count(counter(args, kwargs, result))
            return result

        return traced

    def counting(self, fn, key: str):
        """``fn`` bumping counter ``key`` per call (no span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                with tracer._lock:
                    tracer.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _rebind(self, owner_path: str, attr: str, make) -> None:
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{owner_path}.{attr}")
            return
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        """Rebind every layer entry point; returns self."""
        for owner, attr, name, counter, run_of in LAYER_SPANS:
            self._rebind(
                owner, attr,
                lambda fn, n=name, c=counter, r=run_of: self.wrap(fn, n, c, r),
            )
        for module in RNG_FOR_IMPORTERS:
            self._rebind(
                module, "rng_for",
                lambda fn: self.counting(fn, "workload.rng_for_calls"),
            )
        self._install_fingerprint()
        self._install_local_phase()
        return self

    def _install_fingerprint(self) -> None:
        """Span only the fingerprint computations, not memoized reads."""
        tracer = self

        def make(fn):
            traced = tracer.wrap(fn, "orchestrator.fingerprint")

            @functools.wraps(fn)
            def fingerprint(request):
                if request.__dict__.get("_fingerprint") is not None:
                    return fn(request)
                if tracer.active:
                    tracer.count({"orchestrator.fingerprints": 1})
                return traced(request)

            return fingerprint

        self._rebind(
            "repro.experiments.orchestrator:RunRequest", "fingerprint", make
        )

    def _install_local_phase(self) -> None:
        """Trace Proposed's local phase (its default ``local_allocator``).

        The allocator is bound as a constructor default and travels over
        the wire by name, so both the default and the module attribute
        are rebound to the same wrapper (its qualified name is unchanged,
        so fingerprints are too).
        """
        try:
            local = importlib.import_module("repro.core.local")
            controller = importlib.import_module("repro.core.controller")
            original = local.allocate_correlation_aware
            init = controller.ProposedPolicy.__init__
            defaults = list(init.__defaults__)
            position = defaults.index(original)
        except (ImportError, AttributeError, TypeError, ValueError):
            self.missing.append("repro.core.local.allocate_correlation_aware")
            return
        traced = self.wrap(original, "core.local")
        defaults[position] = traced
        init.__defaults__ = tuple(defaults)
        local.allocate_correlation_aware = traced
        controller.allocate_correlation_aware = traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns: dict[int, int] = collections.defaultdict(int)
        for span in self.spans:
            if span[3] is not None:
                child_ns[id(span[3])] += span[2] - span[1]
        totals: dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            own = span[2] - span[1] - child_ns.get(id(span), 0)
            totals[span[0]] += own / 1e9
        return dict(totals)

    def coverage(self, start_ns: int, end_ns: int) -> float:
        """Share of ``[start_ns, end_ns]`` under a non-container span."""
        intervals = sorted(
            (max(span[1], start_ns), min(span[2], end_ns))
            for span in self.spans
            if span[0] not in CONTAINERS
            and span[2] > start_ns
            and span[1] < end_ns
        )
        covered = 0
        cursor = start_ns
        for begin, end in intervals:
            begin = max(begin, cursor)
            if end > begin:
                covered += end - begin
                cursor = end
        return covered / max(end_ns - start_ns, 1)

    def write(self, path) -> None:
        """Write every span as one JSON line (parents by index)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                name, start, end, parent, run, thread = span
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": (
                                None if parent is None else index[id(parent)]
                            ),
                            "run": run,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
