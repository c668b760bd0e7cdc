"""Outside-in layer tracer for one ``repro`` CLI command.

Run as ``python perfbench/tracer.py OUT.json -- <repro arguments>``.  The
script installs an import hook, imports ``repro.cli`` inside an
``import`` span, runs ``repro.cli.main`` on the arguments and, at exit,
writes per-layer call counts, self times and counters to ``OUT.json``.
The command's stdout and exit code are those of the untraced CLI.

Nothing under ``src/`` is edited.  Each layer's public functions are
replaced by timing wrappers *where callers find them*: on the defining
module or class, and on every ``repro`` module that bound the function
by name (``from ..runtime.plan import compile_sync_plan`` in
``repro.analysis.campaign`` and the like).  Modules are patched as they
finish loading, so lazily imported modules are traced too, and every
``repro`` module load is itself an ``import`` span.

Spans live only on an in-memory stack.  A span's *self time* is its
duration minus the durations of the spans nested directly inside it.
The tracer's own work would land in those self times: part of each
span's cost falls inside the span, part in its parent.  So the script
times wrapped no-op calls (:func:`calibrate`) before and after the
command, and the report
subtracts that cost per span from the layer it fell in; the total,
with the calibration and patching time, is reported as ``overhead_s``.
The self times of all layers, the overhead and the time outside every
span add up to the process's wall time.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import json
import os
import statistics
import sys
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

# Method names of the synchronous and timed device interfaces.
DEVICE_METHODS = (
    "init_state", "send", "transition", "choose",
    "on_start", "on_message", "on_timer",
)

# (layer, module or module prefix, (kind, names)).  Kinds:
#   "attributes": the named "function" / "Class.method" of that module;
#   "classes": those methods of every class defined under the prefix
#     that defines them itself;
#   "functions": every public function defined under the prefix whose
#     name starts with one of the names ("" matches all of them).
TARGETS: tuple[tuple[str, str, tuple[str, tuple[str, ...]]], ...] = (
    ("protocols", "repro.protocols", ("classes", DEVICE_METHODS)),
    ("runtime.sync.adversary", "repro.runtime.sync.adversary",
     ("classes", DEVICE_METHODS)),
    ("analysis.campaign.sample", "repro.analysis.campaign",
     ("attributes", ("sample_fault_plan",))),
    ("analysis.campaign.sample", "repro.analysis.adversary_search",
     ("attributes", ("build_adversary",))),
    ("runtime.sync.executor", "repro.runtime.sync.executor",
     ("attributes", ("run", "execute_plan"))),
    ("runtime.plan", "repro.runtime.plan",
     ("attributes", ("compile_sync_plan",))),
    ("runtime.faults", "repro.runtime.faults",
     ("attributes", ("SyncFaultInjector.deliver",))),
    ("problems", "repro.problems", ("classes", ("check",))),
    ("runtime.memo", "repro.runtime.memo",
     ("attributes", ("BehaviorCache.get", "BehaviorCache.put"))),
    ("runtime.incremental", "repro.runtime.incremental",
     ("attributes", ("ExecutionTrie.prepare", "TrieRun.execute"))),
    ("graphs.automorphisms", "repro.graphs.automorphisms",
     ("attributes", ("OrbitIndex.__init__", "OrbitIndex.canonical_key",
                     "OrbitIndex.record"))),
    ("analysis.campaign", "repro.analysis.campaign",
     ("attributes", ("run_campaign", "degradation_frontier"))),
    ("analysis.campaign.shrink", "repro.analysis.campaign",
     ("attributes", ("shrink_counterexample",))),
    ("analysis.runstore", "repro.analysis.runstore",
     ("attributes", ("Shard.append", "Shard.sync", "RunStore.write_meta",
                     "atomic_write_text"))),
    ("analysis.parallel", "repro.analysis.parallel",
     ("attributes", ("ParallelRunner.map", "ParallelRunner.map_captured"))),
    ("core", "repro.core", ("functions", ("refute_", "corollary_"))),
    ("graphs", "repro.graphs.adequacy", ("attributes", ("classify",))),
    ("graphs", "repro.graphs.connectivity", ("functions", ("",))),
    ("graphs", "repro.graphs.coverings", ("functions", ("",))),
    ("analysis.sweep", "repro.analysis.sweep",
     ("attributes", ("node_bound_sweep", "connectivity_sweep"))),
    ("runtime.timed", "repro.runtime.timed.executor",
     ("attributes", ("run_timed",))),
)

# Every layer, in report order.  "import" is the first one: module
# loading is a layer of its own.
LAYERS: tuple[str, ...] = ("import",) + tuple(
    dict.fromkeys(layer for layer, _, _ in TARGETS)
)

COUNTERS = (
    "runtime.sync.executor.rounds",
    "runtime.faults.injections",
    "runtime.memo.gets",
    "runtime.memo.hits",
    "runtime.incremental.rounds_replayed",
    "runtime.incremental.rounds_executed",
    "graphs.automorphisms.records",
    "graphs.automorphisms.reused",
    "analysis.campaign.attempts",
    "analysis.campaign.failed",
    "analysis.campaign.shrink.tried",
    "analysis.campaign.shrink.accepted",
)


class Tracer:
    """Layer spans on a stack, folded into per-site totals as they end.

    A *site* is what a wrapper accounts under: its layer, or for a
    wrapper with counting hooks its ``module:attribute`` key, because
    the hooks make that wrapper's own cost different.  ``totals[site]``
    is ``[calls, self seconds, spans nested directly inside]``.  A frame
    on the stack is ``[seconds covered by child spans, layer, child
    spans]``; a span adds its duration to its parent's frame when it
    ends.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []
        self.totals: defaultdict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.site_layer: dict[str, str] = {}
        self.top_level = 0  # spans that ended with no span open
        self.excluded_s = 0.0  # tracer work timed by exclude()
        self.counters: Counter = Counter({name: 0 for name in COUNTERS})

    def begin(self, layer: str) -> tuple[list, float]:
        frame = [0.0, layer, 0]
        self.stack.append(frame)
        return frame, self.clock()

    def inside(self, layer: str) -> bool:
        """Is a span of ``layer`` open?"""
        return any(frame[1] == layer for frame in self.stack)

    def end(self, site: str, frame: list, t0: float) -> None:
        duration = self.clock() - t0
        self.stack.pop()
        total = self.totals[site]
        total[0] += 1
        total[1] += duration - frame[0]
        total[2] += frame[2]
        if self.stack:
            parent = self.stack[-1]
            parent[0] += duration
            parent[2] += 1
        else:
            self.top_level += 1

    def exclude(self, t0: float) -> None:
        """Charge the time since ``t0`` to no layer: it is removed from
        the enclosing span's self time and counted as tracer overhead."""
        elapsed = self.clock() - t0
        self.excluded_s += elapsed
        if self.stack:
            self.stack[-1][0] += elapsed

    def wrap(self, layer: str, fn, before=None, after=None, site=None):
        """A span around ``fn``, accounted under ``site`` (default: the
        layer).  ``before(args, kwargs)`` returns a state handed to
        ``after(state, args, result)`` on a normal return."""
        begin, end = self.begin, self.end
        site = site or layer
        self.site_layer[site] = layer

        if before is None and after is None:
            def wrapper(*args, **kwargs):
                frame, t0 = begin(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(site, frame, t0)
        else:
            def wrapper(*args, **kwargs):
                frame, t0 = begin(layer)
                try:
                    state = before(args, kwargs) if before else None
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(state, args, result)
                    return result
                finally:
                    end(site, frame, t0)

        wrapper.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def report(self, wall_s: float, costs: "Costs | None" = None) -> dict:
        """Per-layer calls and self times with the tracer's own cost
        taken out, and that cost as ``overhead_s``: the calibrated cost
        of every span, plus the time passed to :meth:`exclude`."""
        costs = costs or Costs(0.0, {})
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        overhead = self.excluded_s + self.top_level * costs.parent
        for site, (calls, self_s, children) in self.totals.items():
            cost = calls * costs.own_cost(site) + children * costs.parent
            layer = self.site_layer.get(site, site)
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s - cost
            overhead += cost
        return {
            "wall_s": wall_s,
            "overhead_s": overhead,
            "layers": layers,
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class Costs:
    """The tracer's cost per span, in seconds.  ``parent``: charged to
    the enclosing span (the wrapper call, ``begin`` before its clock
    read, ``end`` after it).  ``own[site]``: charged to the span itself
    (argument forwarding, the hooks, ``end`` up to its clock read);
    ``own[""]`` is that of a wrapper without hooks."""

    parent: float
    own: dict[str, float]

    def own_cost(self, site: str) -> float:
        return self.own.get(site, self.own.get("", 0.0))

    def average(self, other: "Costs") -> "Costs":
        return Costs(
            (self.parent + other.parent) / 2,
            {k: (v + other.own[k]) / 2 for k, v in self.own.items()},
        )


# Calibration: rounds of this many wrapped calls; ≈50 ms in all.
CALIBRATION_SPANS = 400
CALIBRATION_ROUNDS = 5


def calibrate() -> Costs:
    """Measure :class:`Costs` on a throwaway tracer: time a round of calls
    of a wrapped no-op inside one outer span, for a wrapper without
    hooks and for each hooked wrapper (its hooks fed stand-in
    arguments).  An empty loop and a loop of bare calls give what the
    loop and the call itself cost: the call is the function's own work,
    which the span rightly holds.  Medians over the rounds."""
    probe = Tracer()
    clock = probe.clock
    kinds = {"": (None, None, (None,), None)}
    kinds.update(_counting_hooks(probe))
    parents, own = [], {}
    for key, (before, after, args, result) in kinds.items():
        def noop(*_):
            return result

        wrapped = probe.wrap("probe", noop, before, after, site="probe")
        rounds = []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = clock()
            for _ in range(CALIBRATION_SPANS):
                pass
            empty = clock() - t0
            t0 = clock()
            for _ in range(CALIBRATION_SPANS):
                noop(*args)
            call = clock() - t0 - empty
            probe.totals.pop("probe", None)
            probe.totals.pop("outer", None)
            frame, t0 = probe.begin("outer")
            for _ in range(CALIBRATION_SPANS):
                wrapped(*args)
            probe.end("outer", frame, t0)
            rounds.append((
                (probe.totals["outer"][1] - empty) / CALIBRATION_SPANS,
                (probe.totals["probe"][1] - call) / CALIBRATION_SPANS,
            ))
        parents.append(statistics.median(p for p, _ in rounds))
        own[key] = max(statistics.median(o for _, o in rounds), 0.0)
    return Costs(max(statistics.median(parents), 0.0), own)


def _counting_hooks(tracer: Tracer) -> dict[str, tuple]:
    """``(before, after, sample args, sample result)`` keyed
    ``module:attribute``.  The hooks read arguments and return values
    only; the samples are stand-ins :func:`calibrate` feeds them."""
    c = tracer.counters

    def rounds(state, args, result):
        c["runtime.sync.executor.rounds"] += result.rounds

    def before_deliver(args, kwargs):
        return len(args[0].trace.records)

    def after_deliver(state, args, result):
        c["runtime.faults.injections"] += len(args[0].trace.records) - state

    def memo_get(state, args, result):
        c["runtime.memo.gets"] += 1
        c["runtime.memo.hits"] += result is not None

    def before_trie(args, kwargs):
        trie = args[0].trie
        return trie.rounds_replayed, trie.rounds_executed

    def after_trie(state, args, result):
        trie = args[0].trie
        c["runtime.incremental.rounds_replayed"] += trie.rounds_replayed - state[0]
        c["runtime.incremental.rounds_executed"] += trie.rounds_executed - state[1]

    def orbit_record(state, args, result):
        c["graphs.automorphisms.records"] += 1
        c["graphs.automorphisms.reused"] += bool(result)

    def campaign(state, args, result):
        c["analysis.campaign.attempts"] += result.attempts
        c["analysis.campaign.failed"] += bool(result.broken)

    def after_shrink(state, args, result):
        c["analysis.campaign.shrink.accepted"] += result[1]

    stand_in = SimpleNamespace(
        trace=SimpleNamespace(records=[]),
        trie=SimpleNamespace(rounds_replayed=0, rounds_executed=0),
    )
    return {
        "repro.runtime.sync.executor:execute_plan": (
            None, rounds, (stand_in,), SimpleNamespace(rounds=0)),
        "repro.runtime.faults:SyncFaultInjector.deliver": (
            before_deliver, after_deliver, (stand_in, None), None),
        "repro.runtime.memo:BehaviorCache.get": (
            None, memo_get, (stand_in, None), None),
        "repro.runtime.incremental:TrieRun.execute": (
            before_trie, after_trie, (stand_in,), None),
        "repro.graphs.automorphisms:OrbitIndex.record": (
            None, orbit_record, (stand_in, None), False),
        "repro.analysis.campaign:run_campaign": (
            None, campaign, (stand_in,),
            SimpleNamespace(attempts=0, broken=None)),
        "repro.analysis.campaign:shrink_counterexample": (
            None, after_shrink, (stand_in,), (None, 0)),
    }


class Patcher:
    """Replaces target functions with tracer wrappers as modules load."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.hooks = _counting_hooks(tracer)
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: list[object] = []  # keeps ids stable

    def _wrap_attribute(self, layer: str, module, name: str) -> None:
        owner, attr = module, name
        if "." in name:
            cls_name, attr = name.split(".", 1)
            owner = getattr(module, cls_name, None)
            if owner is None:
                return
            original = owner.__dict__.get(attr)
        else:
            original = getattr(module, attr, None)
        if not isinstance(original, types.FunctionType):
            return
        self._install(layer, f"{module.__name__}:{name}", owner, attr, original)

    def _install(self, layer, key, owner, attr, original) -> None:
        if id(original) in self.wrappers:
            return
        if key in self.hooks:
            before, after, _, _ = self.hooks[key]
            wrapper = self.tracer.wrap(layer, original, before, after, site=key)
        else:
            wrapper = self.tracer.wrap(layer, original)
        self.wrappers[id(original)] = wrapper
        self.originals.append(original)
        setattr(owner, attr, wrapper)

    def patch(self, module: types.ModuleType) -> None:
        """Wrap the targets ``module`` defines, then rebind its names."""
        name = module.__name__
        for layer, where, (kind, names) in TARGETS:
            if name != where and not name.startswith(where + "."):
                continue
            if kind == "classes":
                for cls in list(vars(module).values()):
                    if not isinstance(cls, type) or cls.__module__ != name:
                        continue
                    for method in names:
                        fn = cls.__dict__.get(method)
                        if isinstance(fn, types.FunctionType):
                            key = f"{name}:{cls.__name__}.{method}"
                            self._install(layer, key, cls, method, fn)
            elif kind == "functions":
                for attr, fn in list(vars(module).items()):
                    if (
                        isinstance(fn, types.FunctionType)
                        and fn.__module__ == name
                        and not attr.startswith("_")
                        and attr.startswith(names)
                    ):
                        self._install(layer, f"{name}:{attr}", module, attr, fn)
            elif name == where:
                for attr in names:
                    self._wrap_attribute(layer, module, attr)
        if name == "repro.analysis.campaign":
            self._count_shrink_candidates(module)
        self.rebind(module)

    def _count_shrink_candidates(self, module) -> None:
        """Count ``execute_attempt`` calls made while a shrink runs (no
        span: the call is not a layer boundary)."""
        original = module.__dict__.get("execute_attempt")
        if not isinstance(original, types.FunctionType):
            return
        tracer = self.tracer

        def execute_attempt(*args, **kwargs):
            if tracer.inside("analysis.campaign.shrink"):
                tracer.counters["analysis.campaign.shrink.tried"] += 1
            return original(*args, **kwargs)

        execute_attempt.__wrapped__ = original
        self.wrappers[id(original)] = execute_attempt
        self.originals.append(original)
        module.execute_attempt = execute_attempt

    def rebind(self, module: types.ModuleType) -> None:
        """Point every name in ``module`` bound to an original at its
        wrapper (the call-site bindings made by ``from X import f``)."""
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = self.wrappers.get(id(value))
            if wrapper is not None and wrapper is not value:
                namespace[attr] = wrapper

    def rebind_all(self) -> None:
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                self.rebind(module)


class _TracedLoader(importlib.abc.Loader):
    def __init__(self, inner, tracer: Tracer, patcher: Patcher) -> None:
        self.inner = inner
        self.tracer = tracer
        self.patcher = patcher

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module) -> None:
        frame, t0 = self.tracer.begin("import")
        try:
            self.inner.exec_module(module)
        finally:
            self.tracer.end("import", frame, t0)
        t1 = self.tracer.clock()
        self.patcher.patch(module)
        self.tracer.exclude(t1)


class ImportHook(importlib.abc.MetaPathFinder):
    """Finds ``repro`` modules through the normal path finder and gives
    them a loader that times the module body and then patches it."""

    def __init__(self, tracer: Tracer, patcher: Patcher) -> None:
        self.tracer = tracer
        self.patcher = patcher

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TracedLoader(spec.loader, self.tracer, self.patcher)
        return spec


def main(argv: list[str]) -> int:
    t_start = perf_counter()
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <repro arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    # Match `python -m repro`: the working directory, not this script's
    # directory, heads the module search path.
    sys.path[0] = os.getcwd()
    tracer = Tracer()
    t0 = tracer.clock()
    costs = calibrate()
    tracer.exclude(t0)
    patcher = Patcher(tracer)
    sys.meta_path.insert(0, ImportHook(tracer, patcher))
    code = 1
    try:
        frame, t0 = tracer.begin("import")
        try:
            import repro.cli as cli
        finally:
            tracer.end("import", frame, t0)
        t0 = tracer.clock()
        patcher.rebind_all()
        tracer.exclude(t0)
        try:
            code = cli.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    finally:
        # The machine's speed can change during the command: calibrate
        # at its end as well and use the mean cost.
        t0 = tracer.clock()
        costs = costs.average(calibrate())
        tracer.exclude(t0)
        report = tracer.report(perf_counter() - t_start, costs)
        with open(out_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
