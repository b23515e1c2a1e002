"""Timing wrappers around coverlab's public functions, installed from outside.

``Patches`` swaps a function or method for a wrapper and restores it.  A
function is replaced in its defining module and in every coverlab module
that bound it by name (``harness`` imports ``cover_time``, ``excursions``
and ``oracle`` import ``ball_mask`` ...), so calls through any of those
names go through the wrapper.  A method is replaced on its class.

``Tracer`` keeps spans (group, start, end, parent) in memory and turns them
into per-layer figures; ``SetupRecorder`` captures the exact-preparation
calls an experiment makes so that the benchmark can time the same calls
with the same arguments on their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path

COVERLAB_MODULES = ("lattice", "excursions", "oracle", "gw", "schedule", "stats", "harness")


def resolve(target: str):
    """'oracle:CircleChain.__init__' -> (class, name, function);
    'gw:gw_joint_prob' -> (None, name, function)."""
    modname, _, path = target.partition(":")
    module = importlib.import_module(f"coverlab.{modname}")
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(module, cls_name)
        return cls, meth, cls.__dict__[meth]
    return None, path, getattr(module, path)


class Patches:
    """Context manager that installs wrappers and restores the originals."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper):
        """``make_wrapper(original, namespace)`` builds the wrapper; namespace
        is the short coverlab module name the wrapper is installed in."""
        cls, name, original = resolve(target)
        if cls is not None:
            self.replace(cls, name, make_wrapper(original, cls.__module__.rpartition(".")[2]))
            return
        for short in COVERLAB_MODULES:
            module = importlib.import_module(f"coverlab.{short}")
            for attr in [a for a, v in vars(module).items() if v is original]:
                self.replace(module, attr, make_wrapper(original, short))

    def replace(self, owner, attr, value):
        """Set ``owner.attr`` to ``value`` until the context exits."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


# -- set-up recording ----------------------------------------------------------


class SetupRecorder:
    """Records the outermost calls to the given targets, then replays them.

    A constructor call is replayed by building a new instance; a method call
    is replayed on the instance that the replayed constructor built.  The
    recorded instances are kept alive so their ids cannot be reused.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.calls: list[tuple] = []
        self._depth = 0
        self._keep: list[object] = []

    def install(self, patches: Patches):
        for target in self.targets:
            cls, name, _ = resolve(target)
            patches.wrap(target, functools.partial(self._wrapper, cls, name))

    def _wrapper(self, cls, name, original, _namespace):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder._depth == 0:
                if cls is None:
                    recorder.calls.append(("function", original, None, args, kwargs))
                else:
                    recorder._keep.append(args[0])
                    kind = "new" if name == "__init__" else name
                    recorder.calls.append((kind, cls, id(args[0]), args[1:], kwargs))
            recorder._depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                recorder._depth -= 1

        return wrapper

    def replay(self):
        made = {}
        for kind, owner, key, args, kwargs in self.calls:
            if kind == "function":
                owner(*args, **kwargs)
            elif kind == "new":
                made[key] = owner(*args, **kwargs)
            else:
                getattr(made[key], kind)(*args, **kwargs)


# -- tracing -------------------------------------------------------------------

# span group -> wrapped targets.  Geometry reached through the ``oracle``
# namespace is oracle set-up, not trial work, and is filed under
# oracle.assembly.
SPAN_TARGETS = {
    "lattice.walk_init": ["lattice:WalkState.__init__"],
    "lattice.movegen": ["lattice:WalkState.peek_block"],
    "lattice.cover_scan": ["lattice:cover_time"],
    "excursions.ladder": ["excursions:TraversalMachine.run"],
    "excursions.geometry": [
        "lattice:ball_mask",
        "lattice:exterior_boundary_mask",
        "excursions:TraversalMachine.__init__",
    ],
    "oracle.system_build": ["oracle:GridSystem.__init__"],
    "oracle.solve": ["oracle:GridSystem.solve"],
    "oracle.power_iter": ["oracle:EquilibriumWorkspace.equilibrium_pair"],
    "oracle.chain_dfs": ["oracle:CircleChain.event_probability"],
    "oracle.spectral": ["oracle:matthews_cover_bracket"],
    "oracle.assembly": [
        "oracle:harmonic_measure_exact",
        "oracle:CircleChain.__init__",
        "oracle:EquilibriumWorkspace.__init__",
        "oracle:EquilibriumWorkspace.expected_d1",
        "oracle:EquilibriumWorkspace.d1_moments",
    ],
    "gw.mc": ["gw:barrier_event_mc", "gw:srw_traversal_samples"],
    "gw.dp": [
        "gw:exact_barrier_probability",
        "gw:iterate_law",
        "gw:transition_matrix",
        "gw:one_step_pmf",
    ],
    "gw.enum": ["gw:enumerate_traversal_law"],
    "gw.joint_prob": ["gw:gw_joint_prob"],
    "schedule": ["schedule:prob_table", "schedule:transfer_bracket"],
}

# argument holding the number of population paths a GW sampler generates
_PATH_ARG = {"barrier_event_mc": "trials", "srw_traversal_samples": "size"}


class Tracer:
    """In-memory spans plus the counters that the per-layer ratios need."""

    def __init__(self):
        self.spans: list[list] = []  # [group, start, end, parent index]
        self._stack: list[int] = []
        self.steps = 0  # sum of WalkState.consume arguments
        self.ladder_steps = 0  # the part consumed inside TraversalMachine.run
        self.moves_generated = 0  # sizes of the blocks peek_block handed out
        self.gw_paths = 0
        self._ladder_depth = 0
        self._last_block = weakref.WeakKeyDictionary()
        self._solved_systems = weakref.WeakSet()
        self.factorizations = 0

    # spans -----------------------------------------------------------------

    def span(self, group: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            spans.append([group, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def root(self, group: str, fn):
        """Run fn() as a top-level span; returns its result."""
        return self.span(group, fn)()

    # installation ------------------------------------------------------------

    def install(self, patches: Patches):
        for group, targets in SPAN_TARGETS.items():
            for target in targets:
                patches.wrap(target, functools.partial(self._make, group, target))
        from coverlab import lattice

        consume = lattice.WalkState.consume

        def counting_consume(walk, k):
            if k > 0:
                self.steps += k
                if self._ladder_depth:
                    self.ladder_steps += k
            return consume(walk, k)

        patches.replace(lattice.WalkState, "consume", counting_consume)

    def _make(self, group, target, original, namespace):
        name = target.partition(":")[2]
        if group == "excursions.geometry" and namespace == "oracle":
            group = "oracle.assembly"
        if name == "WalkState.peek_block":
            return self._peek_wrapper(group, original)
        if name == "TraversalMachine.run":
            return self._ladder_wrapper(group, original)
        if name == "GridSystem.solve":
            return self.span(group, original, self._count_system)
        if name in _PATH_ARG:
            signature = inspect.signature(original)
            arg = _PATH_ARG[name]

            def count_paths(args, kwargs):
                self.gw_paths += int(signature.bind(*args, **kwargs).arguments[arg])

            return self.span(group, original, count_paths)
        return self.span(group, original)

    def _peek_wrapper(self, group, original):
        timed = self.span(group, original)
        last = self._last_block

        def peek_block(walk):
            codes = timed(walk)
            block = codes.base if codes.base is not None else codes
            if last.get(walk) is not block:
                last[walk] = block
                self.moves_generated += block.size
            return codes

        return functools.wraps(original)(peek_block)

    def _ladder_wrapper(self, group, original):
        timed = self.span(group, original)

        def run(*args, **kwargs):
            self._ladder_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._ladder_depth -= 1

        return functools.wraps(original)(run)

    def _count_system(self, args, kwargs):
        system = args[0]
        if system not in self._solved_systems:
            self._solved_systems.add(system)
            self.factorizations += 1

    # aggregation -------------------------------------------------------------

    def group_times(self) -> dict[str, dict[str, float]]:
        """Per group: count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "incl": 0.0, "self": 0.0})
        for i, (group, start, end, _parent) in enumerate(self.spans):
            g = out[group]
            g["count"] += 1
            g["incl"] += end - start
            g["self"] += end - start - child[i]
        return out

    def layer_metrics(self, trials: int) -> dict[str, float]:
        g = self.group_times()

        def self_s(name):
            return g[name]["self"] if name in g else 0.0

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        init = g.get("lattice.walk_init", {"count": 0, "incl": 0.0})
        geometry = g["excursions.geometry"]["incl"] if "excursions.geometry" in g else 0.0
        solve = g.get("oracle.solve", {"count": 0})
        return {
            "lattice.walk_init_us": ratio(init["incl"], init["count"]) * 1e6,
            "lattice.movegen_s": self_s("lattice.movegen"),
            "lattice.movegen_steps_per_s": ratio(self.steps, self_s("lattice.movegen")),
            "lattice.moves_used_ratio": ratio(self.steps, self.moves_generated),
            "lattice.cover_scan_s": self_s("lattice.cover_scan"),
            "excursions.ladder_s": self_s("excursions.ladder"),
            "excursions.ladder_steps_per_s": ratio(self.ladder_steps, self_s("excursions.ladder")),
            "excursions.geometry_us_per_trial": ratio(geometry, trials) * 1e6,
            "oracle.system_build_s": self_s("oracle.system_build"),
            "oracle.solve_s": self_s("oracle.solve"),
            "oracle.solves": solve["count"],
            "oracle.factorizations": self.factorizations,
            "oracle.power_iter_s": self_s("oracle.power_iter"),
            "oracle.chain_dfs_s": self_s("oracle.chain_dfs"),
            "oracle.spectral_s": self_s("oracle.spectral"),
            "oracle.assembly_s": self_s("oracle.assembly"),
            "gw.mc_s": self_s("gw.mc"),
            "gw.mc_paths_per_s": ratio(self.gw_paths, self_s("gw.mc")),
            "gw.dp_s": self_s("gw.dp"),
            "gw.enum_s": self_s("gw.enum"),
            "gw.joint_prob_s": self_s("gw.joint_prob"),
            "schedule.s": self_s("schedule"),
            "harness.self_s": self_s("harness"),
        }

    def dump(self, path: Path):
        """Write the spans as JSON: group names once, then [group, start, end, parent]."""
        groups = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(groups)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[g], round(s - t0, 9), round(e - t0, 9), p] for g, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"groups": groups, "spans": rows}), encoding="utf-8")
