"""Per-layer instrumentation for the traced pass, and its self-time analysis.

The benchmark records its spans from its own code: :class:`Probes` wraps
the public functions at each layer boundary of the package for the
duration of one traced pass, and restores them afterwards.  Each wrapper
records into whatever ``repro.obs`` collector is current when it is called,
so forked campaign workers (which install a fresh ``RecordingCollector``
per cell) ship their spans back through the package's own snapshot merge.
While no recording collector is installed a wrapper adds one attribute
check, and between traced passes no wrapper is installed at all.

A span's *self time* is its duration minus the time its direct child spans
(same process and thread) cover.  Layers are the first component of a
span name; the package's own spans are mapped onto the same layers
(``engine.*`` is ``core``, ``sweep.*`` is ``sim``) except the synthetic
``engine.committed_draws`` interval, which never happened as such and is
dropped — draws are measured at ``draw_block`` instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import current_collector, now

Describe = Callable[[tuple, dict, Any], Dict[str, Any]]


def _drawn(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"drawn": int(result[0].shape[0])}


def _engine_results(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    executor = args[0]
    return {
        "trials": len(result),
        "interactions": sum(int(r.interactions_used) for r in result),
        "transmissions": sum(len(r.transmissions) for r in result),
        "fallbacks": len(getattr(executor, "last_fallbacks", ())),
    }


def _opt_interactions(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    lengths = args[2] if len(args) > 2 else kwargs["lengths"]
    return {"interactions": int(np.sum(lengths))}


def _pool_workers(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"workers": int(args[1] if len(args) > 1 else kwargs.get("workers", 1))}


#: (module, attribute path, span name, argument describer).  Module-level
#: functions are rebound in every loaded module that imported them by name.
PROBES: Tuple[Tuple[str, str, str, Optional[Describe]], ...] = (
    ("repro.adversaries.committed", "CommittedBlockAdversary.draw_block",
     "adversaries.draw", _drawn),
    ("repro.adversaries.committed",
     "CommittedBlockAdversary.committed_index_matrix", "adversaries.matrix",
     None),
    ("repro.adversaries.committed", "CommittedBlockAdversary.committed_prefix",
     "adversaries.prefix", None),
    ("repro.adversaries.factory", "make_adversary", "adversaries.build", None),
    ("repro.sim.runner", "build_trial_adversary", "adversaries.build", None),
    ("repro.algorithms.kernels", "SinkMeetTable.ensure_scanned",
     "algorithms.meet_scan", None),
    ("repro.algorithms.kernels", "SinkMeetTable.extend_round",
     "algorithms.meet_scan", None),
    ("repro.core.vector_execution", "VectorizedExecutor.run_many",
     "core.run_many", _engine_results),
    ("repro.ratio.kernels", "opt_end_matrix", "ratio.opt", _opt_interactions),
    ("repro.sim.runner", "build_knowledge_for_random_run", "knowledge.build",
     None),
    ("repro.offline.convergecast", "build_convergecast_schedule",
     "offline.plan", None),
    ("repro.algorithms.full_knowledge", "convergecast_plan", "offline.plan",
     None),
    ("repro.algorithms.future_broadcast", "broadcast_then_convergecast_plan",
     "offline.plan", None),
    ("repro.algorithms.spanning_tree", "dense_bfs_tree", "offline.plan", None),
    ("repro.campaign.runner", "run_campaign", "campaign.run_campaign", None),
    ("repro.campaign.store", "CampaignStore.write_cell",
     "campaign.store_write", None),
    ("repro.campaign.store", "CampaignStore.verify", "campaign.verify", None),
    ("repro.campaign.store", "CampaignStore.verify_cell", "campaign.verify",
     None),
    ("repro.sim.batch", "sweep_adversary_batched", "sim.sweep", None),
    ("repro.sim.batch", "run_sweep_cell", "sim.cell", None),
    ("repro.sim.runner", "derive_sweep_trial", "sim.derive", None),
    ("repro.sim.parallel", "run_sweep_cells", "sim.pool_wait", _pool_workers),
    ("repro.search.loop", "run_search", "search.run_search", None),
    ("repro.search.loop", "score_schedules", "search.score", None),
    ("repro.search.mutations", "mutate", "search.mutate", None),
    ("repro.search.mutations", "materialize_base", "search.materialize", None),
)

#: Decision-kernel methods, wrapped on every registered kernel class.
KERNEL_METHODS = {
    "prepare": "algorithms.prepare",
    "decide_block": "algorithms.decide",
    "decide_one": "algorithms.decide",
    "resolve_one": "algorithms.decide",
}

#: Spans whose time the benchmark itself charges to no layer.
PASS_SPAN = "bench.pass"
#: Package spans mapped onto the benchmark's layer names.
LAYER_ALIASES = {"engine": "core", "sweep": "sim"}
#: Package spans that are not real intervals.
SYNTHETIC_SPANS = frozenset({"engine.committed_draws"})
#: Generator functions: the span runs from the first item requested to the
#: last item delivered.
GENERATOR_SPANS = frozenset({"sim.pool_wait"})


def _span_wrapper(fn: Callable, name: str, describe: Optional[Describe]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        collector = current_collector()
        if not collector.enabled:
            return fn(*args, **kwargs)
        start = now()
        result = fn(*args, **kwargs)
        end = now()
        extra = describe(args, kwargs, result) if describe else {}
        collector.add_span(name, start, end, **extra)
        return result

    return wrapper


def _iterator_wrapper(fn: Callable, name: str, describe: Optional[Describe]) -> Callable:
    def timed(items: Iterable, extra: Dict[str, Any]) -> Iterator:
        collector = current_collector()
        start = last = now()
        try:
            for item in items:
                last = now()
                yield item
        finally:
            collector.add_span(name, start, last, **extra)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        items = fn(*args, **kwargs)
        if not current_collector().enabled:
            return items
        return timed(items, describe(args, kwargs, None) if describe else {})

    return wrapper


def _kernel_classes() -> List[type]:
    from repro.algorithms.kernels import DecisionKernel

    found: List[type] = []
    pending = list(DecisionKernel.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Probes:
    """Context manager: the layer wrappers are installed inside the block."""

    def __init__(self) -> None:
        self._restore: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Probes":
        try:
            for module_name, path, name, describe in PROBES:
                self._install(module_name, path, name, describe)
            for cls in _kernel_classes():
                for method, name in KERNEL_METHODS.items():
                    if method in vars(cls):
                        self._patch_attr(cls, method, name, None)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._uninstall()

    def _install(
        self, module_name: str, path: str, name: str, describe: Optional[Describe]
    ) -> None:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if parents:
            self._patch_attr(owner, attr, name, describe)
            return
        original = getattr(owner, attr)
        wrapped = self._wrap(original, name, describe)
        # Rebind every module-level name bound to the original (modules
        # that did ``from module import fn`` hold their own reference).
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def _patch_attr(
        self, cls: type, attr: str, name: str, describe: Optional[Describe]
    ) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, name, describe))
        else:
            wrapped = self._wrap(raw, name, describe)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    @staticmethod
    def _wrap(fn: Callable, name: str, describe: Optional[Describe]) -> Callable:
        if name in GENERATOR_SPANS:
            return _iterator_wrapper(fn, name, describe)
        return _span_wrapper(fn, name, describe)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return LAYER_ALIASES.get(prefix, prefix)


@dataclass
class SpanStats:
    """Aggregates of every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total_s += duration
        self.self_s += self_time


def self_times(spans: Iterable[Any]) -> Dict[str, SpanStats]:
    """Per span name: calls, total and self time (children subtracted)."""
    threads: Dict[Tuple[int, int], List[Any]] = defaultdict(list)
    for span in spans:
        if span.name not in SYNTHETIC_SPANS:
            threads[(span.pid, span.tid)].append(span)
    covered: Dict[int, float] = defaultdict(float)
    stats: Dict[str, SpanStats] = defaultdict(SpanStats)
    for group in threads.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack: List[Any] = []
        for span in group:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                covered[id(stack[-1])] += span.duration
            stack.append(span)
    for group in threads.values():
        for span in group:
            stats[span.name].add(
                span.duration, span.duration - covered.get(id(span), 0.0)
            )
    return dict(stats)


def arg_total(spans: Iterable[Any], name: str, key: str) -> float:
    """Sum of argument ``key`` over every span called ``name``."""
    return float(
        sum(dict(s.args).get(key, 0) for s in spans if s.name == name)
    )


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer_metrics(
    spans: List[Any],
    parent_pid: int,
    bytes_written: float,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced pass."""
    stats = self_times(spans)

    def self_s(*names: str) -> float:
        return sum(stats[n].self_s for n in names if n in stats)

    def calls(*names: str) -> int:
        return sum(stats[n].calls for n in names if n in stats)

    layers: Dict[str, float] = defaultdict(float)
    for name, entry in stats.items():
        layers[layer_of(name)] += entry.self_s

    drawn = arg_total(spans, "adversaries.draw", "drawn")
    used = arg_total(spans, "core.run_many", "interactions")
    transmissions = arg_total(spans, "core.run_many", "transmissions")
    walked = arg_total(spans, "engine.lockstep", "candidates_walked")
    opt_interactions = arg_total(spans, "ratio.opt", "interactions")
    draw_s = self_s("adversaries.draw")
    opt_s = self_s("ratio.opt")

    pool_spans = [
        s for s in spans if s.name == "sim.pool_wait" and s.pid == parent_pid
    ]
    pool_capacity = sum(
        s.duration * dict(s.args).get("workers", 1) for s in pool_spans
    )
    worker_cell_s = sum(
        s.duration for s in spans if s.name == "sim.cell" and s.pid != parent_pid
    )
    pass_spans = [s for s in spans if s.name == PASS_SPAN]
    pass_wall = sum(s.duration for s in pass_spans)

    return {
        "adversaries.draw_s": draw_s,
        "adversaries.interactions_drawn": drawn,
        "adversaries.draw_ns_per_interaction": _per(draw_s, drawn, 1e9),
        "adversaries.overdraw_ratio": _per(drawn, used),
        "adversaries.matrix_s": self_s("adversaries.matrix"),
        "adversaries.prefix_s": self_s("adversaries.prefix"),
        "adversaries.build_s": self_s("adversaries.build"),
        "algorithms.prepare_s": self_s("algorithms.prepare"),
        "algorithms.decide_s": self_s("algorithms.decide"),
        "algorithms.decide_calls": calls("algorithms.decide"),
        "algorithms.meet_scan_s": self_s("algorithms.meet_scan"),
        "core.self_s": layers["core"],
        "core.self_ns_per_interaction": _per(layers["core"], used, 1e9),
        "core.candidates_walked": walked,
        "core.walk_yield": _per(transmissions, walked),
        "core.fallbacks": arg_total(spans, "core.run_many", "fallbacks"),
        "ratio.opt_s": opt_s,
        "ratio.opt_calls": calls("ratio.opt"),
        "ratio.opt_ns_per_interaction": _per(opt_s, opt_interactions, 1e9),
        "knowledge.build_s": self_s("knowledge.build"),
        "offline.plan_s": self_s("offline.plan"),
        "offline.plan_calls": calls("offline.plan"),
        "campaign.store_write_s": self_s("campaign.store_write"),
        "campaign.verify_s": self_s("campaign.verify"),
        "campaign.bytes_written": bytes_written,
        "sim.cell_s": self_s("sim.cell", "sweep.cell", "sim.sweep", "sim.derive"),
        "sim.pool_idle_frac": (
            1.0 - worker_cell_s / pool_capacity if pool_capacity else 0.0
        ),
        "search.mutate_s": self_s("search.mutate"),
        "search.mutations": calls("search.mutate"),
        "search.score_self_s": self_s("search.score"),
        "obs.trace_overhead_frac": _per(traced_wall_s, untraced_wall_s) - 1.0,
        "trace.unattributed_frac": _per(self_s(PASS_SPAN), pass_wall),
    }


def layer_table(spans: List[Any]) -> str:
    """The per-layer self-time table (every process of the pass)."""
    stats = self_times(spans)
    total = sum(entry.self_s for entry in stats.values()) or 1.0
    by_layer: Dict[str, List[Tuple[str, SpanStats]]] = defaultdict(list)
    for name, entry in stats.items():
        by_layer[layer_of(name)].append((name, entry))
    ordered = sorted(
        by_layer.items(), key=lambda item: -sum(e.self_s for _, e in item[1])
    )
    lines = [
        f"{'layer / span':<34}{'calls':>9}{'self s':>11}{'total s':>11}{'self %':>8}"
    ]
    for layer, entries in ordered:
        layer_self = sum(e.self_s for _, e in entries)
        lines.append(
            f"{layer:<34}{sum(e.calls for _, e in entries):>9}"
            f"{layer_self:>11.4f}{'':>11}{100 * layer_self / total:>7.1f}%"
        )
        for name, entry in sorted(entries, key=lambda item: -item[1].self_s):
            lines.append(
                f"  {name:<32}{entry.calls:>9}{entry.self_s:>11.4f}"
                f"{entry.total_s:>11.4f}{100 * entry.self_s / total:>7.1f}%"
            )
    return "\n".join(lines)
