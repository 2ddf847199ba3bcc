"""Per-layer metrics read from a traced run.

Each metric is named ``<module>.<function>.<stat>``.  `self_s` and `calls`
come straight from the span of that name; the ratio and count metrics come
from return values, collected by the hooks registered in `register_hooks`.
A name whose function no longer exists in the package is reported as
absent (value 0) instead of failing the run.
"""
from __future__ import annotations

GENERATORS = ("pseudorandom.random_tournament", "pseudorandom.random_oriented_graph",
              "pseudorandom.random_digraph", "pseudorandom.paley_tournament")

# spans the benchmark records around its own code: the CLI handler outside
# library calls, and its own input generation during set-up
REGIONS = ("cli.command", "perfbench.inputs")

# (metric, span it reads); the unit follows from the stat
_SPAN_STATS = [
    ("cli.command.self_s", "cli.command"),
    ("perfbench.inputs.self_s", "perfbench.inputs"),
    ("formats.read_graph.self_s", "formats.read_graph"),
    ("formats.read_coloring.self_s", "formats.read_coloring"),
    ("formats.parse_graph.self_s", "formats.parse_graph"),
    ("formats.parse_coloring.self_s", "formats.parse_coloring"),
    ("formats.write_graph.self_s", "formats.write_graph"),
    ("formats.write_coloring.self_s", "formats.write_coloring"),
    ("formats.serialize_graph.self_s", "formats.serialize_graph"),
    ("formats.serialize_coloring.self_s", "formats.serialize_coloring"),
    ("experiment.run_experiment.calls", "experiment.run_experiment"),
    ("experiment.run_experiment.self_s", "experiment.run_experiment"),
    ("graphs.OrientedGraph.subgraph.calls", "graphs.OrientedGraph.subgraph"),
    ("graphs.OrientedGraph.subgraph.self_s", "graphs.OrientedGraph.subgraph"),
    ("graphs.EdgeColoring.validate_total.self_s", "graphs.EdgeColoring.validate_total"),
    ("graphs.EdgeColoring.class_graph.self_s", "graphs.EdgeColoring.class_graph"),
    ("paths.find_cycle.calls", "paths.find_cycle"),
    ("paths.find_cycle.self_s", "paths.find_cycle"),
    ("paths.level_decomposition.self_s", "paths.level_decomposition"),
    ("paths.longest_path_dag.self_s", "paths.longest_path_dag"),
    ("paths.longest_path_exact.self_s", "paths.longest_path_exact"),
    ("paths.longest_path_length_masks.self_s", "paths.longest_path_length_masks"),
    ("classic.gallai_roy.calls", "classic.gallai_roy"),
    ("classic.gallai_roy.self_s", "classic.gallai_roy"),
    ("classic.maximal_acyclic_subgraph.self_s", "classic.maximal_acyclic_subgraph"),
    ("classic.raynaud.calls", "classic.raynaud"),
    ("classic.raynaud.self_s", "classic.raynaud"),
    ("pseudorandom.refute_pseudorandomness.self_s", "pseudorandom.refute_pseudorandomness"),
    ("pseudorandom.dfs_long_path.self_s", "pseudorandom.dfs_long_path"),
    ("pseudorandom.thread_path_through_sets.self_s",
     "pseudorandom.thread_path_through_sets"),
    ("pseudorandom.pseudorandomness_exact.self_s", "pseudorandom.pseudorandomness_exact"),
    ("adversary.theorem1_adversary.self_s", "adversary.theorem1_adversary"),
    ("adversary.sparse_acyclic_set.calls", "adversary.sparse_acyclic_set"),
    ("adversary.sparse_acyclic_set.self_s", "adversary.sparse_acyclic_set"),
    ("adversary.constructive_chromatic.self_s", "adversary.constructive_chromatic"),
    ("adversary.color_classes_coloring.self_s", "adversary.color_classes_coloring"),
    ("adversary.acyclic_edge_coloring.self_s", "adversary.acyclic_edge_coloring"),
    ("adversary.check_partition.self_s", "adversary.check_partition"),
    ("builder.two_color_path_finder.calls", "builder.two_color_path_finder"),
    ("builder.two_color_path_finder.self_s", "builder.two_color_path_finder"),
    ("builder.multicolor_path_finder.self_s", "builder.multicolor_path_finder"),
    ("oracle.longest_mono_path.calls", "oracle.longest_mono_path"),
    ("oracle.longest_mono_path.self_s", "oracle.longest_mono_path"),
    ("oracle.min_max_mono_path.self_s", "oracle.min_max_mono_path"),
    ("oracle.arrowing_check.self_s", "oracle.arrowing_check"),
]

# ratio metric -> (counter numerator, span whose calls are the base)
_RATIOS = [
    ("classic.gallai_roy.path_ratio", "gallai_roy.path", "classic.gallai_roy"),
    ("pseudorandom.refute_pseudorandomness.refuted_ratio", "refute.refuted",
     "pseudorandom.refute_pseudorandomness"),
    ("adversary.families_ratio", "adversary.families", "adversary.theorem1_adversary"),
    ("builder.red_case_ratio", "builder.red-case", "builder.two_color_path_finder"),
    ("builder.blue_case_ratio", "builder.blue-case", "builder.two_color_path_finder"),
    ("builder.fallback_ratio", "builder.small-n-fallback", "builder.two_color_path_finder"),
    ("builder.guarantee_ratio", "builder.guarantee", "builder.two_color_path_finder"),
]

_TRACE = [
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.other_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _ in _SPAN_STATS:
        units[name] = "count" if name.endswith(".calls") else "s"
    units["pseudorandom.generate.self_s"] = "s"
    units["pseudorandom.pseudorandomness_exact.subsets"] = "count"
    units["oracle.explored"] = "count"
    units["oracle.size_limit_ratio"] = "ratio"
    for name, _, _ in _RATIOS:
        units[name] = "ratio"
    for name, unit in _TRACE:
        units[name] = unit
    return units


def _explored_sum(counts, result) -> None:
    if isinstance(result, dict):
        counts["oracle.explored"] += sum(getattr(r, "explored", 0)
                                         for r in result.values())
    else:
        counts["oracle.explored"] += getattr(result, "explored", 0)


def _branch(counts, cert) -> None:
    counts[f"builder.{getattr(cert, 'branch', '')}"] += 1
    counts["builder.guarantee"] += bool(getattr(cert, "guarantee_active", False))


def register_hooks(tracer) -> None:
    """Counters taken from return values; tolerant of changed result types."""
    tracer.on_return("classic.gallai_roy", lambda c, r: c.update(
        {"gallai_roy.path": int(hasattr(r, "vertices"))}))
    tracer.on_return("pseudorandom.refute_pseudorandomness", lambda c, r: c.update(
        {"refute.refuted": int(r is not None)}))
    tracer.on_return("pseudorandom.pseudorandomness_exact", lambda c, r: c.update(
        {"pseudorandomness_exact.subsets": getattr(r, "explored", 0)}))
    tracer.on_return("adversary.theorem1_adversary", lambda c, r: c.update(
        {"adversary.families": int(bool(getattr(
            getattr(r, "partition", None), "families", ())))}))
    tracer.on_return("builder.two_color_path_finder", _branch)
    tracer.on_return("oracle.longest_mono_path", _explored_sum)
    tracer.on_return("oracle.min_max_mono_path", _explored_sum)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def other_spans(tracer) -> list[tuple[str, float]]:
    """(span, self_s) of the spans no per-layer metric reports, largest first."""
    reported = {name for _, name in _SPAN_STATS} | set(GENERATORS)
    return sorted(((name, st.self_s) for name, st in tracer.stats.items()
                   if name not in reported), key=lambda item: -item[1])


def collect(tracer, wall_s: float, overhead_ratio: float):
    """(metrics {name: value}, absent span names) for one traced run.

    A span the package no longer has reads 0, like one that never ran, and
    is listed as absent.
    """
    values: dict[str, float] = {}
    for metric, name in _SPAN_STATS:
        values[metric] = (tracer.calls(name) if metric.endswith(".calls")
                          else tracer.self_s(name))
    values["pseudorandom.generate.self_s"] = sum(tracer.self_s(g) for g in GENERATORS)
    values["pseudorandom.pseudorandomness_exact.subsets"] = \
        tracer.counts["pseudorandomness_exact.subsets"]
    values["oracle.explored"] = tracer.counts["oracle.explored"]
    lmp = "oracle.longest_mono_path"
    values["oracle.size_limit_ratio"] = _ratio(tracer.errors(lmp, "SizeLimitError"),
                                               tracer.calls(lmp))
    for metric, counter, base in _RATIOS:
        values[metric] = _ratio(tracer.counts[counter], tracer.calls(base))
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - tracer.root_s
    values["trace.unattributed_ratio"] = _ratio(values["trace.unattributed_s"], wall_s)
    values["trace.other_self_s"] = sum(self_s for _, self_s in other_spans(tracer))
    values["trace.overhead_ratio"] = overhead_ratio
    absent = sorted({name for _, name in _SPAN_STATS
                     if name not in REGIONS and not tracer.has(name)})
    return values, absent
