"""Outside-in layer tracing for the benchmark's traced run.

The program is not modified: :class:`LayerTrace` replaces public layer
functions under the names their callers import them by (for example
``repro.synth.script.resubstitute`` or ``repro.flows.flow.tech_map``) with
wrappers that open a span in a :class:`repro.obs.trace.Tracer` around the
call.  Spans are kept in memory and written out once the run ends.

Span names are ``<layer>`` or ``<layer>.<part>``; a layer's self time is the
duration of its spans minus the part of that interval their child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.circuit import Circuit

# (module, attribute, span name).  One original function that is reachable
# under several names gets one wrapper, installed under all of them.
SPANNED: Sequence[Tuple[str, str, str]] = (
    ("repro.flows.flow", "run_flow", "flows.row"),
    ("repro.flows.flow", "prepare_circuit", "expose.prepare"),
    ("repro.core.verify", "prepare_circuit", "expose.prepare"),
    ("repro.core.expose", "prepare_circuit", "expose.prepare"),
    ("repro.core.expose", "choose_latches_to_expose", "expose.choose"),
    ("repro.flows.flow", "optimize_sequential_delay", "synth.script"),
    ("repro.synth.script", "optimize_sequential_delay", "synth.script"),
    ("repro.synth.script", "sweep", "synth.sweep"),
    ("repro.synth.script", "strash", "synth.strash"),
    ("repro.synth.script", "algebraic_decomp", "synth.decomp"),
    ("repro.synth.script", "tech_decomp", "synth.tech_decomp"),
    ("repro.synth.script", "resubstitute", "synth.resub"),
    ("repro.synth.script", "reduce_depth", "synth.reduce_depth"),
    ("repro.synth.script", "eliminate", "synth.eliminate"),
    ("repro.synth.script", "simplify_network", "synth.simplify"),
    ("repro.synth.script", "fast_extract", "synth.fx"),
    ("repro.flows.flow", "tech_map", "techmap"),
    ("repro.flows.flow", "retime_min_period", "retime.min_period"),
    ("repro.retime.apply", "retime_min_period", "retime.min_period"),
    ("repro.retime.incremental", "incremental_retime_enabled", "retime.min_period"),
    ("repro.retime.minperiod", "min_period_retiming", "retime.min_period"),
    ("repro.flows.flow", "retime_min_area", "retime.min_area"),
    ("repro.flows.flow", "verify_pair", "verify.pair"),
    ("repro.api", "verify_pair", "verify.pair"),
    ("repro.api", "check_sequential_equivalence", "verify.check"),
    ("repro.core.verify", "compute_cbf", "lower.cbf"),
    ("repro.core.verify", "compute_edbf", "lower.edbf"),
    ("repro.core.verify", "cbf_to_circuit", "lower.eq2comb"),
    ("repro.core.verify", "edbf_to_circuit", "lower.eq2comb"),
    ("repro.core.verify", "check_equivalence", "cec"),
    ("repro.core.verify", "minimize_counterexample", "cex.minimize"),
    ("repro.core.verify", "_search_distinguishing_trace", "cex.search"),
)

# Calls counted without a span: one exact-3-valued simulation is too short
# for a span to be worth its cost.
COUNTED: Sequence[Tuple[str, str, str]] = (
    ("repro.core.verify", "exact3_outputs", "cex.sim_calls"),
)

# Layers whose self time is glue between the named layers below them: it is
# reported (``flows.self_s``, ``verify.self_s``) but not counted as
# attributed by :func:`coverage`.
CATCH_ALL: Sequence[str] = ("flows", "verify")
# The share of a traced pass that must be attributed to named layer spans.
COVERAGE_TARGET = 0.95

def _annotate(name: str, args: Sequence[Any], result: Any) -> Dict[str, Any]:
    """Work counts recorded on a span, read from the call's arguments and
    result (never from inside the program)."""
    if name == "expose.choose":
        return {"remodelled": len(result[1])}
    if name == "synth.script":
        return {
            "literals_in": args[0].num_literals(),
            "literals_out": result.num_literals(),
            "gates_out": result.num_gates(),
        }
    if name == "techmap":
        return {"cells": result.num_gates()}
    if name.startswith("retime."):
        # (circuit, ...) from the retimers; (period, lags) from
        # min_period_retiming; (None, period) from an infeasible min-area.
        retimed = result[0]
        return {"latches_out": retimed.num_latches() if isinstance(retimed, Circuit) else 0}
    if name == "verify.check":
        stats = result.stats
        return {
            "verdict": result.verdict.value,
            "pair_gates": args[0].num_gates() + args[1].num_gates(),
            "comb_gates": stats.get("comb_gates1", 0) + stats.get("comb_gates2", 0),
            "events": stats.get("events", 0),
        }
    if name == "cec":
        stats = result.stats
        return {
            "verdict": result.verdict.value,
            **{
                key: stats.get(key, 0)
                for key in (
                    "time_simulate",
                    "time_sweep",
                    "time_outputs",
                    "sat_queries",
                    "sweep_candidates",
                    "sweep_merges",
                )
            },
        }
    return {}


class LayerTrace:
    """Context manager that installs the layer wrappers on a tracer.

    ``with LayerTrace(tracer) as trace:`` patches every name in
    :data:`SPANNED` and :data:`COUNTED`; leaving the block restores the
    originals.  ``trace.counts`` holds the counted calls.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.counts: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[Any, str, Any]] = []

    def _span_wrapper(self, original: Callable, name: str) -> Callable:
        tracer = self.tracer

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.span(name, cat="phase")
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.annotate(error=True)
                span.close()
                raise
            span.annotate(**_annotate(name, args, result))
            span.close()
            return result

        return wrapper

    def _count_wrapper(self, original: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "LayerTrace":
        wrapped: Dict[Tuple[int, str], Callable] = {}
        for table, make in (
            (SPANNED, self._span_wrapper),
            (COUNTED, self._count_wrapper),
        ):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                key = (id(original), name)
                if key not in wrapped:
                    wrapped[key] = make(original, name)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped[key])
        return self

    def __exit__(self, *exc: Any) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: Sequence[Mapping[str, Any]]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if parent is None:
            continue
        lo, hi = parent["ts"], parent["ts"] + parent["dur"]
        start = max(lo, span["ts"])
        stop = min(hi, span["ts"] + span["dur"])
        if stop > start:
            children[parent["id"]].append((start, stop))
    return {
        span["id"]: max(0.0, span["dur"] - _covered(children[span["id"]]))
        for span in spans
    }


def coverage(
    spans: Sequence[Mapping[str, Any]],
    root_id: int,
    catch_all: Sequence[str] = CATCH_ALL,
) -> float:
    """Share of span ``root_id`` attributed to named layer spans.

    The root's own self time and the self time of every descendant in a
    ``catch_all`` layer (``flows.row`` glue, ``verify.*`` request handling)
    count as unattributed, so time no wrapper sees lowers the figure.
    """
    root = next(span for span in spans if span["id"] == root_id)
    if root["dur"] <= 0:
        return 0.0
    own = self_times(spans)
    children: Dict[int, List[int]] = defaultdict(list)
    for span in spans:
        children[span.get("parent")].append(span["id"])
    by_id = {span["id"]: span for span in spans}
    unattributed = own[root_id]
    stack = list(children[root_id])
    while stack:
        span_id = stack.pop()
        stack.extend(children[span_id])
        if _in_layers(by_id[span_id]["name"], catch_all):
            unattributed += own[span_id]
    return 1.0 - unattributed / root["dur"]


def _in_layers(name: str, layers: Sequence[str]) -> bool:
    return any(name == layer or name.startswith(layer + ".") for layer in layers)


def layer_metrics(
    events: Sequence[Mapping[str, Any]],
    counts: Mapping[str, int],
    sat: Mapping[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from a trace's spans, the counted calls and the
    SAT counters of the run's metrics registry.

    Only the layer metrics are returned; the caller adds the run-level ones
    (``cex.cycles``, ``flows.mapped_*``, ``failed_frac``, ``trace.*``).
    """
    spans = [e for e in events if e.get("type") == "span"]
    own = self_times(spans)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    args_sum: Dict[str, float] = defaultdict(float)
    verdicts: Dict[str, int] = defaultdict(int)
    for span in spans:
        name = span["name"]
        seconds[name] += own[span["id"]]
        calls[name] += 1
        for key, value in (span.get("args") or {}).items():
            if key == "verdict":
                verdicts[f"{name}.{value}"] += 1
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                args_sum[f"{name}.{key}"] += value

    def total(prefix: str) -> float:
        return sum(v for k, v in seconds.items() if k == prefix or k.startswith(prefix + "."))

    out: Dict[str, float] = {
        "expose.s": total("expose"),
        "expose.calls": calls["expose.choose"],
        "expose.remodelled": args_sum["expose.choose.remodelled"],
        "synth.s": seconds["synth.script"],
        "synth.calls": calls["synth.script"],
        "synth.literals_in": args_sum["synth.script.literals_in"],
        "synth.literals_out": args_sum["synth.script.literals_out"],
        "synth.gates_out": args_sum["synth.script.gates_out"],
        "techmap.s": seconds["techmap"],
        "techmap.calls": calls["techmap"],
        "techmap.cells": args_sum["techmap.cells"],
        "retime.min_period.s": seconds["retime.min_period"],
        "retime.min_area.s": seconds["retime.min_area"],
        "retime.calls": calls["retime.min_period"] + calls["retime.min_area"],
        "retime.latches_out": args_sum["retime.min_period.latches_out"]
        + args_sum["retime.min_area.latches_out"],
        "lower.s": total("lower"),
        "lower.comb_gates": args_sum["verify.check.comb_gates"],
        "lower.events": args_sum["verify.check.events"],
        "lower.replication": _ratio(
            args_sum["verify.check.comb_gates"], args_sum["verify.check.pair_gates"]
        ),
        "cec.s": seconds["cec"],
        "cec.simulate.s": args_sum["cec.time_simulate"],
        "cec.sweep.s": args_sum["cec.time_sweep"],
        "cec.outputs.s": args_sum["cec.time_outputs"],
        "cec.sat_queries": args_sum["cec.sat_queries"],
        "cec.sat_propagations": sat.get("propagations", 0.0),
        "cec.sat_conflicts": sat.get("conflicts", 0.0),
        "cec.unknown": verdicts["cec.unknown"],
        "cec.merge_ratio": _ratio(
            args_sum["cec.sweep_merges"], args_sum["cec.sweep_candidates"]
        ),
        "cex.s": seconds["cex.minimize"],
        "cex.sim_calls": counts.get("cex.sim_calls", 0),
        "cex.search_s": seconds["cex.search"],
        "verify.self_s": total("verify"),
        "flows.self_s": seconds["flows.row"],
    }
    for stage in (
        "sweep",
        "strash",
        "decomp",
        "tech_decomp",
        "resub",
        "reduce_depth",
        "eliminate",
        "simplify",
        "fx",
    ):
        out[f"synth.{stage}.s"] = seconds[f"synth.{stage}"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sat_counters(registry: Optional[Any]) -> Dict[str, float]:
    """Propagation and conflict totals from the ``sat.*_per_call``
    histograms a :class:`repro.obs.metrics.MetricsRegistry` collected."""
    out: Dict[str, float] = {}
    if registry is None:
        return out
    for key in ("propagations", "conflicts"):
        hist = registry.histogram(f"sat.{key}_per_call")
        out[key] = hist.total if hist is not None else 0.0
    return out
