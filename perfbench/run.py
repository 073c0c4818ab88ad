"""Whole-pipeline benchmark: Table 1/2 regeneration and sequential checks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1_quick --seed 1 --seconds 10 --trace 0

Workloads are listed in ``BENCHMARK.json`` with why each was chosen, and in
``perfbench/NOTES.md``.  A run spends about ``--seconds`` in all, in rounds:
a round sets up the workload's inputs from the seed afresh (``setup_s`` is
the median set-up) and runs a pass over them; a set-up longer than
``SETUP_ONCE_S`` is made in the first round only, and later passes reuse
its inputs.  The first passes (two, or the workload's ``min_passes``) run in
full; after them the run stops at the first unit whose last time no longer
fits in the budget.  Each item's outputs are checked as it comes, and the
run prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics of untraced passes.  Their
times are in reference seconds: each timed set-up and unit is scaled by how
fast a fixed calibration workload ran beside it on the same CPU
(``hostclock.py``), so that the shared host's drifting speed cancels out.
``--trace 1`` runs one traced set-up and pass with the layer wrappers of
``layers.py``, then one untraced pass over the same inputs.  It writes the
trace to ``.perfbench/trace-<workload>-<seed>.jsonl`` and reports the
per-layer metrics, the tracing overhead and the share of the pass covered
by layer spans.

``--record`` reruns every input set of a Table workload and rewrites its
entry in ``reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"
# A round sets up at least once and until this much set-up has been timed,
# so that a set-up of a few milliseconds still gets a steady median.  The
# set-ups are spread over the run's rounds so that they sample the same
# spells of host speed as the passes do.
SETUP_ROUND_S = 1.0
# A set-up longer than this is made once per run, and every pass reuses its
# inputs: two of verify_mutants' ~11 s set-ups (most of it the minmax12
# unateness defect) would take a run far past its budget.
SETUP_ONCE_S = 2.0
# Rounds a run makes at least, so that later passes are checked against the
# first, unless the workload sets its own ``min_passes``.
PASS_REPEATS = 2
# String hashing is randomised per process, and the order in which the
# program walks its sets and dicts of names changes how much work some
# items do: one minmax12 mutant check took 4.9-5.8 s under one hash seed
# and 6.4-7.3 s under another.  Every run uses this hash seed, so a run's
# work is set by --seed alone.
HASH_SEED = "0"
# Modules the program imports on first use, which would land in the first
# timed pass: importing scipy's optimiser alone takes ~0.7 s.  They are
# imported before anything is timed, as a process that has already run the
# flow once has them.
LAZY_IMPORTS = ("scipy.optimize",)
# Per-layer metrics that come from the traced pass's items, not its spans.
RUN_LEVEL_METRICS = (
    "cex.cycles",
    "verify.inconclusive_frac",
    "flows.mapped_area",
    "flows.mapped_delay",
    "failed_frac",
    "trace.overhead_s",
    "trace.coverage",
)


def load_program() -> Optional[str]:
    """Put the checkout's ``src`` first on the path; return an error or None."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program sources at {src}"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


class Checker:
    """Output checks of a run's items, as they come.

    The first item of each unit is checked in full; a later one fails when
    its cells or verdict differ from the first's (or the first failed).
    Each item's evidence is dropped once checked, so the resident set does
    not grow with the number of passes a run makes.
    """

    def __init__(self, workload: Any, reference: Dict[str, Any], seed: int) -> None:
        self.workload = workload
        self.reference = reference
        self.seed = seed
        # The first item of each unit, by the unit's index in a pass.
        self.first: Dict[int, Any] = {}
        self.bad: set = set()
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, index: int, item: Any) -> None:
        self.attempted += 1
        first = self.first.get(index)
        if first is None:
            self.first[index] = item
            why = self.workload.check(item, self.reference.get(item.name), self.seed)
            if why:
                self.bad.add(index)
                self.failed += 1
                self.reasons.append(f"{item.name}: {why}")
        else:
            same = (item.cells, item.verdict, item.error) == (
                first.cells,
                first.verdict,
                first.error,
            )
            if index in self.bad or not same:
                self.failed += 1
                if not same:
                    self.reasons.append(f"{item.name}: differs between passes")
        item.evidence = None


def run_pass(
    workload: Any, units: Sequence[Any], metrics: Any = None
) -> Tuple[List[Tuple[float, float]], List[Any]]:
    """Run every unit once; returns each unit's interval on the
    ``time.perf_counter`` clock, and the items."""
    gc.collect()
    intervals: List[Tuple[float, float]] = []
    items: List[Any] = []
    for unit in units:
        start = time.perf_counter()
        items.append(workload.run(unit, metrics))
        intervals.append((start, time.perf_counter()))
    return intervals, items


def wall(intervals: Sequence[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def pass_time(unit_times: Sequence[Sequence[float]]) -> float:
    """Time of one pass: each unit's median over the passes that reached it,
    summed.

    A slow spell of the host that hits one unit in one pass moves that
    unit's median less than it moves a whole pass's median.
    """
    return sum(median(times) for times in unit_times)


def untraced(
    workload: Any, inputs_set: int, seconds: float, checker: Checker
) -> Dict[str, float]:
    """Set up and run passes over the units until ``seconds`` are spent.

    The first ``min_passes`` passes run in full.  After them the run goes on
    unit by unit, round and round, and stops at the first unit whose last
    time no longer fits in the budget, so every run ends near ``seconds``
    and the last pass may be partial.
    """
    from hostclock import HostClock

    start = time.perf_counter()
    setups: List[Tuple[float, float]] = []
    # Each unit's intervals, one per pass that reached it.
    unit_intervals: List[List[Tuple[float, float]]] = []
    min_passes = getattr(workload, "min_passes", PASS_REPEATS)
    rounds = 0

    def fits(more: float) -> bool:
        return rounds < min_passes or time.perf_counter() - start + more <= seconds

    with HostClock() as clock:
        units: Any = None
        while True:
            fresh = not setups or wall(setups[:1]) < SETUP_ONCE_S
            if rounds and not fits(
                wall(setups[-1:] if fresh else []) + wall(unit_intervals[0][-1:])
            ):
                break
            gc.collect()
            setup_s = 0.0
            while fresh:
                # Free the last inputs first: the resident set then holds one
                # set-up's inputs however many set-ups the run makes.
                units = None
                units, interval = clock.call(workload.setup, inputs_set)
                setups.append(interval)
                setup_s += interval[1] - interval[0]
                if setup_s >= SETUP_ROUND_S:
                    break
            if not unit_intervals:
                unit_intervals = [[] for _ in units]
            for index, unit in enumerate(units):
                if not fits(wall(unit_intervals[index][-1:])):
                    break
                item, interval = clock.call(workload.run, unit)
                unit_intervals[index].append(interval)
                checker.add(index, item)
            else:
                rounds += 1
                continue
            break
    setup_times = [clock.reference_seconds(i) for i in setups]
    unit_times = [[clock.reference_seconds(i) for i in u] for u in unit_intervals]
    first = [checker.first[index] for index in sorted(checker.first)]
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": pass_time(unit_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exposed_latches": float(sum(i.exposed for i in first)),
    }
    print(
        f"reference seconds: {len(setup_times)} set-ups, median "
        f"{metrics['setup_s']:.4f}; pass {metrics['wall_s']:.3f} from "
        f"{sum(map(len, unit_times))} unit runs over {rounds} full pass(es) "
        f"(wall {time.perf_counter() - start:.1f} s); "
        f"host speed {clock.speed():.3f} over {len(clock.samples)} samples"
    )
    return metrics


def traced(
    workload: Any, inputs_set: int, label: str, checker: Checker
) -> Dict[str, float]:
    from layers import LayerTrace, coverage, layer_metrics, sat_counters
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.schema import validate_events
    from repro.obs.trace import Tracer

    events: List[Dict[str, Any]] = []
    tracer = Tracer(sink=events, meta={"command": "perfbench", "run": label})
    registry = MetricsRegistry()
    with LayerTrace(tracer) as trace:
        with tracer.span("bench.setup", cat="flow"):
            units = workload.setup(inputs_set)
        gc.collect()
        pass_span = tracer.span("bench.pass", cat="flow")
        intervals, items = run_pass(workload, units, registry)
        pass_span.close()
    tracer.close()
    # The untraced pass runs second, so the overhead also holds the first
    # pass's one-time costs (lazy imports): it is an upper bound.
    plain_intervals, plain_items = run_pass(workload, units)

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{label}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, default=str) + "\n")
    errors = validate_events(json.loads(line) for line in path.read_text().splitlines())
    if errors:
        raise SystemExit(f"trace {path} fails validation: {errors[:3]}")

    spans = [e for e in events if e.get("type") == "span"]
    metrics = layer_metrics(events, trace.counts, sat_counters(registry))
    verdicts = [i.verdict for i in items if i.verdict]
    metrics.update(
        {
            "cex.cycles": float(sum(i.cex_cycles for i in items)),
            "verify.inconclusive_frac": (
                verdicts.count("inconclusive") / len(verdicts) if verdicts else 0.0
            ),
            "flows.mapped_area": float(sum(i.mapped_area for i in items)),
            "flows.mapped_delay": float(sum(i.mapped_delay for i in items)),
            "trace.overhead_s": wall(intervals) - wall(plain_intervals),
            "trace.coverage": coverage(spans, pass_span.id),
        }
    )
    for pass_items in (items, plain_items):
        for index, item in enumerate(pass_items):
            checker.add(index, item)
    return metrics


def record(workload_name: str) -> int:
    from workloads import INPUT_SETS, WORKLOADS

    workload = WORKLOADS[workload_name]()
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry: Dict[str, Any] = {}
    for inputs_set in sorted({workload.input_set(seed) for seed in range(INPUT_SETS)}):
        _, items = run_pass(workload, workload.setup(inputs_set))
        if any(item.cells is None for item in items):
            print(f"{workload_name} has no reference cells", file=sys.stderr)
            return 2
        entry[str(inputs_set)] = {item.name: item.cells for item in items}
        for item in items:
            why = workload.check(item, item.cells, inputs_set)
            if why:
                print(f"input set {inputs_set} {item.name}: {why}", file=sys.stderr)
        print(f"recorded input set {inputs_set}", file=sys.stderr, flush=True)
    table[workload_name] = entry
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    problem = load_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.record:
        return record(args.workload)
    for module in LAZY_IMPORTS:
        importlib.import_module(module)
    workload = WORKLOADS[args.workload]()
    inputs_set = workload.input_set(args.seed)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = table.get(args.workload, {}).get(str(inputs_set), {})

    checker = Checker(workload, reference, args.seed)
    if args.trace:
        metrics = traced(workload, inputs_set, f"{args.workload}-{args.seed}", checker)
        from layers import COVERAGE_TARGET

        # A traced pass whose time the layer spans do not account for is a
        # failed item: its per-layer figures would hide where time went.
        checker.attempted += 1
        if metrics["trace.coverage"] < COVERAGE_TARGET:
            checker.failed += 1
            checker.reasons.append(
                f"trace coverage {metrics['trace.coverage']:.3f} "
                f"below {COVERAGE_TARGET}"
            )
        metrics["failed_frac"] = checker.failed / checker.attempted
    else:
        metrics = untraced(workload, inputs_set, args.seconds, checker)
    attempted, failed = checker.attempted, checker.failed
    for reason in checker.reasons:
        print(f"FAILED {reason}")
    print(
        f"{args.workload} seed {args.seed} (input set {inputs_set}): "
        f"{attempted} items, {failed} failed"
    )
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (same pid, no child) by one with the fixed seed.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    raise SystemExit(main())
