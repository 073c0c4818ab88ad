"""Tests of the benchmark's own code: self time from spans, failure
counting, reference checks and host-speed normalisation.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

assert run.load_program() is None

import hostclock  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def span(span_id, ts, dur, parent=None, name="x", **args):
    return {
        "type": "span",
        "name": name,
        "cat": "phase",
        "ts": ts,
        "dur": dur,
        "id": span_id,
        "parent": parent,
        "args": args,
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),  # 1..4
        span(3, 3.0, 3.0, parent=1),  # 3..6, overlaps the first child
        span(4, 1.0, 1.0, parent=2),  # grandchild: not subtracted from 1
        span(5, 9.0, 5.0, parent=1),  # 9..14, clipped to the parent's end
    ]
    own = layers.self_times(spans)
    assert own[1] == 10.0 - 5.0 - 1.0
    assert own[2] == 2.0
    assert own[3] == 3.0
    assert own[4] == 1.0
    assert layers.coverage(spans, 1) == 0.6


def test_coverage_does_not_count_catch_all_self_time():
    spans = [
        span(1, 0.0, 10.0, name="bench.pass"),
        span(2, 0.0, 9.0, parent=1, name="flows.row"),  # 3 s of glue
        span(3, 0.0, 4.0, parent=2, name="synth.script"),
        span(4, 4.0, 2.0, parent=2, name="verify.pair"),  # 1 s of glue
        span(5, 4.5, 1.0, parent=4, name="cec"),
    ]
    # Unattributed: 1 s of the pass itself, 3 s of flows.row, 1 s of verify.
    assert layers.coverage(spans, 1) == 0.5
    assert layers.coverage(spans, 1, catch_all=()) == 0.9


def test_layer_metrics_report_self_time_per_layer():
    events = [
        span(1, 0.0, 10.0, name="synth.script", literals_in=50, literals_out=40, gates_out=9),
        span(2, 1.0, 4.0, parent=1, name="synth.resub"),
        span(3, 5.0, 2.0, parent=1, name="synth.eliminate"),
        span(4, 10.0, 1.0, name="expose.prepare"),
        span(5, 10.2, 0.5, parent=4, name="expose.choose", remodelled=3),
        span(6, 12.0, 2.0, name="cec", verdict="unknown", sweep_merges=3, sweep_candidates=4),
    ]
    metrics = layers.layer_metrics(events, {"cex.sim_calls": 7}, {"propagations": 11.0})
    assert metrics["synth.s"] == 4.0
    assert metrics["synth.resub.s"] == 4.0
    assert metrics["synth.eliminate.s"] == 2.0
    assert metrics["synth.calls"] == 1
    assert metrics["synth.literals_in"] == 50
    assert metrics["expose.s"] == 1.0
    assert metrics["expose.calls"] == 1
    assert metrics["expose.remodelled"] == 3
    assert metrics["cec.unknown"] == 1
    assert metrics["cec.merge_ratio"] == 0.75
    assert metrics["cec.sat_propagations"] == 11.0
    assert metrics["cex.sim_calls"] == 7


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    declared = {m["name"] for m in json.loads(run.SPEC.read_text())["per_layer"]}
    computed = set(layers.layer_metrics([], {}, {})) | set(run.RUN_LEVEL_METRICS)
    assert computed == declared


class FakeWorkload:
    def __init__(self, bad):
        self.bad = bad

    def check(self, item, reference, seed):
        return "bad" if item.name in self.bad else None


def item(name, cells=None, verdict="equivalent"):
    return workloads.Item(name, cells=cells, verdict=verdict)


def check(workload, passes):
    checker = run.Checker(workload, {}, 0)
    for items in passes:
        for index, unit_item in enumerate(items):
            checker.add(index, unit_item)
    return checker.attempted, checker.failed, checker.reasons


def test_failed_items_are_counted_in_every_pass():
    first = [item("a"), item("b"), item("c")]
    second = [item("a"), item("b"), item("c", verdict="not_equivalent")]
    attempted, failed, reasons = check(FakeWorkload({"b"}), [first, second])
    # b fails its check in both passes; c differs between passes.
    assert (attempted, failed) == (6, 3)
    assert any("c: differs between passes" in r for r in reasons)
    attempted, failed, _ = check(FakeWorkload(set()), [first])
    assert (attempted, failed) == (3, 0)


def test_pass_time_takes_each_units_median():
    # Unit 0 hit a slow spell in its second pass, unit 1 in its third; the
    # last pass did not reach unit 1.
    units = [[1.0, 3.0, 1.1, 1.2], [2.0, 2.1, 5.0]]
    assert run.pass_time(units) == 1.15 + 2.1


def test_checker_drops_evidence_once_an_item_is_checked():
    checker = run.Checker(FakeWorkload(set()), {}, 0)
    first, later = item("a"), item("a")
    first.evidence = later.evidence = object()
    checker.add(0, first)
    checker.add(0, later)
    assert first.evidence is None and later.evidence is None
    assert (checker.attempted, checker.failed) == (2, 0)
    assert checker.first == {0: first}


class Units:
    """A workload of ``count`` units that sleep ``run_s`` each."""

    def __init__(self, count=1, setup_s=0.0, run_s=0.0, min_passes=None):
        self.count = count
        self.setup_s = setup_s
        self.run_s = run_s
        self.setups = 0
        self.runs = []
        if min_passes is not None:
            self.min_passes = min_passes

    def setup(self, inputs):
        self.setups += 1
        time.sleep(self.setup_s)
        return list(range(self.count))

    def run(self, unit, metrics=None):
        self.runs.append(unit)
        time.sleep(self.run_s)
        return item(str(unit))

    def check(self, item, reference, seed):
        return None


def untraced(workload, seconds):
    checker = run.Checker(workload, {}, 0)
    metrics = run.untraced(workload, 3, seconds, checker)
    return metrics, checker


def test_untraced_run_sets_up_afresh_for_every_pass():
    workload = Units(setup_s=run.SETUP_ROUND_S / 4)
    metrics, checker = untraced(workload, seconds=0.0)
    # Two passes even with no budget; each times SETUP_ROUND_S of set-ups.
    assert checker.attempted == 2 and 8 <= workload.setups <= 10
    assert metrics["setup_s"] > 0.0
    assert metrics["exposed_latches"] == 0.0


def test_untraced_run_makes_the_workloads_minimum_passes():
    workload = Units(setup_s=run.SETUP_ROUND_S / 2, min_passes=1)
    _, checker = untraced(workload, seconds=0.0)
    assert checker.attempted == 1


def test_untraced_run_sets_up_a_long_set_up_once(monkeypatch):
    # A set-up this long ends the first round's set-ups too.
    monkeypatch.setattr(run, "SETUP_ROUND_S", 0.01)
    monkeypatch.setattr(run, "SETUP_ONCE_S", 0.01)
    workload = Units(setup_s=0.02)
    _, checker = untraced(workload, seconds=0.0)
    assert checker.attempted == 2 and workload.setups == 1


def test_untraced_run_ends_within_its_budget_unit_by_unit(monkeypatch):
    monkeypatch.setattr(run, "SETUP_ROUND_S", 0.0)
    workload = Units(count=3, run_s=0.1, min_passes=1)
    start = time.perf_counter()
    metrics, checker = untraced(workload, seconds=1.5)
    # After the sampler's 0.5 s start-up and the first pass, ~0.7 s of the
    # budget is left, and the run stops partway through a later pass.
    assert time.perf_counter() - start < 1.5 + 0.2
    assert 6 < checker.attempted < 12 and checker.attempted % 3 != 0
    assert workload.runs[:6] == [0, 1, 2, 0, 1, 2]
    assert abs(metrics["wall_s"] / 0.3 - 1.0) < 1.0


def test_reference_seconds_scale_by_host_speed_and_drop_sampler_time():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_SAMPLE_S
    # The host ran at half the reference speed around the interval; one
    # sample, half of it inside the interval, kept the program off the CPU.
    clock.samples = [(0.0, 0.1, 2 * ref), (0.95, 1.05, 2 * ref), (1.9, 2.0, 2 * ref)]
    assert abs(clock.reference_seconds((0.2, 1.0)) - (0.8 - ref) / 2) < 1e-12
    assert abs(clock.speed() - 0.5) < 1e-12
    # Samples further than WINDOW_S from the interval are not used.
    clock.samples = [(0.0, 0.1, ref), (10.0, 10.1, 4 * ref)]
    assert abs(clock.reference_seconds((0.2, 0.3)) - 0.1) < 1e-12
    clock.samples = []
    try:
        clock.reference_seconds((0.2, 0.3))
    except ValueError:
        pass
    else:
        raise AssertionError("an interval without samples must not get a time")


def test_host_clock_samples_in_a_thread_and_joins_it():
    with hostclock.HostClock(period=0.01) as clock:
        _, interval = clock.call(sum, range(1000))
        time.sleep(0.1)
    assert not clock._thread.is_alive()
    assert len(clock.samples) >= 5
    assert all(a < b and cpu > 0 for a, b, cpu in clock.samples)
    assert clock.reference_seconds(interval) >= 0.0


def test_reference_mismatch_names_the_cell():
    cells = {"latches": 160, "exposed": 16, "exposed_unate": 11}
    assert workloads.reference_mismatch(cells, dict(cells)) is None
    why = workloads.reference_mismatch(cells, {**cells, "exposed_unate": 12})
    assert why.startswith("reference mismatch") and "exposed_unate: 11 != 12" in why
    assert "no reference" in workloads.reference_mismatch(cells, None)


def test_table2_check_catches_a_reference_mismatch():
    table2 = workloads.Table2()
    (unit,) = [u for u in table2.setup(0) if u[0] == "ex2"]
    row = table2.run(unit)
    assert table2.check(row, row.cells, 0) is None
    assert "reference mismatch" in table2.check(row, {**row.cells, "exposed": 0}, 0)


def test_recorded_reference_covers_every_input_set():
    table = json.loads(run.REFERENCE.read_text())
    for name in ("table1_quick", "table2_exposure"):
        workload = workloads.WORKLOADS[name]()
        sets = {str(workload.input_set(seed)) for seed in range(2 * workloads.INPUT_SETS)}
        assert set(table[name]) == sets


def test_traced_calls_validate_and_wrappers_are_removed(tmp_path):
    from repro import api
    from repro.bench.counterex import fig10_pair
    from repro.cli import main as cli_main
    from repro.obs.trace import Tracer

    original = api.verify_pair
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(path=path)
    with layers.LayerTrace(tracer) as trace:
        assert api.verify_pair is not original
        report = api.verify_pair(*fig10_pair(), event_rewrite=True)
    tracer.close()
    assert api.verify_pair is original
    assert report.verdict == "equivalent"
    names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
    assert {"verify.pair", "verify.check", "lower.edbf", "cec"} <= names
    assert trace.counts == {}
    assert cli_main(["profile", str(path), "--validate"]) == 0


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert "no program sources" in run.load_program()


def test_equivalence_check_accepts_safe_replacements_only():
    from repro.netlist.build import CircuitBuilder

    def circuit(kind):
        b = CircuitBuilder(kind)
        b.inputs("i")
        if kind == "hold":  # a latch that keeps its power-up value: o is ⊥
            b.circuit.add_latch("q", "q")
            b.output("q", name="o")
        else:
            b.output(b.CONST1() if kind == "one" else b.CONST0(), name="o")
        return b.circuit

    hold, zero, one = circuit("hold"), circuit("zero"), circuit("one")
    assert workloads._simulation_agrees(hold, zero, 0)
    assert not workloads._simulation_agrees(zero, hold, 0)
    assert not workloads._simulation_agrees(zero, one, 0)
    assert workloads._simulation_agrees(one, one, 0)
