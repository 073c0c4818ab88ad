"""The benchmark's three workloads: inputs from a seed, the work, and the
output checks.

A workload sets up a list of units from an input set and runs one unit at
a time.  Every workload calls the program through module attributes
(``flow.run_flow``, ``api.verify_pair``, ...) so that the traced run's
wrappers see the calls.

Seeds: ``table1_quick`` and ``verify_mutants`` map ``--seed n`` to input
set ``n mod INPUT_SETS``.  Set 0 is the paper stand-ins (the generators
derive each circuit's seed from its name); any other set regenerates the
seeded circuits with the same shape.  ``table2_exposure`` always runs set 0,
because regenerated circuits of its size do different amounts of work (see
NOTES.md).  Table cells are checked against ``reference.json``, which holds
every input set a workload runs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import api
from repro.bench.industrial import TABLE2_CIRCUITS, build_table2_circuit
from repro.bench.iscas_like import build_table1_circuit
from repro.bench.mutations import sample_mutations
from repro.core import expose as expose_mod
from repro.core.feedback import remodel_feedback_latches
from repro.flows import flow
from repro.flows.table1 import QUICK_SET
from repro.netlist.graph import feedback_latches
from repro.netlist.transform import expose_latches
from repro.retime import apply as retime_apply
from repro.sim.exact3 import BOT, exact3_outputs
from repro.synth import script

INPUT_SETS = 8
MUTANTS_PER_CIRCUIT = 1
# Random sequences for the simulation check of EQUIVALENT verdicts.  Outputs
# are compared after a warm-up, under the unknown-past reading the CBF
# encodes (retiming changes power-up transients, see EXPERIMENTS.md).
SIM_SEQUENCES = 4
SIM_LENGTH = 6
SIM_WARMUP = 8


def circuit_seed(name: str, inputs: int) -> int:
    """Generator seed of one circuit; 0 keeps the name-derived stand-in."""
    if inputs == 0:
        return 0
    return (zlib.crc32(f"{name}/{inputs}".encode("utf-8")) & 0x7FFF) or 1


@dataclass
class Item:
    """The outcome of one unit of work: a Table 1 row, a mutant check or a
    Table 2 row."""

    name: str
    cells: Optional[Dict[str, Any]] = None
    verdict: Optional[str] = None
    exposed: int = 0
    cex_cycles: int = 0
    mapped_area: float = 0.0
    mapped_delay: int = 0
    error: Optional[str] = None
    # What the output check needs: circuits, counterexample, exposure sets.
    evidence: Any = None


def _differs(c1: Any, c2: Any, sequence: Sequence[Mapping[str, bool]]) -> bool:
    """Do two circuits visibly differ on an input sequence (paper Def. 1)?"""
    for row1, row2 in zip(exact3_outputs(c1, sequence), exact3_outputs(c2, sequence)):
        for out in c1.outputs:
            v1, v2 = row1[out], row2[out]
            if (v1 is BOT) != (v2 is BOT) or (v1 is not BOT and v1 != v2):
                return True
    return False


def _simulation_agrees(golden: Any, revised: Any, seed: int) -> bool:
    """Seeded random exact-3-valued simulation finds no cycle, after a random
    warm-up, where the golden output is defined and the revised one is not
    the same value.

    A golden ⊥ accepts any value: the CBF/EDBF reduction verifies under the
    unknown-past reading, which accepts safe replacements of power-up
    nondeterminism (EXPERIMENTS.md, finding 2).
    """
    rng = random.Random(seed)
    inputs = sorted(golden.inputs)
    for _ in range(SIM_SEQUENCES):
        sequence = [
            {pi: rng.random() < 0.5 for pi in inputs}
            for _ in range(SIM_WARMUP + SIM_LENGTH)
        ]
        rows = list(
            zip(
                exact3_outputs(golden, sequence, seed=seed),
                exact3_outputs(revised, sequence, seed=seed),
            )
        )
        for row1, row2 in rows[SIM_WARMUP:]:
            for out in golden.outputs:
                if row1[out] is not BOT and row2[out] != row1[out]:
                    return False
    return True


def reference_mismatch(
    cells: Mapping[str, Any], expected: Optional[Mapping[str, Any]]
) -> Optional[str]:
    """Why recorded cells differ from the reference, or None if they match."""
    if expected is None:
        return "no reference recorded for this input set"
    keys = sorted(k for k in set(cells) | set(expected) if cells.get(k) != expected.get(k))
    if keys:
        return "reference mismatch in " + ", ".join(
            f"{k}: {cells.get(k)!r} != {expected.get(k)!r}" for k in keys
        )
    return None


class Table1:
    """The Fig. 19 flow over the ``QUICK_SET`` rows, with the paper's flags."""

    def input_set(self, seed: int) -> int:
        """The input set a ``--seed`` selects."""
        return seed % INPUT_SETS

    def setup(self, inputs: int) -> List[Tuple[str, Any]]:
        return [
            (name, build_table1_circuit(name, circuit_seed(name, inputs)))
            for name in QUICK_SET
        ]

    def run(self, unit: Tuple[str, Any], metrics: Any = None) -> Item:
        name, circuit = unit
        pair: List[Any] = []
        verify_pair = flow.verify_pair

        def capture(request: Any, **kwargs: Any) -> Any:
            pair[:] = [request.golden, request.revised]
            return verify_pair(request, **kwargs)

        flow.verify_pair = capture
        try:
            result = flow.run_flow(circuit, use_unateness=False, metrics=metrics)
        except Exception as exc:  # the item fails; the pass goes on
            return Item(name, error=repr(exc))
        finally:
            flow.verify_pair = verify_pair
        verdict = result.verify_verdict.value if result.verify_verdict else None
        variants = "CDEFG"
        return Item(
            name,
            cells={
                "latches_a": result.latches_a,
                "pct_exposed": result.pct_exposed,
                "latches": dict(result.latches),
                "area": dict(result.area),
                "delay": dict(result.delay),
                "verdict": verdict,
            },
            verdict=verdict,
            exposed=round(result.pct_exposed * result.latches_a / 100),
            mapped_area=sum(result.area.get(v, 0.0) for v in variants),
            mapped_delay=sum(result.delay.get(v, 0) for v in variants),
            evidence=tuple(pair),
        )

    def check(
        self, item: Item, reference: Optional[Mapping[str, Any]], seed: int
    ) -> Optional[str]:
        if item.error:
            return item.error
        mismatch = reference_mismatch(item.cells, reference)
        if mismatch:
            return mismatch
        if item.verdict == "unknown":
            return "verdict unknown"
        if item.verdict == "equivalent":
            golden, revised = item.evidence
            if not _simulation_agrees(golden, revised, seed):
                return "EQUIVALENT refuted by exact-3-valued simulation"
        return None


class Mutants:
    """``verify_pair`` on B against seeded mutants of C."""

    def input_set(self, seed: int) -> int:
        """The input set a ``--seed`` selects."""
        return seed % INPUT_SETS

    def setup(self, inputs: int) -> List[Tuple[str, Any, Any, int]]:
        units = []
        for name in QUICK_SET:
            seed = circuit_seed(name, inputs)
            prepared = expose_mod.prepare_circuit(
                build_table1_circuit(name, seed), use_unateness=True
            )
            golden = prepared.circuit
            revised = script.optimize_sequential_delay(golden, name=name + "_C0")
            try:
                revised, _, _ = retime_apply.retime_min_period(revised)
            except ValueError:  # derived enables: synthesis only, as in the flow
                pass
            revised = script.optimize_sequential_delay(revised, name=name + "_C")
            # Mutants follow the circuit's generator seed; minmax_circuit
            # takes none, so its mutants are the same for every input set.
            generator_seed = 0 if name.startswith("minmax") else seed
            for mutation, mutant in sample_mutations(
                revised,
                MUTANTS_PER_CIRCUIT,
                seed=zlib.crc32(f"{name}/{generator_seed}".encode("utf-8")),
            ):
                units.append(
                    (f"{name}:{mutation.describe()}", golden, mutant, prepared.num_exposed)
                )
        return units

    def run(self, unit: Tuple[str, Any, Any, int], metrics: Any = None) -> Item:
        name, golden, mutant, exposed = unit
        try:
            report = api.verify_pair(golden, mutant, metrics=metrics)
        except Exception as exc:  # the item fails; the pass goes on
            return Item(name, error=repr(exc))
        cex = report.counterexample
        return Item(
            name,
            verdict=report.verdict,
            exposed=exposed,
            cex_cycles=len(cex or ()),
            evidence=(golden, mutant, cex),
        )

    def check(
        self, item: Item, reference: Optional[Mapping[str, Any]], seed: int
    ) -> Optional[str]:
        if item.error:
            return item.error
        golden, mutant, cex = item.evidence
        if item.verdict == "unknown":
            return "verdict unknown"
        if item.verdict == "not_equivalent":
            if not cex or not _differs(golden, mutant, cex):
                return "counterexample does not distinguish the circuits"
        if item.verdict == "equivalent" and not _simulation_agrees(golden, mutant, seed):
            return "EQUIVALENT refuted by exact-3-valued simulation"
        return None


class Table2:
    """Structural and unate exposure over the Table 2 circuits."""

    # A pass takes 11-24 s, so only the first runs in full; the rest of the
    # budget goes to single units, each checked against its first run.
    min_passes = 1

    def input_set(self, seed: int) -> int:
        """Always the paper stand-ins."""
        return 0

    def setup(self, inputs: int) -> List[Tuple[str, Any]]:
        return [(name, build_table2_circuit(name)) for name, _, _ in TABLE2_CIRCUITS]

    def run(self, unit: Tuple[str, Any], metrics: Any = None) -> Item:
        name, circuit = unit
        try:
            structural, _ = expose_mod.choose_latches_to_expose(circuit, use_unateness=False)
            unate, remodel = expose_mod.choose_latches_to_expose(circuit, use_unateness=True)
        except Exception as exc:  # the item fails; the pass goes on
            return Item(name, error=repr(exc))
        return Item(
            name,
            cells={
                "latches": circuit.num_latches(),
                "exposed": len(structural),
                "exposed_unate": len(unate),
            },
            exposed=len(structural) + len(unate),
            evidence=(circuit, structural, unate, remodel),
        )

    def check(
        self, item: Item, reference: Optional[Mapping[str, Any]], seed: int
    ) -> Optional[str]:
        if item.error:
            return item.error
        mismatch = reference_mismatch(item.cells, reference)
        if mismatch:
            return mismatch
        circuit, structural, unate, remodel = item.evidence
        if feedback_latches(expose_latches(circuit, sorted(structural)).circuit):
            return "structural exposure set leaves feedback latches"
        work, _, failed = remodel_feedback_latches(circuit, sorted(remodel))
        if feedback_latches(expose_latches(work, sorted(set(unate) | set(failed))).circuit):
            return "unate exposure set leaves feedback latches"
        return None


WORKLOADS = {
    "table1_quick": Table1,
    "verify_mutants": Mutants,
    "table2_exposure": Table2,
}
