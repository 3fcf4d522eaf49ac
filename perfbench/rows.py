"""The in-process pipeline: one row, from circuit in hand to counts in hand.

A *row* is one input (a circuit, a Grover init/iteration pair, an
emulated final statevector, or a circuit under noise) sampled cold: a
fresh ``DDPackage``, and the compiled artifact made with
``compile_edge`` directly, so no ``CompiledDD`` cache is shared between
rows or passes.  The stages are the program's public functions, each
wrapped in a span of the same name as the layer it calls into:

    compile             repro.compile.optimize_circuit
    build               DDSimulator(optimize=False).run / run_iterated,
                        VectorDD.from_statevector
    density.build       DensityMatrixSimulator.run
    noise.diagonal      compile_noisy_sampler (diagonal + flatten)
    compiled_dd.flatten compile_edge
    compiled_dd.walk    CompiledDD.sample
    results.counts      SampleResult.from_samples
    prefix.sample       PrefixSampler (the paper's vector baseline)

``DDSimulator(optimize=True)`` calls the same ``optimize_circuit`` with
the package tolerance before it builds; calling it here first is the
same work, split so that compile and build are timed apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.compile import optimize_circuit
from repro.core.prefix_sampler import PrefixSampler
from repro.core.results import SampleResult
from repro.dd.package import DDPackage
from repro.dd.vector_dd import VectorDD
from repro.evaluation.memory import MemoryPolicy
from repro.perf.compiled_dd import compile_edge
from repro.simulators.dd_simulator import DDSimulator
from repro.simulators.density_simulator import (
    DensityMatrixSimulator,
    compile_noisy_sampler,
)

__all__ = ["Row", "RowRun", "run_row", "vector_baseline", "vector_fits"]

_MEMORY = MemoryPolicy()


@dataclass
class Row:
    """One benchmark input.

    ``name`` identifies the input; ``label`` names the metric rows it
    reports under (inputs of one request class share a label).
    ``kind`` is ``circuit``, ``iterated``, ``state`` or ``noisy``.
    """

    name: str
    label: str
    kind: str
    shots: int
    expected_nodes: Optional[int] = None
    noise: Any = None


@dataclass
class RowRun:
    """What one cold run of a row measured and produced."""

    row: Row
    wall: float
    sample: float
    nodes: int
    size: int
    compiled: Any
    result: SampleResult
    state: Any
    counts: Dict[str, float]


def _hit_rate(stats: Dict, name: str) -> float:
    return float(stats.get(f"{name}_hit_rate", 0.0))


def run_row(row: Row, payload: Any, seed: int, rec) -> RowRun:
    """Run ``row`` cold on ``payload``; spans go to ``rec``."""
    counts: Dict[str, float] = {}
    start = time.perf_counter()
    with rec.span("row", request_id=row.name):
        if row.kind == "noisy":
            with rec.span("density.build"):
                simulator = DensityMatrixSimulator(noise=row.noise)
                state = simulator.run(payload)
            built = time.perf_counter()
            with rec.span("noise.diagonal"):
                compiled = compile_noisy_sampler(state, row.noise)
            counts["noise.kraus_applications"] = (
                simulator.stats.noise_kraus_applications
            )
        else:
            package = DDPackage()
            simulator = None
            if row.kind == "state":
                with rec.span("build"):
                    state = VectorDD.from_statevector(package, payload)
            elif row.kind == "iterated":
                init, iteration, repetitions = payload
                with rec.span("compile"):
                    init, first = optimize_circuit(init, tolerance=package.tolerance)
                    iteration, second = optimize_circuit(
                        iteration, tolerance=package.tolerance
                    )
                counts["compile.ops_removed"] = (
                    first.operations_removed + second.operations_removed
                )
                with rec.span("build"):
                    simulator = DDSimulator(package=package, optimize=False)
                    state = simulator.run_iterated(init, iteration, repetitions)
            else:
                with rec.span("compile"):
                    circuit, rewrite = optimize_circuit(
                        payload, tolerance=package.tolerance
                    )
                counts["compile.ops_removed"] = rewrite.operations_removed
                with rec.span("build"):
                    simulator = DDSimulator(package=package, optimize=False)
                    state = simulator.run(circuit)
            built = time.perf_counter()
            if simulator is not None:
                counts["build.kernel_fallbacks"] = simulator.stats.kernel_fallbacks
            with rec.span("compiled_dd.flatten"):
                compiled = compile_edge(state.edge, state.num_qubits)
        rng = np.random.default_rng(seed)
        with rec.span("compiled_dd.walk"):
            samples = compiled.sample(row.shots, rng)
        with rec.span("results.counts"):
            result = SampleResult.from_samples(compiled.num_qubits, samples, method="dd")
    end = time.perf_counter()
    stats = state.package.stats()
    lookups = stats["unique_hits"] + stats["unique_misses"]
    counts["dd.unique_hit_rate"] = stats["unique_hits"] / lookups if lookups else 0.0
    counts["dd.add_hit_rate"] = _hit_rate(stats, "add")
    counts["dd.matvec_hit_rate"] = _hit_rate(stats, "matvec")
    counts["dd.matmat_hit_rate"] = _hit_rate(stats, "matmat")
    counts["results.distinct"] = result.distinct_outcomes
    return RowRun(
        row=row,
        wall=end - start,
        sample=end - built,
        nodes=state.node_count,
        size=compiled.size,
        compiled=compiled,
        result=result,
        state=state,
        counts=counts,
    )


def vector_fits(run: RowRun) -> bool:
    """False for the rows Table I marks MO (memory out)."""
    return _MEMORY.vector_fits(run.compiled.num_qubits)


def vector_baseline(run: RowRun, seeds: List[int], rec) -> List[float]:
    """Seconds for the paper's prefix-sum + binary-search sampler, per seed.

    The dense input (statevector, or the noisy distribution) is made
    once, outside the timed spans; only prefix sums and sampling are
    timed, once for each seed.
    """
    if run.row.kind == "noisy":
        dense, is_statevector = run.compiled.probabilities(), False
    else:
        dense, is_statevector = run.state.to_statevector(), True
    seconds = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        with rec.span("prefix.sample", request_id=run.row.name):
            sampler = PrefixSampler(dense, is_statevector=is_statevector)
            sampler.sample(run.row.shots, rng)
        seconds.append(time.perf_counter() - start)
    return seconds
