"""The four workloads: table1, noisy, serve_hot, serve_cold.

Each ``run_*`` function returns ``(end_to_end, per_layer)`` dicts of
metric values; :mod:`perfbench.run` prints the set the run asks for.
Set-up (imports, input generation, warm-up, server start) is repeated
:data:`SETUP_REPEATS` times and ``setup_s`` is its median.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.grover import grover
from repro.algorithms.qft import qft
from repro.algorithms.states import ghz
from repro.algorithms.supremacy import supremacy
from repro.circuit.qasm import parse_qasm, to_qasm
from repro.circuit.random_circuits import random_circuit
from repro.compile import optimize_circuit
from repro.core.results import SampleResult
from repro.core.weak_sim import simulate_and_sample
from repro.dd.package import DDPackage
from repro.evaluation.catalog import by_name
from repro.noise import NoiseModel, noisy_probabilities_dense
from repro.perf.bench import NOISE_TVD_LIMIT
from repro.perf.compiled_dd import compile_edge
from repro.service.__main__ import resolve_circuit
from repro.service.api import SamplingResponse
from repro.service.keys import cache_key
from repro.service.store import ArtifactStore
from repro.simulators.dd_simulator import DDSimulator

from . import common, hostclock, serving, spans
from .metrics import COLD_CLASS, HOT_CLASSES, NOISY_ROWS, TABLE1_ROWS
from .rows import Row, RowRun, run_row, vector_baseline, vector_fits

__all__ = ["Context", "WORKLOADS"]

SETUP_REPEATS = 3
#: Host clock ticks after each set-up, and at each idle point of a
#: serving run (before, between and after its load phases).
SETUP_TICKS = 2
IDLE_TICKS = 3
#: Ticks before an in-process row run (when one is due).
ROW_TICKS = 2
#: The serving load phases pause for a tick after every this many requests.
LOAD_TICK_EVERY = 10

TABLE1_SHOTS = 1_000_000
#: Seconds of --seconds per table1 pass (a pass takes 5-6 s on an idle
#: host at the parent commit, 11-12 s on a busy one).
TABLE1_PASS_SECONDS = 10
NOISY_SHOTS = 20_000
#: The noise model of BENCH_sampling.json's noise section.
NOISE = NoiseModel(
    depolarizing=0.02, amplitude_damping=0.01, readout_p01=0.01, readout_p10=0.005
)

HOT_SHOTS = 100_000
#: serve_hot's closed loop, which gives wall_s and shots_per_s, sends
#: this many requests per second of --seconds (120 at 20 s, about 4 s on
#: an idle host).
HOT_CLOSED_PER_SECOND = 6
#: serve_hot's p50_ms/p95_ms come from a second closed loop over one
#: connection (100 blocks; at least 200 requests, so that ten latency
#: samples lie beyond p95).  Over two connections a cheap request's
#: latency is bimodal, depending on whether it queued behind a qft_16 on
#: the same worker; the overall median fell between the modes and spread
#: 0.12 over five seeds on an idle host.
HOT_SEQUENTIAL_REQUESTS = 300
#: The open loop (seeded Poisson arrivals at ``OPEN_LOOP_RATE``) runs in
#: the traced run only: its p95 spread 40-49 % from run to run on a
#: shared 2-vCPU Xeon host, too wide to bound a regression (README.md).
OPEN_LOOP_REQUESTS = 210

COLD_SHOTS = 1_000
COLD_QUBITS = 10
COLD_GATES = 40
#: serve_cold sends a fixed number of requests per second of run time
#: (under the parent's capacity, which falls as the store fills), so
#: every run writes the same number of artifacts to the store.  Each
#: request is its own random_circuit: their build times are heavy-tailed
#: (a circuit at the 99th percentile builds 7x slower than the median),
#: so circuits shared between requests would make p95_ms depend on how
#: many heavy ones a seed happened to draw.
COLD_REQUESTS_PER_SECOND = 25
COLD_WARM = 4
#: Generated circuits that also run in-process, for sample_s and
#: vector_sample_s.
COLD_ROWS = 64

#: In-process workloads make at least this many passes over their rows.
MIN_PASSES = 2
#: Vector baseline samples after each row run (each at its own seed).
VECTOR_REPEATS = 3
#: Passes over a serving workload's rows in each of its three chunks of
#: in-process rows: a fixed count, so that a slow host does not leave a
#: run with fewer samples (the 64 cold rows take about a second a pass).
ROW_CHUNK_PASSES = {"serve_hot": 2, "serve_cold": 1}
#: Replayed requests in the traced serving run, and how many of them are
#: also replayed untraced to measure the recorder's overhead.
REPLAY_MAX = 150
REPLAY_PAIRS = 40


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    src: str
    workdir: str
    clock: hostclock.HostClock
    outcome: common.Outcome = field(default_factory=common.Outcome)
    recorder: object = spans.NULL
    env: Dict = field(default_factory=dict)
    #: End-to-end metric -> the host clock phases whose factor scales it.
    phases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# In-process rows
# ---------------------------------------------------------------------------


@dataclass
class RowStats:
    runs: List[RowRun] = field(default_factory=list)
    traced: List[RowRun] = field(default_factory=list)
    last: Dict[str, RowRun] = field(default_factory=dict)
    vector: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    pairs_ms: List[float] = field(default_factory=list)


def _check_run(ctx: Context, run: RowRun) -> None:
    row = run.row
    ok = run.result.shots == row.shots
    ctx.outcome.op(ok, f"{row.name}: {run.result.shots} shots, expected {row.shots}")
    if row.expected_nodes is not None:
        ctx.outcome.check(
            run.nodes == row.expected_nodes,
            f"{row.name}: {run.nodes} DD nodes, expected {row.expected_nodes}",
        )
    run.result = None  # checked; the counts are not kept


def _keep(stats: RowStats, run: RowRun) -> None:
    """Record ``run``; only each row's latest run keeps its artifact.

    States are dropped as soon as the vector baseline has used them, so
    the peak memory of a run does not depend on the order of its rows.
    """
    run.state = None
    previous = stats.last.get(run.row.name)
    if previous is not None:
        previous.compiled = None
    stats.last[run.row.name] = run


def measure_rows(
    ctx: Context,
    rows: List[Row],
    payloads: Dict,
    seconds: float,
    stats: Optional[RowStats] = None,
    min_passes: int = MIN_PASSES,
) -> RowStats:
    """Cold passes over ``rows``, added to ``stats``.

    Every pass runs the rows in the same order, so the process's memory
    high-water mark does not depend on the seed; the seed gives each
    run its sampling seed.

    Passes continue while another one fits in ``seconds``, and make at
    least ``min_passes``.  After every run of a row whose dense state
    fits in memory, the paper's vector baseline samples the same state
    (not part of the row's time), so its samples spread over the run
    like the rows'.  Traced runs pair every row with a traced re-run at
    the same seed.
    """
    if stats is None:
        stats = RowStats()
    rng = np.random.default_rng([ctx.seed, 1, len(stats.runs)])
    start = time.perf_counter()
    done = 0
    while True:
        for row in rows:
            ctx.clock.tick_if_due("rows", ROW_TICKS)
            # Every row starts with no garbage left by the ones before, so
            # neither its time nor the process's peak memory depends on
            # when the collector last ran.
            gc.collect()
            seed = int(rng.integers(2**32))
            run = run_row(row, payloads[row.name], seed, spans.NULL)
            _check_run(ctx, run)
            stats.runs.append(run)
            if vector_fits(run):  # else MO in Table I: not timed
                seeds = [seed + repeat for repeat in range(VECTOR_REPEATS)]
                stats.vector[row.name] += vector_baseline(run, seeds, spans.NULL)
            _keep(stats, run)
            if ctx.trace:
                traced = run_row(row, payloads[row.name], seed, ctx.recorder)
                _check_run(ctx, traced)
                stats.traced.append(traced)
                stats.pairs_ms.append(1000.0 * (traced.wall - run.wall))
                if vector_fits(traced):
                    vector_baseline(traced, [seed], ctx.recorder)
                traced.state = traced.compiled = None
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + elapsed / done > seconds:
            return stats


def rows_end_to_end(stats: RowStats) -> Dict[str, float]:
    """wall_s, sample_s, vector_sample_s and the per-row latencies.

    Each sums, over the rows, the median over that row's runs.  The
    latency quantiles are taken over the rows' median walls.
    """
    grouped: Dict[str, List[RowRun]] = defaultdict(list)
    for run in stats.runs:
        grouped[run.row.name].append(run)
    walls = [common.median([r.wall for r in runs]) for runs in grouped.values()]
    samples = [common.median([r.sample for r in runs]) for runs in grouped.values()]
    shots = sum(runs[0].row.shots for runs in grouped.values())
    walls_ms = [1000.0 * wall for wall in walls]
    return {
        "wall_s": sum(walls),
        "sample_s": sum(samples),
        "vector_sample_s": sum(common.median(t) for t in stats.vector.values()),
        "p50_ms": common.median(walls_ms),
        "p95_ms": common.percentile(walls_ms, 0.95),
        "shots_per_s": shots / sum(walls),
    }


_ROW_SPAN_METRICS = {
    "build": "build.s",
    "density.build": "density.build_s",
    "noise.diagonal": "noise.diagonal_s",
    "compiled_dd.flatten": "compiled_dd.flatten_s",
    "compiled_dd.walk": "compiled_dd.walk_s",
    "results.counts": "results.counts_s",
    "prefix.sample": "prefix.sample_s",
}


def rows_per_layer(ctx: Context, stats: RowStats, layers: Dict[str, float]) -> None:
    """Per-row self times and counts of the traced row runs.

    A row label's value is the median over its traced runs; aggregates
    without a row suffix are means per row run.
    """
    label_of = {run.row.name: run.row.label for run in stats.traced}
    per_label: Dict[str, List[float]] = defaultdict(list)
    compile_self = 0.0
    for span in ctx.recorder.self_times():
        label = label_of.get(span["request_id"])
        if label is None:
            continue
        if span["name"] == "compile":
            compile_self += span["self"]
        metric = _ROW_SPAN_METRICS.get(span["name"])
        if metric is not None:
            per_label[f"{metric}.{label}"].append(span["self"])
    for name, values in per_label.items():
        layers[name] = common.median(values)
    runs = stats.traced
    if not runs:
        return
    layers["compile.s"] = compile_self / len(runs)
    by_label: Dict[str, List[RowRun]] = defaultdict(list)
    for run in runs:
        by_label[run.row.label].append(run)
    for label, group in by_label.items():
        size = common.median([r.size for r in group])
        nodes = common.median([r.nodes for r in group])
        layers[f"compiled_dd.size.{label}"] = size
        prefix = "density.nodes" if group[0].row.kind == "noisy" else "dd.nodes"
        layers[f"{prefix}.{label}"] = nodes
    keys = {key for run in runs for key in run.counts}
    for key in keys:
        layers[key] = sum(run.counts.get(key, 0.0) for run in runs) / len(runs)


def rows_coverage(ctx: Context, root: str) -> float:
    """Share of ``root`` span time that its layer spans account for."""
    total = unaccounted = 0.0
    for span in ctx.recorder.self_times():
        if span["name"] == root:
            total += span["duration"]
            unaccounted += span["self"]
    return 1.0 - unaccounted / total if total else 0.0


def _overhead(layers: Dict[str, float], pairs_ms: List[float]) -> None:
    layers["trace.overhead_ms"] = common.median(pairs_ms)
    layers["trace.overhead_iqr_ms"] = common.iqr(pairs_ms)


def _setup(ctx: Context, generate, warm) -> Tuple[object, float]:
    """Repeat import probe + input generation + warm-up; median seconds."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        common.import_probe(ctx.src)
        inputs = generate(ctx)
        warm()
        times.append(time.perf_counter() - start)
        ctx.clock.tick("setup", SETUP_TICKS)
    return inputs, common.median(times)


def _warm_in_process() -> None:
    """Touch every in-process path once on tiny inputs."""
    instance = grover(4, seed=4)
    amplitudes = np.random.default_rng(0).normal(size=16) + 0j
    payloads = {
        "circuit": qft(4),
        "iterated": (
            instance.init_circuit(),
            instance.iteration_circuit(),
            instance.iterations,
        ),
        "state": amplitudes / np.linalg.norm(amplitudes),
        "noisy": ghz(3),
    }
    for kind, payload in payloads.items():
        row = Row(f"warm_{kind}", "warm", kind, 1000, noise=NOISE)
        vector_baseline(run_row(row, payload, 0, spans.NULL), [0], spans.NULL)


def _check_noisy(ctx: Context, stats: RowStats, payloads: Dict) -> None:
    """Each noisy row's compiled distribution against the dense reference."""
    for name, run in stats.last.items():
        if run.row.kind != "noisy":
            continue
        reference = noisy_probabilities_dense(payloads[name], NOISE)
        tvd = 0.5 * float(np.abs(run.compiled.probabilities() - reference).sum())
        ctx.outcome.check(
            tvd <= NOISE_TVD_LIMIT,
            f"{name}: TVD {tvd:.3e} vs the dense reference exceeds {NOISE_TVD_LIMIT}",
        )


def run_table1(ctx: Context) -> Tuple[Dict, Dict]:
    """The Table I rows; the traced run adds the noisy rows.

    The density path has no end-to-end workload of its own (its timings
    spread too widely from run to run on a shared 2-vCPU host; see
    README.md), so its layers are measured by table1's traced run: one
    traced pass over ``ghz_10``, ``qft_6`` and ``supremacy_3x3_4``
    under the BENCH_sampling noise model, each checked against the
    dense reference.
    """
    rows = [
        Row(name, name, by_name(name).kind, TABLE1_SHOTS, expected)
        for name, expected in TABLE1_ROWS.items()
    ]
    noisy_rows = [Row(name, name, "noisy", NOISY_SHOTS, noise=NOISE) for name in NOISY_ROWS]

    def generate(ctx: Context) -> Dict:
        payloads = {name: by_name(name).builder() for name in TABLE1_ROWS}
        if ctx.trace:
            payloads.update(
                ghz_10=ghz(10), qft_6=qft(6), supremacy_3x3_4=supremacy(3, 3, 4, seed=0)
            )
        return payloads

    payloads, setup_s = _setup(ctx, generate, _warm_in_process)
    # A fixed number of passes per --seconds, so that neither the work
    # nor the memory high-water mark depends on the host's speed.  A
    # traced pass already runs every row twice.
    passes = 1 if ctx.trace else max(MIN_PASSES, int(ctx.seconds // TABLE1_PASS_SECONDS))
    stats = measure_rows(ctx, rows, payloads, 0.0, min_passes=passes)
    end_to_end = rows_end_to_end(stats)
    end_to_end["setup_s"] = setup_s
    end_to_end["peak_rss_mb"] = common.self_peak_rss_mb()
    ctx.phases = {name: ("rows",) for name in end_to_end}
    ctx.phases["setup_s"] = ("setup",)
    layers: Dict[str, float] = {}
    if ctx.trace:
        measure_rows(ctx, noisy_rows, payloads, 0.0, stats, min_passes=1)
        _check_noisy(ctx, stats, payloads)
        rows_per_layer(ctx, stats, layers)
        layers["trace.coverage"] = rows_coverage(ctx, "row")
        _overhead(layers, stats.pairs_ms)
    return end_to_end, layers


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@dataclass
class ServingInputs:
    warm: List[serving.Request]
    closed: List[serving.Request]
    sequential: List[serving.Request] = field(default_factory=list)
    open: List[serving.Request] = field(default_factory=list)
    offsets: List[float] = field(default_factory=list)
    rows: List[Row] = field(default_factory=list)
    payloads: Dict = field(default_factory=dict)


def _request(index: int, label: str, circuit, shots: int, seed: int) -> serving.Request:
    record = {
        "request_id": f"{label}-{index}",
        "circuit": circuit,
        "shots": shots,
        "seed": seed,
    }
    return serving.Request(index, label, seed, shots, record, serving.body_of(record))


def _hot_sequence(rng: np.random.Generator, count: int, first: int) -> List[serving.Request]:
    """Balanced blocks: every three requests hold each class once."""
    out = []
    while len(out) < count:
        for pick in rng.permutation(len(HOT_CLASSES)):
            label = HOT_CLASSES[pick]
            index = first + len(out)
            out.append(_request(index, label, label, HOT_SHOTS, int(rng.integers(2**31))))
    return out[:count]


def hot_inputs(ctx: Context) -> ServingInputs:
    rng = np.random.default_rng([ctx.seed, 2])
    closed = _hot_sequence(rng, round(ctx.seconds * HOT_CLOSED_PER_SECOND), 0)
    sequential = _hot_sequence(rng, HOT_SEQUENTIAL_REQUESTS, len(closed))
    opened, offsets = [], []
    if ctx.trace:
        opened = _hot_sequence(rng, OPEN_LOOP_REQUESTS, len(closed) + len(sequential))
        offsets = serving.poisson_offsets(len(opened), serving.OPEN_LOOP_RATE, rng)
    warm = [
        _request(-1 - i, label, label, HOT_SHOTS, i)
        for i in range(3)
        for label in HOT_CLASSES
    ]
    payloads = {label: resolve_circuit(label) for label in HOT_CLASSES}
    rows = [
        Row(label, label, "circuit", HOT_SHOTS) for label in HOT_CLASSES
    ]
    return ServingInputs(warm, closed, sequential, opened, offsets, rows, payloads)


def cold_inputs(ctx: Context) -> ServingInputs:
    rng = np.random.default_rng([ctx.seed, 3])
    count = round(ctx.seconds * COLD_REQUESTS_PER_SECOND) + COLD_WARM
    sources = [
        to_qasm(random_circuit(COLD_QUBITS, COLD_GATES, seed=rng)) for _ in range(count)
    ]
    seeds = rng.integers(2**31, size=count)
    if len(set(sources)) != len(sources):
        raise RuntimeError("generated cold circuits are not distinct")
    requests = [
        _request(i, COLD_CLASS, {"qasm": source}, COLD_SHOTS, int(seed))
        for i, (source, seed) in enumerate(zip(sources, seeds))
    ]
    warm, timed = requests[:COLD_WARM], requests[COLD_WARM:]
    payloads = {}
    rows = []
    for request in timed[:COLD_ROWS]:
        name = f"{COLD_CLASS}/{request.index}"
        payloads[name] = parse_qasm(request.record["circuit"]["qasm"])
        rows.append(Row(name, COLD_CLASS, "circuit", COLD_SHOTS))
    return ServingInputs(warm, timed, rows=rows, payloads=payloads)


@dataclass
class Live:
    closed: List[serving.Sent]
    closed_seconds: float
    sequential: List[serving.Sent]
    opened: List[serving.Sent]
    before: Dict[str, float]
    after: Dict[str, float]
    peak_rss_mb: float = 0.0

    def delta(self, name: str) -> float:
        return self.after[name] - self.before[name]


async def _warm(server: serving.Server, requests: List[serving.Request]) -> bool:
    connection = serving.Connection(server.host, server.port)
    try:
        ok = True
        for request in requests:
            status, body = await connection.request("POST", "/v1/sample", request.body)
            sent = serving.Sent(request, status, body, 0.0)
            ok = ok and serving.response_ok(sent, serving.decode(sent))
        return ok
    finally:
        await connection.close()


async def _ticked_loop(
    connections: List[serving.Connection],
    requests: List[serving.Request],
    clock: hostclock.HostClock,
    phase: str,
) -> Tuple[List[serving.Sent], float]:
    """A closed loop that pauses every :data:`LOAD_TICK_EVERY` requests.

    In each pause every connection has its answer, so the host clock
    ticks for ``phase`` while the server has no load, and the ticks
    sample the host while the load phase runs.  The seconds returned
    leave the pauses out.
    """
    sent: List[serving.Sent] = []
    seconds = 0.0
    for first in range(0, len(requests), LOAD_TICK_EVERY):
        clock.tick(phase)
        part, elapsed = await serving.closed_loop(
            connections, requests[first : first + LOAD_TICK_EVERY]
        )
        sent += part
        seconds += elapsed
    return sent, seconds


async def _drive(
    server: serving.Server,
    inputs: ServingInputs,
    clock: hostclock.HostClock,
    idle: Callable[[], None],
) -> Live:
    """The timed HTTP phases; ``idle`` runs while the server has no load."""
    connections = [
        serving.Connection(server.host, server.port) for _ in range(serving.CONNECTIONS)
    ]
    control = serving.Connection(server.host, server.port)
    try:
        idle()
        before = await serving.server_stats(control)
        closed, elapsed = await _ticked_loop(connections, inputs.closed, clock, "closed")
        idle()
        sequential: List[serving.Sent] = []
        if inputs.sequential:
            sequential, _ = await _ticked_loop(
                connections[:1], inputs.sequential, clock, "sequential"
            )
        opened: List[serving.Sent] = []
        if inputs.open:
            opened = await serving.open_loop(connections, inputs.open, inputs.offsets)
        after = await serving.server_stats(control)
    finally:
        for connection in connections + [control]:
            await connection.close()
    return Live(closed, elapsed, sequential, opened, before, after)


def _serve(ctx: Context, hot: bool) -> Tuple[ServingInputs, Live, float, RowStats]:
    """Set up the server several times, then drive the timed phases.

    The in-process rows run in three chunks spread over the run (before
    and after the closed loop, and after drain; never during a load
    phase), so that one slow stretch of the machine moves few of their
    samples.
    """
    generate = hot_inputs if hot else cold_inputs
    times = []
    server = None
    stats = RowStats()

    def rows_chunk() -> None:
        ctx.clock.tick("rows", IDLE_TICKS)
        passes = ROW_CHUNK_PASSES[ctx.workload]
        measure_rows(ctx, inputs.rows, inputs.payloads, 0.0, stats, passes)

    try:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            _warm_in_process()
            inputs = generate(ctx)
            cache_dir = os.path.join(ctx.workdir, f"cache-{repeat}")
            shutil.rmtree(cache_dir, ignore_errors=True)
            server = serving.Server(ctx.src, cache_dir).start()
            warmed = asyncio.run(_warm(server, inputs.warm))
            times.append(time.perf_counter() - start)
            ctx.clock.tick("setup", SETUP_TICKS)
            ctx.outcome.check(warmed, "a warm-up request failed")
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                server = None
        live = asyncio.run(_drive(server, inputs, ctx.clock, rows_chunk))
        live.peak_rss_mb = common.tree_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
    rows_chunk()
    return inputs, live, common.median(times), stats


def _check_live(ctx: Context, live: Live, hot: bool) -> Dict:
    """Decode and check every response; returns client-side figures."""
    expected_cache = "memory" if hot else "built"
    # sample_s comes from the phase that gives p50_ms/p95_ms.  On
    # serve_hot that is the one-connection loop, where no other request's
    # worker shares the cores while a request samples.
    latency_phase = live.sequential or live.closed
    first_ok: Dict[str, Tuple[serving.Sent, Dict]] = {}
    sampling: Dict[str, List[float]] = defaultdict(list)
    right_cache = ok_count = 0
    body_bytes = 0
    closed_shots = 0
    for phase in (live.closed, live.sequential, live.opened):
        for sent in phase:
            record = serving.decode(sent)
            ok = serving.response_ok(sent, record)
            ctx.outcome.op(
                ok, f"request {sent.request.record['request_id']}: HTTP {sent.status}"
            )
            size = len(sent.body)
            sent.body = b""  # decoded; drop the bytes
            if not ok:
                continue
            ok_count += 1
            body_bytes += size
            right_cache += record.get("cache") == expected_cache
            if phase is live.closed:
                closed_shots += sent.request.shots
            if phase is latency_phase:
                sampling[sent.request.label].append(float(record["sampling_seconds"]))
            first_ok.setdefault(sent.request.label, (sent, record))
    memory_rate = right_cache / ok_count if ok_count else 0.0
    builds = live.delta("builds")
    if hot:
        ctx.outcome.check(memory_rate >= 0.99, f"L1 hit rate {memory_rate:.3f} < 0.99")
        ctx.outcome.check(builds == 0, f"{builds:.0f} builds after set-up")
    else:
        ctx.outcome.check(memory_rate == 1.0, "a cold request was not built")
        ctx.outcome.check(
            builds == ok_count, f"{builds:.0f} builds for {ok_count} cold requests"
        )
    for label, (sent, record) in first_ok.items():
        spec = sent.request.record["circuit"]
        circuit = resolve_circuit(spec)
        expected = simulate_and_sample(circuit, sent.request.shots, seed=sent.request.seed)
        ctx.outcome.check(
            record["counts"] == expected.bitstring_counts(),
            f"{label}: served counts differ from simulate_and_sample",
        )
    labels = HOT_CLASSES if hot else (COLD_CLASS,)
    missing = [label for label in labels if label not in first_ok]
    ctx.outcome.check(not missing, f"no successful response for {missing}")
    return {
        "ok": ok_count,
        "response_bytes": body_bytes / ok_count if ok_count else 0.0,
        "closed_shots": closed_shots,
        "sample_s": sum(common.median(values) for values in sampling.values()),
    }


def _replay_one(request: serving.Request, artifacts: Dict, store, rec) -> float:
    """One request through the worker's layer functions, in its order."""
    begin = time.perf_counter()
    request_id = f"{_REPLAY_PREFIX}{request.label}/{request.index}"
    with rec.span("request", request_id=request_id):
        spec = request.record["circuit"]
        with rec.span("qasm.parse" if isinstance(spec, dict) else "resolve"):
            circuit = resolve_circuit(spec)
        with rec.span("keys"):
            key = cache_key(circuit)
        compiled = artifacts.get(key)
        source = "memory"
        if compiled is None:
            source = "built"
            with rec.span("store.get"):
                store.get(key)
            package = DDPackage()
            with rec.span("compile"):
                circuit, _ = optimize_circuit(circuit, tolerance=package.tolerance)
            with rec.span("build"):
                state = DDSimulator(package=package, optimize=False).run(circuit)
            with rec.span("compiled_dd.flatten"):
                compiled = compile_edge(state.edge, state.num_qubits)
            with rec.span("store.put"):
                store.put(key, compiled)
        rng = np.random.default_rng(request.seed)
        with rec.span("compiled_dd.walk"):
            samples = compiled.sample(request.shots, rng)
        with rec.span("results.counts"):
            result = SampleResult.from_samples(compiled.num_qubits, samples, method="dd")
        with rec.span("net.encode"):
            response = SamplingResponse(
                request_id=request.record["request_id"],
                status="ok",
                result=result,
                backend="dd",
                cache=source,
                key=key,
            )
            json.dumps(response.to_dict())
    latency = time.perf_counter() - begin
    if rec.enabled:
        with rec.span("results.format", request_id=request_id):
            result.bitstring_counts()
    return latency


#: Replayed requests' span ids start with this, apart from the row runs'.
_REPLAY_PREFIX = "replay:"

_REPLAY_METRICS = {
    "qasm.parse": "qasm.parse_s",
    "resolve": "resolve.s",
    "keys": "keys.s",
    "compile": "compile.s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "net.encode": "net.encode_s",
    "results.format": "results.format_s",
}


def _replay(ctx: Context, requests: List[serving.Request], hot: bool, layers: Dict) -> Dict[str, float]:
    """Replay the live request sequence in-process; per-class p50 (ms)."""
    artifacts: Dict[str, object] = {}
    if hot:
        for label in HOT_CLASSES:
            circuit = resolve_circuit(label)
            state = DDSimulator().run(circuit)
            artifacts[cache_key(circuit)] = compile_edge(state.edge, state.num_qubits)
    stores = []
    for name in ("replay-untraced", "replay-traced"):
        path = os.path.join(ctx.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        stores.append(ArtifactStore(path))
    latencies: Dict[str, List[float]] = defaultdict(list)
    pairs_ms = []
    replayed = requests[:REPLAY_MAX]
    for position, request in enumerate(replayed):
        untraced = None
        if position < REPLAY_PAIRS:
            untraced = _replay_one(request, artifacts, stores[0], spans.NULL)
        traced = _replay_one(request, artifacts, stores[1], ctx.recorder)
        latencies[request.label].append(1000.0 * traced)
        if untraced is not None:
            pairs_ms.append(1000.0 * (traced - untraced))
        ctx.outcome.op(True)
    totals: Dict[str, float] = defaultdict(float)
    for span in ctx.recorder.self_times():
        metric = _REPLAY_METRICS.get(span["name"])
        if metric is not None and str(span["request_id"]).startswith(_REPLAY_PREFIX):
            totals[metric] += span["self"]
    for metric, total in totals.items():
        layers[metric] = total / len(replayed)
    _overhead(layers, pairs_ms)
    layers["trace.coverage"] = rows_coverage(ctx, "request")
    return {label: common.median(values) for label, values in latencies.items()}


def _serving(ctx: Context, hot: bool) -> Tuple[Dict, Dict]:
    inputs, live, setup_s, stats = _serve(ctx, hot)
    figures = _check_live(ctx, live, hot)
    latencies_ms = [1000.0 * s.latency for s in live.sequential or live.closed]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": live.closed_seconds,
        "sample_s": figures["sample_s"],
        "vector_sample_s": rows_end_to_end(stats)["vector_sample_s"],
        "p50_ms": common.median(latencies_ms),
        "p95_ms": common.percentile(latencies_ms, 0.95),
        "shots_per_s": figures["closed_shots"] / live.closed_seconds,
        "peak_rss_mb": live.peak_rss_mb,
    }
    latency = ("sequential",) if live.sequential else ("closed",)
    ctx.phases = {
        "setup_s": ("setup",),
        "wall_s": ("closed",),
        "shots_per_s": ("closed",),
        "sample_s": latency,
        "p50_ms": latency,
        "p95_ms": latency,
        "vector_sample_s": ("rows",),
    }
    ctx.env.update(
        pool_workers=serving.POOL_WORKERS,
        connections=serving.CONNECTIONS,
        open_loop_rate=serving.OPEN_LOOP_RATE if live.opened else None,
        closed_loop_requests=len(live.closed),
        sequential_requests=len(live.sequential),
        open_loop_requests=len(live.opened),
    )
    layers: Dict[str, float] = {}
    if not ctx.trace:
        return end_to_end, layers
    rows_per_layer(ctx, stats, layers)
    for name in _REPLAY_METRICS.values():
        layers.pop(name, None)
    replay_p50 = _replay(ctx, [s.request for s in live.closed], hot, layers)
    for label, replay_ms in replay_p50.items():
        live_ms = [1000.0 * s.latency for s in live.closed if s.request.label == label]
        layers[f"pool.dispatch_ms.{label}"] = common.median(live_ms) - replay_ms
    if live.opened:
        opened_ms = [1000.0 * s.latency for s in live.opened]
        layers["open_loop.p50_ms"] = common.median(opened_ms)
        layers["open_loop.p95_ms"] = common.percentile(opened_ms, 0.95)
    sent = len(live.closed) + len(live.sequential) + len(live.opened)
    requests = live.delta("requests")
    completed = live.delta("completed")
    layers.update(
        {
            "api.memory_hit_rate": live.delta("cache_memory_hits") / requests if requests else 0.0,
            "scheduler.builds": live.delta("builds"),
            "scheduler.coalesced": live.delta("coalesced"),
            "pool.shard_hit_rate": live.delta("shard_memory_hits") / completed if completed else 0.0,
            "pool.shed": live.delta("shed"),
            "store.bytes_written": live.delta("store_bytes"),
            "net.response_bytes": figures["response_bytes"],
            "loadgen.late_p95_ms": common.percentile(
                [1000.0 * s.late for s in live.opened], 0.95
            ),
            "loadgen.sent": float(sent),
            "loadgen.ok": float(figures["ok"]),
            "loadgen.failed": float(sent - figures["ok"]),
        }
    )
    return end_to_end, layers


def run_serve_hot(ctx: Context) -> Tuple[Dict, Dict]:
    return _serving(ctx, hot=True)


def run_serve_cold(ctx: Context) -> Tuple[Dict, Dict]:
    return _serving(ctx, hot=False)


WORKLOADS = {
    "table1": run_table1,
    "serve_hot": run_serve_hot,
    "serve_cold": run_serve_cold,
}
