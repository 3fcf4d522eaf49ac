"""Metric names and units — the names BENCHMARK.json and README.md cite.

Every run prints every metric of its kind: the end-to-end metrics when
untraced, the per-layer metrics when traced.  A per-layer metric of a
layer that a workload never reaches reads 0 on it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "TABLE1_ROWS",
    "NOISY_ROWS",
    "HOT_CLASSES",
    "COLD_CLASS",
    "at_reference_speed",
    "host_kernels",
]

#: The paper's Table I DD rows measured by ``table1`` (with the DD node
#: counts EXPERIMENTS.md records for them).
TABLE1_ROWS: Dict[str, int] = {
    "qft_48": 48,
    "grover_10": 20,
    "shor_33_2": 43_009,
    "supremacy_4x4_10": 7_199,
}
NOISY_ROWS = ("ghz_10", "qft_6", "supremacy_3x3_4")
HOT_CLASSES = ("qft_16", "grover_8", "ghz_20")
COLD_CLASS = "random"

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sample_s", "s"),
    ("vector_sample_s", "s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("shots_per_s", "shots/s"),
    ("peak_rss_mb", "MB"),
]


def _per_layer() -> List[Tuple[str, str]]:
    pure = list(TABLE1_ROWS) + [COLD_CLASS]
    every = list(TABLE1_ROWS) + list(NOISY_ROWS) + list(HOT_CLASSES) + [COLD_CLASS]
    vector = [row for row in every if row != "qft_48"]
    out: List[Tuple[str, str]] = [
        ("qasm.parse_s", "s"),
        ("resolve.s", "s"),
        ("compile.s", "s"),
        ("compile.ops_removed", "count"),
    ]
    out += [(f"build.s.{row}", "s") for row in pure]
    out += [(f"dd.nodes.{row}", "count") for row in pure]
    out += [
        ("build.kernel_fallbacks", "count"),
        ("dd.unique_hit_rate", "ratio"),
        ("dd.add_hit_rate", "ratio"),
        ("dd.matvec_hit_rate", "ratio"),
    ]
    out += [(f"density.build_s.{row}", "s") for row in NOISY_ROWS]
    out += [(f"noise.diagonal_s.{row}", "s") for row in NOISY_ROWS]
    out += [(f"density.nodes.{row}", "count") for row in NOISY_ROWS]
    out += [("noise.kraus_applications", "count"), ("dd.matmat_hit_rate", "ratio")]
    out += [(f"compiled_dd.flatten_s.{row}", "s") for row in pure]
    out += [(f"compiled_dd.walk_s.{row}", "s") for row in every]
    out += [(f"compiled_dd.size.{row}", "count") for row in every]
    out += [(f"results.counts_s.{row}", "s") for row in every]
    out += [("results.format_s", "s"), ("results.distinct", "count")]
    out += [(f"prefix.sample_s.{row}", "s") for row in vector]
    out += [
        ("keys.s", "s"),
        ("store.put_s", "s"),
        ("store.get_s", "s"),
        ("store.bytes_written", "bytes"),
        ("api.memory_hit_rate", "ratio"),
        ("scheduler.builds", "count"),
        ("scheduler.coalesced", "count"),
        ("pool.shard_hit_rate", "ratio"),
        ("pool.shed", "count"),
    ]
    out += [(f"pool.dispatch_ms.{row}", "ms") for row in list(HOT_CLASSES) + [COLD_CLASS]]
    out += [
        ("net.encode_s", "s"),
        ("net.response_bytes", "bytes"),
        ("open_loop.p50_ms", "ms"),
        ("open_loop.p95_ms", "ms"),
        ("loadgen.late_p95_ms", "ms"),
        ("loadgen.sent", "count"),
        ("loadgen.ok", "count"),
        ("loadgen.failed", "count"),
        ("trace.overhead_ms", "ms"),
        ("trace.overhead_iqr_ms", "ms"),
        ("trace.coverage", "ratio"),
        ("fail_frac", "ratio"),
    ]
    return out


PER_LAYER: List[Tuple[str, str]] = _per_layer()


def host_kernels(name: str) -> Tuple[str, ...]:
    """The host clock kernels whose factor scales end-to-end metric ``name``.

    ``vector_sample_s`` is NumPy prefix sums and binary search alone;
    every other timing mixes interpreter and array work.
    """
    return ("arrays",) if name == "vector_sample_s" else ("interpreter", "arrays")


def at_reference_speed(
    values: Dict[str, float], factors: Dict[str, float]
) -> Dict[str, float]:
    """End-to-end ``values`` as the reference host would have shown them.

    ``factors[name]`` is how much slower the host was while ``name`` was
    measured (see :mod:`perfbench.hostclock`): times are divided by it,
    rates multiplied, and memory is left as measured.
    """
    units = dict(END_TO_END)
    scaled = dict(values)
    for name, value in values.items():
        unit = units.get(name)
        if unit in ("s", "ms"):
            scaled[name] = value / factors[name]
        elif unit == "shots/s":
            scaled[name] = value * factors[name]
    return scaled
