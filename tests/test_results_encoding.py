"""Array-backed SampleResult and the one-pass response encoder.

Two oracles pin the array representation to the dict implementation it
replaced, both kept here verbatim in spirit:

* ``_DictSampleResult`` is the old dict-backed ``SampleResult``; every
  public query must agree with it, including the counts' iteration
  order.
* ``_reference_body`` is the old ``SamplingResponse.to_dict`` followed
  by ``json.dumps`` (plus the pool's ``"worker"`` field);
  ``SamplingResponse.encode`` must reproduce its bytes exactly, over
  register widths 1..64, supports up to a few thousand outcomes, every
  kind of ``top`` cut (ties at the cut included), error records, the
  optional fields, and every way a result gets built.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

import numpy as np
import pytest

from repro.algorithms.states import ghz
from repro.circuit import QuantumCircuit
from repro.compile.bench import _crossing_circuit
from repro.core.dd_sampler import DDSampler
from repro.core.results import SampleResult
from repro.core.shot_executor import ShotExecutor
from repro.core.weak_sim import sample_dd, simulate_and_sample
from repro.dd.reorder import ReorderConfig, unpermute_counts
from repro.exceptions import ReproError, SamplingError
from repro.service.api import SamplingResponse
from repro.simulators.dd_simulator import DDSimulator


# ---------------------------------------------------------------------------
# The replaced implementation, kept as the reference
# ---------------------------------------------------------------------------


@dataclass
class _DictSampleResult:
    """The dict-backed SampleResult this module's tests compare against."""

    num_qubits: int
    counts: Dict[int, int]
    method: str = "unknown"
    precompute_seconds: float = 0.0
    sampling_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_samples(cls, num_qubits: int, samples: Iterable[int], method="unknown"):
        array = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples)
        if array.size and (array.min() < 0 or array.max() >= 2**num_qubits):
            raise SamplingError("sample index outside the basis-state range")
        values, frequencies = np.unique(array, return_counts=True)
        counts = {int(v): int(f) for v, f in zip(values, frequencies)}
        return cls(num_qubits=num_qubits, counts=counts, method=method)

    @property
    def shots(self) -> int:
        return sum(self.counts.values())

    def bitstring_counts(self) -> Dict[str, int]:
        width = self.num_qubits
        return {format(k, f"0{width}b"): v for k, v in self.counts.items()}

    def most_common(self, limit: int = 10):
        ranked = sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))
        width = self.num_qubits
        return [(format(k, f"0{width}b"), v) for k, v in ranked[:limit]]

    def marginal_counts(self, qubits):
        reduced: Dict[int, int] = {}
        for key, value in self.counts.items():
            sub = 0
            for j, qubit in enumerate(qubits):
                sub |= ((key >> qubit) & 1) << j
            reduced[sub] = reduced.get(sub, 0) + value
        return reduced

    def merge(self, other):
        counts = dict(self.counts)
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        return counts

    def to_array(self):
        dense = np.zeros(2**self.num_qubits, dtype=np.int64)
        for key, value in self.counts.items():
            dense[key] = value
        return dense


def _reference_record(response: SamplingResponse, counts: Optional[Dict[int, int]], top=None):
    """The old ``SamplingResponse.to_dict``, over an explicit counts dict."""
    record: Dict[str, Any] = {
        "request_id": response.request_id,
        "status": response.status,
        "backend": response.backend,
        "cache": response.cache,
        "key": response.key,
        "build_seconds": round(response.build_seconds, 9),
        "sampling_seconds": round(response.sampling_seconds, 9),
    }
    if response.error is not None:
        record["error"] = response.error
    if response.degraded_reason is not None:
        record["degraded_reason"] = response.degraded_reason
    if response.fidelity_bound is not None:
        record["fidelity_bound"] = response.fidelity_bound
    if response.noise is not None:
        record["noise"] = response.noise
    if response.result is not None:
        old = _DictSampleResult(response.result.num_qubits, counts, response.result.method)
        record["num_qubits"] = old.num_qubits
        record["shots"] = old.shots
        record["method"] = old.method
        strings = old.bitstring_counts()
        if top is not None and len(strings) > top:
            record["counts"] = dict(old.most_common(top))
            record["counts_truncated"] = len(strings) - top
        else:
            record["counts"] = strings
    return record


def _reference_body(response, counts, top=None, worker=None) -> bytes:
    record = _reference_record(response, counts, top)
    if worker is not None:
        record["worker"] = worker
    return (json.dumps(record) + "\n").encode("utf-8")


def _response(result, **fields) -> SamplingResponse:
    defaults = dict(
        request_id="r-1",
        status="ok",
        result=result,
        backend="dd",
        cache="memory",
        key="abc123",
        build_seconds=0.0123456789123,
        sampling_seconds=1.5e-5,
    )
    defaults.update(fields)
    return SamplingResponse(**defaults)


def _assert_encodes_like_reference(result, counts, tops=(None,), **fields):
    response = _response(result, **fields)
    for top in tops:
        for worker in (None, 3):
            extra = None if worker is None else {"worker": worker}
            expected = _reference_body(response, counts, top, worker)
            assert response.encode(top=top, extra=extra) == expected, (top, worker)
        record = response.to_dict(top=top)
        assert record == _reference_record(response, counts, top)
        assert list(record.get("counts", {})) == list(
            _reference_record(response, counts, top).get("counts", {})
        )


def _tops_for(distinct: int):
    return sorted({0, 1, 2, max(0, distinct // 3), max(0, distinct - 1), distinct, distinct + 5})


# ---------------------------------------------------------------------------
# Byte-identity oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_qubits", list(range(1, 63)))
def test_encode_matches_reference_over_widths(num_qubits):
    rng = np.random.default_rng(num_qubits)
    for support in (0, 1, 7, 300):
        if support:
            pool = rng.integers(0, 2**num_qubits, size=support, dtype=np.uint64)
            # Few distinct frequencies, so the top cut lands inside ties.
            samples = np.repeat(pool, rng.integers(1, 4, size=support)).astype(np.int64)
        else:
            samples = np.zeros(0, dtype=np.int64)
        result = SampleResult.from_samples(num_qubits, samples, method="dd")
        old = _DictSampleResult.from_samples(num_qubits, samples, method="dd")
        _assert_encodes_like_reference(
            result, old.counts, tops=_tops_for(result.distinct_outcomes)
        )


@pytest.mark.parametrize("seed", range(6))
def test_encode_matches_reference_on_thousands_of_outcomes(seed):
    rng = np.random.default_rng(100 + seed)
    num_qubits = int(rng.integers(10, 40))
    support = int(rng.integers(1000, 4000))
    values = rng.integers(0, 2**num_qubits, size=support, dtype=np.int64)
    # Heavy-tailed frequencies, with many ties and some large counts.
    weights = np.where(rng.random(support) < 0.05, rng.integers(1, 200000, support), rng.integers(1, 5, support))
    samples = np.repeat(values, weights)
    result = SampleResult.from_samples(num_qubits, samples)
    old = _DictSampleResult.from_samples(num_qubits, samples)
    _assert_encodes_like_reference(result, old.counts, tops=_tops_for(result.distinct_outcomes))


def test_ties_at_the_cut_break_by_ascending_index():
    counts = {9: 2, 4: 5, 7: 2, 1: 2, 12: 5, 3: 1}
    result = SampleResult(num_qubits=4, counts=counts)
    assert result.most_common(3) == [("0100", 5), ("1100", 5), ("0001", 2)]
    _assert_encodes_like_reference(result, counts, tops=range(0, 8))


def test_error_and_rejected_records_encode_like_reference():
    for fields in (
        dict(status="rejected", result=None, error="shots must be non-negative"),
        dict(status="error", result=None, error='build "failed" é', key=None),
        dict(status="deadline_exceeded", result=None, error="late", cache=None),
        dict(request_id=None, status="rejected", result=None, backend=None, error="x"),
    ):
        response = _response(**fields)
        for extra in (None, {"worker": 0}, {"worker": 1, "retry_after": 2}):
            record = _reference_record(response, None)
            record.update(extra or {})
            assert response.encode(extra=extra) == (json.dumps(record) + "\n").encode()


def test_optional_fields_encode_like_reference():
    result = SampleResult.from_samples(3, [0, 7, 7, 7, 5])
    counts = _DictSampleResult.from_samples(3, [0, 7, 7, 7, 5]).counts
    _assert_encodes_like_reference(
        result,
        counts,
        tops=(None, 1),
        fidelity_bound=0.987654321,
        degraded_reason="exact DD over budget",
        noise={"depolarizing": 0.02, "readout": [0.01, 0.005]},
    )


def test_dict_built_results_keep_their_order_and_bytes():
    # Shot executor (outcome branching builds a dict in branch order).
    circuit = QuantumCircuit(3)
    circuit.h(0).h(1).measure(0).cx(1, 2).h(1).measure_all()
    executed = ShotExecutor(circuit).run(2000, seed=4)
    assert executed.counts == dict(zip(executed.outcomes.tolist(), executed.frequencies.tolist()))
    _assert_encodes_like_reference(executed, dict(executed.counts), tops=(None, 0, 2, 100))

    # dd-multinomial (binomial splitting builds a dict in walk order).
    state = DDSimulator().run(ghz(5))
    counts = DDSampler(state).sample_counts_multinomial(5000, np.random.default_rng(2))
    multinomial = DDSampler(state).sample_result_multinomial(5000, np.random.default_rng(2))
    assert list(multinomial.counts.items()) == list(counts.items())
    _assert_encodes_like_reference(multinomial, counts, tops=(None, 1))


def test_from_json_with_keys_wider_than_63_bits():
    for width in (63, 64, 70):
        keys = [0, 1, 2**62 + 3, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1]
        if width > 64:
            keys += [2**64, 2**69 + 7]
        keys = [key for key in keys if key < 2**width]
        counts = {key: (i % 3) + 1 for i, key in enumerate(reversed(keys))}
        original = SampleResult(num_qubits=width, counts=counts)
        restored = SampleResult.from_json(original.to_json())
        assert list(restored.counts.items()) == list(counts.items())
        assert restored.bitstring_counts() == _DictSampleResult(width, counts).bitstring_counts()
        _assert_encodes_like_reference(restored, counts, tops=_tops_for(len(counts)))


def test_keys_outside_the_register_fall_back_to_format():
    # A dict may hold keys the register cannot: the encoder must still
    # write exactly what format() wrote, not a truncated bitstring.
    counts = {5: 1, 2**9: 4, 3: 0}
    result = SampleResult(num_qubits=3, counts=counts)
    _assert_encodes_like_reference(result, counts, tops=(None, 1))


def test_reorder_path_keeps_the_iteration_order():
    circuit = _crossing_circuit(8, seed=3)
    config = ReorderConfig(enabled=True)
    simulator = DDSimulator(reorder=config)
    state = simulator.run(circuit)
    perm = simulator.stats.level_to_qubit
    assert perm is not None and list(perm) != sorted(perm)
    level = sample_dd(state, 3000, method="dd", seed=5)
    expected = unpermute_counts(level.counts, perm)
    result = simulate_and_sample(circuit, 3000, seed=5, reorder=config)
    assert list(result.counts.items()) == list(expected.items())
    _assert_encodes_like_reference(result, expected, tops=(None, 4))


def test_negative_top_is_refused():
    response = _response(SampleResult.from_samples(2, [0, 1, 3, 3]))
    for top in (-1, 1.5, True, "2"):
        with pytest.raises(ReproError):
            response.to_dict(top=top)
        with pytest.raises(ReproError):
            response.encode(top=top)
    with pytest.raises(SamplingError):
        SampleResult.from_samples(2, [0, 1, 3]).counts_json(top=-1)


# ---------------------------------------------------------------------------
# API parity with the dict implementation
# ---------------------------------------------------------------------------


def _parity_cases():
    rng = np.random.default_rng(11)
    yield 1, [0, 0, 1]
    yield 3, [5, 5, 1, 0, 7]
    yield 5, []
    for num_qubits in (4, 9, 20):
        yield num_qubits, rng.integers(0, 2**num_qubits, size=500).tolist()


@pytest.mark.parametrize("num_qubits,samples", list(_parity_cases()))
def test_api_parity_with_dict_implementation(num_qubits, samples):
    new = SampleResult.from_samples(num_qubits, samples, method="dd")
    old = _DictSampleResult.from_samples(num_qubits, samples, method="dd")
    assert list(new.counts.items()) == list(old.counts.items())
    assert new.shots == old.shots
    assert new.distinct_outcomes == len(old.counts)
    assert list(new.bitstring_counts().items()) == list(old.bitstring_counts().items())
    for limit in (0, 1, 3, 10, 10**6, -1):
        assert new.most_common(limit) == old.most_common(limit)
    qubits = list(range(num_qubits))[::2]
    assert list(new.marginal_counts(qubits).items()) == list(old.marginal_counts(qubits).items())
    other = SampleResult.from_samples(num_qubits, samples[::-1][:7], method="dd")
    old_other = _DictSampleResult.from_samples(num_qubits, samples[::-1][:7])
    assert list(new.merge(other).counts.items()) == list(old.merge(old_other).items())
    restored = SampleResult.from_json(new.to_json())
    assert list(restored.counts.items()) == list(old.counts.items())
    assert restored == new
    if num_qubits <= 24:
        assert np.array_equal(new.to_array(), old.to_array())


def test_out_of_range_samples_raise_like_the_dict_implementation():
    for samples in ([4], [-1], np.array([0, 8], dtype=np.int64)):
        with pytest.raises(SamplingError):
            _DictSampleResult.from_samples(3 if len(samples) == 2 else 2, samples)
        with pytest.raises(SamplingError):
            SampleResult.from_samples(3 if len(samples) == 2 else 2, samples)


def test_counts_assignment_rekeys_the_arrays():
    result = SampleResult.from_samples(2, [0, 1, 1])
    counts = {3: 4, 0: 1}
    result.counts = counts
    counts[3] = 100
    assert result.shots == 5
    assert result.outcomes.tolist() == [3, 0]
    assert result.most_common(1) == [("11", 4)]
    result.outcomes = np.array([1, 2], dtype=np.uint64)
    assert result.counts == {1: 4, 2: 1}
    with pytest.raises(SamplingError):
        result.outcomes = np.array([1], dtype=np.uint64)
