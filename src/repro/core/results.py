"""Sampling results.

A :class:`SampleResult` is what weak simulation produces: a multiset of
measured bitstrings (stored as counts per basis index) plus timing
metadata.  This is also the shape of data a physical quantum computer
returns after repeated runs — the object weak simulation mimics.

The counts live in two parallel NumPy arrays, ``outcomes`` (basis
indices) and ``frequencies``, kept in the counts' iteration order.
Aggregating shots is then one ``np.unique``, and the service formats
and encodes counts straight from the arrays (:meth:`SampleResult.counts_json`)
without building a Python dict.  The familiar ``counts`` dict is a view
built on first access.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import SamplingError

__all__ = ["SampleResult"]

#: Outcomes formatted per block, bounding the scratch matrices to a few
#: megabytes however many distinct outcomes a result holds.
_FORMAT_BLOCK = 1 << 16


def _outcome_array(keys: List[Any]) -> np.ndarray:
    """Basis indices as ``uint64``; ``object`` for keys outside ``[0, 2^64)``."""
    try:
        return np.array(keys, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return np.array(keys, dtype=object)


def _bit_chars(keys: np.ndarray, width: int) -> np.ndarray:
    """``(len(keys), width)`` matrix of ASCII bits, most significant first.

    ``keys`` must be ``uint64`` and below ``2**width``; columns past the
    64th are zero padding, as ``format(key, f"0{width}b")`` would emit.
    """
    significant = min(width, 64)
    nbytes = (significant + 7) // 8
    big_endian = keys.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
    chars = np.unpackbits(big_endian, axis=1)[:, 8 * nbytes - significant:]
    chars += ord("0")
    if width > 64:
        pad = np.full((len(keys), width - 64), ord("0"), dtype=np.uint8)
        chars = np.hstack([pad, chars])
    return chars


def _json_rows(bits: np.ndarray, frequencies: np.ndarray) -> bytes:
    """``"bits": count, `` for every row, as ``json.dumps`` would write it.

    Each row is laid out at a fixed width with the count right-aligned
    over zero bytes; dropping the zero bytes leaves the exact text.
    """
    rows, width = bits.shape
    digits = len(str(int(frequencies.max())))
    matrix = np.empty((rows, width + digits + 6), dtype=np.uint8)
    matrix[:, 0] = ord('"')
    matrix[:, 1 : width + 1] = bits
    matrix[:, width + 1 : width + 4] = np.frombuffer(b'": ', dtype=np.uint8)
    powers = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    column = frequencies[:, None]
    text = (column // powers % 10 + ord("0")).astype(np.uint8)
    text[(column < powers) & (powers > 1)] = 0
    matrix[:, width + 4 : width + 4 + digits] = text
    matrix[:, -2:] = np.frombuffer(b", ", dtype=np.uint8)
    flat = matrix.ravel()
    return flat[flat != 0].tobytes()


class SampleResult:
    """Counts of measured bitstrings from one weak-simulation run.

    Construct from a ``counts`` dict, or from parallel ``outcomes`` /
    ``frequencies`` arrays (:meth:`from_samples` does the latter).
    Either way the iteration order of ``counts`` is the order given.

    The arrays are the storage and ``counts`` is a read-only view of
    them: editing that dict in place does not change ``shots``,
    :meth:`most_common`, :meth:`to_array` or the encoded counts.
    Assign a new dict to ``counts`` instead; the result keeps a copy.
    """

    def __init__(
        self,
        num_qubits: int,
        counts: Optional[Dict[int, int]] = None,
        method: str = "unknown",
        precompute_seconds: float = 0.0,
        sampling_seconds: float = 0.0,
        metadata: Optional[Dict[str, Any]] = None,
        *,
        outcomes: Optional[np.ndarray] = None,
        frequencies: Optional[np.ndarray] = None,
    ):
        self.num_qubits = num_qubits
        self.method = method
        self.precompute_seconds = precompute_seconds
        self.sampling_seconds = sampling_seconds
        #: Free-form diagnostics (DD/table statistics, worker counts, …);
        #: not part of the statistical result.
        self.metadata: Dict[str, Any] = {} if metadata is None else metadata
        if outcomes is None:
            self.counts = {} if counts is None else counts
        else:
            if counts is not None:
                raise SamplingError("pass counts or outcome arrays, not both")
            self._set_arrays(outcomes, frequencies)

    def _set_arrays(self, outcomes: np.ndarray, frequencies: Any) -> None:
        frequencies = np.asarray(frequencies, dtype=np.int64)
        if outcomes.dtype != object:
            outcomes = outcomes.astype(np.uint64, copy=False)
        if outcomes.shape != frequencies.shape or outcomes.ndim != 1:
            raise SamplingError("outcomes and frequencies must be equal-length 1-D")
        self._outcomes = outcomes
        self._frequencies = frequencies
        self._counts: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        num_qubits: int,
        samples: Iterable[int],
        method: str = "unknown",
        precompute_seconds: float = 0.0,
        sampling_seconds: float = 0.0,
    ) -> "SampleResult":
        """Aggregate raw basis-index samples into counts (ascending index)."""
        array = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples)
        if array.size and (array.min() < 0 or array.max() >= 2**num_qubits):
            raise SamplingError("sample index outside the basis-state range")
        values, frequencies = np.unique(array, return_counts=True)
        return cls(
            num_qubits=num_qubits,
            method=method,
            precompute_seconds=precompute_seconds,
            sampling_seconds=sampling_seconds,
            outcomes=_outcome_array(values.tolist()) if values.dtype == object else values,
            frequencies=frequencies,
        )

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> np.ndarray:
        """Distinct basis indices in iteration order (``uint64``).

        ``object`` dtype only for indices outside ``[0, 2^64)``.
        Assigning re-keys the result in place (same order, same
        frequencies) — how reordered samples move back to qubit order.
        """
        return self._outcomes

    @outcomes.setter
    def outcomes(self, values: np.ndarray) -> None:
        """Re-key the outcomes; their number and order stay."""
        if len(values) != len(self._outcomes):
            raise SamplingError("re-keyed outcomes must keep their number")
        self._set_arrays(np.asarray(values), self._frequencies)

    @property
    def frequencies(self) -> np.ndarray:
        """How often each of :attr:`outcomes` was drawn (``int64``)."""
        return self._frequencies

    @property
    def counts(self) -> Dict[int, int]:
        """``{basis index: count}`` in iteration order, built on first use.

        A read-only view: assign a new dict to replace the counts
        rather than mutating this one.
        """
        if self._counts is None:
            self._counts = dict(
                zip(self._outcomes.tolist(), self._frequencies.tolist())
            )
        return self._counts

    @counts.setter
    def counts(self, counts: Dict[int, int]) -> None:
        """Replace the counts with a copy; its order becomes the arrays'."""
        counts = dict(counts)
        self._set_arrays(
            _outcome_array(list(counts)),
            np.fromiter(counts.values(), dtype=np.int64, count=len(counts)),
        )
        self._counts = counts

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def shots(self) -> int:
        """Total number of recorded samples."""
        return int(self._frequencies.sum())

    @property
    def total_seconds(self) -> float:
        """Precompute plus sampling time (when both were recorded)."""
        return self.precompute_seconds + self.sampling_seconds

    @property
    def distinct_outcomes(self) -> int:
        """Number of different bitstrings observed."""
        return len(self._outcomes)

    def frequency(self, index: int) -> float:
        """Empirical probability estimate of basis state ``index``."""
        shots = self.shots
        if shots == 0:
            raise SamplingError("no samples recorded")
        return self.counts.get(index, 0) / shots

    def _vectorisable(self, rows: np.ndarray) -> bool:
        """Whether the array formatter reproduces ``format`` for ``rows``."""
        if self._outcomes.dtype == object or self.num_qubits < 1:
            return False
        if not rows.size:
            return True
        if self.num_qubits < 64 and int(self._outcomes[rows].max()) >> self.num_qubits:
            return False
        return int(self._frequencies[rows].min()) >= 0

    def _bitstrings(self, rows: np.ndarray) -> List[str]:
        """The bitstrings of ``outcomes[rows]``, in ``rows`` order."""
        width = self.num_qubits
        keys = self._outcomes[rows]
        if not self._vectorisable(rows):
            return [format(key, f"0{width}b") for key in keys.tolist()]
        if not rows.size:
            return []
        chars = np.ascontiguousarray(_bit_chars(keys, width))
        return chars.view(f"S{width}").ravel().astype(f"U{width}").tolist()

    def bitstring_counts(self) -> Dict[str, int]:
        """Counts keyed by bitstrings ``q_{n-1} ... q_0``."""
        rows = np.arange(self.distinct_outcomes)
        return dict(zip(self._bitstrings(rows), self._frequencies.tolist()))

    def _ranked(self, limit: Optional[int] = None) -> np.ndarray:
        """Row indices by descending count, ties by ascending index.

        ``limit`` keeps the first ``limit`` (slice semantics).
        """
        outcomes, frequencies = self._outcomes, self._frequencies
        if outcomes.dtype == object:
            order = sorted(
                range(len(outcomes)), key=lambda i: (-frequencies[i], outcomes[i])
            )
            return np.array(order, dtype=np.intp)[:limit]
        return np.lexsort((outcomes, -frequencies))[:limit]

    def most_common(self, limit: int = 10) -> List[Tuple[str, int]]:
        """The ``limit`` most frequent outcomes as (bitstring, count)."""
        rows = self._ranked(limit)
        return list(zip(self._bitstrings(rows), self._frequencies[rows].tolist()))

    def _cut(self, top: Optional[int] = None) -> Tuple[np.ndarray, Optional[int]]:
        """The rows a ``top``-capped response emits, and how many it drops.

        All rows in iteration order when ``top`` is ``None`` or reaches
        the number of distinct outcomes (and ``None`` dropped); else the
        ``top`` most frequent rows in :meth:`most_common` order.
        """
        size = self.distinct_outcomes
        if top is None or size <= top:
            return np.arange(size), None
        if top < 0:
            raise SamplingError(f"top must be non-negative, got {top}")
        return self._ranked(top), size - top

    def counts_json(self, top: Optional[int] = None) -> Tuple[bytes, Optional[int]]:
        """The bitstring counts as one JSON object, plus how many were cut.

        Returns the bytes ``json.dumps`` would write for
        ``bitstring_counts()`` — or, when ``top`` is below the number of
        distinct outcomes, for ``dict(most_common(top))`` — and the
        number of outcomes ``top`` left out (``None`` when none were).
        Formatting runs on the arrays in blocks; no per-outcome Python
        object is made.
        """
        rows, truncated = self._cut(top)
        if not rows.size:
            return b"{}", truncated
        if not self._vectorisable(rows):
            counts = dict(zip(self._bitstrings(rows), self._frequencies[rows].tolist()))
            return json.dumps(counts).encode("utf-8"), truncated
        parts = []
        for start in range(0, len(rows), _FORMAT_BLOCK):
            block = rows[start : start + _FORMAT_BLOCK]
            bits = _bit_chars(self._outcomes[block], self.num_qubits)
            parts.append(_json_rows(bits, self._frequencies[block]))
        return b"{" + b"".join(parts)[:-2] + b"}", truncated

    # ------------------------------------------------------------------
    # Derived distributions
    # ------------------------------------------------------------------

    def empirical_probabilities(self) -> Dict[int, float]:
        """Counts normalised to relative frequencies."""
        shots = self.shots
        if shots == 0:
            raise SamplingError("no samples recorded")
        return {k: v / shots for k, v in self.counts.items()}

    def marginal_probability(self, qubit: int) -> float:
        """Empirical probability that ``qubit`` was measured as 1."""
        if not 0 <= qubit < self.num_qubits:
            raise SamplingError(f"qubit {qubit} out of range")
        shots = self.shots
        if shots == 0:
            raise SamplingError("no samples recorded")
        ones = sum(v for k, v in self.counts.items() if (k >> qubit) & 1)
        return ones / shots

    def marginal_counts(self, qubits: Iterable[int]) -> Dict[int, int]:
        """Counts reduced onto a subset of qubits (ascending significance).

        Bit ``j`` of the reduced key is the value of ``qubits[j]``.
        """
        qubits = list(qubits)
        if len(set(qubits)) != len(qubits):
            raise SamplingError("duplicate qubits in marginal")
        reduced: Dict[int, int] = {}
        for key, value in self.counts.items():
            sub = 0
            for j, qubit in enumerate(qubits):
                sub |= ((key >> qubit) & 1) << j
            reduced[sub] = reduced.get(sub, 0) + value
        return reduced

    def merge(self, other: "SampleResult") -> "SampleResult":
        """Combine two results over the same register."""
        if other.num_qubits != self.num_qubits:
            raise SamplingError("cannot merge results with different registers")
        counts = dict(self.counts)
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        return SampleResult(
            num_qubits=self.num_qubits,
            counts=counts,
            method=self.method if self.method == other.method else "mixed",
            precompute_seconds=self.precompute_seconds + other.precompute_seconds,
            sampling_seconds=self.sampling_seconds + other.sampling_seconds,
        )

    def to_json(self) -> str:
        """Serialise to JSON (counts keyed by bitstring for readability)."""
        payload = {
            "format": "repro-samples",
            "num_qubits": self.num_qubits,
            "method": self.method,
            "precompute_seconds": self.precompute_seconds,
            "sampling_seconds": self.sampling_seconds,
            "counts": self.bitstring_counts(),
        }
        if self.metadata:
            payload["metadata"] = self.metadata
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SampleResult":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if payload.get("format") != "repro-samples":
            raise SamplingError("not a repro-samples document")
        return cls(
            num_qubits=int(payload["num_qubits"]),
            counts={int(k, 2): int(v) for k, v in payload["counts"].items()},
            method=payload.get("method", "unknown"),
            precompute_seconds=float(payload.get("precompute_seconds", 0.0)),
            sampling_seconds=float(payload.get("sampling_seconds", 0.0)),
            metadata=payload.get("metadata", {}),
        )

    def to_array(self) -> np.ndarray:
        """Dense count vector of length ``2^n`` (small registers only)."""
        if self.num_qubits > 24:
            raise SamplingError("dense count vector beyond 24 qubits refused")
        dense = np.zeros(2**self.num_qubits, dtype=np.int64)
        dense[self._outcomes.astype(np.int64)] = self._frequencies
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleResult):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.counts == other.counts
            and self.method == other.method
            and self.precompute_seconds == other.precompute_seconds
            and self.sampling_seconds == other.sampling_seconds
            and self.metadata == other.metadata
        )

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleResult(method={self.method!r}, qubits={self.num_qubits}, "
            f"shots={self.shots}, distinct={self.distinct_outcomes})"
        )
