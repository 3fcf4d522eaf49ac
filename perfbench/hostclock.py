"""Host speed, measured by fixed reference kernels timed through a run.

The benchmark runs on a few cores of a shared host whose speed changes
by 20-150 % within minutes, with next to no steal time to show for it:
other tenants contend for the same cores, caches and memory.  A run
cannot wait that out, so it measures it.  Between timed operations
(never during one) it times two kernels, in a process of its own.  Both
are fixed pieces of the benchmark's own code; neither changes with the
program, so their times say only how fast the host was.

- ``interpreter``: work of the kind the DD package does (tuple keys,
  dict lookups, complex arithmetic, small objects) and of the kind
  result shaping does (a counts dict of bitstrings encoded as JSON).
- ``arrays``: the paper's vector sampler in miniature: prefix sums over
  a fresh array of probabilities and a binary search for each draw.

The two do not slow down alike, and the program's work is a mix of
both.  Over ten runs on a busy host the interpreter kernel ran 2.66x
slower than on the idle host and the array kernel 1.75x, while
table1's ``wall_s`` ran 2.25x slower, its ``sample_s`` 2.14x,
serve_hot's ``wall_s`` 2.05x and ``p50_ms`` 2.06x, and table1's
``vector_sample_s`` (NumPy prefix sums and binary search) 1.79x.  So
every timing is scaled by both kernels together (the sum of their
times, about half of each), except ``vector_sample_s``, which is scaled
by ``arrays`` alone; see :func:`perfbench.metrics.host_kernels`.

The host's speed also changes within a run, so every tick is made for a
*phase* of the run (set-up, in-process rows, a serving load phase), and
a timing is scaled by the factor of the phase it was measured in.
:meth:`HostClock.factor` is the median over the ticks of the given
phases of the named kernels' summed time, divided by that sum on an
idle host (:data:`REFERENCE_S`).  The end-to-end timings are reported at that
reference speed: seconds and milliseconds divided by the factor, rates
multiplied by it.  The factors and the raw, unscaled timings are
printed in the environment block beside them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["HostClock", "KERNELS", "REFERENCE_S"]

KERNELS = ("interpreter", "arrays")

#: About each kernel's median seconds in a run on an idle host (2 vCPUs
#: of an Intel Xeon, Python 3.11).  These set only the scale of the
#: reported values, not their spread.
REFERENCE_S = {"interpreter": 0.048, "arrays": 0.044}
#: Least seconds between two ticks made by :meth:`HostClock.tick_if_due`.
TICK_INTERVAL_S = 0.25

_INTERPRETER_STEPS = 40_000
_OUTCOMES = 40_000
_STATES = 1 << 18
_DRAWS = 1 << 18


class _Node:
    __slots__ = ("low", "high", "weight")

    def __init__(self, low, high, weight):
        self.low = low
        self.high = high
        self.weight = weight


def _interpreter() -> int:
    table = {}
    weight = complex(0.6, 0.8)
    node = _Node(None, None, 1.0)
    for step in range(_INTERPRETER_STEPS):
        key = (step & 1023, step % 61, node.weight)
        found = table.get(key)
        if found is None:
            node = _Node(node, found, weight * (step & 7))
            table[key] = node
        weight = weight * complex(0.8, 0.6)
    counts = {format(index, "016b"): index * 7 + 1 for index in range(_OUTCOMES)}
    return len(table) + len(json.dumps(counts))


def _arrays() -> int:
    rng = np.random.default_rng(0)
    prefix = np.cumsum(rng.random(_STATES))
    picks = np.searchsorted(prefix, rng.random(_DRAWS) * prefix[-1])
    return int(picks[-1])


def _timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Times the kernels in a process of its own, whenever asked.

    The kernels run in a child process that does nothing else, so no
    state the program leaves in the benchmark's process (live objects,
    what the allocator holds, the garbage collector's work) changes
    their time.  The benchmark waits while the child runs.  Use it as a
    context manager: leaving the block ends the child and waits for it.
    """

    def __init__(self) -> None:
        #: phase -> kernel -> seconds, one per tick.  Plain lists of
        #: floats: a tick then leaves no new object that the garbage
        #: collector tracks, so how many ticks a run makes (which depends
        #: on the host's speed) cannot move when the program's garbage is
        #: collected, and with it the peak memory of the benchmark process.
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self._last = float("-inf")
        self._process: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def tick(self, phase: str, times: int = 1) -> None:
        """Time the kernels ``times`` times, one after another, for ``phase``."""
        process = self._process
        if process is None:
            raise RuntimeError("the host clock is closed")
        process.stdin.write(f"{times}\n")
        process.stdin.flush()
        line = process.stdout.readline()
        if not line:
            raise RuntimeError("the host clock process ended")
        if phase not in self.samples:
            self.samples[phase] = {kernel: [] for kernel in KERNELS}
        columns = self.samples[phase]
        for index, value in enumerate(line.split()):
            columns[KERNELS[index % len(KERNELS)]].append(float(value))
        self._last = time.perf_counter()

    def tick_if_due(self, phase: str, times: int = 1) -> None:
        """Tick unless the last tick ended under :data:`TICK_INTERVAL_S` ago.

        Called before every in-process row run, so the samples spread
        over the run without dwarfing short rows.
        """
        if time.perf_counter() - self._last >= TICK_INTERVAL_S:
            self.tick(phase, times)

    def factor(self, kernels: Tuple[str, ...], *phases: str) -> float:
        """How much slower than the reference host ``kernels`` ran in ``phases``.

        A tick's time is the sum of the named kernels' times in it.
        """
        samples = [
            sum(ticks)
            for phase in phases
            if phase in self.samples
            for ticks in zip(*(self.samples[phase][kernel] for kernel in kernels))
        ]
        if not samples:
            raise ValueError(f"no host clock ticks in {phases}")
        reference = sum(REFERENCE_S[kernel] for kernel in kernels)
        return statistics.median(samples) / reference

    def ticks(self) -> Dict[str, int]:
        return {phase: len(columns[KERNELS[0]]) for phase, columns in self.samples.items()}

    def factors(self) -> Dict[str, Dict[str, float]]:
        """Every phase's factor for each kernel and for both together."""
        out = {"+".join(KERNELS): {}}
        out.update((kernel, {}) for kernel in KERNELS)
        for phase in self.samples:
            out["+".join(KERNELS)][phase] = self.factor(KERNELS, phase)
            for kernel in KERNELS:
                out[kernel][phase] = self.factor((kernel,), phase)
        return out

    def close(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        process.stdin.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()


def _serve() -> None:
    """The child: for each line ``n`` on stdin, time both kernels n times."""
    _interpreter()  # first-call costs are not the host's speed
    _arrays()
    for line in sys.stdin:
        seconds = []
        for _ in range(int(line)):
            seconds += [_timed(_interpreter), _timed(_arrays)]
        print(" ".join(repr(value) for value in seconds), flush=True)


if __name__ == "__main__":
    _serve()
