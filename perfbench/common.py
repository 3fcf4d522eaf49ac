"""Shared helpers: quantiles, the environment block, memory readings."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

__all__ = [
    "Outcome",
    "environment",
    "import_probe",
    "iqr",
    "percentile",
    "median",
    "self_peak_rss_mb",
    "tree_peak_rss_mb",
]

#: Modules every workload imports; the set-up probe times importing them
#: in a fresh interpreter, since this process can import them only once.
PROBE_IMPORTS = (
    "numpy",
    "repro.core.weak_sim",
    "repro.evaluation.catalog",
    "repro.simulators.density_simulator",
    "repro.service.api",
)


class Outcome:
    """Operations attempted and failed, plus the failed output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        """Count one operation; a failed one is also a problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """An output check: a failure counts as a failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def fail_frac(self) -> float:
        return self.failed / max(1, self.attempted)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return float(quartiles[2] - quartiles[0])


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_of(pid: int) -> List[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed ``VmHWM`` of ``pid`` and all its descendants, in MiB."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        total += _vm_hwm_kib(current)
        pending.extend(_children_of(current))
    return total / 1024.0


def import_probe(src: str) -> float:
    """Seconds to import the program's modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(PROBE_IMPORTS)],
        env=env,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's
    # commit when the checkout itself is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: int, trace: bool, **extra) -> Dict:
    """The environment block printed with every result."""
    import numpy

    block = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }
    block.update(extra)
    return block
