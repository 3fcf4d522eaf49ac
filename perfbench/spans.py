"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded from the benchmark's own files, around calls into
the program's public functions; nothing inside ``src/`` is touched.  A
span carries a name, start, end, its parent span and an optional
request id.  Spans nest strictly (the benchmark is single-threaded
while it traces), so a span's *self time* is its duration minus the
durations of its direct children.

:data:`NULL` is the untraced recorder: the same call sites run with it,
so traced minus untraced timings measure the recorder's overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["NULL", "Recorder"]


class _NullRecorder:
    """The untraced recorder: every span is a shared no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[None]:
        yield


NULL = _NullRecorder()


class Recorder:
    """Collects spans in memory; written out once, when the run ends."""

    enabled = True

    def __init__(self) -> None:
        # Each span: [id, name, start, end, parent id, request id].
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent][5]
        index = len(self.spans)
        record = [index, name, time.perf_counter(), None, parent, request_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[Dict]:
        """Every finished span with its duration and self time (seconds)."""
        child_time: Dict[int, float] = defaultdict(float)
        for index, _name, start, end, parent, _rid in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out = []
        for index, name, start, end, parent, rid in self.spans:
            if end is None:
                continue
            duration = end - start
            out.append(
                {
                    "id": index,
                    "name": name,
                    "parent": parent,
                    "request_id": rid,
                    "duration": duration,
                    "self": duration - child_time[index],
                }
            )
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.self_times():
                raw = self.spans[span["id"]]
                span["start"] = raw[2] - origin
                span["end"] = raw[3] - origin
                handle.write(json.dumps(span) + "\n")
