"""In-memory spans around the library's public callees, installed from outside.

``Tracer.install`` replaces a module attribute with a timing wrapper at the
call site the library looks up at run time (for example
``momt.geodesic.WeightedOperator``, which ``_interval_solve`` calls through
the module namespace).  The validated wrapper types the library checks with
``isinstance`` are never replaced.  An attribute that no longer exists is
skipped, so its layer reports zero calls instead of failing the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def install(self, module, attr: str, name: str) -> bool:
        orig = getattr(module, attr, None)
        if orig is None:
            return False
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))
        return True

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """{name: {"self_s": float, "total_s": float, "calls": int}}.

        Self time is a span's duration minus the durations of its direct
        children, so the self times under a root add up to the root span.
        """
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg["self_s"] += end - start - child[i]
            agg["total_s"] += end - start
            agg["calls"] += 1
        return dict(out)

    def count_under(self, name: str, root: str) -> int:
        """Calls of ``name`` that run inside a ``root`` span."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        count = 0
        for name_i, _, _, parent in self.spans:
            if name_i != name:
                continue
            while parent >= 0 and parent not in roots:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
