"""In-memory spans around calls into the engine's modules.

The tracer replaces a function by a timing wrapper in the namespace of the
module that calls it (for example `process.is_ci`, which `h_step` looks up
in `process`), so only calls made from that module are seen.  `restore`
puts every original back.  Nothing in the engine's source changes.

A span is `[name, start, end, parent, problem, root]`: `parent` and `root`
are indices into `spans` (-1 for a root), `problem` names the problem the
root call was made for.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

WRAPPED = "__bench_wrapped__"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (root name, counter name) -> n
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._problem = ""
        self._root = -1

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._problem, self._root])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def root_call(self, name: str, problem: str, fn, *args, **kwargs):
        """Call fn under a root span; everything it reaches nests below."""
        self._problem = problem
        self._root = len(self.spans)
        idx = self._open(name)
        self.spans[idx][5] = idx
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self._root = -1

    def count(self, name: str, n: int = 1) -> None:
        root = self.spans[self._root][0] if self._root >= 0 else ""
        self.counts[(root, name)] += n

    # -- wrapping -------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, on_call=None, span: bool = True):
        """Time (or, with span=False, only count) calls to module.attr.

        on_call(tracer, args, result) runs inside the span, so its cost
        lands in the wrapped layer rather than in the caller's self time.
        """
        orig = getattr(module, attr)
        tracer = self

        if span:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    result = orig(*args, **kwargs)
                    if on_call is not None:
                        on_call(tracer, args, result)
                    return result
                finally:
                    tracer._close(idx)
        else:
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return orig(*args, **kwargs)

        setattr(wrapper, WRAPPED, True)
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that failed to."""
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        wrong = [
            f"{module.__name__}.{attr}"
            for module, attr, orig in self._saved
            if getattr(module, attr) is not orig
        ]
        modules = {id(m): m for m, _, _ in self._saved}.values()
        wrong += [
            f"{m.__name__}.{k}"
            for m in modules
            for k, v in vars(m).items()
            if getattr(v, WRAPPED, False)
        ]
        self._saved.clear()
        return wrong

    # -- analysis -------------------------------------------------------------

    def layer_times(self, first: int = 0) -> tuple[dict, list[str], float]:
        """Inclusive and self seconds per (root name, span name).

        Covers spans[first:], which must be whole root trees.  Self time is
        a span's duration minus its children's.  The second result lists
        the roots whose self times do not add up to their duration, or
        whose children stick out of their parent; the third is the largest
        difference between a root's duration and its tree's self times.
        """
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for i in range(first, len(spans)):
            name, start, end, parent, _, _ = spans[i]
            if parent >= 0:
                child[parent - first] += end - start
        totals: dict[tuple[str, str], list[float]] = {}
        self_sum: dict[int, float] = {}
        faults: list[str] = []
        for i in range(first, len(spans)):
            name, start, end, parent, problem, root = spans[i]
            own = end - start - child[i - first]
            key = (spans[root][0], name)
            acc = totals.setdefault(key, [0.0, 0.0])
            acc[0] += end - start
            acc[1] += own
            self_sum[root] = self_sum.get(root, 0.0) + own
            if parent >= 0:
                p = spans[parent]
                if start < p[1] or end > p[2]:
                    faults.append(f"{problem}: {name} outside {p[0]}")
        gap = 0.0
        for root, total in self_sum.items():
            dur = spans[root][2] - spans[root][1]
            gap = max(gap, abs(total - dur))
            if abs(total - dur) > 1e-6:
                faults.append(
                    f"{spans[root][4]}: self times sum to {total:.9f} s, "
                    f"root lasted {dur:.9f} s"
                )
        return totals, faults, gap

    def write(self, path) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields":["name","start","end","parent","problem","root"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
