"""In-memory spans around the program's public functions.

The program has no tracing of its own, so the traced run wraps
functions of convexcover's modules from here. A wrapper is installed
under every module-level name that refers to the original function (the
package imports its functions by name, so patching one module is not
enough) and removed afterwards. Each call records a span (name, start,
end, parent); hooks add counts taken from arguments and results. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Spans and counts of one traced round. Hooks may also keep the
    round's arrangements (for the predicate microbenchmark) and record
    broken invariants in problems."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[List[int]] = []                  # [name id, start ns, end ns, parent]
        self.counts: Counter = Counter()
        self.stack: List[int] = []
        self.arrangements: Dict[Any, Any] = {}              # polygon -> first arrangement
        self.problems: List[str] = []
        self._ids: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def current(self) -> Optional[str]:
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else None

    def self_seconds(self) -> Dict[str, float]:
        """Per name, total duration minus the part covered by child spans."""
        own: Dict[str, float] = defaultdict(float)
        for nid, start, end, parent in self.spans:
            own[self.names[nid]] += (end - start) / 1e9
            if parent >= 0:
                own[self.names[self.spans[parent][0]]] -= (end - start) / 1e9
        return dict(own)

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return sum(1 for s in self.spans if s[0] == nid)


class Patches:
    """Replace functions by wrappers in every convexcover module that
    holds them, and put the originals back on exit."""

    def __init__(self, tracer: Tracer, targets: List[Tuple[str, str, Optional[Hook]]]):
        self.tracer = tracer
        self.targets = targets
        self.undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "convexcover" or k.startswith("convexcover."))]
        for path, name, hook in self.targets:
            mod_name, _, attr = path.rpartition(":")
            owner: Any = sys.modules[mod_name]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[fn_name]
                if isinstance(raw, staticmethod):
                    self._set(owner, fn_name, staticmethod(self.tracer.wrap(name, raw.__func__, hook)))
                else:
                    self._set(owner, fn_name, self.tracer.wrap(name, raw, hook))
                continue
            original = getattr(owner, fn_name)
            wrapper = self.tracer.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


class Counted:
    """Replace one module-level name by a counting wrapper (no span) that
    counts calls made while the tracer's innermost span is `inside`, and
    how many of them returned something other than None."""

    def __init__(self, tracer: Tracer, module: str, attr: str, inside: str, key: str):
        self.tracer, self.module, self.attr, self.inside, self.key = tracer, module, attr, inside, key

    def __enter__(self) -> "Counted":
        mod = sys.modules[self.module]
        self.original = original = getattr(mod, self.attr)
        tracer, inside, calls, hits = self.tracer, self.inside, self.key + "_calls", self.key + "_hits"
        counts = tracer.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.current() == inside:
                counts[calls] += 1
                counts[hits] += result is not None
            return result
        setattr(mod, self.attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        setattr(sys.modules[self.module], self.attr, self.original)
