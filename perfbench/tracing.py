"""Outside-in tracer: wraps public functions of the ``cvdownload`` modules.

Nothing inside the package changes.  :meth:`Tracer.install` replaces each
target function at every ``cvdownload.*`` module attribute that is bound to
it, so a call from one module into another (``protocol`` calling
``qubits.dm_apply_cz`` through its own import) is caught as well as a
call from the benchmark.  Each call records a span (name, start, end,
parent span id) in memory; :meth:`Tracer.uninstall` puts the originals
back.  A target that no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

PACKAGE = "cvdownload"


def self_times(
    names: list[str], starts: list[float], ends: list[float], parents: list[int]
) -> dict[str, float]:
    """Total self time per span name.

    Self time is a span's duration minus the part of its interval that its
    direct children cover (overlapping children are merged, and each child
    is clipped to its parent).  ``parents[k]`` is the index of span ``k``'s
    parent, or -1 for a root span.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for k, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(k)
    totals: dict[str, float] = defaultdict(float)
    for k, name in enumerate(names):
        lo, hi = starts[k], ends[k]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(k, ()), key=lambda c: starts[c]):
            c_lo, c_hi = max(starts[c], lo), min(ends[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += (hi - lo) - covered
    return dict(totals)


class Tracer:
    """Span recorder for a set of ``"module.function"`` targets.

    Spans are recorded only while :attr:`active` is true, so the caller can
    keep input generation and output checks out of the trace.  ``hooks``
    maps a target to ``f(args, kwargs, result) -> {counter: value}``; the
    values are summed into :attr:`counters`, or kept as a maximum for
    counter names ending in ``_max``.
    """

    def __init__(self, targets: Iterable[str], hooks: dict[str, Callable] | None = None):
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in self.targets:
            mod_name, func_name = target.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                continue  # removed from the package: reported as 0 calls
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock, hook = self._stack, time.perf_counter, self.hooks.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                self._count(hook(args, kwargs, result))
            return result

        return traced

    def _count(self, values: dict[str, float]) -> None:
        for key, value in values.items():
            if key.endswith("_max"):
                self.counters[key] = max(self.counters.get(key, value), value)
            else:
                self.counters[key] += value

    # -- results -------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return dict(out)

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.starts, self.ends, self.parents)

    def child_calls(self, parent: str, child: str) -> int:
        """Calls of ``child`` made directly from inside ``parent``."""
        return sum(
            1
            for name, p in zip(self.names, self.parents)
            if name == child and p >= 0 and self.names[p] == parent
        )

    def save(self, path) -> None:
        """Write every span to ``path`` (NumPy ``.npz``)."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            name_idx=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
        )
