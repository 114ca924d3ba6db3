"""In-memory span tracer over the public functions of the scanpath modules.

Tracing works from outside the package: every public function and method
defined in a traced module is wrapped, and every place it is looked up is
rebound to the wrapper - the defining module (so `ad.conv2d` resolves to it),
each module that imported it by name (so `training.kl_dtw_loss` does) and the
package namespace. Each call records one span: name, start, end and parent.
Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("autodiff", "core", "model", "losses", "metrics", "data_io", "training", "cli")


class Tracer:
    """Wraps the package on install(), restores it on uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("scanpath")
        modules = {short: importlib.import_module(f"scanpath.{short}") for short in MODULES}
        wrapped: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, obj.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-span durations, self times and ancestry queries over a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.name_id, self.parent = a["name_id"], a["parent"]
        self.duration = a["end"] - a["start"]
        child = np.zeros_like(self.duration)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child

    def has(self, name: str) -> bool:
        return name in self.ids

    def select(self, name: str, within: str | None = None, since: int = 0) -> np.ndarray:
        """Mask of spans called `name`, optionally only inside a `within` span."""
        mask = self.name_id == self.ids[name]
        mask[:since] = False
        if within is not None:
            mask &= self.inside(within)
        return mask

    def inside(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span called `ancestor` above them."""
        target = self.ids[ancestor]
        flag = np.zeros(len(self.name_id), dtype=bool)
        up = self.parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                return flag
            flag[live] |= self.name_id[up[live]] == target
            up[live] = self.parent[up[live]]
