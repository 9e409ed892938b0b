"""Spans around the public callables of hadlab, recorded from outside.

``Tracer.install`` replaces each callable named in ``layers.LAYERS`` by a
wrapper at every attribute of every ``hadlab`` module that binds it, since
``from .x import f`` copies the name into the importing module.  Methods
and classes are wrapped on the class.  Each call records one span (name,
start, end, parent span) in memory; ``uninstall`` puts the originals back.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

from layers import COUNTS, LAYERS


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, span: str, fn, hooks):
        tracer = self
        if span not in self.names:
            self.names.append(span)
        ix = self.names.index(span)
        hooks = [(f"{span}.{count}", hook) for count, hook in hooks.items()]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(tracer.start)
            tracer.name_of.append(ix)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(k)
            result = error = None
            tracer.start[k] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end[k] = clock()
                tracer._stack.pop()
                for key, hook in hooks:
                    tracer.counts[key] += hook(args, kwargs, result, error)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hadlab"
                                         or name.startswith("hadlab."))]
        for module, (callables, _, _) in LAYERS.items():
            home = sys.modules[f"hadlab.{module}"]
            for name in callables:
                span = f"{module}.{name}"
                hooks = COUNTS.get((module, name), {})
                owner_name, _, method = name.partition(".")
                target = getattr(home, owner_name)
                if method or isinstance(target, type):
                    owner = target
                    attr = method or "__init__"
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original,
                                self._wrap(span, original, hooks))
                    continue
                wrapper = self._wrap(span, target, hooks)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, attr, target, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_stats(self, passes: int) -> dict:
        """Per-pass calls, busy and self time of every wrapped callable.

        Busy time counts only the outermost span of a name, so a callable
        that reaches itself through another wrapped one is not counted
        twice.
        """
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for k in range(n):
            name = self.name_of[k]
            dur = self.end[k] - self.start[k]
            calls[name] += 1
            self_time[name] += dur - child[k]
            p = self.parent[k]
            while p >= 0 and self.name_of[p] != name:
                p = self.parent[p]
            if p < 0:
                busy[name] += dur
        out = {}
        for ix, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[ix] / passes
            out[f"{span}.busy_s"] = busy[ix] / passes
            out[f"{span}.self_s"] = self_time[ix] / passes
        for key, value in self.counts.items():
            span, _, count = key.rpartition(".")
            if count == "exact":
                # share of certificates that rest on the exact route
                total = out[f"{span}.calls"] * passes
                out[f"{span}.exact_ratio"] = value / total if total else 0.0
            else:
                out[key] = value / passes
        return out

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent] rows."""
        rows = [[self.names[self.name_of[k]], self.start[k], self.end[k],
                 self.parent[k]] for k in range(len(self.start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)
