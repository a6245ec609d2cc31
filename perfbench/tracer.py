"""Span tracer that wraps hornvol functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, item id) in
flat in-memory lists; nothing is written until the run ends.  Spans are only
recorded between begin_item and end_item, so the benchmark's own checks,
which run after an item, leave no spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

ROOT_SPAN = "bench.item"


def metric_prefix(module: str, name: str) -> str:
    """Metric name of a traced function: module without leading underscore."""
    return f"{module.lstrip('_')}.{name}"


class Tracer:
    def __init__(self, targets, keep_results=()):
        """targets: (module, name) pairs, name may be 'Class.method'.

        keep_results: metric prefixes whose return values are kept until
        pop_results() so the benchmark can inspect them after the item.
        """
        self.targets = list(targets)
        self.keep_results = set(keep_results)
        self.names: list[str] = [ROOT_SPAN]
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self._stack = [-1]
        self._item_id = -1
        self._root = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._kept: dict[str, list] = {name: [] for name in self.keep_results}

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        for module, name in self.targets:
            mod = importlib.import_module(f"hornvol.{module}")
            prefix = metric_prefix(module, name)
            if "." in name:
                cls_name, meth = name.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(original, prefix))
                continue
            original = getattr(mod, name)
            wrapper = self._wrap(original, prefix)
            # rebind in every hornvol namespace that holds the same object
            for mod_name, other in list(sys.modules.items()):
                if other is None or not (mod_name == "hornvol" or mod_name.startswith("hornvol.")):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, prefix: str):
        nid = len(self.names)
        self.names.append(prefix)
        perf = time.perf_counter
        name_of, start, end, parent, item, stack = (
            self.name_of, self.start, self.end, self.parent, self.item, self._stack)
        kept = self._kept.get(prefix)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            item.append(self._item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    # -- items -----------------------------------------------------------------
    def begin_item(self, item_id: int) -> None:
        self._item_id = item_id
        self._root = len(self.start)
        self.name_of.append(0)
        self.parent.append(-1)
        self.item.append(item_id)
        self.end.append(0.0)
        self._stack.append(self._root)
        self.active = True
        self.start.append(time.perf_counter())

    def end_item(self) -> None:
        self.end[self._root] = time.perf_counter()
        self.active = False
        self._stack.pop()

    def pop_results(self, prefix: str) -> list:
        out = list(self._kept[prefix])
        self._kept[prefix].clear()
        return out

    # -- reports ---------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """<prefix>.calls and <prefix>.self_s per target, plus bench.unattributed_share."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
        out: dict[str, float] = {}
        for nid, prefix in enumerate(self.names):
            if nid == 0:
                continue
            out[f"{prefix}.calls"] = calls[nid]
            out[f"{prefix}.self_s"] = self_s[nid]
        root_total = sum(self.end[i] - self.start[i] for i in range(n) if self.name_of[i] == 0)
        out["bench.unattributed_share"] = self_s[0] / root_total if root_total > 0 else 0.0
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV: name,start_s,end_s,parent,item."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,name,start_s,end_s,parent,item\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.start[i] - t0:.7f},"
                         f"{self.end[i] - t0:.7f},{self.parent[i]},{self.item[i]}\n")
