"""Spans recorded from outside the program, around calls into qfuca's modules.

`Tracer.install()` wraps every public function defined in the qfuca layer
modules and rebinds the wrapper in every qfuca namespace that binds the
original, because modules import each other's functions by name (`cli` and
`metrics` call `build_link` through their own binding).  `restore()` puts
every original back.  Spans stay in memory as
(name, start, end, parent index, operation id, attribute) and are written
out when the traced process ends.

The layer metrics are derived from spans alone: call counts, self time (a
span's duration minus the part of it that its child spans cover) and
inclusive time, per operation.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import replace

LAYERS = ("config", "geometry", "linalg", "channel", "txrx", "metrics", "cli")


class Tracer:
    def __init__(self, op_id: int = 0):
        self.spans: list[list] = []
        self.op_id = op_id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            # build_link spans carry what the link depends on apart from snr_db
            attr = repr(replace(args[0], snr_db=0.0)) if name == "txrx.build_link" else None
            span = [name, time.perf_counter(), None, parent, self.op_id, attr]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        """Wrap each public function of the layer modules in every loaded
        qfuca namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qfuca.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and not attr.startswith("_") \
                        and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "qfuca" or n.startswith("qfuca."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize_operation(spans) -> dict:
    """Per span name: calls, self_s and total_s, plus the derived ratios,
    for the spans of one operation."""
    selfs = self_times(spans)
    summary: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        entry = summary.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span[2] - span[1]
    links = [s[5] for s in spans if s[0] == "txrx.build_link"]
    nested_channels = sum(1 for i, s in enumerate(spans)
                          if s[0] == "channel.build_block_channel"
                          and _has_ancestor(spans, i, "txrx.build_link"))
    derived = {
        "txrx.build_link.useful_ratio": len(set(links)) / len(links) if links else 0.0,
        "channel.build_block_channel.per_build_link":
            nested_channels / len(links) if links else 0.0,
    }
    return {"functions": summary, "derived": derived}
