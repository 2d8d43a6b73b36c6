"""Spans around the benchmark's calls into smdg.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``item`` the id shared by every span of
one workload item (-1 for spans recorded during set-up). Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

ITEM = "bench.item"


class NullTracer:
    """Untraced runs: one extra call per layer call and nothing recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def iterate(self, name, iterable):
        return iterable

    def begin_item(self, item):
        pass

    def end_item(self):
        pass

    def drop_open_item(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item = -1

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def iterate(self, name, iterable):
        """Yield from ``iterable``, one span per ``next`` call."""
        it = iter(iterable)
        while True:
            try:
                value = self.call(name, next, it)
            except StopIteration:
                return
            yield value

    def begin_item(self, item):
        self._item = item
        self._open(ITEM)

    def end_item(self):
        self._close(self.spans[self._stack[-1]])
        self._item = -1

    def drop_open_item(self):
        """Discard an item span opened for an item that never started."""
        index = self._stack.pop()
        del self.spans[index:]
        self._item = -1

    def dump(self, path, header):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        body = dict(header, names=names, fields=["name", "start", "end", "parent", "item"])
        body["spans"] = [[index[n], a, b, p, i] for n, a, b, p, i in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))


def layer_table(spans):
    """Per span name: calls, busy seconds, self seconds, median duration.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because calls nest.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    durations = defaultdict(list)
    self_time = defaultdict(float)
    outside_items = set()
    for i, (name, start, end, parent, item) in enumerate(spans):
        durations[name].append(end - start)
        self_time[name] += end - start - child[i]
        if item < 0:
            outside_items.add(name)
    return {
        name: {
            "calls": len(ds),
            "busy_s": sum(ds),
            "self_s": self_time[name],
            "p50_s": statistics.median(ds),
            "setup": name in outside_items,
        }
        for name, ds in durations.items()
    }


def format_table(table):
    """Self time and busy share, where the share is of total item time."""
    items = table.get(ITEM, {}).get("busy_s", 0.0)
    lines = [f"{'span':42} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'share':>7} {'p50_us':>10}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["setup"] or not items:
            share = "set-up"
        else:
            share = f"{100 * row['self_s'] / items:6.1f}%"
        lines.append(
            f"{name:42} {row['calls']:9d} {row['busy_s']:10.4f} {row['self_s']:10.4f} "
            f"{share:>7} {row['p50_s'] * 1e6:10.1f}"
        )
    return "\n".join(lines)
