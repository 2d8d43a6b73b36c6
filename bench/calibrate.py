"""Host speed, measured by fixed reference work that does not use smdg.

The host this benchmark was tuned on shares its cores: its speed drifts by
20-40% over tens of seconds, for wall time and CPU time alike, and by as
much again between runs an hour apart. Raw times therefore say as much
about when a run happened as about the program. To take the drift out, a
phase runs a short calibration block every eighth of a second between its
items, or inside them (see ``Calibrator``). A block runs four pure-Python
routines of fixed work (graph search over frozensets, building and hashing
small containers, an integer loop, exact ``Fraction`` sums) and measures
how much slower than their reference times they ran. Throughput is
multiplied, and set-up time divided, by the mean slowdown of the blocks
run with them; each latency is divided by the slowdown of the blocks next
to its item (``run.py`` says which). The figures then read as they would
on a host that runs the routines at their reference times.

None of the routines touches smdg, so a change to smdg moves the
normalized figures as it moves the raw ones; only the host's drift
cancels. The reference times are round figures near the routines' times
on a 2-vCPU Intel Xeon (2.1 GHz) VM under CPython 3; on another host the
normalized figures are off by a constant factor, which a comparison of two
commits on that host cancels.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter


def graph_search():
    """Depth-first reachability from every vertex of a fixed sparse graph."""
    rng = random.Random(12345)
    n = 40
    edges = {i: frozenset(rng.sample(range(n), 4)) for i in range(n)}
    total = 0
    for _ in range(5):
        for start in range(n):
            seen = {start}
            stack = [start]
            while stack:
                for w in edges[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            total += len(frozenset(seen))
    return total


def containers():
    """Group, sort and hash a few thousand small tuples and frozensets."""
    rng = random.Random(7)
    keys = [(rng.randrange(50), rng.randrange(50), str(rng.randrange(9))) for _ in range(2000)]
    total = 0
    for _ in range(1):
        groups = {}
        for k in keys:
            groups.setdefault(k[0], []).append(frozenset(k))
        rows = [tuple(sorted(v, key=len)) for v in groups.values()]
        total += len({frozenset(x) for row in rows for x in row})
        total += sum(len(str(row)) for row in rows[:20])
    return total


def integer_loop():
    x = 0
    for i in range(32_500):
        x = (x * 31 + i) & 0xFFFF
    return x


def fractions():
    """Exact rational sums of products, as in smdg's model evaluation."""
    rng = random.Random(5)
    xs = [Fraction(rng.randrange(1, 50), rng.randrange(1, 50)) for _ in range(60)]
    total = Fraction(0)
    for _ in range(3):
        for a in xs:
            for b in xs[:5]:
                total += a * b
        total = total / (1 + total)
    return total


# routine, its reference time in seconds
ROUTINES = ((graph_search, 0.0025), (containers, 0.0045), (integer_loop, 0.0028),
            (fractions, 0.0035))
INTERVAL_S = 0.125  # seconds from one block to the next


class Calibrator:
    """Calibration blocks run during one phase, and their slowdowns.

    The host's speed flickers from one block to the next (0.8 to 1.5 of
    the reference within a second). Blocks run between items would sample
    it unevenly, and not at all during a second-long item, so for
    in-process items ``interrupting`` runs them from an interval timer
    instead, inside whatever item is running; ``within`` tells the caller
    how much block time to take out of that item's latency.
    """

    def __init__(self):
        self.blocks: list[float] = []
        self.times: list[tuple[float, float]] = []  # start and end of each block
        self.spent = 0.0  # seconds spent in blocks, kept out of the phase's time
        self.due = 0.0
        self._running = False
        for routine, _ in ROUTINES:  # warm up, untimed
            routine()

    def block(self, *_signal_args):
        """Run one block and record its slowdown against the reference times."""
        if self._running:
            return
        self._running = True
        start = perf_counter()
        ratios = []
        for routine, reference in ROUTINES:
            t0 = perf_counter()
            routine()
            ratios.append((perf_counter() - t0) / reference)
        end = perf_counter()
        self.spent += end - start
        self.due = end + INTERVAL_S
        self.blocks.append(sum(ratios) / len(ratios))
        self.times.append((start, end))
        self._running = False

    def maybe_block(self):
        """Run a block between two items if ``INTERVAL_S`` has passed since
        the last one; for items much shorter than that."""
        if perf_counter() >= self.due:
            self.block()

    @contextlib.contextmanager
    def interrupting(self):
        """Run a block every ``INTERVAL_S`` of wall time from SIGALRM."""
        previous = signal.signal(signal.SIGALRM, self.block)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, first, t0, t1):
        """Seconds of blocks ``first`` onwards that fell between ``t0`` and
        ``t1``. Taking ``first`` as the block count before reading ``t0``
        makes this exact even when the timer fires between two reads."""
        return sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in self.times[first:])

    @property
    def slowdown(self):
        return statistics.fmean(self.blocks)
