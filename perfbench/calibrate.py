"""Machine-speed calibration for the benchmark's timings.

A shared 2-CPU VM was seen to run the same Python code 1.5x slower
for tens of seconds, and 2.6x slower for spells of half an hour, when
neighbours were busy.  A fixed pure-Python kernel is
therefore sampled between the jobs of every pass (and around every
set-up), and times are reported at the reference speed::

    normalized = raw seconds * REFERENCE_S / mean(samples taken around them)

The kernel is a breadth-first token game over frozenset markings, the
same kind of work as state-graph elaboration, and it calls no repro
code, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: the kernel's time on an idle 2-CPU x86-64 VM with Python 3.11.7
REFERENCE_S = 0.0039


def kernel(places: int = 14, tokens: int = 5) -> float:
    """Seconds for one token game: ``tokens`` tokens moving round a ring
    of ``places`` places (2002 reachable markings)."""
    t0 = time.perf_counter()
    start = frozenset(range(tokens))
    seen = {start}
    queue = deque([start])
    while queue:
        marking = queue.popleft()
        for p in marking:
            q = (p + 1) % places
            if q not in marking:
                nxt = (marking - {p}) | {q}
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return time.perf_counter() - t0


def sample(runs: int = 5) -> float:
    """One calibration sample: the mean time of ``runs`` kernel runs.

    A mean, not a minimum or median, so that time lost to other work
    during the sample counts, as it does during a job."""
    return sum(kernel() for _ in range(runs)) / runs


def normalize(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured among ``samples``, at the reference speed.

    The mean, not the median, of the samples: slow spells come in bursts,
    and a job is slowed by all of them, not by a typical one."""
    return seconds * REFERENCE_S / statistics.fmean(samples)
