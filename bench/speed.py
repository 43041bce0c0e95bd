"""Host speed, measured between ops by a fixed pure-Python task.

The benchmark runs on a few cores of a shared host.  The speed those cores
give one Python thread drifts by up to ~1.7x over seconds and minutes, as
other tenants' load comes and goes: over six 12-second runs of one seed,
the quartiles of a run's raw ops/s or latency were up to 38% apart.  A
`Speed` runs a short fixed task (see `task`) every EVERY_S seconds of a
timed loop and scales each time measured between two samples by

    REFERENCE_MS / (median task time over the SMOOTH samples on each side)

so a time reads as the milliseconds it would take at the host speed where
the task takes REFERENCE_MS.  Scaling by the nearby samples, not by one
figure for the whole run, is what follows the drift: in the same runs
it brought the quartiles within 3-7%.  The task is benchmark code,
so a program change moves a scaled time as it moves the raw one.  Raw
times are printed beside the scaled ones.
"""

import statistics
from time import perf_counter

REFERENCE_MS = 1.5  # about the task's time between ops on a 2-vCPU shared VM
CHECKSUM = 2381  # what task() returns
EVERY_S = 0.1  # loop time between samples
ROUNDS = 3  # task runs per sample; a sample is their median
SMOOTH = 3  # samples on each side of a window that set its speed


def _tree(depth, k):
    if depth == 0:
        return ("v", k % 5)
    return ("i" if k % 3 else "a", _tree(depth - 1, k * 7 + 1), _tree(depth - 1, k * 5 + 2))


TREE = _tree(6, 1)


def _holds(t, i, memo):
    key = (t, i)
    found = memo.get(key)
    if found is not None:
        return found
    if t[0] == "v":
        value = (t[1] + i) % 3 == 0
    elif t[0] == "i":
        value = not _holds(t[1], i, memo) or _holds(t[2], i, memo)
    else:
        value = _holds(t[1], i, memo) and _holds(t[2], i, memo)
    memo[key] = value
    return value


def task():
    """The fixed calibration work; returns a checksum the caller checks.

    Three parts, since no single one tracks every workload: integer dict
    updates, a memoised recursive walk over a tuple tree (the shape of
    formula evaluation), and building, sorting and joining small tuples
    and strings (the shape of parsing and printing).
    """
    d = {}
    for i in range(2500):
        k = i % 487
        d[k] = d.get(k, 0) + i * 3
    memo = {}
    held = sum(_holds(TREE, i, memo) for i in range(8))
    rows = [(f"x{i}", i * 7 % 13, (i,)) for i in range(400)]
    rows.sort(key=lambda r: (r[1], r[0]))
    return len(d) + held + len(",".join(r[0] for r in rows))


class Speed:
    """Task times sampled through one timed loop; windows lie between samples."""

    def __init__(self):
        self.samples = []  # task ms, one per sample
        self.last = 0.0

    def sample(self):
        times = []
        for _ in range(ROUNDS):
            t0 = perf_counter()
            if task() != CHECKSUM:
                raise RuntimeError("calibration task gave a wrong result")
            times.append((perf_counter() - t0) * 1000)
        self.samples.append(statistics.median(times))
        self.last = perf_counter()
        return len(self.samples) - 1

    def due(self):
        """Take a sample if EVERY_S has passed; the current window's index."""
        if perf_counter() - self.last >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, window):
        """Scale for a time measured after sample `window` (and before the next)."""
        near = self.samples[max(0, window - SMOOTH + 1) : window + SMOOTH + 1]
        return REFERENCE_MS / statistics.median(near)
