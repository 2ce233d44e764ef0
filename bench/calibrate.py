"""Reference kernel that measures how fast the machine runs Python right now.

    calibrate.py        # prints the kernel's time as JSON

The machine the baseline was taken on (a 2-vCPU Xeon VM) switches between
speeds that differ by up to 1.8x, in phases that last from seconds to
minutes.  ``run.py`` times this kernel in its own interpreter between every
two samples, and reports each sample's times scaled to the speed at which
one round takes ``NOMINAL_S``.  Its own interpreter keeps the kernel's
memory out of the samples' peak RSS.

The kernel is a breadth-first flood with a forbidden set over tuple
adjacency, the same interpreter work as the package's hot path, but it
lives here so that no change to the package moves it.  Its grid has 25,600
vertices: a kernel on a 1,600-vertex grid tracked the campaigns' slowdowns
less well.
"""

import json
import time
from collections import deque

NOMINAL_S = 0.065    # one round at the speed that reported times are scaled to
ROUNDS = 5

_SIDE = 160


def _grid():
    n = _SIDE
    adjacency = []
    for v in range(n * n):
        x, y = v % n, v // n
        adjacency.append(tuple(w for w, ok in ((v - n, y > 0), (v - 1, x > 0),
                                               (v + 1, x < n - 1), (v + n, y < n - 1))
                               if ok))
    # A wall with one gap, so floods take the long way round.
    forbidden = frozenset(range(n * (n // 2), n * (n // 2) + n - 1))
    return tuple(adjacency), forbidden


def _round(adjacency, forbidden) -> int:
    visits = 0
    for start in range(6):
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in seen and w not in forbidden:
                    seen.add(w)
                    queue.append(w)
        visits += len(frozenset(seen))
    return visits


def reference_s() -> float:
    """Median wall time of ``ROUNDS`` rounds of the kernel."""
    adjacency, forbidden = _grid()
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _round(adjacency, forbidden)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[ROUNDS // 2]


if __name__ == "__main__":
    print(json.dumps({"reference_s": reference_s()}))
