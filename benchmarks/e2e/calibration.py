"""A fixed unit of interpreter work, timed next to every block of rounds.

The boxes this benchmark runs on are shared: for seconds to minutes at a
time every memory-heavy Python loop on them runs 10-40 % slower, whichever
commit is checked out.  A pure-arithmetic spin loop does not feel that
(measured: it moves by a few percent while the simulator loses a third of
its speed); a kernel that allocates, compares and hashes small tuples the
way the event loops do slows down in step with them.  Throughput is
therefore reported per *cal* — the time this kernel takes, measured right
before and after the rounds it normalises — which cancels the box and keeps
the code.  The kernel must never change: every recorded number is in its
units.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Dict, List, Tuple

_RNG = random.Random(20240624)
_ITEMS: List[Tuple[float, int, Tuple[int, int]]] = [
    (_RNG.random(), index, (index, index + 1)) for index in range(50_000)
]


def calibrate() -> float:
    """Seconds the host needs for one cal (≈ 50 ms on a quiet build box)."""
    started = time.perf_counter()
    heap = _ITEMS[:]
    heapq.heapify(heap)
    seen: Dict[int, Tuple[float, int, Tuple[int, int]]] = {}
    while heap:
        item = heapq.heappop(heap)
        seen[item[1]] = item
    return time.perf_counter() - started
