"""Tracing from outside the program: spans, per-call counters, timing proxies.

Everything here wraps calls *into* ``repro``'s public seams from the
benchmark's own code; nothing in ``src/`` is instrumented.

* :class:`Tracer` keeps coarse spans (name, start, end, parent) in memory
  and writes them out, with each span's self time, when the workload ends.
* :class:`Counter` accumulates a call count and busy nanoseconds for
  per-event calls, where one span per call would cost more than the call.
* :class:`NodeProxy`, :class:`TopologyProxy` and :class:`TransportProxy`
  time the three per-event seams (protocol handlers, broadcast scoping and
  the 4-method transport) into counters.
"""

from __future__ import annotations

import inspect
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """The sample at rank ``fraction * len`` (the gateway's own convention);
    0.0 for an empty sample, i.e. a layer the workload never entered."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def covered_ns(intervals: Sequence[Tuple[int, int]], start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


class Counter:
    """Call count and busy time of one per-event seam."""

    __slots__ = ("calls", "busy_ns", "useful", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_ns = 0
        #: Calls that produced at least one item (e.g. an outbound message).
        self.useful = 0
        #: Items produced in total.
        self.items = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "busy_ns": self.busy_ns,
            "useful": self.useful,
            "items": self.items,
        }


class Tracer:
    """In-memory span store with a per-thread stack for parent links."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, Counter] = {}
        self._lock = threading.Lock()
        self._stack = threading.local()

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def reset_counters(self) -> None:
        """Forget what set-up and warm-up accumulated."""
        self.counters.clear()

    def current(self) -> Optional[int]:
        """The calling thread's innermost open span."""
        stack = self._stack.__dict__.get("spans")
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        """Record one span.  Its parent is the calling thread's innermost
        open span, unless ``parent`` names the span (on another thread)
        that caused it."""
        stack = self._stack.__dict__.setdefault("spans", [])
        record: Dict[str, Any] = {
            "name": name,
            "workload": self.workload,
            "parent": parent if parent is not None else self.current(),
            "start_ns": perf_counter_ns(),
            "end_ns": None,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = perf_counter_ns()
            stack.pop()

    def durations_ms(self, name: str, **match: Any) -> List[float]:
        """Durations of finished spans called ``name`` whose attrs match."""
        return [
            (span["end_ns"] - span["start_ns"]) / 1e6
            for span in self.spans
            if span["name"] == name
            and span["end_ns"] is not None
            and all(span.get(key) == value for key, value in match.items())
        ]

    def with_self_times(self) -> List[Dict[str, Any]]:
        """Finished spans, each with ``self_ns`` = duration minus the part
        of its interval that its child spans cover."""
        finished = [span for span in self.spans if span["end_ns"] is not None]
        children: Dict[int, List[Tuple[int, int]]] = {}
        for span in finished:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start_ns"], span["end_ns"])
                )
        return [
            {
                **span,
                "self_ns": (span["end_ns"] - span["start_ns"])
                - covered_ns(children.get(span["id"], ()), span["start_ns"], span["end_ns"]),
            }
            for span in finished
        ]

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {
            "workload": self.workload,
            **(extra or {}),
            "counters": {name: c.as_dict() for name, c in sorted(self.counters.items())},
            "spans": self.with_self_times(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")


async def _settle(result: Any) -> None:
    """Await what a sync-or-async seam method returned, as the runtime does."""
    if inspect.isawaitable(result):
        await result


class NodeProxy:
    """Times a protocol node's hooks; the engines see the same state machine.

    The fast engine binds ``on_start`` / ``on_message`` once and reads
    ``_has_output`` as a plain attribute per event, so the decision is
    mirrored into this object after every call instead of delegated through
    a property (the same convention as ``repro.oracle.service.EpochNode``).
    """

    def __init__(self, inner: Any, handlers: Counter) -> None:
        self.inner = inner
        self.node_id = inner.node_id
        self.n = inner.n
        self.t = inner.t
        self._handlers = handlers
        self._output: Any = None
        self._has_output = False
        if hasattr(inner, "processing_cost"):
            self.processing_cost = self._timed_cost

    @property
    def output(self) -> Any:
        return self._output

    @property
    def has_output(self) -> bool:
        return self._has_output

    def _account(self, started: int, outbound: List[Any]) -> List[Any]:
        counter = self._handlers
        counter.busy_ns += perf_counter_ns() - started
        counter.calls += 1
        if outbound:
            counter.useful += 1
            counter.items += len(outbound)
        if not self._has_output and self.inner._has_output:
            self._output = self.inner.output
            self._has_output = True
        return outbound

    def on_start(self) -> List[Any]:
        started = perf_counter_ns()
        return self._account(started, self.inner.on_start())

    def on_message(self, sender: int, message: Any) -> List[Any]:
        started = perf_counter_ns()
        return self._account(started, self.inner.on_message(sender, message))

    def _timed_cost(self, message: Any) -> float:
        started = perf_counter_ns()
        cost = self.inner.processing_cost(message)
        self._handlers.busy_ns += perf_counter_ns() - started
        return cost


class TopologyProxy:
    """Times ``broadcast_targets``; flat topologies are never asked."""

    def __init__(self, inner: Any, lookups: Counter) -> None:
        self.inner = inner
        self.num_nodes = inner.num_nodes
        self.is_flat = inner.is_flat
        self._lookups = lookups

    def broadcast_targets(self, sender: int, message: Any) -> Sequence[int]:
        started = perf_counter_ns()
        targets = self.inner.broadcast_targets(sender, message)
        self._lookups.busy_ns += perf_counter_ns() - started
        self._lookups.calls += 1
        return targets

    def describe(self) -> Dict[str, object]:
        return self.inner.describe()


class TransportProxy:
    """Times the 4-method transport seam (``open/put/get/close``).

    ``open`` and ``close`` get a span each (once per epoch); ``put`` and
    ``get`` are per message and go to counters.  ``get`` is mostly waiting,
    so only its call count is kept.  The first ``sample_limit`` cross-node
    messages are appended to ``sample`` for the codec micro-measurements.
    """

    def __init__(
        self,
        inner: Any,
        tracer: Tracer,
        label: str,
        sample: List[Any],
        sample_limit: int,
    ) -> None:
        self.inner = inner
        self._tracer = tracer
        self._label = label
        self._puts = tracer.counter(f"{label}.put")
        self._gets = tracer.counter(f"{label}.get")
        self._sample = sample
        self._sample_limit = sample_limit

    async def open(self, node_ids: Sequence[int]) -> None:
        with self._tracer.span(f"{self._label}.open"):
            await _settle(self.inner.open(node_ids))

    async def put(self, target: int, item: Tuple[int, Any]) -> None:
        if target != item[0] and len(self._sample) < self._sample_limit:
            self._sample.append(item[1])
        started = perf_counter_ns()
        await self.inner.put(target, item)
        self._puts.busy_ns += perf_counter_ns() - started
        self._puts.calls += 1

    async def get(self, node_id: int) -> Tuple[int, Any]:
        self._gets.calls += 1
        return await self.inner.get(node_id)

    async def close(self) -> None:
        with self._tracer.span(f"{self._label}.close"):
            await _settle(self.inner.close())
