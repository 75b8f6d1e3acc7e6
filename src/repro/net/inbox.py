"""The one inbox both transports deliver into: a deque plus parked getters."""

import asyncio
from collections import deque
from typing import Any

from repro.errors import TransportClosedError


class Inbox:
    """Unbounded FIFO: ``put`` never waits, ``get`` parks while it is empty,
    ``close`` fails every parked and every later ``get`` with
    :class:`~repro.errors.TransportClosedError`."""

    def __init__(self) -> None:
        self._items: deque = deque()
        self._getters: deque = deque()  # futures of parked ``get`` calls
        self._closed = False

    def qsize(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self._items.append(item)
        self._wake()

    def _wake(self) -> None:
        """Every parked getter looks again: one cancelled as it wakes loses no item."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(None)

    async def get(self) -> Any:
        while not self._closed:
            if self._items:
                return self._items.popleft()
            getter = asyncio.get_running_loop().create_future()
            self._getters.append(getter)
            await getter
        raise TransportClosedError("transport closed (get on a closed inbox)")

    def close(self) -> None:
        self._closed = True
        self._wake()
