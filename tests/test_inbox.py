"""The deque-plus-waiter inbox, alone and behind both transports' ``get``."""

import asyncio

import pytest

from repro.errors import TransportClosedError
from repro.net.inbox import Inbox
from repro.net.message import Message
from repro.net.socket_transport import SocketTransport
from repro.sim.asyncio_runtime import InMemoryTransport


def run(coroutine):
    return asyncio.run(coroutine)


async def parked(*tasks):
    """Let freshly created getter tasks run up to their wait."""
    for _ in range(3):
        await asyncio.sleep(0)
    assert not any(task.done() for task in tasks)


class TestInbox:
    def test_fifo_and_qsize(self):
        async def scenario():
            inbox = Inbox()
            for index in range(5):
                inbox.put(index)
            assert inbox.qsize() == 5
            assert [await inbox.get() for _ in range(5)] == list(range(5))
            assert inbox.qsize() == 0

        run(scenario())

    def test_get_parks_until_a_put(self):
        async def scenario():
            inbox = Inbox()
            getter = asyncio.ensure_future(inbox.get())
            await parked(getter)
            inbox.put("late")
            assert await asyncio.wait_for(getter, 1) == "late"

        run(scenario())

    def test_cancelled_get_loses_nothing_and_the_next_getter_is_woken(self):
        async def scenario():
            inbox = Inbox()
            first = asyncio.ensure_future(inbox.get())
            second = asyncio.ensure_future(inbox.get())
            await parked(first, second)
            first.cancel()
            await asyncio.sleep(0)
            inbox.put("a")
            assert await asyncio.wait_for(second, 1) == "a"
            assert first.cancelled() and inbox.qsize() == 0

        run(scenario())

    def test_get_cancelled_in_the_step_it_was_woken_passes_the_item_on(self):
        async def scenario():
            inbox = Inbox()
            first = asyncio.ensure_future(inbox.get())
            second = asyncio.ensure_future(inbox.get())
            await parked(first, second)
            inbox.put("a")  # wakes the getters ...
            first.cancel()  # ... and the first one dies before it runs
            assert await asyncio.wait_for(second, 1) == "a"
            inbox.put("b")
            assert await asyncio.wait_for(inbox.get(), 1) == "b"

        run(scenario())

    def test_timed_out_gets_leave_the_queue_usable(self):
        async def scenario():
            inbox = Inbox()
            for _ in range(20):
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(inbox.get(), 0.001)
            inbox.put("still here")
            assert await asyncio.wait_for(inbox.get(), 1) == "still here"
            assert not inbox._getters  # the dead waiters went with that put

        run(scenario())

    def test_close_fails_every_parked_and_every_later_get(self):
        async def scenario():
            inbox = Inbox()
            getters = [asyncio.ensure_future(inbox.get()) for _ in range(3)]
            await parked(*getters)
            inbox.close()
            for outcome in await asyncio.gather(*getters, return_exceptions=True):
                assert isinstance(outcome, TransportClosedError)
            inbox.put("into the void")
            with pytest.raises(TransportClosedError):
                await inbox.get()

        run(scenario())


@pytest.mark.parametrize("make", [InMemoryTransport, SocketTransport])
class TestBothTransportsShareTheInbox:
    def test_inboxes_are_the_one_class(self, make):
        async def scenario():
            transport = make()
            await transport.open([0, 1])
            assert {type(inbox) for inbox in transport._inboxes.values()} == {Inbox}
            await transport.close()

        run(scenario())

    def test_fifo_pending_and_a_cancelled_get(self, make):
        async def scenario():
            transport = make()
            await transport.open([0, 1])
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(transport.get(0), 0.01)
            for index in range(4):  # self-delivery: straight to the inbox on both
                await transport.put(0, (0, Message("p", "T", 0, index)))
            assert transport.pending() == 4
            received = [await asyncio.wait_for(transport.get(0), 1) for _ in range(4)]
            assert [message.payload for _sender, message in received] == [0, 1, 2, 3]
            assert transport.pending() == 0
            await transport.close()

        run(scenario())

    def test_close_fails_every_parked_get_and_later_ones(self, make):
        async def scenario():
            transport = make()
            await transport.open([0, 1])
            getters = [asyncio.ensure_future(transport.get(0)) for _ in range(2)]
            getters.append(asyncio.ensure_future(transport.get(1)))
            await parked(*getters)
            await transport.close()
            for outcome in await asyncio.gather(*getters, return_exceptions=True):
                assert isinstance(outcome, TransportClosedError)
            with pytest.raises(TransportClosedError):
                await transport.get(0)
            await transport.put(0, (0, Message("p", "T", 0, None)))
            assert transport.dropped_after_close == 1

        run(scenario())
