"""Single-flight coalescing on the event loop.

The contract under test: K concurrent callers for one key perform
exactly ONE execution; every caller sees the same value; an exception
propagates to all; the key is retired afterwards so later callers start
fresh.
"""

import asyncio

import pytest

from repro.serve import AsyncSingleFlight


class TestAsyncSingleFlight:
    def test_concurrent_awaiters_one_execution(self):
        async def scenario():
            flight = AsyncSingleFlight()
            calls = []
            gate = asyncio.Event()

            async def work():
                calls.append(1)
                await gate.wait()
                return "golden"

            async def call():
                return await flight.run("k", work)

            tasks = [asyncio.ensure_future(call()) for _ in range(8)]
            await asyncio.sleep(0)  # let every task reach the flight
            assert flight.inflight() == 1
            assert flight.leading("k")
            gate.set()
            results = await asyncio.gather(*tasks)
            assert len(calls) == 1
            assert [v for v, _l in results] == ["golden"] * 8
            assert sum(leader for _v, leader in results) == 1
            assert flight.inflight() == 0

        asyncio.run(scenario())

    def test_exception_propagates(self):
        async def scenario():
            flight = AsyncSingleFlight()
            gate = asyncio.Event()

            async def boom():
                await gate.wait()
                raise RuntimeError("golden failed")

            async def call():
                return await flight.run("k", boom)

            tasks = [asyncio.ensure_future(call()) for _ in range(3)]
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            assert flight.inflight() == 0

        asyncio.run(scenario())

    def test_follower_cancellation_leaves_leader_running(self):
        async def scenario():
            flight = AsyncSingleFlight()
            gate = asyncio.Event()

            async def work():
                await gate.wait()
                return 42

            leader = asyncio.ensure_future(flight.run("k", work))
            await asyncio.sleep(0)
            follower = asyncio.ensure_future(flight.run("k", work))
            await asyncio.sleep(0)
            follower.cancel()
            with pytest.raises(asyncio.CancelledError):
                await follower
            gate.set()
            value, was_leader = await leader
            assert (value, was_leader) == (42, True)

        asyncio.run(scenario())

    def test_keys_are_independent(self):
        async def scenario():
            flight = AsyncSingleFlight()

            async def make(value):
                return value

            a, b = await asyncio.gather(
                flight.run("a", lambda: make(1)),
                flight.run("b", lambda: make(2)))
            assert a == (1, True) and b == (2, True)

        asyncio.run(scenario())
