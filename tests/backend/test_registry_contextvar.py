"""Task-safety of the backend override (ContextVar semantics).

The ``use_backend`` override used to live in a
module global, so two concurrent asyncio tasks selecting different
backends could observe each other's choice mid-operation.  The override
slot is now a :class:`contextvars.ContextVar`; these tests pin the
isolation and inheritance rules the serving layer relies on.
"""

from __future__ import annotations

import asyncio

from repro.backend.registry import (
    get_active_backend,
    get_backend,
    use_backend,
)


def test_concurrent_tasks_do_not_observe_each_others_override():
    """Two tasks holding different ``use_backend`` scopes stay isolated."""

    async def hold(name: str, cycles: int) -> list:
        seen = []
        with use_backend(name):
            for _ in range(cycles):
                # Yield to the loop so the sibling task interleaves while
                # this scope is open — the historical global would flip.
                await asyncio.sleep(0)
                seen.append(get_active_backend().name)
        return seen

    async def main():
        return await asyncio.gather(hold("numpy", 5), hold("blas", 5))

    numpy_seen, blas_seen = asyncio.run(main())
    assert numpy_seen == ["numpy"] * 5
    assert blas_seen == ["blas"] * 5


def test_task_inherits_override_active_at_spawn():
    """``create_task`` snapshots the context: the override travels in."""

    async def report() -> str:
        await asyncio.sleep(0)
        return get_active_backend().name

    async def main():
        with use_backend("blas"):
            inherited = asyncio.create_task(report())
            inner = await inherited
        # A task spawned after the scope closed resolves the default.
        outer = await asyncio.create_task(report())
        return inner, outer

    inner, outer = asyncio.run(main())
    assert inner == "blas"
    assert outer == get_active_backend().name


def test_override_inside_task_does_not_leak_out():
    """A ``use_backend`` scope open inside a task is invisible to the caller."""
    before = get_active_backend().name
    other = "numpy" if before == "blas" else "blas"

    async def switch(entered: asyncio.Event, release: asyncio.Event) -> str:
        with use_backend(other):
            entered.set()
            await release.wait()
            return get_active_backend().name

    async def main():
        entered, release = asyncio.Event(), asyncio.Event()
        task = asyncio.create_task(switch(entered, release))
        await entered.wait()            # the task's scope is open now
        outside = get_active_backend().name
        release.set()
        return await task, outside, get_active_backend().name

    inside, outside, after = asyncio.run(main())
    assert inside == other
    assert outside == after == before


def test_synchronous_semantics_preserved():
    """Plain sequential code sees nested scopes restore in order."""
    baseline = get_active_backend().name
    with use_backend("blas"):
        assert get_active_backend() is get_backend("blas")
        with use_backend("numpy"):
            assert get_active_backend().name == "numpy"
        assert get_active_backend().name == "blas"
        with use_backend(None):
            assert get_active_backend().name == baseline
    assert get_active_backend().name == baseline
