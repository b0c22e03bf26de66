"""The small-block configuration of the vectorized engine, for differential tests.

The vectorized engine consumes each trial's committed future in lockstep
windows: the first is ``INITIAL_BLOCK`` (1024) interactions long, or
``n * n`` below 32 nodes, and each next one doubles, up to the class
attribute ``VectorizedExecutor.block_size``.  Many instances in the test
suite terminate inside that first window, so the default configuration
rarely carries a trial's ownership, pending candidates or knowledge state
across a window boundary.  :data:`SMALL_BLOCK` caps the window far below
that, so every trial crosses many boundaries — and must still reproduce
the reference engine exactly.

Engine-parametrized tests run this configuration next to the default one:

* :class:`SmallBlockVectorizedExecutor` is a drop-in executor class;
* :func:`use_engine` registers it under :data:`SMALL_BLOCK_ENGINE` in
  :data:`repro.sim.runner.ENGINES` for one test, so every entry point that
  takes an engine *name* (``execute_random_trial``, ``run_random_trial``,
  ``replay_instance``, the sweep layer) runs it too — also in fork-pool
  workers, which inherit the registration.

Like ``strategies.py`` this module is a plain import, not a conftest.
"""

from __future__ import annotations

from repro.core.vector_execution import VectorizedExecutor
from repro.sim import runner

#: Lockstep window of the small-block configuration.
SMALL_BLOCK = 16

#: Test-only engine name of the small-block configuration.
SMALL_BLOCK_ENGINE = "vectorized-small-blocks"

#: The engine names a differential test runs against the reference engine.
CANDIDATE_ENGINES = ("vectorized", SMALL_BLOCK_ENGINE)


class SmallBlockVectorizedExecutor(VectorizedExecutor):
    """:class:`VectorizedExecutor` whose window cap is :data:`SMALL_BLOCK`."""

    block_size = SMALL_BLOCK


def use_engine(engine: str, monkeypatch) -> str:
    """Return ``engine``, first registering the small-block name if it is that one.

    The registration goes through ``monkeypatch``, so it ends with the test
    and :data:`repro.sim.runner.ENGINES` keeps exactly its two real engines
    everywhere else.
    """
    if engine == SMALL_BLOCK_ENGINE:
        monkeypatch.setitem(
            runner.ENGINES, SMALL_BLOCK_ENGINE, SmallBlockVectorizedExecutor
        )
    return engine
