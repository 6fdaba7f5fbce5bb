"""Shared pytest fixtures.

The canonical machine shapes were previously duplicated per test module;
they live here once.  ``machine_factory`` is the escape hatch for tests
that need a non-standard shape or extra :class:`MachineConfig` knobs
(``trace=True``, ``write_back=True``, ...).
"""

import pytest

from repro.config import MachineConfig
from repro.machine import Machine

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def machine_factory():
    """Build a :class:`Machine` with arbitrary config overrides."""

    def make(n_compute: int = 4, n_io: int = 4, **kwargs) -> Machine:
        return Machine(MachineConfig(n_compute=n_compute, n_io=n_io, **kwargs))

    return make


@pytest.fixture
def machine(machine_factory):
    """The standard integration testbed: 4 compute / 4 I/O nodes."""
    return machine_factory()


@pytest.fixture
def small_machine(machine_factory):
    """Minimal 2 compute / 2 I/O machine for cheap integration tests."""
    return machine_factory(n_compute=2, n_io=2)


@pytest.fixture
def traced_machine(machine_factory):
    """Standard testbed with request tracing enabled (machine.obs.tracer)."""
    return machine_factory(trace=True)


@pytest.fixture(params=[False, True], ids=["prefetch-off", "prefetch-on"])
def prefetch_enabled(request):
    """Parametrised on/off axis for prefetching behaviour tests."""
    return request.param
