import os
import sys

import numpy as np
import pytest

# make the shared oracle helpers importable from any test module
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def cleared_caches():
    """Each test starts with every functools cache of the package empty.

    Tests patch the kernel's helpers (``_BlockSeries``, ``_laurent``,
    ``_step_polynomial``, ``_BandEnergy.bounds_steps``); an entry built
    under a patch must not reach a later test, nor an earlier entry hide
    the patch from this one.
    """
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "berryline" or name.startswith("berryline.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def capped_linspace(monkeypatch):
    """np.linspace failing the test rather than allocate above 65536 points."""
    linspace = np.linspace

    def capped(lo, hi, count):
        assert count <= 65536, f"a {count}-point axis was allocated"
        return linspace(lo, hi, count)

    monkeypatch.setattr(np, "linspace", capped)
