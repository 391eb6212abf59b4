import os
import sys

import numpy as np
import pytest

# make the shared oracle helpers importable from any test module
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def capped_linspace(monkeypatch):
    """np.linspace failing the test rather than allocate above 65536 points."""
    linspace = np.linspace

    def capped(lo, hi, count):
        assert count <= 65536, f"a {count}-point axis was allocated"
        return linspace(lo, hi, count)

    monkeypatch.setattr(np, "linspace", capped)
