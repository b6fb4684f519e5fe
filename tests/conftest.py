import numpy as np
import pytest


@pytest.fixture
def eigen_solves(monkeypatch) -> list[tuple]:
    """Stack shape of every ``numpy.linalg.eigh``/``eigvalsh`` call the test makes."""
    shapes = []
    for name in ("eigh", "eigvalsh"):

        def spy(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a)[:-2])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return shapes
