import numpy as np
import pytest

from filippov.polys import piecewise, vf


@pytest.fixture
def seeded_fields():
    """40 random degree-1/3 piecewise fields."""
    rng = np.random.default_rng(11)
    fields = []
    for k in range(40):
        m = (1, 3)[k % 2]

        def cs():
            return {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                    for j in range(m + 1 - i)}
        fields.append(piecewise(vf(cs(), cs(), m=m), vf(cs(), cs(), m=m)))
    return fields
