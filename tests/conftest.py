import numpy as np
import pytest

from helpers import make_rng
from hnmvts.numcore import set_default_dtype


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture
def float32_mode():
    set_default_dtype(np.float32)
    yield
    set_default_dtype(np.float64)
