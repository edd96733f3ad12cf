import json
import os
import pathlib
import sys

# One BLAS thread: the tests' matrices are small, and threads that wait on
# a busy core slow the suite several times over.  Set before numpy loads
# BLAS, which reads them once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from lqgcap import CostWeights, ProblemConstants, SystemModel, constants

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _empty_solve_cache():
    """Start each test with an empty plant-solve cache, so that the solves,
    checks and warnings a test counts are not answered by an earlier test."""
    constants._SOLVES.clear()


@pytest.fixture(scope="session")
def s1():
    return SystemModel(F=0.5, G=1, H=1, J=1, W=1, V=1, L=0)


@pytest.fixture(scope="session")
def w1():
    return CostWeights(Q=1, R=1)


@pytest.fixture(scope="session")
def c1(s1, w1):
    return ProblemConstants.compute(s1, w1)


@pytest.fixture(scope="session")
def s2():
    return SystemModel(F=np.diag([1.2, 0.7, 0.5]), G=[[2], [1], [12]],
                       H=[[10, 2, 1]], J=1, W=np.eye(3), V=4,
                       L=np.zeros((3, 1)))


@pytest.fixture(scope="session")
def w2():
    return CostWeights(Q=np.eye(3), R=1)


@pytest.fixture(scope="session")
def c2(s2, w2):
    return ProblemConstants.compute(s2, w2)


@pytest.fixture(scope="session")
def s1_oracle():
    with open(FIXTURES / "s1_rate_oracle.json") as fh:
        return {float(k): v for k, v in json.load(fh).items()}


@pytest.fixture(scope="session")
def state_feedback_model():
    """Scalar model with G = K_p J: the observer reconstructs the estimate,
    collapsing SigmaHat to zero (here also Sigma = 0 since v = w)."""
    return SystemModel(F=0.5, G=1, H=1, J=1, W=1, V=1, L=1)
