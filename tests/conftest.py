import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fquant import ProcessSpec, sample_paths, uniform_space

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def unit_space():
    """Uniform-mass grid on [0, 1], p = 2, d = 1."""
    return uniform_space(1.0, 65, p=2.0, d=1)


@pytest.fixture(scope="session")
def bm_sample(unit_space):
    return sample_paths(ProcessSpec("brownian"), unit_space, 400, seed=101)


@pytest.fixture
def rng():
    # fresh generator per test: draws never depend on execution order
    return np.random.default_rng(20260808)


@pytest.fixture
def fresh_python(tmp_path):
    """Run Python code in a new interpreter (cwd tmp_path, fquant from this
    checkout's src/) and return its stdout.  The test session has long since
    imported scipy, so import-time properties can only be seen from outside it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code: str) -> str:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
