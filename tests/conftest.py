import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings  # noqa: E402

# every property test replays the same examples and writes no database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _no_gralasso_environment(monkeypatch):
    """Unset every GRALASSO_* variable, so a developer's environment cannot
    change CLI defaults under test (subprocesses inherit the cleaned
    environment)."""
    for name in list(os.environ):
        if name.startswith("GRALASSO_"):
            monkeypatch.delenv(name)
