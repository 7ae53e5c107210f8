import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings  # noqa: E402

# every property test replays the same examples and writes no database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
