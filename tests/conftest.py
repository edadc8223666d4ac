"""Test-session configuration: Hypothesis draws the same examples on every run.

``derandomize`` seeds each property test from the test itself, and no example
database is read or written. Hypothesis still caches the constants it reads
from the package's source; that cache goes to the system temporary directory,
so a run leaves no ``.hypothesis/`` directory in the checkout. Per-test
``@settings`` still set example counts and deadlines; they inherit these two
fields from the profile.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "solocancel-hypothesis")
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
