"""Test-session configuration: Hypothesis draws the same examples on every run.

``derandomize`` seeds each property test from the test itself, and no example
database is read or written. Hypothesis still caches the constants it reads
from the package's source; that cache goes to the system temporary directory,
so a run leaves no ``.hypothesis/`` directory in the checkout. Per-test
``@settings`` still set example counts and deadlines; they inherit these two
fields from the profile.

Hypothesis imports its patch writer, ``hypothesis.extra._patching``, when it
reports a failing example. That module imports ``libcst``, whose use of
``mypy_extensions.TypedDict`` raises a DeprecationWarning, and under
``-W error::DeprecationWarning`` the late import ends the session in an
INTERNALERROR that names no failing test. So it is imported here, with
DeprecationWarning ignored for that one import; the package's own warnings
stay errors.

The ``fresh_python`` fixture runs code in a new interpreter, for tests of what
a process loads on start-up.
"""

import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "solocancel-hypothesis")
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst Hypothesis writes no patch
        pass


@pytest.fixture
def fresh_python():
    """``run(code)`` runs ``code`` in a new interpreter that imports this checkout's
    package and returns its output lines. The code may call ``scipy_modules()``, the
    sorted names of the scipy modules loaded so far."""
    import solocancel

    package_root = os.path.dirname(os.path.dirname(solocancel.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    prelude = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    )

    def run(code):
        proc = subprocess.run(
            [sys.executable, "-c", prelude + code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    return run
