"""The package import contract: ``import repro`` stays numpy-free.

The vectorized batch tier made numpy an explicit dependency, but the
scalar core and the CLI must not pay its import cost (or require its
presence at import time) just to exist.  PEP 562 laziness in
``repro/__init__.py`` is load-bearing; a subprocess pins it, because the
test process itself has long since imported numpy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_snippet(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
    )


def test_import_repro_is_numpy_free():
    proc = run_snippet(
        "import sys\n"
        "import repro\n"
        "leaked = sorted(m for m in sys.modules if m.startswith(('numpy',)))\n"
        "assert not leaked, leaked\n"
        "assert not any(m.startswith('repro.') for m in sys.modules), "
        "'submodules imported eagerly'\n"
        "print(repro.__version__)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.0.0"


def test_engine_imports_are_scipy_free():
    """scipy is an optional extra (``repro[stats]``): only the Student-t
    helper in ``repro.metrics.steady_state`` may import it, at call time."""
    proc = run_snippet(
        "import sys\n"
        "import repro.core.engine, repro.core.batch\n"
        "import repro.perf.executor, repro.service\n"
        "leaked = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not leaked, leaked\n"
        # ... and what scipy used to drag in is loaded before any pool
        # forks, not lazily inside every worker.
        "assert {'numpy.random', 'numpy.ma'} <= set(sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_engine_table_loads_no_engine():
    """Importing the engine table (as every ``--engine`` flag and the cache
    key do) loads none of the engines it registers."""
    proc = run_snippet(
        "import sys\n"
        "import repro.perf.engines\n"
        "engines = ('repro.core.engine', 'repro.core.batch', "
        "'repro.core.detailed')\n"
        "loaded = sorted(m for m in engines if m in sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_attribute_access_resolves_lazily():
    proc = run_snippet(
        "import sys\n"
        "import repro\n"
        "system = repro.ERapidSystem  # first touch triggers the import\n"
        "assert 'repro.core' in sys.modules\n"
        "assert repro.ERapidSystem is system  # cached on the package\n"
        "print(system.__name__)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ERapidSystem"


def test_every_declared_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_dir_lists_the_public_surface():
    listing = dir(repro)
    assert "ERapidSystem" in listing
    assert "WorkloadSpec" in listing
    assert "__version__" in listing


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        repro.bogus
