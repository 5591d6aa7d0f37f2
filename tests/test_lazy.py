"""lazy_import: each case runs in a fresh interpreter, where numpy and scipy are not loaded yet."""

import subprocess
import sys
import textwrap

import pytest

from spamrings._lazy import lazy_import


def _run_fresh(code: str) -> None:
    prelude = "import sys, types\nfrom spamrings._lazy import lazy_import\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_dotted_name_loads_nothing_until_read():
    _run_fresh(
        """
        sp = lazy_import("scipy.sparse")
        assert "scipy" not in sys.modules and "numpy" not in sys.modules
        assert type(sp) is not types.ModuleType
        """
    )


def test_first_read_loads_the_module_and_leaves_a_plain_module():
    _run_fresh(
        """
        sp = lazy_import("scipy.sparse")
        assert "scipy.sparse" not in sys.modules  # the stand-in is never registered
        sp.csr_array
        import scipy.sparse
        assert sp.csr_array is scipy.sparse.csr_array
        assert type(sp) is types.ModuleType
        assert lazy_import("scipy.sparse") is scipy.sparse  # a loaded module comes back as is
        """
    )


def test_numpy_lazy_submodules_resolve_through_a_stand_in():
    _run_fresh(
        """
        np = lazy_import("numpy")
        assert "numpy" not in sys.modules
        import numpy
        assert np.random.SeedSequence is numpy.random.SeedSequence
        assert np.linalg.norm is numpy.linalg.norm
        assert float(np.linalg.norm(np.array([3.0, 4.0]))) == 5.0
        """
    )


def test_missing_module_fails_at_first_use():
    module = lazy_import("no_such_module")
    with pytest.raises(ModuleNotFoundError):
        module.x
    assert "no_such_module" not in sys.modules
