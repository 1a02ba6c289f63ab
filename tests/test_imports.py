"""Import hygiene: every subpackage must import cleanly on its own.

Circular imports only bite when a particular module is imported
*first*, so each candidate is imported in a fresh interpreter.
"""

import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.ctg",
    "repro.platform",
    "repro.scheduling",
    "repro.adaptive",
    "repro.sim",
    "repro.workloads",
    "repro.analysis",
    "repro.experiments",
    "repro.io",
    "repro.viz",
    "repro.batch",
    "repro.obs",
    "repro.check",
    "repro.faults",
    "repro.experiments.workers",
    "repro.__main__",
]

#: heavy scipy submodules only the NLP baseline and report statistics
#: need — a CLI call or fleet worker must not pay for them at start-up
LAZY_MODULES = ["scipy.stats", "scipy.optimize"]


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_subpackage_imports_standalone(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, f"import {module} failed:\n{result.stderr}"


def test_cli_import_leaves_scipy_unloaded():
    probe = (
        "import sys, repro.__main__; "
        f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", f"loaded at import: {result.stdout}"
