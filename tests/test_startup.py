"""Start-up cost: importing the package and the CLI must not load scipy.

``scipy.stats`` takes longer to import than the whole package; only
``ContingencyTable.p_value`` needs it, and imports it on first use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mining.correlations import ContingencyTable

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_does_not_load_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    probe = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_p_value_still_available():
    # Perfect positive association over 20 transactions: chi2 = 20.
    table = ContingencyTable(
        itemset=(0, 1), cells=(10, 0, 0, 10), n_transactions=20
    )
    assert table.chi_squared() == pytest.approx(20.0)
    assert table.p_value() == pytest.approx(7.744e-06, rel=1e-3)
