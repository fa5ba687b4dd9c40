"""Import budget: the entry points a run loads pull in no scipy.

A simulation needs only numpy and ``repro``.  scipy stays a dependency
of ``repro bound`` (its LP solver imports ``scipy.optimize`` on first
use) and of the tests, which keep ``scipy.signal`` as the AR(1)
oracle.  The check runs in a fresh interpreter, because this test
process has usually imported scipy already.
"""

import os
import pathlib
import subprocess
import sys

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules a ``repro`` command, the daemon, its clients and a campaign
#: import before doing any work.
ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.service.server",
    "repro.service.client",
    "repro.suite.campaign",
    "repro.suite.outputs",
)

#: scipy sub-packages a run must not load.
FORBIDDEN = ("scipy.signal", "scipy.optimize", "scipy.sparse")

PROBE = f"""
import importlib
import sys

for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
print("\\n".join(name for name in {FORBIDDEN!r} if name in sys.modules))
"""


def test_entry_points_import_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.split() == []
