"""``import repro`` stays free of process-pool and database modules.

Every command line call pays for ``import repro``; the sweep's process
pool and the result store's SQLite index load only when a sweep or a
``--store`` run asks for them.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src")

HEAVY = ("multiprocessing", "concurrent.futures", "sqlite3")


def test_import_repro_loads_no_pool_or_sqlite():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, repro; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
