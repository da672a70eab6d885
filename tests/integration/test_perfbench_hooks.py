"""The repository benchmark's traced mode wraps program entry points by
name (``perfbench/spans.py``).  A rename under ``src/`` would break
``perfbench/run.py --trace 1`` runs without failing any other test, so
this installs the hooks against ``src/`` in a fresh interpreter process
and checks that a form evaluated through ``Interpreter`` is counted.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCRIPT = """
import sys
import spans

log = spans.install(sys.argv[1])
from repro import Interpreter

interp = Interpreter()
assert interp.eval("(let loop ([i 0]) (if (< i 50) (loop (+ i 1)) i))") == 50
print(log.state().quanta)
"""


def test_span_hooks_count_quanta(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 0
