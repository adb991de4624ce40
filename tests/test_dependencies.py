"""pktilt's one runtime dependency is numpy.

scipy and mpmath may serve offline reference checks, but importing the
package, its command line or its oracles must not load either.
"""

import os
import subprocess
import sys


def test_package_imports_neither_scipy_nor_mpmath():
    code = (
        "import sys\n"
        "import pktilt, pktilt.cli, pktilt.oracle\n"
        "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
