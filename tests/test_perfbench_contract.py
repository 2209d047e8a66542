"""The benchmark's tracer can still wrap the program it measures.

``perfbench/tracing.py`` wraps every public function of the qap layers,
and scipy's ``minimize`` under the name ``qap.extremize.minimize``; a
traced benchmark run fails when one of those names goes away. The check
runs in a fresh interpreter, so no module of the test session is patched.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_program():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import qap.cli\n"
        "import tracing\n"
        "print(tracing.Tracer().install())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
