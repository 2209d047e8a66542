"""The benchmark's tracer can still wrap the program it measures.

``perfbench/tracing.py`` wraps every public function of the qap layers,
and the simplex under the name ``qap.extremize.minimize``; a traced
benchmark run fails when one of those names goes away. That ``minimize``
is qap's own function, which imports scipy's at its call, so the wrapped
name must also be the one ``optimize`` calls: otherwise the tracer installs
but records no simplex. The checks run in a fresh interpreter, so no
module of the test session is patched.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = (
    "import sys\n"
    f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
    "import qap.cli\n"
    "import tracing\n"
)


def run(code):
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs_on_the_program():
    assert int(run("print(tracing.Tracer().install())\n")) > 0


def test_tracer_records_the_simplex(tmp_path, search_config):
    argv = ["extremize", "--config", search_config, "--out", str(tmp_path / "out")]
    out = run(
        "import json\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        f"code = qap.cli.main({argv!r})\n"
        "searched = tracing.layer_metrics(tracer.spans)\n"
        "qap.dynamics.integrate(qap.OscillatorSpec(), qap.InitialData())\n"
        "print(json.dumps([code, searched, tracing.layer_metrics(tracer.spans)]))\n"
    )
    code, metrics, after = json.loads(out.splitlines()[-1])
    assert code == 0
    assert metrics["extremize.optimize.calls"] == 1
    assert metrics["extremize.minimize.calls"] >= 1
    assert metrics["extremize.nm_iterations"] > 0
    # the search reads its report from its own record: no trajectory run
    assert metrics["dynamics.integrate.rk4.calls"] == 0
    # an integrate call that passes no method must still count as rk4,
    # from integrate's default
    assert after["dynamics.integrate.rk4.calls"] == 1
