"""The benchmark's tracer finds every library function it hooks, so a
moved or renamed function cannot silently zero a per-layer metric."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path[:0] = ["bench", "src"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_tracer_installs_every_hook():
    done = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
