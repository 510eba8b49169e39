"""``import repro`` pulls in numpy and the standard library, nothing else.

Every fresh interpreter (each benchmark worker, each example subprocess,
each CI job) pays for whatever ``import repro`` loads, so a third-party
import that creeps back in (scipy, networkx) fails here.  Modules the
interpreter loaded before ``import repro`` (site hooks) do not count.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro
print(json.dumps(sorted({m.partition(".")[0]
                         for m in set(sys.modules) - before})))
"""


def test_import_repro_loads_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert "repro" in loaded
    third_party = [m for m in loaded
                   if m not in sys.stdlib_module_names
                   and m not in ("numpy", "repro")]
    assert not third_party, f"import repro loaded {third_party}"
