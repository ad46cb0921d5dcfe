"""numpy is the only runtime dependency: the package, its command line and
its chunk pool import nothing else outside the standard library."""

import os
import subprocess
import sys

import tiadc_cal

CODE = """\
import sys
before = set(sys.modules)
import tiadc_cal, tiadc_cal.cli
from tiadc_cal import model
from tiadc_cal.experiments import run_scenario
from tiadc_cal.scenarios import BUILTIN_SCENARIOS
model._WORKERS = 2  # the chunk pool starts even on one CPU
run_scenario(BUILTIN_SCENARIOS["fig6"]())
assert model._POOL is not None
# a module with no spec was not found by an importer but made by code
# already loaded, like the shared type registry of numpy's Cython modules
for name in sorted({name.partition(".")[0] for name in set(sys.modules) - before
                    if sys.modules[name].__spec__ is not None}):
    print(name)
"""


def test_runtime_imports_are_numpy_and_the_standard_library():
    src = os.path.dirname(os.path.dirname(tiadc_cal.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", CODE], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.split())
    assert {"numpy", "tiadc_cal"} <= imported
    assert imported - set(sys.stdlib_module_names) == {"numpy", "tiadc_cal"}
