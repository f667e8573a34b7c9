"""The benchmark in perfbench/ drives the package through fixed names.

Every workload is set up in a fresh interpreter, because the harness
re-imports the package and that must not leak into this session; then each
(owner, attribute) the harness traces must exist.  So an API change that
would break the benchmark fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS
for name, cls in WORKLOADS.items():
    workload = cls(0)
    try:
        workload.setup()
        for owner, attr, span, _ in workload.trace_sites():
            if not hasattr(owner, attr):
                print(f"{{name}}: {{span}} traces {{owner!r}}.{{attr}}, which does not exist")
    finally:
        workload.close()
"""


def test_benchmark_workloads_find_every_traced_name():
    code = CHECK.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
