"""Every function and method in src/ serves a CLI command, a benchmark workload or a named reference.

A fresh interpreter runs one task of each workload in perfbench/ and the CLI
commands assign, design, analyze (E* = 3 and exact), simulate and compare
--run-simulation, under sys.setprofile and threading.setprofile, and reports
the (file, first line) of every code object under src/ that was called.  Each
def in src/, found by ast, must be among them or in REFERENCES, which names
the user that keeps it.  So a function no caller reaches fails here, and its
removal or a new caller is the fix.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scma_ntn"

# Reached by no CLI command or workload, and kept for the user named beside each.
REFERENCES = {
    "analysis.py": {
        "q_approx": "acceptance criterion 4",
        "ErrorEvent.__post_init__": "acceptance criteria 4 and 5",
        "effective_snr_terms": "acceptance criterion 4",
        "pep": "acceptance criteria 4 and 5",
        "BepSummary.average": "the BepSummary tests in tests/test_analysis.py",
        "BepSummary.worst_user_rank": "demos/ber_simulation.py and acceptance criterion 6",
    },
    "geometry.py": {"ordered_distance_pdf": "demos/user_geometry.py"},
    "codebook.py": {"CodebookSet.total_power": "acceptance criterion 9"},
    "layering.py": {"SystemDims.overload": "demos/layer_power_assignment.py"},
    "optimizer.py": {"fitness": "the perfbench trace site optimizer.fitness and demos/ga_design.py"},
    "cli.py": {"app": "the scma-ntn entry point"},
}

RUN = """
import contextlib, io, json, os, shutil, sys, tempfile, threading
# BLAS on one thread, as perfbench/run.py pins it before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [{src!r}, {bench!r}]
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith({package!r}):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.setprofile(profile)
threading.setprofile(profile)
from workloads import WORKLOADS
for cls in WORKLOADS.values():
    workload = cls(0)
    try:
        workload.setup()
        workload.task(0)
    finally:
        workload.close()
from scma_ntn.cli import main
tmp = tempfile.mkdtemp()
try:
    ini = os.path.join(tmp, "small.ini")
    with open(ini, "w") as fh:
        fh.write("[simulate]\\nmax_symbols = 256\\nbatch_size = 128\\n[design]\\npopulation = 4\\ngenerations = 1\\n")
    book = os.path.join(tmp, "designed_codebook.txt")
    other = os.path.join(tmp, "other.txt")
    common = ["--config", ini, "--out", tmp]
    runs = [
        ["assign", "--out", tmp],
        ["design"] + common,
        ["analyze", "--codebook", book, "--snr-grid", "6,12"] + common,
        ["analyze", "--codebook", book, "--snr-grid", "6,12", "--truncation", "none"] + common,
        ["simulate", "--codebook", book, "--snr-grid", "0,20", "--threads", "2"] + common,
        ["compare", "--codebook", book, "--codebook", other, "--run-simulation", "--snr-grid", "0,20"] + common,
    ]
    for argv in runs:
        if argv[0] == "compare":
            shutil.copy(book, other)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{{argv}} exited with {{code}}")
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    shutil.rmtree(tmp)
print(json.dumps(sorted(called)))
"""


def defined_functions(path: Path) -> dict:
    """{(first line, as its code object gives it): qualified name} of every def in the module."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[first] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    walk(ast.parse(path.read_text()), "")
    return found


def test_every_function_in_src_is_called_or_a_named_reference():
    code = RUN.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), package=str(PACKAGE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    called = {tuple(pair) for pair in json.loads(proc.stdout)}
    unreached, stale = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        defined = defined_functions(path)
        references = REFERENCES.get(path.name, {})
        unreached += [f"{path.name}:{line} {name}" for line, name in defined.items()
                      if (path.name, line) not in called and name not in references]
        # An entry must name a def that exists and that nothing above calls.
        reached = {name for line, name in defined.items() if (path.name, line) in called}
        stale += [f"{path.name}: {name}" for name in references if name in reached or name not in defined.values()]
    assert unreached == [], "no CLI command, workload or named reference reaches these"
    assert stale == [], "these REFERENCES entries are called or gone"
