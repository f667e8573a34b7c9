"""Regenerate perfbench/refs/<workload>.json from the package in ./src.

    python3 perfbench/make_refs.py [workload ...]

The references pin the outputs the benchmark checks.  Regenerate them only
for a change that is meant to alter a numeric result.  cli_ref46's reference
is taken with one worker thread, so the benchmark's two-thread run checks
that the worker count does not change an output byte.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

from workloads import REFS_DIR, VARIANTS, WORKLOADS, Cli46  # noqa: E402


def references(cls):
    """The first task of every variant; for exact_bound_ref46 that covers each SNR point."""
    refs = {}
    for variant in range(VARIANTS):
        wl = Cli46(variant, threads=1) if cls is Cli46 else cls(variant)
        try:
            wl.setup()
            refs[wl.key(0)] = wl.task(0)
        finally:
            wl.close()
    return refs


def main(names):
    REFS_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        refs = references(WORKLOADS[name])
        (REFS_DIR / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(refs)} references for {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
