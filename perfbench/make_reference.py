"""Regenerate the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's command once on the untransformed base data with
the solver tolerances tightened (``workloads.TIGHT_FLAGS``; the model
flags stay as pinned) and writes ``reference/<workload>.json``. It then
runs the pinned command on the same data and prints how far it lands
from the new reference, which is what the tolerances in ``workloads.py``
are set against. Run it only when the program's defined output changes.
"""

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import sco.cli  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main(names) -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]()
        workdir = os.path.join(HERE, "_work", f"reference-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload.prepare(workdir, None)
        started = time.perf_counter()
        if sco.cli.main(workload.argv(tight=True)) != 0:
            sys.stderr.write(f"{name}: reference command failed\n")
            return 1
        ref = workload.canonical()
        ref["argv"] = [arg for arg in workload.argv(tight=True) if not arg.startswith(workdir)]
        with open(os.path.join(REFERENCE_DIR, name + ".json"), "w", encoding="utf-8") as handle:
            json.dump(ref, handle, sort_keys=True)
            handle.write("\n")
        elapsed = time.perf_counter() - started
        code = sco.cli.main(workload.argv())
        result = workload.run_check(code, ref)
        print(f"{name}: reference in {elapsed:.1f} s; pinned command: failed "
              f"{result.failed}/{result.units}, X relative error {result.x_rel_err:.3g}")
        for error in result.errors:
            print(f"  {error}")
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
