"""Record the eval CSV of each workload at the default seed as its reference.

    python3 benchmarks/record_reference.py

Run it only when the generated inputs change on purpose, at a commit whose
``evaluate`` is trusted: the benchmark then checks every later eval output
at the default seed against these rows within 1e-9.
"""

from __future__ import annotations

import shutil

import inputs
import run


def main() -> None:
    run.import_package()
    import ops

    for workload in inputs.WORKLOADS:
        work_dir = run.OUT / "reference" / workload
        operations = ops.Operations(inputs.generate(workload, run.DEFAULT_SEED, work_dir), work_dir)
        operations.check_eval(operations.eval())
        target = run.REFERENCE_DIR / f"{workload}-seed{run.DEFAULT_SEED}.csv"
        shutil.copyfile(operations.eval_csv, target)
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
