"""Record the reference values the benchmark's output checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json from the fixed reference inputs. Re-record
only when a change is meant to alter these outputs beyond the check tolerances,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import WORK_DIR, pin_threads

    pin_threads()
    from perfbench import workloads

    work = WORK_DIR / "record-reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = {
            "seed": workloads.REFERENCE_SEED,
            "train": workloads.train_reference(work),
            "baselines": workloads.baseline_reference(work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
