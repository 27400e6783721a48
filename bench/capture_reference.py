"""Write ``reference.json``: every measured value of every workload at the default seed.

    python3 bench/capture_reference.py

Run once at a commit whose outputs are trusted; the benchmark compares
later outputs with this file within the tolerance of each value.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as out_dir:
        for name in workloads.WORKLOADS:
            reference[name] = {}
            for op in workloads.build_ops(name, workloads.DEFAULT_SEED, out_dir):
                values = op.check(op.run())
                reference[name][op.name] = {k: float(v) for k, v in values.items()}
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
