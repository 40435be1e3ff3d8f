"""rieszlab benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 bench/run.py --workload picard-fast-limits --seed 0 \\
        --seconds 36 --trace 0

Workloads: ``picard-fast-limits``, ``singular-large-grid`` and
``ground-state-bisect`` (see ``bench/workloads.py``).  ``--seed`` jitters
the inputs (seed 0 is canonical), ``--seconds`` is the time budget of
the run, and ``--trace 1`` reports per-layer metrics instead of the
end-to-end ones.  The package is imported from ``src/`` of the checkout;
BLAS threads are capped at 1.

Standard output ends with two lines: the host record, then the result
``{"correct", "attempted", "failed", "metrics"}``.  Details land in
``bench/out/``.  Exit code 0 when a result was printed, 2 when the run
could not start (bad arguments, or no ``src/rieszlab`` to run).
"""

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    # Must precede the first numpy import to take effect.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "rieszlab" / "__init__.py").is_file():
        print("error: no rieszlab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print(json.dumps({"host": record["host"], "inputs": record["inputs"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
