"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fleet_fluid --seed 17 --seconds 30 --trace 0

Run from the root of a source checkout: the simulator is imported from
``src/``.  One process, no worker pool and no result cache.  Each
repetition builds the workload from ``--seed`` (timed as set-up), runs it
(timed as ``run_s``) and checks its outputs; repetitions continue until
the next one would end further past ``--seconds`` than stopping now falls
short of it.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones, from traced repetitions
interleaved with untraced ones.  Human-readable lines come first; the last
line of standard output is one JSON object.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bootstrap():
    """Put ``src/`` and the checkout root on the path.

    Exits with an error, and prints no result, when the checkout holds no
    simulator sources.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no simulator sources under %s" % src)
    # The simulator is single-threaded Python; one BLAS thread keeps numpy
    # from adding threads whose scheduling would only add noise.  Set
    # before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(src), str(ROOT)]


if __name__ == "__main__":
    bootstrap()
    from perfbench.bench import main

    sys.exit(main())
