"""Record the output digests the benchmark checks its runs against.

    python3 perfbench/record_digests.py

Runs every workload once at the seed of record (17) and the held-out seed
(23), or once for a workload without randomness, and rewrites
``perfbench/digests.json``.  Rerun it only when a change is meant to alter
simulated results, and say so in the change's description.
"""

import json
import sys

from run import bootstrap

SEEDS = (17, 23)


def main():
    from perfbench import stats
    from perfbench.bench import DIGESTS
    from perfbench.workloads import WORKLOADS

    recorded = {}
    for name, workload in sorted(WORKLOADS.items()):
        keys = [str(seed) for seed in SEEDS] if workload.seeded else ["*"]
        for key in keys:
            state = workload.setup(SEEDS[0] if key == "*" else int(key))
            result = workload.run(state)
            if workload.failed_checks(state, result):
                sys.exit("perfbench: %s fails its output checks at seed %s"
                         % (name, key))
            ops, shared = workload.outputs(state, result)
            recorded.setdefault(name, {})[key] = stats.digest_outputs(ops, shared)
            print("%s seed %s: %d ops" % (name, key, len(ops)), flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    bootstrap()
    main()
