"""Golden digests of the churn fleet's outputs, pinned across commits.

The determinism tests compare two runs of the same code; these pin what
the 16-host churn scenario (``run_churn``) produces at every fidelity
and two seeds against values recorded once, so a refactor of the epoch
pricing that moves any job's iteration times, any row or any counter
fails here even when it is perfectly repeatable.

Each case hashes three things: ``FleetResult.rows()``, every job's
``iteration_log`` plus ``iso_iter_seconds``, and ``snapshot()``.
Floats go through ``repr`` (exact), so a digest moves on a one-ulp
change.  ``fidelity_pricing_events`` is left out of the snapshot digest
and pinned on its own in ``PRICING_EVENTS``: it counts the packet events
spent pricing promoted windows, a cost of the simulator rather than an
output of the simulated fleet.

To re-record after an intended output change, run this file as a script
with ``PYTHONPATH=src`` and paste the printed tables.
"""

import hashlib
import json

import pytest

from repro.workloads.fleet_bench import run_churn

SEEDS = (17, 23)
FIDELITIES = ("fluid", "hybrid", "packet")

#: (fidelity, seed) -> (rows, iteration logs, snapshot) sha256 prefixes.
GOLDEN = {
    ("fluid", 17): ("df368a869ad08c2f", "9032414bbb9ba53a", "835bbba28ec3cb24"),
    ("fluid", 23): ("d3bf23fc6dbcbc13", "68be104d470e97b9", "b6100f4a4f3c6caf"),
    ("hybrid", 17): ("c3be59ba489a2806", "7bab35f4a3a4cffa", "5dd4daa5e602376a"),
    ("hybrid", 23): ("9556c4b41cefe055", "def194d5e825e8fa", "6b8cfabf0bb93829"),
    ("packet", 17): ("2bd9a6089cc129d5", "8d2982db0042e9f2", "aca0162e12a9c597"),
    ("packet", 23): ("8273fb3088143f48", "fc655aed8caaa2bd", "8bdf78e737140365"),
}

#: (fidelity, seed) -> ``snapshot()["fidelity_pricing_events"]``.
#: Every packet-priced epoch runs and counts its own window, including
#: the five at packet fidelity, seed 23, that repeat an earlier epoch's
#: fleet state.
PRICING_EVENTS = {
    ("fluid", 17): 0,
    ("fluid", 23): 0,
    ("hybrid", 17): 25912,
    ("hybrid", 23): 28383,
    ("packet", 17): 186251,
    ("packet", 23): 272077,
}


def _digest(value):
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fleet_digests(fidelity, seed):
    """``((rows, logs, snapshot) digests, pricing events)`` of one run."""
    fleet, result = run_churn(seed=seed, fidelity=fidelity)
    logs = [
        (job.spec.name, job.iso_iter_seconds,
         [list(entry) for entry in job.iteration_log])
        for job in fleet.jobs
    ]
    snapshot = fleet.snapshot()
    events = snapshot.pop("fidelity_pricing_events")
    digests = (_digest(result.rows()), _digest(logs), _digest(snapshot))
    return digests, events


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_churn_outputs_match_golden(fidelity, seed):
    digests, events = fleet_digests(fidelity, seed)
    assert digests == GOLDEN[fidelity, seed]
    assert events == PRICING_EVENTS[fidelity, seed]


if __name__ == "__main__":
    golden, pricing = {}, {}
    for fidelity in FIDELITIES:
        for seed in SEEDS:
            golden[fidelity, seed], pricing[fidelity, seed] = fleet_digests(
                fidelity, seed
            )
    for name, table in (("GOLDEN", golden), ("PRICING_EVENTS", pricing)):
        print("%s = {" % name)
        for key, value in table.items():
            print("    %r: %r," % (key, value))
        print("}")
