"""Timing harness, ``BENCH_perf.json`` trajectory, and regression gate.

Wall-clock reads are sanctioned here (simlint D-wallclock allowlists
``repro.perf`` next to ``repro.obs``): the harness measures how fast the
*simulator* runs, and nothing it measures ever feeds back into simulated
state.

``BENCH_perf.json`` layout::

    {
      "schema": 1,
      "history": [
        {"label": "pr4-pre-optimisation", "mode": "full",
         "machine_score": 1.23e7,
         "kernels": {"packet_fig11": {"wall_seconds": ..,
                                      "events": ..,
                                      "events_per_sec": ..,
                                      "meta": {..}}, ..}},
        ...
      ]
    }

``history`` is append-only (``--record``); the newest entry with the
same ``mode`` is the comparison baseline.  Because absolute events/sec
depends on the machine, every entry carries a ``machine_score`` from a
frozen pure-Python calibration loop; the regression gate compares
*normalized* throughput (events/sec divided by machine score), so a CI
runner that is 2x slower than the laptop that recorded the baseline
does not trip the gate.
"""

import json
import os
import time
from collections import OrderedDict

from repro.perf import kernels as _kernels

SCHEMA = 1
DEFAULT_BENCH_PATH = "BENCH_perf.json"
# CI fails when normalized throughput drops by more than this fraction.
REGRESSION_THRESHOLD = 0.30

_CALIBRATION_ITERS = 2_000_000


def machine_score():
    """Machine-speed proxy: iterations/sec of a frozen LCG loop.

    FROZEN: never change the loop body or ``_CALIBRATION_ITERS`` —
    recorded baselines are normalized by this number, so editing it
    silently rescales every historical entry.  (LCG constants are the
    Numerical Recipes ones; the accumulator only keeps the loop honest.)
    """
    best = float("inf")
    for _ in range(3):
        acc = 1
        start = time.perf_counter()
        for _ in range(_CALIBRATION_ITERS):
            acc = (acc * 1664525 + 1013904223) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    assert acc != 0
    return _CALIBRATION_ITERS / best


class KernelSpec:
    """A named kernel plus how the harness should time it."""

    __slots__ = ("name", "fn", "repeats", "description")

    def __init__(self, name, fn, repeats, description):
        self.name = name
        self.fn = fn
        self.repeats = repeats
        self.description = description


KERNELS = OrderedDict(
    (spec.name, spec) for spec in [
        KernelSpec("scheduler_churn", _kernels.scheduler_churn_kernel, 2,
                   "pure event loop, 64 reschedule chains"),
        KernelSpec("scheduler_cancel", _kernels.scheduler_cancel_kernel, 2,
                   "RTO-shaped cancellation churn, 32 lanes"),
        KernelSpec("packet_fig9", _kernels.packet_fig9_kernel, 3,
                   "Fig. 9 spray ring, loss-free packets"),
        KernelSpec("packet_fig11", _kernels.packet_fig11_kernel, 3,
                   "Fig. 11 spray ring, 3% loss on one uplink"),
        KernelSpec("flight_overhead", _kernels.flight_overhead_kernel, 3,
                   "fig11 ring, flight recorder off+on (overhead gate)"),
        KernelSpec("fluid_allreduce_512", _kernels.fluid_allreduce_kernel, 1,
                   "512-GPU continuous AllReduce, fluid max-min"),
        KernelSpec("fleet_churn", _kernels.fleet_churn_kernel, 1,
                   "16-host 3-tenant churn (2-host smoke)"),
        KernelSpec("fleet_1024_churn", _kernels.fleet_1024_churn_kernel, 1,
                   "1024-host 3-tier dual-plane churn (fixed-job smoke)"),
        KernelSpec("fleet_1024_hybrid", _kernels.fleet_1024_hybrid_kernel, 1,
                   "1024-host churn, hybrid fluid/packet fidelity "
                   "(REPRO_FIDELITY_MODE)"),
        KernelSpec("runner_fanout", _kernels.runner_fanout_kernel, 2,
                   "N fig11 rings via repro.runner pool (repeat 2 is "
                   "warm-cache)"),
        KernelSpec("trace_replay", _kernels.trace_replay_kernel, 2,
                   "bundled MoE trace replayed on its 8-host ring"),
        KernelSpec("fig8_translation", _kernels.fig8_translation_kernel, 2,
                   "Fig. 8 ATS/ATC sweep, page translations (4+64 MiB smoke)"),
    ]
)


class KernelResult:
    """Best-of-N timing for one kernel run."""

    __slots__ = ("name", "wall_seconds", "events", "meta", "repeats")

    def __init__(self, name, wall_seconds, events, meta, repeats):
        self.name = name
        self.wall_seconds = wall_seconds
        self.events = events
        self.meta = meta
        self.repeats = repeats

    @property
    def events_per_sec(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def to_json(self):
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "repeats": self.repeats,
            "meta": self.meta,
        }


def time_kernel(spec, smoke=False):
    """Run ``spec`` ``spec.repeats`` times; keep the best wall time.

    Every repeat does identical (seeded) work, so best-of-N only trims
    scheduler noise — events counts are asserted stable across repeats.
    """
    best_wall = float("inf")
    events = None
    meta = {}
    for _ in range(spec.repeats):
        start = time.perf_counter()
        out = spec.fn(smoke=smoke)
        wall = time.perf_counter() - start
        if events is not None and out["events"] != events:
            raise AssertionError(
                "kernel %s is not deterministic: %d events then %d"
                % (spec.name, events, out["events"])
            )
        events = out["events"]
        meta = out.get("meta", {})
        best_wall = min(best_wall, wall)
    return KernelResult(spec.name, best_wall, events, meta, spec.repeats)


class PerfReport:
    """One suite run: mode, machine score, per-kernel results."""

    def __init__(self, mode, score, results):
        self.mode = mode
        self.machine_score = score
        self.results = results  # OrderedDict name -> KernelResult

    def to_entry(self, label):
        return {
            "label": label,
            "mode": self.mode,
            "machine_score": round(self.machine_score, 1),
            "kernels": OrderedDict(
                (name, res.to_json()) for name, res in self.results.items()
            ),
        }


def run_suite(smoke=False, names=None, log=None):
    """Run the (sub)suite and return a :class:`PerfReport`."""
    mode = "smoke" if smoke else "full"
    selected = list(KERNELS) if names is None else list(names)
    unknown = [n for n in selected if n not in KERNELS]
    if unknown:
        raise KeyError("unknown kernels: %s (have: %s)"
                       % (", ".join(unknown), ", ".join(KERNELS)))
    if log:
        log("calibrating machine score...")
    score_before = machine_score()
    results = OrderedDict()
    for name in selected:
        spec = KERNELS[name]
        if log:
            log("running %-20s (%s)" % (name, spec.description))
        results[name] = time_kernel(spec, smoke=smoke)
    # Calibrate again after the kernels and keep the slower reading: on
    # shared hosts the machine can lose speed mid-suite (CPU steal), and
    # normalizing by a score measured only in a fast window would make
    # the kernels look slower than the simulator actually got.
    score = min(score_before, machine_score())
    return PerfReport(mode, score, results)


def load_bench(path):
    """Load ``BENCH_perf.json``; an absent/empty file is an empty history."""
    if not os.path.exists(path):
        return {"schema": SCHEMA, "history": []}
    with open(path) as fh:
        text = fh.read().strip()
    if not text:
        return {"schema": SCHEMA, "history": []}
    data = json.loads(text)
    data.setdefault("schema", SCHEMA)
    data.setdefault("history", [])
    return data


def write_bench(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def find_baseline(data, mode, label=None):
    """Newest history entry matching ``mode`` (and ``label``, if given)."""
    for entry in reversed(data.get("history", [])):
        if entry.get("mode") != mode:
            continue
        if label is not None and entry.get("label") != label:
            continue
        return entry
    return None


def _normalized(entry, kernel):
    info = entry.get("kernels", {}).get(kernel)
    score = entry.get("machine_score") or 0
    if not info or not score:
        return None
    return info.get("events_per_sec", 0.0) / score


def check_regression(current, baseline, threshold=REGRESSION_THRESHOLD):
    """Compare machine-normalized events/sec; return a list of findings.

    Each finding is ``(kernel, ratio, regressed)`` where ``ratio`` is
    current/baseline normalized throughput (>1 is faster) and
    ``regressed`` flags ``ratio < 1 - threshold``.  Kernels missing on
    either side are skipped — the gate only judges comparable work.
    """
    findings = []
    for kernel in current.get("kernels", {}):
        cur = _normalized(current, kernel)
        base = _normalized(baseline, kernel)
        if cur is None or base is None or base <= 0:
            continue
        ratio = cur / base
        findings.append((kernel, ratio, ratio < 1.0 - threshold))
    return findings
