"""The benchmark's measurement loop, checks and report (see README.md).

``run.py`` is the command-line entry point; it puts ``src/`` on the path
before this module imports the simulator.
"""

import argparse
import gc
import json
import resource
import statistics
import time
from pathlib import Path

from perfbench import calib, spans, stats
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"

#: Every repetition's set-up is timed; set-ups are also repeated on their
#: own, at least this many times and for at least this long.
SETUP_MIN_SAMPLES = 5
SETUP_MIN_SECONDS = 0.25
SETUP_MAX_SAMPLES = 200


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setups(workload, seed):
    """Standalone set-ups, each built on a collected heap as a repetition's
    is, and dropped; reference seconds.  A first, untimed one pays the
    one-time costs."""
    workload.setup(seed)
    samples = []
    began = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
            time.perf_counter() - began < SETUP_MIN_SECONDS
            and len(samples) < SETUP_MAX_SAMPLES):
        gc.collect()
        with calib.Timed() as timed:
            workload.setup(seed)
        samples.append(timed.ref_s)
    return samples


#: Untraced repetitions i = 0, 1, 2, ... build the instance at seed
#: ``--seed + i * INSTANCE_STRIDE``: a run's figures then average over
#: several instances and move less from one ``--seed`` to the next.
INSTANCE_STRIDE = 10007


def instance_seed(workload, seed, index, trace):
    """Seed of repetition ``index``.

    Traced runs repeat the ``--seed`` instance, so that traced and untraced
    repetitions can be compared count for count.
    """
    if trace == 1 or not workload.seeded:
        return seed
    return seed + index * INSTANCE_STRIDE


class Rep:
    """What one repetition measured and what its checks found."""

    def __init__(self, seed, traced):
        self.seed = seed
        self.traced = traced
        # Reference seconds (calib.py); ``host_run_s`` is the same run's
        # host seconds and ``slowdown`` the host's speed relative to reference.
        self.setup_s = self.run_s = self.work = None
        self.host_run_s = self.slowdown = None
        self.digests = self.counters = self.layer = None
        self.ops = 0
        self.failed = set()
        self.notes = []


def run_rep(workload, seed, tracer):
    """Build, run and check one repetition; ``tracer`` None means untraced."""
    rep = Rep(seed, tracer is not None)
    gc.collect()
    with calib.Timed() as timed:
        state = workload.setup(seed)
    rep.setup_s = timed.ref_s
    if tracer is None:
        with calib.Timed() as timed:
            result = workload.run(state)
    else:
        # Alarms would count their probes in whichever span they interrupt.
        with tracer:
            traced_run = tracer.root(workload.run)
            with calib.Timed(sample=False) as timed:
                result = traced_run(state)
    rep.run_s, rep.host_run_s = timed.ref_s, timed.host_s
    rep.slowdown = calib.slowdown(timed.probes)
    rep.work = workload.work(state, result)
    ops, shared = workload.outputs(state, result)
    rep.ops = len(ops)
    rep.digests = stats.digest_outputs(ops, shared)
    rep.failed = set(workload.failed_checks(state, result))
    rep.counters = workload.counters(state, result)
    if tracer is not None:
        rep.layer = tracer.layer_metrics(rep.counters)
    return rep


def check_against(rep, reps, expected):
    """Fail the ops of ``rep`` whose outputs differ from the recorded digests
    or from the first earlier repetition of the same seed, traced or not, and
    every op when a counter drifted from that repetition."""
    if expected is not None:
        bad = stats.mismatched_ops(rep.digests, expected)
        if bad:
            rep.notes.append("%d ops differ from the recorded digests" % len(bad))
        rep.failed |= bad
    same_seed = [r for r in reps if r.seed == rep.seed]
    if not same_seed:
        return
    first = same_seed[0]
    bad = stats.mismatched_ops(rep.digests, first.digests)
    if bad:
        rep.notes.append("%d ops differ from the first repetition" % len(bad))
    rep.failed |= bad
    drift = stats.drifted_counters(first.counters, rep.counters)
    first_traced = next((r for r in same_seed if r.traced), None)
    if rep.traced and first_traced is not None:
        drift += stats.drifted_counters(_exact(first_traced.layer), _exact(rep.layer))
    if drift:
        rep.notes.append("counters drifted: %s" % ", ".join(drift))
        rep.failed |= set(rep.digests["ops"])


def _exact(layer_metrics):
    """The per-layer metrics that must repeat exactly (all but times)."""
    return {name: value for name, value in layer_metrics.items()
            if not name.endswith(".self_s")}


def measure(workload, seed, seconds, trace, recorded):
    """Repeat the workload for about ``seconds``.

    Untraced runs need two repetitions; traced runs interleave untraced and
    traced repetitions (U T T U T T ...) and need one untraced and two
    traced ones.  ``recorded`` maps a seed (``"*"`` for an unseeded
    workload) to the output digests recorded for it.
    """
    gc.collect()
    setups = timed_setups(workload, seed)
    reps, last_tracer = [], None
    began = time.perf_counter()
    while True:
        traced = trace == 1 and len(reps) % 3 != 0
        tracer = spans.LayerTracer() if traced else None
        rep_seed = instance_seed(workload, seed, len(reps), trace)
        rep = run_rep(workload, rep_seed, tracer)
        expected = recorded.get(str(rep_seed) if workload.seeded else "*")
        check_against(rep, reps, expected)
        if expected is not None:
            rep.notes.append("checked against recorded digests")
        reps.append(rep)
        if tracer is not None:
            last_tracer = tracer  # only the last traced run's spans are kept
        n_traced = sum(r.traced for r in reps)
        enough = (len(reps) >= 2 if trace == 0
                  else n_traced >= 2 and len(reps) - n_traced >= 1)
        median_run = statistics.median([r.run_s for r in reps])
        if enough and time.perf_counter() - began + median_run / 2 > seconds:
            break
    return setups, reps, last_tracer


def end_to_end(setups, reps):
    untraced = [r for r in reps if not r.traced]
    return {
        "run_s": statistics.median([r.run_s for r in untraced]),
        "setup_s": statistics.median(setups + [r.setup_s for r in reps]),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": statistics.median([r.work / r.run_s for r in untraced]),
    }


def per_layer(reps):
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    metrics = {name: statistics.median([r.layer[name] for r in traced])
               for name in traced[0].layer}
    metrics["trace.overhead_frac"] = (
        statistics.median([r.run_s for r in traced])
        / statistics.median([r.run_s for r in untraced]) - 1.0)
    return metrics


def report(workload, seed, reps, metrics, attempted, failed):
    kinds = "%d untraced, %d traced" % (
        sum(not r.traced for r in reps), sum(r.traced for r in reps))
    print("perfbench %s  seed %d  %d repetitions (%s)" % (
        workload.name, seed, len(reps), kinds))
    for rep in reps:
        print("  %-8s seed %-7d setup %.4f s  run %.4f s (host %.4f s, slowdown %.3f)"
              "  work %.6g %s  failed %d/%d%s" % (
            "traced" if rep.traced else "untraced", rep.seed, rep.setup_s, rep.run_s,
            rep.host_run_s, rep.slowdown, rep.work, workload.work_unit,
            len(rep.failed), rep.ops,
            "".join("  [%s]" % note for note in rep.notes)))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print("  %-36s %14.6g (%d of %d output checks)" % (
        "ops_failed_frac", stats.ops_failed_frac(failed, attempted), failed, attempted))


def layer_shares(metrics):
    """Print each layer's share of traced self time."""
    names = [name for name in metrics if name.endswith(".self_s")]
    total = sum(metrics[name][0] for name in names)
    print("  self-time shares of the traced run:")
    for name in names:
        share = metrics[name][0] / total if total else 0.0
        print("    %-16s %6.1f%%" % (name[:-len(".self_s")], 100.0 * share))


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {})
    setups, reps, tracer = measure(workload, args.seed, args.seconds, args.trace,
                                   recorded)
    attempted = sum(r.ops for r in reps)
    failed = sum(len(r.failed) for r in reps)
    if args.trace == 0:
        values, declared = end_to_end(setups, reps), config["end_to_end"]
    else:
        values, declared = per_layer(reps), config["per_layer"]
    # Exactly the metrics BENCHMARK.json declares, with its units.
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    if args.trace == 1:
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / ("%s.spans.npz" % workload.name)
        tracer.spans.save(span_file)
        print("  %d spans of the last traced run written to %s" % (
            len(tracer.spans), span_file.relative_to(ROOT)))
    report(workload, args.seed, reps, metrics, attempted, failed)
    if args.trace == 1:
        layer_shares(metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
