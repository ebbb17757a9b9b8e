"""The benchmark's own arithmetic: digests and failure counts.

Kept free of simulator imports so the tests in ``test_perfbench.py`` can
check it in isolation.
"""

import hashlib


def ops_failed_frac(failed, attempted):
    """Output checks failed divided by checks attempted."""
    if attempted <= 0:
        raise ValueError("no output checks were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%r outside [0, attempted=%r]" % (failed, attempted))
    return failed / attempted


def _canonical(value):
    """A stable text form: floats to 10 significant digits, containers recursed.

    Ten digits is far below any modelled quantity's meaning and far above
    last-bit differences a different numpy build could introduce.
    """
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, float):
        return "%.10g" % value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            "%s:%s" % (_canonical(key), _canonical(value[key]))
            for key in sorted(value, key=str)
        ) + "}"
    return repr(value)


def digest(value):
    """16-hex-digit SHA-256 of a value's canonical form."""
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()[:16]


def digest_outputs(ops, shared):
    """Digest every op's output and the outputs all ops share."""
    return {
        "ops": {op_id: digest(value) for op_id, value in ops.items()},
        "shared": digest(shared),
    }


def mismatched_ops(observed, expected):
    """Op ids whose digest differs from ``expected``.

    An op missing from either side counts as a mismatch, and a mismatch of
    the shared digest fails every op: a wrong output shared by all ops
    (a queue statistic, say) makes none of them trustworthy.
    """
    ops = set(observed["ops"]) | set(expected["ops"])
    if observed["shared"] != expected["shared"]:
        return ops
    return {
        op for op in ops
        if observed["ops"].get(op) != expected["ops"].get(op)
    }


def drifted_counters(first, other):
    """Names of counters whose values differ between two same-seed runs."""
    names = set(first) | set(other)
    return sorted(name for name in names if first.get(name) != other.get(name))
