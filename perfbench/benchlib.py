"""Statistics and load-generation helpers shared by run.py and steady.py.

Pure functions only, so test_benchlib.py can pin their rules down.
"""

import bisect
import math
import os
import statistics
import time


def median(xs):
    return statistics.median(xs) if xs else 0.0


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return min(n, max(1, math.ceil(round(p * n / 100.0, 9))))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not xs:
        return 0.0
    return sorted(xs)[rank(len(xs), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p) if n else 0


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(xs, min_beyond=10):
    """The highest percentile on TAIL_LADDER with at least min_beyond
    samples beyond it, as (p, value, samples beyond); None when even the
    median has fewer."""
    for p in TAIL_LADDER:
        if beyond(len(xs), p) >= min_beyond:
            return p, percentile(xs, p), beyond(len(xs), p)
    return None


def middle_half(xs):
    """Indices of the middle half of xs by value (ranks n/4 .. 3n/4),
    at least one."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    lo = len(xs) // 4
    return order[lo:max(lo + 1, len(xs) - lo)]


def mean_at(xs, idx):
    return sum(xs[i] for i in idx) / len(idx) if idx else 0.0


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


# --- open-loop generator accounting -------------------------------------


def due_times(start, rate, count):
    """Send times of an open loop at a fixed rate: request i is due at
    start + i / rate, whatever happened to the requests before it."""
    return [start + i / rate for i in range(count)]


def latency_ms(due, received):
    """Latency from the due time, so a stall that delays later sends is
    charged to every request it delays."""
    return (received - due) * 1e3


def lateness_ms(due, sent):
    """How late the generator sent a request (never negative: a send is
    never early)."""
    return max(0.0, (sent - due) * 1e3)


def busy_segments(intervals):
    """The union of (sent, answered) intervals as disjoint sorted
    segments: the stretches during which at least one request was
    outstanding.  Requests per second of these is the rate the server
    sustains, whatever rate it is offered below that."""
    segs = []
    for a, b in sorted(intervals):
        if segs and a <= segs[-1][1]:
            segs[-1][1] = max(segs[-1][1], b)
        else:
            segs.append([a, b])
    return [(a, b) for a, b in segs]


def ref_at(samples, t):
    """The reference kernel's time at moment t, from time-sorted
    (moment, ms) samples: the mean of the last sample at or before t
    and the first after it, or the one that exists."""
    i = bisect.bisect_right([m for m, _ in samples], t)
    near = samples[max(0, i - 1):i + 1]
    return sum(ms for _, ms in near) / len(near)


def slo_attainment(outcomes, limit_ms):
    """Share of requests answered correctly within limit_ms.  outcomes
    are (ok, latency_ms) pairs; a failed, refused or unanswered request
    (ok false, latency possibly None) is a miss."""
    if not outcomes:
        return 0.0
    met = sum(1 for ok, lat in outcomes if ok and lat is not None and lat <= limit_ms)
    return met / len(outcomes)


# --- host ---------------------------------------------------------------


def cpu_times():
    """The aggregate cpu line of /proc/stat: (total jiffies, steal)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0, 0
    vals = [int(v) for v in fields[1:9]]
    steal = vals[7] if len(vals) > 7 else 0
    return sum(vals), steal


def steal_share(before, after):
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def cpu_speed(seconds=0.2):
    """Millions of iterations per second of a fixed pure-Python loop: a
    probe of how fast the host runs us right now (on a shared host it
    moves in phases of seconds), printed beside the results to explain
    outlying runs, never used to correct them."""
    n, t0 = 0, time.monotonic()
    while time.monotonic() - t0 < seconds:
        for i in range(1000):
            n += 1
    return n / (time.monotonic() - t0) / 1e6


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
