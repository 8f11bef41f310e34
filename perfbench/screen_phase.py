"""Screening phase: the certified classifier on batches and on single
injections.

No LP runs here, so this phase is the no-change control for every lp or
oracle change: the ICNN forward pass and the standardization are all of its
timed work.  Batch and single-injection calls are closed loops, one call at
a time from one process, timed in chunks of about 20 ms: batch chunks are
scaled by VectorProbe, single chunks by RefClock.
"""

import time

import numpy as np

from nkscreen.baselines import screen_batch
from nkscreen.icnn import ScaledClassifier

from common import VectorProbe, insecure_labels, minor_faults
from spans import maybe_span

# Injections per batch call.  At 2,000 (the test split) the batch is
# memory-bound and its ten-run spread on a shared machine reached 25%; at
# 256 its arrays stay in cache and it is as steady as the single calls.
BATCH = 256
BATCHES_PER_CHUNK = 80    # timed chunk: about 20 ms of batches
SINGLES_PER_CHUNK = 600   # timed chunk: about 20 ms of single calls
SWEEP_CHUNK = 125     # injections per region_full sweep in the baseline


def reduced_screen(region, X):
    """Exact-region sweep: True = insecure.

    The exact region equals region_full only inside its box, so a point
    outside the box is flagged insecure (a sound, conservative answer).
    """
    U = region.project(X)
    outside = ((U < region.box_lower) | (U > region.box_upper)).any(axis=1)
    return outside | ((U @ region.A.T - region.b).max(axis=1) > 0.0)


def run(state, X, seconds, tracer, clock):
    """Screens X, the dispatch phase's DC-OPF-dispatched injections."""
    clf, ds, region_full = state["clf"], state["ds"], state["region_full"]
    offsets = range(0, len(X) - BATCH + 1, BATCH // 2)
    insecure, membership_s = insecure_labels(region_full, X)

    # correctness gate on every injection: a missed insecure injection is a
    # failure
    feasible = clf.predict_feasible(ds.standardized(X))
    flagged = ~feasible
    missed = int(np.sum(feasible & insecure))
    secure = ~insecure
    fpr = float(flagged[secure].mean())
    failed = missed
    attempted = len(X)

    if tracer is not None:
        tracer.wrap(ScaledClassifier, "predict_feasible",
                    "icnn.predict_feasible")

    def batches(first):
        times, faults, bad = [], [], 0
        for k in range(first, first + BATCHES_PER_CHUNK):
            lo = offsets[k % len(offsets)]
            f0 = minor_faults()
            with maybe_span(tracer, "screen.batch"):
                t0 = time.perf_counter()
                pred = clf.predict_feasible(ds.standardized(X[lo:lo + BATCH]))
                times.append(time.perf_counter() - t0)
            faults.append(minor_faults() - f0)
            bad += int(np.sum(pred != feasible[lo:lo + BATCH]))
        return times, faults, bad

    def singles(first):
        times, bad = [], 0
        for j in range(first, first + SINGLES_PER_CHUNK):
            x = X[j % len(X)]
            with maybe_span(tracer, "screen.single"):
                t0 = time.perf_counter()
                pred = clf.predict_feasible(ds.standardized(x))
                times.append(time.perf_counter() - t0)
            bad += int(pred[0] != feasible[j % len(X)])
        return times, bad

    # Batch and single chunks alternate over the whole budget, so both see
    # the same mix of CPU states.  A batch chunk is scaled by the vector
    # kernel run just before and just after it, a single chunk by the clock.
    vector = VectorProbe(BATCH)
    batch_s, batch_faults, single_s, vector_factors = [], [], [], []
    t_end = time.perf_counter() + seconds
    first_batch = first_single = 0
    while first_batch == 0 or time.perf_counter() < t_end:
        before = vector.factor()
        times, faults, bad = batches(first_batch)
        factor = (before + vector.factor()) / 2
        vector_factors.append(factor)
        batch_s += [t * factor for t in times]
        batch_faults += faults
        failed += bad
        attempted += BATCH * BATCHES_PER_CHUNK
        first_batch += BATCHES_PER_CHUNK

        (times, bad), _, factor = clock.time(singles, first_single)
        single_s += [t * factor for t in times]
        failed += bad
        attempted += SINGLES_PER_CHUNK
        first_single += SINGLES_PER_CHUNK

    single_us = np.asarray(single_s) * 1e6
    e2e = {
        "screen_batch_sps": (BATCH / float(np.median(batch_s)), "1/s"),
        "screen_single_us_p50": (float(np.percentile(single_us, 50)), "us"),
        "screen_fpr": (fpr, "fraction"),
    }
    report = {
        # printed, not gated: on a shared 2-core machine the tail moved by
        # up to 26% between runs of the same code
        "screen_single_us_p90": float(np.percentile(single_us, 90)),
        "batch_size": BATCH,
        "vector_factor_median": float(np.median(vector_factors)),
        "batch_calls": len(batch_faults),
        "single_calls": len(single_s),
        "injections": len(X),
        "insecure": int(insecure.sum()),
        "missed_insecure": missed,
        "false_alarms": int(np.sum(flagged & secure)),
    }
    layers = {}
    if tracer is not None:
        tracer.unwrap_all()
        layers, extra = _layers(tracer, X, insecure, region_full,
                                state["exact"], batch_faults, membership_s)
        report.update(extra)
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "report": report}


def _layers(tracer, X, insecure, region_full, region_exact, batch_faults,
            membership_s):
    """Per-layer numbers, all in raw seconds like the baselines' sweeps."""
    icnn = tracer.named("icnn.predict_feasible", under="screen.batch")
    forward_us = tracer.mean_duration(icnn) / BATCH * 1e6
    batches = tracer.named("screen.batch")
    icnn_us = float(np.median([tracer.duration(i) for i in batches])) \
        / BATCH * 1e6
    Xb = X[:BATCH]

    with tracer.span("baselines.full_sweep"):
        t0 = time.perf_counter()
        full = np.concatenate([screen_batch(region_full, Xb[i:i + SWEEP_CHUNK],
                                            early_exit=False)
                               for i in range(0, BATCH, SWEEP_CHUNK)])
        full_us = (time.perf_counter() - t0) / BATCH * 1e6

    reduced_times = []
    for _ in range(20):
        with tracer.span("baselines.reduced_sweep"):
            t0 = time.perf_counter()
            reduced = reduced_screen(region_exact, Xb)
            reduced_times.append(time.perf_counter() - t0)
    reduced_us = float(np.median(reduced_times)) / BATCH * 1e6

    layers = {
        "icnn.forward_us_per_sample": (forward_us, "us"),
        "icnn.minor_faults_per_batch":
            (float(np.median(batch_faults)), "count"),
        "region.membership_us_per_sample": (membership_s * 1e6, "us"),
        "baselines.screen_icnn_us_per_sample": (icnn_us, "us"),
        "baselines.full_sweep_us_per_sample": (full_us, "us"),
        "baselines.reduced_sweep_us_per_sample": (reduced_us, "us"),
        "baselines.screen_speedup_vs_full": (full_us / icnn_us, "x"),
        "baselines.screen_speedup_vs_reduced": (reduced_us / icnn_us, "x"),
    }
    extra = {
        "full_sweep_errors": int(np.sum((full == 1) != insecure[:BATCH])),
        "reduced_sweep_errors": int(np.sum(reduced != insecure[:BATCH])),
        "reduced_region_rows": int(region_exact.n_rows),
        "speedup_bases": "classifier batch us/sample vs each sweep's "
                         f"us/sample, same {BATCH} injections",
    }
    return layers, extra
