"""Training phase: a short training on the exact region, then certification.

Warm objective re-solves are almost all of a training run's time, so a
change to the support LPs (a basis per region row, fewer refactorisations)
shows in train_s.  Certification of the reference checkpoint against the
support region is one sweep with no basis reuse across epochs: the same
change should leave certify_s nearly where it is.
"""

import time

import numpy as np

import nkscreen.oracle as oracle_mod
import nkscreen.training as training_mod
from nkscreen.lp import NumericalFailure
from nkscreen.oracle import ScalingOracle, certify
from nkscreen.training import CertificationFailed, TrainingConfig, train

from spans import maybe_span, wrap_simplex

# The reference architecture on a schedule short enough for a run: 1.5-4 s
# per training on a shared 2-core machine, most of it in support LPs.  The
# learning-rate decays of the reference schedule (225, 1275) fall after its
# end.
WARM_EPOCHS = 20
SCALING_EPOCHS = 4
MIN_TRAININGS = 1     # train_s is the median of at least this many runs
# Each run certifies every CERTIFY_STRIDE-th row of the 2,386-row support
# region (298 rows), the same rows every run: rows differ in pivot counts,
# so rows picked by the seed would add their differences to certify_s.  A
# full sweep takes about 24 s on a shared 2-core machine.
CERTIFY_STRIDE = 8


def config(warm_epochs=WARM_EPOCHS, scaling_epochs=SCALING_EPOCHS):
    """The reference training flags, seed 0 included, on a short schedule.

    The run seed does not enter: a different training seed changes the
    work of a training by up to 20%, which would hide the changes this
    phase is meant to show.
    """
    return TrainingConfig(depth=1, width=50, warm_epochs=warm_epochs,
                          scaling_epochs=scaling_epochs, batch_size=128,
                          positive_class_weight=1.0, learning_rate=0.01,
                          decay_epochs=(225, 1275), seed=0)


def _install(tracer):
    wrap_simplex(tracer)
    tracer.wrap(ScalingOracle, "rescale", "oracle.rescale",
                lambda res: {"n_lp": int(res.n_lp)})
    tracer.wrap(training_mod, "warm_epoch", "training.warm_epoch")
    tracer.wrap(training_mod, "scaling_epoch", "training.scaling_epoch")
    tracer.wrap(training_mod, "backward", "icnn.backward")
    tracer.wrap(oracle_mod, "backward", "icnn.backward")


def run(state, seconds, tracer, clock):
    ds, Z, exact = state["ds"], state["Z"], state["exact"]
    y = ds.labels
    cfg = config()
    args = (exact.A, exact.b, Z[ds.train], y[ds.train], Z[ds.val], y[ds.val])
    box = (None, exact.box_lower, exact.box_upper)
    # untimed one-epoch-each run first: the first training in a process is
    # about 10% slower (allocator and code warm-up)
    train(*args, config(1, 1), *box)
    if tracer is not None:
        _install(tracer)

    attempted = failed = 0
    train_times, outcomes = [], []
    t_end = time.perf_counter() + seconds
    while attempted < MIN_TRAININGS or time.perf_counter() < t_end:
        attempted += 1
        with maybe_span(tracer, "training.train"):
            try:
                (clf, record), ref_s, _ = clock.time(train, *args, cfg, *box)
            except (CertificationFailed, NumericalFailure, RuntimeError):
                failed += 1
                continue
        train_times.append(ref_s)
        outcomes.append((clf.r, record.best_epoch))
    if not outcomes:
        raise RuntimeError(f"all {attempted} trainings failed")
    # every repetition must give the same classifier
    failed += sum(1 for o in outcomes[1:] if o != outcomes[0])

    ref = state["clf"]
    support = state["support"]
    rows = np.arange(0, support.n_rows, CERTIFY_STRIDE)
    with maybe_span(tracer, "oracle.certify"):
        report, certify_s, _ = clock.time(
            certify, ref.params, support.A[rows], support.b[rows], ref.r,
            ref.v, state["sublevel"])
    attempted += report.n_lp
    bad_rows = len(report.violations) + len(report.failed_rows)
    failed += bad_rows if bad_rows else int(not report.reliable)

    e2e = {
        "train_s": (float(np.median(train_times)), "s"),
        "certify_s": (certify_s, "s"),
    }
    report_out = {
        "schedule": {"warm_epochs": WARM_EPOCHS,
                     "scaling_epochs": SCALING_EPOCHS, "seed": cfg.seed},
        "trainings": len(train_times),
        "train_seconds": train_times,
        "certify_verdict": report.verdict,
        "certify_rows": len(rows),
        "certify_stride": CERTIFY_STRIDE,
        "worst_margin": float(report.margins.min()),
    }
    report_out["final_r"], report_out["best_epoch"] = outcomes[0]
    layers = {}
    if tracer is not None:
        tracer.unwrap_all()
        layers = _layers(tracer, exact.n_rows, report.n_lp, outcomes)
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "report": report_out}


def _layers(tracer, region_rows, certify_lps, outcomes):
    """Per-layer numbers from the first training and the certification.

    Counts come from the first training only, so they repeat exactly; the
    timings are raw span seconds over the same spans.
    """
    first = tracer.named("training.train")[0]

    support = [i for root in (first, tracer.named("oracle.certify")[0])
               for i in tracer.outermost(tracer.within("lp.resolve_objective", root),
                                         "lp.")]
    reloads = tracer.outermost(tracer.within("lp.reload", first), "lp.")
    rescales = tracer.within("oracle.rescale", first)
    scaling = tracer.within("training.scaling_epoch", first)
    warm = tracer.within("training.warm_epoch", first)
    backward = tracer.within("icnn.backward", first)
    steps = []
    for i in scaling:
        inner = [j for j in rescales if tracer.spans[j][3] == i]
        steps.append(tracer.duration(i) - sum(tracer.duration(j)
                                              for j in inner))
    n_lp = tracer.attr_values(rescales, "n_lp")
    pivots = tracer.attr_values(support, "pivots")
    r, best_epoch = outcomes[0]
    return {
        "lp.support_lp_ms": (tracer.mean_duration(support) * 1e3, "ms"),
        "lp.support_lp_pivots": (float(np.mean(pivots)), "pivots"),
        "lp.reload_ms": (tracer.mean_duration(reloads) * 1e3, "ms"),
        "oracle.rescale_ms": (tracer.mean_duration(rescales) * 1e3, "ms"),
        "oracle.rescale_lps": (int(sum(n_lp)), "count"),
        # the last rescale of a training is the exact full sweep
        "oracle.rescale_rows_pruned":
            (float(np.mean([region_rows - n for n in n_lp[:-1]])), "rows"),
        "oracle.certify_lps": (int(certify_lps), "count"),
        "training.warm_epoch_ms": (tracer.mean_duration(warm) * 1e3, "ms"),
        "training.scaling_epoch_ms":
            (tracer.mean_duration(scaling) * 1e3, "ms"),
        "training.step_ms": (float(np.mean(steps)) * 1e3, "ms"),
        "training.final_r": (float(r), "ratio"),
        "training.best_epoch": (int(best_epoch), "count"),
        "icnn.backward_ms": (tracer.mean_duration(backward) * 1e3, "ms"),
    }

