"""Seeded inputs, ground-truth labels, process counters and the
reference-speed clocks shared by the phases."""

import bisect
import resource
import threading
import time

import numpy as np

from nkscreen.cli import resolve_case
from nkscreen.datagen import DemandSampler
from nkscreen.grid import load_network

# The reference dataset draws its demands from streams 0, 1, 2, ... of the
# seed-0 demand model.  Benchmark streams start far above those, one block
# of 1,000 per seed, so they never overlap the dataset's.
STREAM_BASE = 10 ** 9

LABEL_CHUNK = 32   # injections per region_full sweep: 32 x 52,606 doubles


def load_case():
    return load_network(resolve_case("case39"))


def demand_model(net, scale=1.0):
    """The demand distribution the reference artifacts were sampled from,
    with its nominal demand multiplied by scale."""
    return DemandSampler(nominal=net.demand * scale, rel_std=0.15, seed=0)


def stream_for(seed):
    return STREAM_BASE + 1000 * seed


def insecure_labels(region_full, X):
    """Ground truth (True = insecure) from a chunked sweep of region_full.

    Chunking keeps the sweep's temporaries at a few MB, so the benchmark's
    own labelling never sets the process's peak RSS.  Returns the labels
    and the sweep's seconds per injection.
    """
    out = np.empty(len(X), dtype=bool)
    t0 = time.perf_counter()
    for start in range(0, len(X), LABEL_CHUNK):
        stop = start + LABEL_CHUNK
        out[start:stop] = ~region_full.membership(X[start:stop])
    return out, (time.perf_counter() - t0) / len(X)


def process_totals():
    """Minor page faults and sys time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"minor_faults": usage.ru_minflt, "sys_s": usage.ru_stime}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class SpeedProbe:
    """A fixed reference kernel that measures how fast the CPU runs now.

    Other tenants of a shared machine slow its CPU for stretches that last
    from a fraction of a second to about a minute.  Code made of many small
    numpy calls, which is most of nkscreen, then runs 1.7-1.9x slower, while
    large matrix products slow much less.  The kernel is therefore a fixed
    loop of small numpy calls, shaped like one classifier evaluation.  Its
    arrays stay far below the size at which numpy releases the interpreter
    lock, so a kernel run on a background thread is not stretched by the
    main thread taking the lock mid-run.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random(39)
        self._cols = np.arange(24)
        self._mu = rng.random(24)
        self._sigma = rng.random(24) + 1.0
        self._w = rng.random((3, 24))

    def run(self):
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        for _ in range(20):
            u = (np.atleast_2d(self._x)[:, self._cols] - self._mu) / self._sigma
            for w in self._w:
                np.maximum(u * w + 1.0, 0.0).max()
        return time.perf_counter() - t0


class VectorProbe:
    """A fixed array kernel shaped like one 256-injection classifier batch.

    A batch is a few whole-array numpy operations, which other tenants slow
    about half as much, in log terms, as the small-call SpeedProbe kernel,
    and about as much as this kernel.  Its arrays are large enough for numpy
    to release the interpreter lock, so it runs on the calling thread,
    between timed chunks, not on the clock's background thread.
    """

    REF_S = 0.2e-3    # kernel seconds at the reference CPU speed

    def __init__(self, rows=256):
        rng = np.random.default_rng(0)
        self._x = rng.random((rows, 39))
        self._cols = np.arange(24)
        self._mu = rng.random(24)
        self._sigma = rng.random(24) + 1.0
        self._w1 = rng.random((24, 50))
        self._b1 = rng.random(50)
        self._w2 = rng.random(50)
        self._skip = rng.random(24)

    def run(self):
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        for _ in range(4):
            u = (self._x[:, self._cols] - self._mu) / self._sigma
            h = np.maximum(u @ self._w1 + self._b1, 0.0)
            (h @ self._w2 + u @ self._skip).max()
        return time.perf_counter() - t0

    def factor(self):
        """REF_S over the faster of two kernel passes run now."""
        return self.REF_S / min(self.run(), self.run())


class RefClock:
    """Times work and converts it to the CPU speed of a reference machine.

    A background thread runs the SpeedProbe kernel every INTERVAL seconds
    and keeps (time, kernel seconds).  The wall time of a timed call is
    scaled by REF_PROBE_S over the kernel time during the call (see
    factor), which gives the time the call takes with the CPU at the speed
    where the kernel takes REF_PROBE_S.  On a steady machine the factor is constant,
    so a comparison between two commits is unchanged by it.  Without it,
    run-to-run spreads on a shared 2-core x86 machine reached 20-50%.  The
    kernel holds the interpreter lock for about 1% of the time, and the
    unscaled seconds and the factors go into the report line.
    """

    REF_PROBE_S = 0.25e-3
    INTERVAL = 0.025
    LOOKBACK = 0.1    # short calls take the median of the last few samples

    def __init__(self):
        self.probe = SpeedProbe()
        self._times, self._values = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        while len(self._values) < 4:
            time.sleep(self.INTERVAL)
        self.factors = []
        self.raw_s = 0.0

    def _sample(self):
        while not self._stop.wait(self.INTERVAL):
            t = time.perf_counter()
            self._values.append(self.probe.run())
            self._times.append(t)

    def close(self):
        self._stop.set()
        self._thread.join()

    def factor(self, t0, t1):
        """REF_PROBE_S over the kernel time, averaged over [t0, t1].

        Samples are evenly spaced in time, so their mean factor weights each
        CPU speed by how long it lasted; a trimmed mean drops kernel runs
        that were preempted.  A short call has few samples and takes the
        median of the last LOOKBACK seconds instead.
        """
        n = len(self._times)     # the sampler only appends
        lo = bisect.bisect_left(self._times, t0 - self.LOOKBACK, 0, n)
        hi = bisect.bisect_right(self._times, t1, 0, n)
        window = self._values[lo:hi] if hi > lo else self._values[n - 1:n]
        factors = np.sort(self.REF_PROBE_S / np.asarray(window))
        if len(factors) < 10:
            return float(np.median(factors))
        cut = len(factors) // 10
        return float(factors[cut:len(factors) - cut].mean())

    def time(self, work, *args):
        """(result, reference seconds, factor) of work(*args)."""
        t0 = time.perf_counter()
        out = work(*args)
        t1 = time.perf_counter()
        factor = self.factor(t0, t1)
        self.factors.append(factor)
        self.raw_s += t1 - t0
        return out, (t1 - t0) * factor, factor

    def report(self):
        return {"timed_calls": len(self.factors),
                "raw_seconds": self.raw_s,
                "probe_samples": len(self._values),
                "factor_median": float(np.median(self.factors)),
                "factor_min": float(np.min(self.factors)),
                "factor_max": float(np.max(self.factors))}


def median_setup(clock, setup, repeats=3):
    """Run setup repeats times; (last result, median reference seconds)."""
    times = []
    state = None
    for _ in range(repeats):
        state = None          # free the previous copy before loading again
        state, ref_s, _ = clock.time(setup)
        times.append(ref_s)
    return state, float(np.median(times))
