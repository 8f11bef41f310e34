"""The benchmark's modules against this tree.

perfbench/ drives the program through names it imports from nkscreen and
through the call shapes below.  A name removed or renamed here, or a
changed call shape, fails these tests instead of a benchmark run.  Nothing
is written under perfbench/: bytecode writing is off while its modules load.
"""

import ast
import importlib
import inspect
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
BENCH = os.path.join(ROOT, "perfbench")
MODULES = ("common", "spans", "workload", "train_phase", "screen_phase",
           "dispatch_phase")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in BLAS_VARS:  # workload sets them when imported
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    yield
    for name in (*MODULES, "build"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(bench, name):
    importlib.import_module(name)


def _bench_trees():
    for fname in sorted(os.listdir(BENCH)):
        if fname.endswith(".py"):
            with open(os.path.join(BENCH, fname)) as fh:
                yield fname, ast.parse(fh.read(), fname)


def test_every_nkscreen_name_resolves():
    """Imports inside functions included, and attributes of imported
    nkscreen modules, named directly or as a wrapped attribute's string."""
    missing = []
    for fname, tree in _bench_trees():
        bound = {}  # local name -> nkscreen module or object
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nkscreen"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(mod, alias.name):
                        bound[alias.asname or alias.name] = getattr(mod, alias.name)
                    else:
                        missing.append(f"{fname}: {node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("nkscreen"):
                        bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and inspect.ismodule(bound.get(node.value.id))
                    and not hasattr(bound[node.value.id], node.attr)):
                missing.append(f"{fname}: {node.value.id}.{node.attr}")
            # tracer.wrap(owner, "attr", ...)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wrap" and len(node.args) >= 2
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in bound
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                    and not hasattr(bound[node.args[0].id], node.args[1].value)):
                missing.append(f"{fname}: {node.args[0].id}.{node.args[1].value}")
    assert missing == []


def test_call_shapes():
    import numpy as np
    from helpers import mesh5

    from nkscreen.baselines import screen_batch
    from nkscreen.datagen import ScreeningDataset
    from nkscreen.grid import DcopfSolver
    from nkscreen.icnn import ScaledClassifier, init_params
    from nkscreen.oracle import ScalingOracle, SublevelSolver, certify
    from nkscreen.region import build_region
    from nkscreen.scopf import solve_scopf_full, solve_scopf_icnn
    from nkscreen.training import train

    x = object()
    inspect.signature(certify).bind(x, x, x, x, x, x)
    inspect.signature(SublevelSolver).bind(x)
    inspect.signature(DcopfSolver).bind(x)
    inspect.signature(DcopfSolver.solve).bind(x, x)  # solver.solve(d)
    inspect.signature(ScalingOracle.rescale).bind(x, x)
    inspect.signature(solve_scopf_full).bind(x, x, x)
    inspect.signature(solve_scopf_icnn).bind(x, x, x)
    inspect.signature(screen_batch).bind(x, x, early_exit=False)
    inspect.signature(train).bind(*[x] * 10)

    # screen_phase screens one injection as predict_feasible(standardized(x))
    # and reads pred[0]; dispatch_phase reads project(x)[0]
    ds = ScreeningDataset(np.arange(20.0).reshape(5, 4), np.zeros(5), (3, 1, 1),
                          mu=np.full(3, 0.5), sigma=np.full(3, 2.0),
                          dim_map=np.array([0, 2, 3]))
    clf = ScaledClassifier(params=init_params(3, 1, 4, -np.ones(3), np.ones(3)))
    u = ds.standardized(ds.x[1])
    assert u.shape == (1, 3)
    pred = clf.predict_feasible(u)
    assert pred.shape == (1,) and pred.dtype == bool
    assert clf.predict_feasible(ds.standardized(ds.x[:4])).shape == (4,)
    region = build_region(mesh5(), 1)
    assert region.project(np.zeros(region.n_full)).shape == (1, region.dim)



def test_region_build_goes_through_region_ptdf(monkeypatch):
    """dispatch_phase times grid.ptdf by wrapping nkscreen.region.ptdf; a
    build that stopped calling that name would leave the metric empty."""
    import nkscreen.region as region_mod
    from helpers import mesh5

    calls = []
    original = region_mod.ptdf

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(region_mod, "ptdf", counted)
    region = region_mod.build_region(mesh5(), 2)
    assert len(calls) >= 1
    assert region.n_rows > 0


def test_simplex_spans_feed_every_lp_layer(bench):
    """The lp.* means of train_phase._layers and dispatch_phase._layers are
    taken over the outermost simplex spans below their roots; an empty set
    gives a NaN mean and a result line that is not JSON.  A tiny pipeline
    on mesh5 must leave every one of those sets non-empty, each span with
    its pivot count; its DC-OPF draws include one that leaves the nominal
    basis, which only the engine answers the first time.  Like train_phase, the certification runs on a fresh
    solver: on the rescale's solver every row has a kept basis, so its
    sweep runs as a batch and passes through no ``resolve_objective``."""
    import copy

    import numpy as np
    from helpers import mesh5

    from nkscreen import scopf
    from nkscreen.datagen import DemandSampler, sample_demands
    from nkscreen.grid import DcopfSolver
    from nkscreen.icnn import ScaledClassifier, forward, init_params
    from nkscreen.oracle import ScalingOracle, SublevelSolver, certify
    from nkscreen.region import build_region

    spans = importlib.import_module("spans")
    net = mesh5()
    region = build_region(net, 1)
    params = init_params(net.n, 1, 8, np.full(net.n, -6.0),
                         np.full(net.n, 6.0), seed=0)
    params.b[-1] -= forward(params, np.zeros((1, net.n)))[0] + 1.0
    demands = sample_demands(DemandSampler(net.demand, rel_std=0.1, seed=0), 4)
    tracer = spans.Tracer("test")
    spans.wrap_simplex(tracer)
    try:
        with tracer.span("training.train"):
            oracle = ScalingOracle(params, region.A, region.b)
            for shift in (0.0, 0.1):
                params = copy.deepcopy(params)
                params.b[-1] -= shift
                with tracer.span("oracle.rescale"):
                    scale = oracle.rescale(params)
        with tracer.span("oracle.certify"):
            certify(params, region.A, region.b, scale.r, None,
                    SublevelSolver(params))
        with tracer.span("dispatch.draws"):
            dcopf = DcopfSolver(net)
            # the nominal basis answers these four demands without the
            # engine; at twice the nominal demand the cheap generator
            # reaches pmax, so that draw derives a node and re-solves, as
            # the first draws leaving the nominal basis do in every run
            for d in [*demands, 2.0 * net.demand]:
                dcopf.solve(d)
        scopf._icnn_lps.clear()
        clf = ScaledClassifier(params=params, r=scale.r)
        for d in demands[:2]:
            with tracer.span("scopf.solve_scopf_icnn"):
                scopf.solve_scopf_icnn(net, d, clf)
    finally:
        tracer.unwrap_all()
        scopf._icnn_lps.clear()

    lp_spans = [s for s in tracer.spans if s[0].startswith("lp.")]
    assert lp_spans and all("pivots" in s[4] for s in lp_spans)

    def outermost_under(name, root):
        return [i for r in tracer.named(root)
                for i in tracer.outermost(tracer.within(name, r), "lp.")]

    for name, root in (("lp.resolve_objective", "oracle.rescale"),
                       ("lp.resolve_objective", "oracle.certify"),
                       ("lp.reload", "oracle.rescale"),
                       ("lp.resolve_rhs", "dispatch.draws"),
                       ("lp.solve", "scopf.solve_scopf_icnn"),
                       # each classifier dispatch's own re-solve
                       ("lp.resolve_rhs", "scopf.solve_scopf_icnn")):
        found = outermost_under(name, root)
        assert found, (name, root)
        assert np.isfinite(tracer.mean_duration(found))
        assert np.isfinite(np.mean(tracer.attr_values(found, "pivots")))


def test_training_spans_feed_every_training_layer(bench):
    """train_phase._layers reads the training, oracle and icnn.backward
    spans of the first training.  A tiny training under its wrappers must
    give one icnn.backward span per warm mini-batch step, one or two per
    scaled step (the r-gradient's), and a finite value for every layer."""
    import math

    import numpy as np
    from helpers import square_toy

    from nkscreen.oracle import certify
    from nkscreen.training import TrainingConfig, train

    spans = importlib.import_module("spans")
    train_phase = importlib.import_module("train_phase")
    # the start of test_training's TestTrain run
    A, b, X, y = square_toy(500, lim=1.2, seed=6)
    cfg = TrainingConfig(depth=1, width=8, warm_epochs=15, scaling_epochs=2,
                         batch_size=64, seed=0)
    tracer = spans.Tracer("test")
    train_phase._install(tracer)
    try:
        with tracer.span("training.train"):
            clf, record = train(A, b, X[:350], y[:350], X[350:], y[350:],
                                cfg, box_lower=np.full(2, -2.4),
                                box_upper=np.full(2, 2.4))
        with tracer.span("oracle.certify"):
            report = certify(clf.params, A, b, clf.r)
    finally:
        tracer.unwrap_all()

    steps = math.ceil(350 / cfg.batch_size)
    for epoch, (lo, hi) in (("training.warm_epoch", (1, 1)),
                            ("training.scaling_epoch", (1, 2))):
        for i in tracer.named(epoch):
            n = len(tracer.within("icnn.backward", i))
            assert lo * steps <= n <= hi * steps, (epoch, n)
    layers = train_phase._layers(tracer, len(b), report.n_lp,
                                 [(clf.r, record.best_epoch)])
    assert all(np.isfinite(value) for value, _ in layers.values()), layers
