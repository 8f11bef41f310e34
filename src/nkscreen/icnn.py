"""Input-convex scalar classifier with a box penalty output.

Architecture (depth k hidden layers of equal width):

    z_1 = relu(D_0 x + b_0)
    z_i = relu(W_{i-2} z_{i-1} + D_{i-1} x + b_{i-1}),  i = 2..k
    raw(x) = W_{k-1} z_k + D_k x + b_k                   (scalar)

All W entries are constrained nonnegative, which makes raw convex in x
(relu is convex and nondecreasing, and nonnegative combinations of convex
functions stay convex); the D skip connections are unconstrained.  The
classifier output adds a box penalty:

    forward(x) = max(raw(x), box_gain * box_violation(x))

so the predicted-feasible set {forward <= 0} is exactly
{raw <= 0} intersect box: a compact convex set whose support can be
maximized exactly by linear programming.  A point is classified feasible
iff forward(x) <= 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .artifacts import savez_deterministic

BOX_GAIN = 10.0


@dataclass
class IcnnParams:
    W: list          # W[i]: (w, w) for i < depth-1, (1, w) for the output
    D: list          # D[i]: (w, n) for i < depth, (1, n) for the output
    b: list          # b[i]: (w,) for i < depth, (1,) for the output
    box_lower: np.ndarray
    box_upper: np.ndarray
    box_gain: float = BOX_GAIN

    @property
    def depth(self):
        return len(self.W)

    @property
    def width(self):
        return self.D[0].shape[0]

    @property
    def n_inputs(self):
        return self.D[0].shape[1]

    def is_convex(self, tol=0.0):
        return all(Wi.min() >= -tol for Wi in self.W)

    def copy(self):
        return IcnnParams(
            W=[w.copy() for w in self.W],
            D=[d.copy() for d in self.D],
            b=[bb.copy() for bb in self.b],
            box_lower=self.box_lower.copy(),
            box_upper=self.box_upper.copy(),
            box_gain=self.box_gain,
        )

    def validate(self):
        k = self.depth
        if k < 1 or len(self.D) != k + 1 or len(self.b) != k + 1:
            raise ValueError("expected len(D) = len(b) = depth + 1")
        n, w = self.n_inputs, self.width
        for i in range(k):
            if self.D[i].shape != (w, n) or self.b[i].shape != (w,):
                raise ValueError(f"layer {i} shape mismatch")
        if self.D[k].shape != (1, n) or self.b[k].shape != (1,):
            raise ValueError("output layer shape mismatch")
        for i in range(k - 1):
            if self.W[i].shape != (w, w):
                raise ValueError(f"W[{i}] shape mismatch")
        if self.W[k - 1].shape != (1, w):
            raise ValueError("output W shape mismatch")
        if self.box_lower.shape != (n,) or self.box_upper.shape != (n,):
            raise ValueError("box shape mismatch")
        if np.any(self.box_lower >= self.box_upper):
            raise ValueError("box must have positive volume")
        if self.box_gain <= 0:
            raise ValueError("box_gain must be positive")
        return self


@dataclass
class IcnnGrads:
    W: list
    D: list
    b: list

    @staticmethod
    def zeros_like(params: IcnnParams):
        return IcnnGrads(
            W=[np.zeros_like(w) for w in params.W],
            D=[np.zeros_like(d) for d in params.D],
            b=[np.zeros_like(bb) for bb in params.b],
        )

    def add(self, other, alpha=1.0):
        for a, o in zip(self.W, other.W):
            a += alpha * o
        for a, o in zip(self.D, other.D):
            a += alpha * o
        for a, o in zip(self.b, other.b):
            a += alpha * o
        return self


def init_params(n_inputs, depth, width, box_lower, box_upper, seed=0,
                box_gain=BOX_GAIN) -> IcnnParams:
    """Uniform fan-in initialization; W starts nonnegative (absolute value)."""
    rng = np.random.default_rng(seed)
    box_lower = np.asarray(box_lower, dtype=float)
    box_upper = np.asarray(box_upper, dtype=float)
    W, D, b = [], [], []
    for i in range(depth + 1):
        rows = 1 if i == depth else width
        fan_in = n_inputs if i == 0 else n_inputs + width
        bound = 1.0 / np.sqrt(fan_in)
        D.append(rng.uniform(-bound, bound, size=(rows, n_inputs)))
        b.append(rng.uniform(-bound, bound, size=rows))
        if i >= 1:
            W.append(np.abs(rng.uniform(-bound, bound, size=(rows, width))))
    return IcnnParams(W=W, D=D, b=b, box_lower=box_lower, box_upper=box_upper,
                      box_gain=box_gain).validate()


def _as_batch(X, n):
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != n:
        raise ValueError(f"expected {n} input dims, got {X.shape[1]}")
    return X, single


def raw_forward(params: IcnnParams, X, want_cache=False):
    """Network value before the box penalty; optionally with activations."""
    X, single = _as_batch(X, params.n_inputs)
    k = params.depth
    pre = []
    acts = []
    z = None
    for i in range(k):
        p = X @ params.D[i].T + params.b[i]
        if i > 0:
            p = p + z @ params.W[i - 1].T
        z = np.maximum(p, 0.0)
        pre.append(p)
        acts.append(z)
    out = X @ params.D[k].T + params.b[k] + z @ params.W[k - 1].T
    out = out[:, 0]
    if want_cache:
        return out, (X, pre, acts)
    return out[0] if single else out


def box_violation(params: IcnnParams, X):
    """Signed distance-like box violation: positive outside, negative inside."""
    X, single = _as_batch(X, params.n_inputs)
    V = np.maximum(params.box_lower - X, X - params.box_upper)
    v = V.max(axis=1)
    return v[0] if single else v


def forward(params: IcnnParams, X):
    """Classifier output max(raw, box_gain * box_violation)."""
    X, single = _as_batch(X, params.n_inputs)
    raw = raw_forward(params, X)
    raw = np.atleast_1d(raw)
    pen = params.box_gain * box_violation(params, X)
    pen = np.atleast_1d(pen)
    out = np.maximum(raw, pen)
    return out[0] if single else out


def classify(params: IcnnParams, X):
    """True = predicted feasible (forward <= 0)."""
    out = forward(params, X)
    return out <= 0.0


def backward(params: IcnnParams, X, upstream=None, raw_only=False):
    """Gradients of sum_i upstream_i * forward(params, x_i).

    Returns (grads, dx).  Subgradient conventions: relu'(0) = 0; when the box
    penalty ties the raw value exactly, the raw branch is used; the box branch
    routes through the lowest-index maximizing dimension.  ``raw_only``
    differentiates raw() instead of forward() (no box branch).
    """
    X, single = _as_batch(X, params.n_inputs)
    B = X.shape[0]
    if upstream is None:
        upstream = np.ones(B)
    upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
    if upstream.shape != (B,):
        raise ValueError("upstream must have one entry per sample")
    raw, (Xb, pre, acts) = raw_forward(params, X, want_cache=True)
    k = params.depth
    grads = IcnnGrads.zeros_like(params)
    dx = np.zeros_like(Xb)

    if raw_only:
        u_raw = upstream
        u_box = np.zeros(B)
    else:
        V = np.maximum(params.box_lower - Xb, Xb - params.box_upper)
        viol = V.max(axis=1)
        box_active = params.box_gain * viol > raw
        u_raw = upstream * (~box_active)
        u_box = upstream * box_active
        if np.any(box_active):
            dstar = np.argmax(V, axis=1)
            rows = np.nonzero(box_active)[0]
            for i in rows:
                d = dstar[i]
                sign = 1.0 if Xb[i, d] - params.box_upper[d] >= params.box_lower[d] - Xb[i, d] else -1.0
                dx[i, d] += u_box[i] * params.box_gain * sign

    # raw branch: standard backprop through the relu stack
    g_out = u_raw[:, None]                      # (B, 1)
    grads.D[k] += g_out.T @ Xb
    grads.b[k] += g_out.sum(axis=0)
    grads.W[k - 1] += g_out.T @ acts[k - 1]
    dx += g_out @ params.D[k]
    gz = g_out @ params.W[k - 1]                # (B, w)
    for i in range(k - 1, -1, -1):
        gp = gz * (pre[i] > 0)
        grads.D[i] += gp.T @ Xb
        grads.b[i] += gp.sum(axis=0)
        dx += gp @ params.D[i]
        if i > 0:
            grads.W[i - 1] += gp.T @ acts[i - 1]
            gz = gp @ params.W[i - 1]
    if single:
        dx = dx[0]
    return grads, dx


def project_convex(params: IcnnParams) -> IcnnParams:
    """Clip all W entries to be nonnegative (in place); returns params."""
    for w in params.W:
        np.maximum(w, 0.0, out=w)
    return params


@dataclass
class ScaledClassifier:
    """A trained classifier with its certification scaling baked in.

    Classification evaluates forward(params, r * x + v), i.e. the predicted
    set becomes (S - v) / r where S = {f <= 0}; with r >= 1 this shrinks S
    toward v / r, and the certified (r, v) make the shrunken set a subset of
    the reference region.
    """

    params: IcnnParams
    r: float = 1.0
    v: np.ndarray | None = None
    mu: np.ndarray | None = None      # standardization of the training data
    sigma: np.ndarray | None = None
    dim_map: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def _shift(self):
        return np.zeros(self.params.n_inputs) if self.v is None else self.v

    def decision_values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return forward(self.params, self.r * X + self._shift())

    def predict_feasible(self, X):
        return self.decision_values(X) <= 0.0


def save_checkpoint(clf: ScaledClassifier, path):
    p = clf.params
    arrays = {
        "r": np.array(clf.r),
        "v": clf._shift(),
        "box_lower": p.box_lower,
        "box_upper": p.box_upper,
        "box_gain": np.array(p.box_gain),
        "depth": np.array(p.depth),
        "mu": np.zeros(p.n_inputs) if clf.mu is None else clf.mu,
        "sigma": np.ones(p.n_inputs) if clf.sigma is None else clf.sigma,
        "dim_map": np.arange(p.n_inputs) if clf.dim_map is None else clf.dim_map,
        "meta_json": np.array(json.dumps(clf.meta)),
    }
    for i, w in enumerate(p.W):
        arrays[f"W{i}"] = w
    for i, d in enumerate(p.D):
        arrays[f"D{i}"] = d
    for i, bb in enumerate(p.b):
        arrays[f"b{i}"] = bb
    savez_deterministic(path, **arrays)


def load_checkpoint(path) -> ScaledClassifier:
    with np.load(path, allow_pickle=False) as z:
        depth = int(z["depth"])
        params = IcnnParams(
            W=[z[f"W{i}"] for i in range(depth)],
            D=[z[f"D{i}"] for i in range(depth + 1)],
            b=[z[f"b{i}"] for i in range(depth + 1)],
            box_lower=z["box_lower"],
            box_upper=z["box_upper"],
            box_gain=float(z["box_gain"]),
        ).validate()
        clf = ScaledClassifier(
            params=params,
            r=float(z["r"]),
            v=z["v"],
            mu=z["mu"],
            sigma=z["sigma"],
            dim_map=z["dim_map"],
            meta=json.loads(str(z["meta_json"])),
        )
    return clf
