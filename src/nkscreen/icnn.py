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

Training works on one parameter vector.  The W, D and b lists of
IcnnParams are views of one float64 vector, ``flat`` (W, then D, then b,
each array row-major), and IcnnGrads lays out its vector the same way.  An
optimizer step or the convexity projection is then one numpy call over the
vector instead of one per array, with the same arithmetic on every entry.
``forward(..., want_cache=True)`` returns the pass (a ``ForwardPass``)
that ``backward`` takes in place of the batch, so a mini-batch step
evaluates the network and its box term once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .artifacts import savez_deterministic

BOX_GAIN = 10.0


def _views(vec, params):
    """Views of vec shaped like params' W, D and b, back to back in that
    order, as three lists."""
    lists, at = [], 0
    for group in (params.W, params.D, params.b):
        views = []
        for a in group:
            views.append(vec[at:at + a.size].reshape(a.shape))
            at += a.size
        lists.append(views)
    return lists


@dataclass
class IcnnParams:
    """Weight lists W, D and b that are views of one float64 vector, and
    the box of the penalty.

    ``flat`` is that vector, laid out as ``_views`` lays it out.  It is
    packed at its first use, and packed anew (a copy) once an entry of the
    lists has been assigned since, so assigning an entry stays a way to
    change the weights.  Copies, deep copies and pickles do not share it.
    """

    W: list          # W[i]: (w, w) for i < depth-1, (1, w) for the output
    D: list          # D[i]: (w, n) for i < depth, (1, n) for the output
    b: list          # b[i]: (w,) for i < depth, (1,) for the output
    box_lower: np.ndarray
    box_upper: np.ndarray
    box_gain: float = BOX_GAIN
    _packed = None      # (the vector, the list entries that view it)

    @property
    def flat(self):
        arrays = self.W + self.D + self.b
        packed = self._packed
        if (packed is None or len(arrays) != len(packed[1])
                or any(a is not v for a, v in zip(arrays, packed[1]))):
            vec = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
            W, D, b = _views(vec, self)
            self.W[:], self.D[:], self.b[:] = W, D, b
            packed = self._packed = (vec, W + D + b)
        return packed[0]

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_packed", None)
        return state

    @property
    def depth(self):
        return len(self.W)

    @property
    def width(self):
        return self.D[0].shape[0]

    @property
    def n_inputs(self):
        return self.D[0].shape[1]

    def is_convex(self):
        return all(Wi.min() >= 0.0 for Wi in self.W)

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
        if not (np.isfinite(self.box_lower).all()
                and np.isfinite(self.box_upper).all()):
            raise ValueError("box must be finite")
        if np.any(self.box_lower >= self.box_upper):
            raise ValueError("box must have positive volume")
        # screening answers membership by comparison, which equals the sign
        # of forward only when box_gain * V > 0 for every V > 0: below 1 the
        # product can underflow to 0 and admit a point past a box face
        if not 1.0 <= self.box_gain < np.inf:
            raise ValueError("box_gain must be finite and at least 1, so "
                             "that box_gain * violation cannot round to 0")
        return self


@dataclass
class IcnnGrads:
    """Gradients shaped like W, D and b: views of one vector ``vec``, laid
    out as the parameters' ``flat``."""

    vec: np.ndarray
    W: list
    D: list
    b: list

    @staticmethod
    def zeros_like(params):
        vec = np.zeros(sum(a.size for a in params.W + params.D + params.b))
        return IcnnGrads(vec, *_views(vec, params))


def init_params(n_inputs, depth, width, box_lower, box_upper,
                seed=0) -> IcnnParams:
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
    return IcnnParams(W=W, D=D, b=b, box_lower=box_lower,
                      box_upper=box_upper).validate()


def _as_batch(X, n):
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != n:
        raise ValueError(f"expected {n} input dims, got {X.shape[1]}")
    return X, single


class ForwardPass(NamedTuple):
    """One forward pass over a batch, as ``backward`` reuses it."""

    X: np.ndarray           # the batch, (B, n)
    pre: list               # hidden pre-activations, (B, w) each
    acts: list              # hidden activations
    raw: np.ndarray         # (B,)
    V: np.ndarray | None    # per-dimension box violation; None for raw only
    pen: np.ndarray | None  # box_gain * box violation, (B,)


def _pass(params: IcnnParams, X, box=True):
    k = params.depth
    pre = []
    acts = []
    z = None
    for i in range(k):
        p = X @ params.D[i].T + params.b[i]
        if i > 0:
            p += z @ params.W[i - 1].T
        z = np.maximum(p, 0.0)
        pre.append(p)
        acts.append(z)
    raw = (X @ params.D[k].T + params.b[k] + z @ params.W[k - 1].T)[:, 0]
    if not box:
        return ForwardPass(X, pre, acts, raw, None, None)
    V = np.maximum(params.box_lower - X, X - params.box_upper)
    return ForwardPass(X, pre, acts, raw, V, params.box_gain * V.max(axis=1))


def raw_forward(params: IcnnParams, X):
    """Network value before the box penalty."""
    X, single = _as_batch(X, params.n_inputs)
    raw = _pass(params, X, box=False).raw
    return raw[0] if single else raw


def box_violation(params: IcnnParams, X):
    """Signed distance-like box violation: positive outside, negative inside."""
    X, single = _as_batch(X, params.n_inputs)
    V = np.maximum(params.box_lower - X, X - params.box_upper)
    v = V.max(axis=1)
    return v[0] if single else v


def forward(params: IcnnParams, X, want_cache=False):
    """Classifier output max(raw, box_gain * box_violation).

    With ``want_cache``, returns (output, ForwardPass) for a batch: the
    pass that ``backward`` takes in place of X.
    """
    X, single = _as_batch(X, params.n_inputs)
    fp = _pass(params, X)
    out = np.maximum(fp.raw, fp.pen)
    if want_cache:
        return out, fp
    return out[0] if single else out


def backward(params: IcnnParams, X, upstream=None, raw_only=False, out=None,
             want_dx=True):
    """Gradients of sum_i upstream_i * forward(params, x_i).

    Returns (grads, dx); dx is None without ``want_dx``, for callers that
    need the parameter gradients only.  X is the inputs, or the
    ForwardPass that ``forward(params, X, want_cache=True)`` returned for
    them, which spares the forward pass.  ``out`` is an IcnnGrads to overwrite and return, such
    as the optimizer's; without one the gradients are new arrays.
    Subgradient conventions: relu'(0) = 0; when the box penalty ties the raw
    value exactly, the raw branch is used; the box branch routes through the
    lowest-index maximizing dimension.  ``raw_only`` differentiates raw()
    instead of forward() (no box branch).
    """
    if isinstance(X, ForwardPass):
        fp, single = X, False
    else:
        X, single = _as_batch(X, params.n_inputs)
        fp = _pass(params, X, box=not raw_only)
    Xb, pre, acts = fp.X, fp.pre, fp.acts
    B = Xb.shape[0]
    if upstream is None:
        upstream = np.ones(B)
    upstream = np.atleast_1d(np.asarray(upstream, dtype=float))
    if upstream.shape != (B,):
        raise ValueError("upstream must have one entry per sample")
    k = params.depth
    if out is None:
        grads = IcnnGrads.zeros_like(params)
    else:
        grads = out
        grads.vec.fill(0.0)
    dx = np.zeros_like(Xb) if want_dx else None

    if raw_only:
        u_raw = upstream
    else:
        box_active = fp.pen > fp.raw
        u_raw = upstream * (~box_active)
        rows = np.flatnonzero(box_active)
        if want_dx and len(rows):
            d = fp.V[rows].argmax(axis=1)
            x = Xb[rows, d]
            sign = np.where(x - params.box_upper[d] >= params.box_lower[d] - x,
                            1.0, -1.0)
            dx[rows, d] += upstream[rows] * params.box_gain * sign

    # raw branch: standard backprop through the relu stack
    g_out = u_raw[:, None]                      # (B, 1)
    grads.D[k] += g_out.T @ Xb
    grads.b[k] += g_out.sum(axis=0)
    grads.W[k - 1] += g_out.T @ acts[k - 1]
    if want_dx:
        dx += g_out @ params.D[k]
    gz = g_out @ params.W[k - 1]                # (B, w)
    for i in range(k - 1, -1, -1):
        gp = gz * (pre[i] > 0)
        grads.D[i] += gp.T @ Xb
        grads.b[i] += gp.sum(axis=0)
        if want_dx:
            dx += gp @ params.D[i]
        if i > 0:
            grads.W[i - 1] += gp.T @ acts[i - 1]
            gz = gp @ params.W[i - 1]
    if single and want_dx:
        dx = dx[0]
    return grads, dx


def project_convex(params: IcnnParams) -> IcnnParams:
    """Clip all W entries to be nonnegative (in place), one np.maximum over
    the W part of ``params.flat``; returns params."""
    W = params.flat[:sum(w.size for w in params.W)]
    np.maximum(W, 0.0, out=W)
    return params


_SIGN = np.int64(-2**63)


def _flip(keys):
    """float64 bit patterns, read as int64, to keys in the floats' order,
    and back: the map is its own inverse, and both zeros get key 0."""
    return np.where(keys < 0, _SIGN - keys, keys)


def _lower_face(lo, r, v):
    """Least float x with r * x + v >= lo in float arithmetic, per entry.

    x -> r * x + v is nondecreasing over the floats for r > 0, so the floats
    that pass form an upper set, and bisection over their ordered keys finds
    its least element.  The bracket starts one key below -inf (a NaN, which
    never passes) and at +inf (which always passes); 64 halvings bring it
    down to adjacent keys.
    """
    shape = np.shape(lo)
    below = _flip(np.full(shape, -np.inf).view(np.int64)) - 1
    above = _flip(np.full(shape, np.inf).view(np.int64))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            mid = (below >> 1) + (above >> 1) + (below & above & 1)
            passes = r * _flip(mid).view(np.float64) + v >= lo
            above = np.where(passes, mid, above)
            below = np.where(passes, below, mid)
    return _flip(above).view(np.float64)


@dataclass(frozen=True)
class _ScreeningNetwork:
    """The classifier in x coordinates: r and v folded into the weights,
    every input term in one matrix, the box moved onto x.

    ``__call__`` and ``one`` give the screening value max(raw, box_gain * V),
    V the largest excess of a coordinate over its box face; ``feasible`` and
    ``feasible_one`` give raw <= 0 and lower <= x <= upper.  ``raw`` and
    ``raw_one`` are the network that both share.
    """

    D: np.ndarray          # (n, depth * width + 1): all r * D_i, transposed
    b: np.ndarray          # (depth * width + 1,): all b_i + D_i v
    W: list                # W_i transposed; the output row flattened
    width: int
    lower: np.ndarray      # the box on x
    upper: np.ndarray
    box_gain: float

    @staticmethod
    def build(clf):
        p, r, v = clf.params, clf.r, clf.v
        if not r > 0:
            raise ValueError("screening needs a positive scale r")
        D = np.vstack(p.D)
        lo, hi = clf.input_box()
        # r * x + v is monotone in x, so lo <= r * x + v <= hi, as screening
        # rounds it, holds exactly on [lower, upper]: the extreme passing
        # floats.  The upper face is the lower face of the mirrored problem,
        # since rounding to nearest is symmetric in sign.
        return _ScreeningNetwork(
            D=np.ascontiguousarray((r * D).T),
            b=np.concatenate(p.b) + D @ v,
            W=[np.ascontiguousarray(w.T) for w in p.W[:-1]]
              + [p.W[-1][0].copy()],
            width=p.width,
            lower=_lower_face(lo, r, v),
            upper=-_lower_face(-hi, r, -v),
            box_gain=p.box_gain,
        )

    def raw(self, X):
        """raw(x) for each row of X, (B, n).

        The columns of P = X D + b past the first layer (the later layers'
        pre-activations and the output column) are copied out, then one
        contiguous pass applies the ReLU to all of P in place, and the first
        layer is read as a strided view of it: the same BLAS kernels on the
        same values as a ReLU of the first layer alone, so the same bits.
        """
        w = self.width
        P = X @ self.D
        P += self.b
        rest = P[:, w:].copy()
        z = np.maximum(P, 0.0, out=P)[:, :w]
        for i, Wi in enumerate(self.W[:-1]):
            h = rest[:, i * w:(i + 1) * w] + z @ Wi
            z = np.maximum(h, 0.0, out=h)
        return rest[:, -1] + z @ self.W[-1]

    def raw_one(self, x):
        """``raw`` on one point x, (n,), in 1-D arrays; a (1,) array.

        The products go to the same BLAS kernels as one row of ``raw`` does
        (gemv for each layer, dot for the output row), so the value is the
        same to the bit.  ``ndarray.dot`` costs less per call than ``@`` on
        1-D operands.
        """
        w = self.width
        p = x.dot(self.D)
        p += self.b
        z = np.maximum(p[:w], 0.0)
        for i, Wi in enumerate(self.W[:-1], start=1):
            h = p[i * w:(i + 1) * w] + z.dot(Wi)
            z = np.maximum(h, 0.0, out=h)
        return p[-1:] + z.dot(self.W[-1])

    def __call__(self, X):
        out = self.raw(X)
        pen = np.maximum(self.lower - X, X - self.upper).max(axis=1)
        pen *= self.box_gain
        return np.maximum(out, pen, out=out)

    def one(self, x):
        """``__call__`` on one point x, (n,): ``raw_one`` and the box term,
        taken with ``np.maximum``, so a NaN stays a NaN and the point stays
        insecure."""
        out = self.raw_one(x)
        pen = np.maximum(self.lower - x, x - self.upper).max()
        return np.maximum(out, pen * self.box_gain, out=out)

    def feasible(self, X):
        """raw <= 0 and inside the box, per row of X.  The per-row box
        reduction, about ten times a count of the mask, runs only when the
        count finds a coordinate outside, as it does in few batches."""
        ok = self.raw(X) <= 0.0
        inside = X >= self.lower
        inside &= X <= self.upper
        if np.count_nonzero(inside) < inside.size:
            ok &= inside.all(axis=1)
        return ok

    def feasible_one(self, x):
        """``feasible`` on one point x, (n,), as a (1,) array; a point
        outside the box skips the network.  ``count_nonzero`` costs less
        than ``.all()`` on a short mask."""
        if np.count_nonzero((x >= self.lower) & (x <= self.upper)) < len(x):
            return np.zeros(1, dtype=bool)
        return self.raw_one(x) <= 0.0


@dataclass(frozen=True)
class ScaledClassifier:
    """A trained classifier with its certification scaling baked in.

    Classification evaluates forward(params, r * x + v), i.e. the predicted
    set becomes (S - v) / r where S = {f <= 0}; with r >= 1 this shrinks S
    toward v / r, and the certified (r, v) make the shrunken set a subset of
    the reference region.

    The reference region is exact only inside the box, and with r < 1 the
    set (S - v) / r reaches past it, so x itself must lie in the box too.
    ``input_box`` folds that into the one box penalty: the box on u = r x + v
    becomes the network's box intersected with r * box + v.

    The classifier is a value: ``dataclasses.replace`` gives one with other
    fields.  An absent v, mu or sigma is the identity, and dim_map all the
    inputs; u = (x[dim_map] - mu) / sigma maps a full injection x into the
    classifier's coordinates.

    Screening runs a network built from params, r and v at its first call.
    r and v are folded into the input weights, so the network's value
    differs from the definition's by rounding only.  The box moves onto x,
    with faces at the extreme floats where r * x + v still passes, so its
    verdict equals the definition's on every float.  The classifier
    SC-OPF's dispatcher (``scopf.classifier_dispatcher``) is kept here too.
    Both copy the weights, so an in-place edit of them reaches neither.

    ``decision_values`` is the screening value max(raw, box_gain * V);
    ``predict_feasible`` asks its verdict as membership, raw <= 0 and every
    coordinate of x between its box faces by comparison, which equals
    value <= 0 on every float for the finite box and box_gain >= 1 that
    ``IcnnParams.validate`` requires.

    One row takes its own path, chosen by the row count:
    ``_ScreeningNetwork.one`` and ``feasible_one`` evaluate it in 1-D arrays
    with fewer numpy calls, to the same bits as the batch pass gives a
    one-row matrix; ``feasible_one`` skips the network outside the box.
    """

    params: IcnnParams
    r: float = 1.0
    v: np.ndarray | None = None
    mu: np.ndarray | None = None      # standardization of the training data
    sigma: np.ndarray | None = None
    dim_map: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    _net: _ScreeningNetwork | None = field(default=None, init=False,
                                           repr=False, compare=False)
    # (network, scopf.Dispatcher) of ``scopf.classifier_dispatcher``
    _dispatch: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        n = self.params.n_inputs
        for name, identity in (("v", np.zeros), ("mu", np.zeros),
                               ("sigma", np.ones), ("dim_map", np.arange)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, identity(n))

    def input_box(self):
        """(lower, upper) on the network input u = r x + v: u lies inside
        iff u is in the network's box and x is in the box."""
        p = self.params
        return (np.maximum(p.box_lower, self.r * p.box_lower + self.v),
                np.minimum(p.box_upper, self.r * p.box_upper + self.v))

    def _network(self):
        """The screening network, built at first use."""
        if self._net is None:
            object.__setattr__(self, "_net", _ScreeningNetwork.build(self))
        return self._net

    def _screening(self, X):
        """The screening network and X as a float array, checked."""
        net = self._net
        if net is None:
            net = self._network()
        X = np.asarray(X, dtype=float)
        n = len(net.lower)
        if X.ndim not in (1, 2) or X.shape[-1] != n:
            raise ValueError(f"expected inputs of {n} dims, one or a row "
                             f"each, got shape {X.shape}")
        return net, X

    def decision_values(self, X):
        """Screening values, one per row of X (a 1-D X is one row): the
        sign of forward(params with ``input_box``, r x + v), up to rounding
        of the network; the box term is measured in x."""
        net, X = self._screening(X)
        if X.ndim == 1 or len(X) == 1:
            return net.one(X.reshape(-1))
        return net(X)

    def predict_feasible(self, X):
        """Verdicts, one per row of X (a 1-D X is one row): True where the
        point is secure, ``decision_values(X) <= 0``."""
        net, X = self._screening(X)
        if X.ndim == 1 or len(X) == 1:
            return net.feasible_one(X.reshape(-1))
        return net.feasible(X)


def save_checkpoint(clf: ScaledClassifier, path):
    p = clf.params
    arrays = {
        "r": np.array(clf.r),
        "v": clf.v,
        "box_lower": p.box_lower,
        "box_upper": p.box_upper,
        "box_gain": np.array(p.box_gain),
        "depth": np.array(p.depth),
        "mu": clf.mu,
        "sigma": clf.sigma,
        "dim_map": clf.dim_map,
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
        return ScaledClassifier(
            params=params,
            r=float(z["r"]),
            v=z["v"],
            mu=z["mu"],
            sigma=z["sigma"],
            dim_map=z["dim_map"],
            meta=json.loads(str(z["meta_json"])),
        )
