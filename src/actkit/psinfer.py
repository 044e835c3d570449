"""Pictorial-structures inference for upper-body part layouts.

Parts live on a shared (H, W) grid of non-negative unary likelihoods
and are connected by a spanning tree with Gaussian displacement priors.
The edge potential between a parent at (xp, yp) and a child at (xc, yc)
is, in log space,

    -0.5 * ((xc - xp - dx)^2 / vx + (yc - yp - dy)^2 / vy)

with (dx, dy) the expected child-minus-parent offset.  It factorises
over the two axes, so a message is one separable kernel: a reduction
over the child's x axis with a (W, W) table, then over its y axis with
an (H, H) table, O(HW(H+W)) per edge.  MAP and marginal inference share
one leaves-to-root pass.  MAP layouts come from max-product with that
kernel ("distance_transform", the default) or a brute-force scan of
every location pair, a block of parent cells at a time ("naive"), two
deliberately independent implementations whose decode tables both give
the best child row and column per parent cell, ties to the lowest flat
(row-major) index; the max kernel reduces one C-order slab of rows at a
time.  Exact per-part posterior marginals use the same kernel with
logsumexp in place of max, as one matrix product with the exponentiated
table per axis (the sum-product form of Felzenszwalb & Huttenlocher's
separable messages); rows whose product may have lost its mass to
underflow are recomputed exactly with the slab kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posefeat import PARTS
from .tables import names_file, read_npy, read_table, write_table

LOG_FLOOR = -1e30

# floats in one block of either message kernel (512 KB): it bounds the
# kernel's memory and keeps the per-block Python overhead small
_BLOCK_CELLS = 1 << 16

# a sum-product cell whose matrix product is at or below this floor is
# recomputed exactly: 2^64 bounds the number of summed terms, 2^-53 is
# the unit roundoff and 2^-1022 the smallest normal float (_sum_pass)
_SUM_FLOOR = 2.0 ** (64 + 53 - 1022)

HAND_MIN_SCORE = -1.0       # hand_likelihood_map drops hypotheses below

DEFAULT_STICKS = (
    ("r_upper_arm", "r_shoulder", "r_elbow"),
    ("l_upper_arm", "l_shoulder", "l_elbow"),
    ("r_lower_arm", "r_elbow", "r_wrist"),
    ("l_lower_arm", "l_elbow", "l_wrist"),
)


@dataclass(frozen=True)
class EdgeParams:
    """Tree edge with a Gaussian displacement prior.

    mean = (dx, dy) is the expected child position relative to the
    parent, var = (vx, vy) the per-axis variances.
    """

    parent: str
    child: str
    mean: tuple
    var: tuple

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "var", tuple(float(v) for v in self.var))
        if len(self.mean) != 2 or len(self.var) != 2:
            raise ValueError("mean and var must be (x, y) pairs")
        if self.var[0] <= 0 or self.var[1] <= 0:
            raise ValueError("edge variances must be positive")
        if self.parent == self.child:
            raise ValueError("an edge cannot connect a part to itself")


class PartGraph:
    """A spanning tree over named parts."""

    def __init__(self, parts, edges):
        self.parts = tuple(parts)
        self.edges = tuple(edges)
        if not self.parts:
            raise ValueError("part graph needs at least one part")
        if len(set(self.parts)) != len(self.parts):
            raise ValueError("part names must be unique")
        self._children = {p: [] for p in self.parts}
        self._parent_edge = {}
        for e in self.edges:
            if not {e.parent, e.child} <= self._children.keys():
                raise ValueError(f"edge {e.parent}->{e.child} names unknown parts")
            if e.child in self._parent_edge:
                raise ValueError(f"part {e.child!r} has two parents")
            self._parent_edge[e.child] = e
            self._children[e.parent].append(e.child)
        roots = [p for p in self.parts if p not in self._parent_edge]
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, found {roots}")
        self.root = roots[0]
        # each part has one parent, so a cycle is never reached from the
        # root: the walk misses a part exactly when the graph is split
        if len(self.topo_order()) != len(self.parts):
            raise ValueError("part graph is not connected")

    def children_of(self, part):
        return tuple(self._children[part])

    def parent_edge(self, part) -> EdgeParams:
        return self._parent_edge[part]

    def topo_order(self):
        """Parts ordered root first, every parent before its children."""
        order = []
        stack = [self.root]
        while stack:
            p = stack.pop()
            order.append(p)
            stack.extend(reversed(self._children[p]))
        return order


def default_part_graph(scale: float = 1.0) -> PartGraph:
    """Torso-rooted upper-body tree over the ten tracked parts.

    Offsets are in pixels for a figure roughly 200 * scale tall, with
    image y growing downward.  scale must be finite and positive.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    s = scale
    v = scale * scale

    def e(parent, child, dx, dy, vx, vy):
        return EdgeParams(parent, child, (dx * s, dy * s), (vx * v, vy * v))

    edges = (
        e("torso", "head", 0, -60, 100, 100),
        e("torso", "r_shoulder", -40, -40, 64, 64),
        e("torso", "l_shoulder", 40, -40, 64, 64),
        e("r_shoulder", "r_elbow", -10, 50, 100, 100),
        e("l_shoulder", "l_elbow", 10, 50, 100, 100),
        e("r_elbow", "r_wrist", 0, 45, 144, 144),
        e("l_elbow", "l_wrist", 0, 45, 144, 144),
        e("r_wrist", "r_hand", 0, 15, 25, 25),
        e("l_wrist", "l_hand", 0, 15, 25, 25),
    )
    return PartGraph(PARTS, edges)


# ---------------------------------------------------------------------------
# message computation

def _log_unary(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    out = np.full(g.shape, LOG_FLOOR)
    pos = g > 0
    out[pos] = np.log(g[pos])
    return out


def _naive_max_message(beta, edge, shape):
    """Max-product message by brute force over all location pairs.

    Returns (message, ystar, xstar), all (H, W) on the parent grid:
    ystar and xstar are the best child row and column for each parent
    cell.  Ties go to the lowest flat (row-major) child index.  Every
    (parent, child) pair is scored, O((HW)^2) time per edge, a block of
    parent cells at a time: each block is a (block, HW) slab of log
    edge potentials plus beta, about _BLOCK_CELLS floats, built
    from per-axis squared-offset tables.
    """
    H, W = shape
    n = H * W

    def sq_offsets(m, mean, var):
        # [parent, child] = (child - parent - mean)^2 / var
        q = np.arange(m)
        return (q[None, :] - q[:, None] - mean) ** 2 / var

    ax = sq_offsets(W, edge.mean[0], edge.var[0])
    by = sq_offsets(H, edge.mean[1], edge.var[1])
    ys, xs = np.divmod(np.arange(n), W)
    flat = beta.ravel()
    msg = np.empty(n)
    best = np.empty(n, dtype=np.intp)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, n, step):
        block = slice(start, start + step)
        slab = by[ys[block]][:, :, None] + ax[xs[block]][:, None, :]
        slab *= -0.5
        slab = slab.reshape(-1, n)
        slab += flat
        best[block] = arg = slab.argmax(axis=1)
        msg[block] = slab[np.arange(len(arg)), arg]
    ystar, xstar = np.divmod(best.reshape(shape), W)
    return msg.reshape(shape), ystar, xstar


def _axis_tables(edge, shape):
    """Per-axis log edge potentials tx[xp, xc] and ty[yp, yc], whose
    outer sum is the full pairwise table."""
    def table(n, mean, var):
        q = np.arange(n)
        return -((1.0 / (2.0 * var)) * (q[:, None] + mean - q[None, :]) ** 2)

    return (table(shape[1], edge.mean[0], edge.var[0]),
            table(shape[0], edge.mean[1], edge.var[1]))


def _logsumexp(A, axis):
    """scipy.special.logsumexp(A, axis) for finite real A, by its float
    steps: the m maxima are summed apart."""
    a_max = A.max(axis=axis, keepdims=True)
    top = A == a_max
    shifted = A - a_max
    np.copyto(shifted, -np.inf, where=top)
    s = np.exp(shifted, out=shifted).sum(axis, keepdims=True, dtype=float)
    m = top.sum(axis, keepdims=True, dtype=float)
    s = np.where(s == 0, s, s / m)
    return np.squeeze(np.log1p(s) + np.log(m) + a_max, axis=axis)


def _reduce_slabs(f, t, maximize):
    """(out, arg): out[r, o] is the max (arg its argmax) or _logsumexp
    (arg None) over i of f[r, i] + t[o, i], summed one C-order slab of
    rows at a time: i stays contiguous even for a transposed t, which
    keeps the order numpy sums it in, and so every output bit."""
    out = np.empty((len(f), len(t)))
    arg = np.empty(out.shape, dtype=np.intp) if maximize else None
    step = max(1, _BLOCK_CELLS // t.size)
    for r in range(0, len(f), step):
        slab = np.add(f[r:r + step, None, :], t, order="C")
        if maximize:
            best = arg[r:r + step] = slab.argmax(axis=-1)
            out[r:r + step] = np.take_along_axis(
                slab, best[..., None], -1)[..., 0]
        else:
            out[r:r + step] = _logsumexp(slab, -1)
    return out, arg


def _sum_pass(f, t, k):
    """out[r, o] = log sum_i exp(f[r, i] + t[o, i]) by one matrix
    product, for a table t <= 0 and k = exp(t).

    With m_r = max_i f[r, i], E = exp(f - m_r) lies in [0, 1] with a 1
    in every row and k in [0, 1]; s = E @ k.T sums the n = t.shape[1]
    terms E[r, i] k[o, i] of S[r, o] = sum_i exp(f[r, i] - m_r + t[o, i])
    and out = m_r + log s.  With u = 2^-53:
    - a term whose factors and product are normal floats is off by at
      most c u relative: two exps, one product and the shift's rounding,
      which enters the exponent as u |f[r, i] - m_r| < 709 u, as in any
      shifted logsumexp; a sum of n non-negative terms in any order adds
      at most (n - 1) u relative;
    - a term with a factor or its product below 2^-1022 is itself below
      about 2^-1022, both factors being at most 1, so it loses at most
      that much, even when it underflows to zero.
    So s = S (1 + d) + e with |d| <= (n + c) u and |e| <= n 2^-1022.
    Where s > _SUM_FLOOR = 2^-905 and n < 2^64, |e| / S is below
    2^(64 - 1022 + 905) = u, so log s is within about (n + c + 1) u of
    log S (underflow costs at most one more unit) and out within a
    further u (|m_r| + |log s|) of the exact value.  A cell at or below
    the floor may have lost its mass to underflow (an output far from
    every input under a narrow kernel); each row holding one is
    recomputed exactly with _reduce_slabs.  The floor follows from the
    bound alone; it is not fitted to any input.
    """
    m = f.max(axis=1, keepdims=True)
    s = np.exp(f - m) @ k.T
    out = m + np.log(np.maximum(s, _SUM_FLOOR))
    low = (s <= _SUM_FLOOR).any(axis=1)
    if low.any():
        out[low] = _reduce_slabs(f[low], t, False)[0]
    return out


def _separable_message(f, tx, ty, kernels=None):
    """Message out[yo, xo] = reduce over (yi, xi) of f[yi, xi] + tx[xo, xi]
    + ty[yo, yi] in O(HW(H+W)): over xi first, then over yi.  Returns
    (out, bestx, besty).

    Without kernels the reduction is max, each pass reduced one C-order
    slab of rows at a time (_reduce_slabs); bestx[yi, xo] is the best xi
    per input row and besty[xo, yo] the best yi.  With kernels =
    (exp(tx), exp(ty)) it is logsumexp, each pass one matrix product
    (_sum_pass), and bestx and besty are None.
    """
    if kernels is not None:
        g = _sum_pass(f, tx, kernels[0])
        return _sum_pass(g.T, ty, kernels[1]).T, None, None
    g, bestx = _reduce_slabs(f, tx, True)
    out, besty = _reduce_slabs(np.ascontiguousarray(g.T), ty, True)
    return out.T, bestx, besty


def _dt_max_message(beta, edge, shape):
    """Max-product message via the separable kernel.

    Returns (message, ystar, xstar) in the same format as
    _naive_max_message.  Ties go to the lowest row on the y pass, then
    to the lowest column within that row on the x pass, which is the
    lowest flat (row-major) child index among exact maximisers.
    """
    msg, bestx, besty = _separable_message(beta, *_axis_tables(edge, shape))
    ystar = besty.T
    return msg, ystar, np.take_along_axis(bestx, ystar, axis=0)


# ---------------------------------------------------------------------------
# inference

@dataclass(eq=False)
class InferenceResult:
    placements: dict | None = None      # part -> (x, y)
    log_score: float | None = None
    posteriors: dict | None = None      # part -> (H, W), sums to one


def infer(grids, graph: PartGraph, mode: str = "map",
          algorithm: str = "distance_transform") -> InferenceResult:
    """Run tree inference over per-part likelihood grids.

    grids: (P, H, W) non-negative unaries ordered like graph.parts.
    mode "map" returns the highest scoring layout and its joint log
    score; mode "marginal" returns per-part posterior location maps.
    algorithm picks the MAP message pass: "distance_transform" (the
    default) uses the separable kernel, "naive" scores every (parent,
    child) location pair, O((H*W)^2) time per edge but only one block
    of parent cells in memory at a time.  Marginals always use the
    separable kernel, as one matrix product per axis with the
    exponentiated edge table and an exact slab recomputation of any row
    whose product may have underflowed, and accept either name.
    """
    G = np.asarray(grids, dtype=float)
    if G.ndim != 3 or G.shape[0] != len(graph.parts) or G.size == 0:
        raise ValueError("grids must be (num_parts, H, W), H and W >= 1")
    if np.any(G < 0) or not np.isfinite(G).all():
        raise ValueError("unary grids must be finite and non-negative")
    if mode not in ("map", "marginal"):
        raise ValueError(f"unknown inference mode {mode!r}")
    if algorithm not in ("naive", "distance_transform"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    shape = G.shape[1:]
    logphi = {part: _log_unary(G[i]) for i, part in enumerate(graph.parts)}
    order = graph.topo_order()
    if mode == "map":
        return _infer_map(logphi, graph, order, shape, algorithm)
    return _infer_marginal(logphi, graph, order, shape)


def _upward(logphi, graph, order, message):
    """Leaves-to-root pass: a part's belief is its log unary plus its
    children's messages, in children_of order.  message(beta, edge)
    returns the message to the parent, then tables kept per part.
    Returns (root belief, {part: message}, {part: tables})."""
    up, tables = {}, {}
    for part in reversed(order):
        beta = logphi[part].copy()
        for ch in graph.children_of(part):
            beta += up[ch]
        if part == graph.root:
            return beta, up, tables
        up[part], *tables[part] = message(beta, graph.parent_edge(part))


def _infer_map(logphi, graph, order, shape, algorithm):
    kernel = _naive_max_message if algorithm == "naive" else _dt_max_message
    root_beta, _, decode = _upward(
        logphi, graph, order, lambda beta, edge: kernel(beta, edge, shape))
    flat = int(np.argmax(root_beta))
    locs = {graph.root: divmod(flat, shape[1])}
    for part in order[1:]:
        py, px = locs[graph.parent_edge(part).parent]
        ystar, xstar = decode[part]
        locs[part] = (int(ystar[py, px]), int(xstar[py, px]))
    placements = {part: (x, y) for part, (y, x) in locs.items()}
    return InferenceResult(placements=placements,
                           log_score=float(root_beta.flat[flat]))


def _infer_marginal(logphi, graph, order, shape):
    def message(beta, edge):
        tables = _axis_tables(edge, shape)
        kernels = tuple(np.exp(t) for t in tables)
        return (_separable_message(beta, *tables, kernels)[0],
                tables, kernels)

    _, up, kept = _upward(logphi, graph, order, message)
    down = {graph.root: np.zeros(shape)}
    posteriors = {}
    for part in order:
        children = graph.children_of(part)
        belief = logphi[part] + down[part]
        for ch in children:
            belief += up[ch]
        p = np.exp(belief - _logsumexp(belief, None))
        posteriors[part] = p / p.sum()
        for ch in children:
            minus = logphi[part] + down[part]
            for other in children:
                if other != ch:
                    minus += up[other]
            (tx, ty), (kx, ky) = kept[ch]
            down[ch] = _separable_message(minus, tx.T, ty.T,
                                          (kx.T, ky.T))[0]
    return InferenceResult(posteriors=posteriors)


# ---------------------------------------------------------------------------
# hand likelihoods

@dataclass(eq=False)
class HandHypothesisSet:
    """Scored hand location hypotheses, points as (x, y) rows."""

    points: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("hypothesis points must be (N, 2)")
        if self.scores.shape != (self.points.shape[0],):
            raise ValueError("need one score per hypothesis")
        if not (np.isfinite(self.points).all() and np.isfinite(self.scores).all()):
            raise ValueError("hypotheses must be finite")


def hand_likelihood_map(hypotheses: HandHypothesisSet, shape,
                        precision: float = 0.005) -> np.ndarray:
    """Kernel density style likelihood grid from detector hypotheses.

    Each hypothesis k contributes (s_k - HAND_MIN_SCORE) *
    exp(-precision * squared distance); hypotheses scoring below
    HAND_MIN_SCORE are dropped.  precision must be finite and positive;
    the default is a Gaussian kernel with a 10 pixel standard deviation.
    """
    if not 0 < precision < np.inf:             # NaN fails this test too
        raise ValueError("precision must be finite and positive")
    H, W = shape
    keep = hypotheses.scores >= HAND_MIN_SCORE
    pts = hypotheses.points[keep]
    w = hypotheses.scores[keep] - HAND_MIN_SCORE
    out = np.zeros((H, W))
    if pts.shape[0] == 0:
        return out
    ys, xs = np.mgrid[0:H, 0:W]
    for (hx, hy), wk in zip(pts, w):
        out += wk * np.exp(-precision * ((xs - hx) ** 2 + (ys - hy) ** 2))
    return out


# ---------------------------------------------------------------------------
# evaluation

def pcp_eval(predicted, truth):
    """Fraction of correctly placed sticks.

    A stick (name, part_a, part_b) of DEFAULT_STICKS is correct when
    both predicted endpoints lie within half the true stick length of
    their true positions.  Zero-length truth sticks cannot be scored; they
    are excluded and reported.  Returns (fraction, per-stick dict,
    excluded names).
    """
    results = {}
    excluded = []
    for name, pa, pb in DEFAULT_STICKS:
        ga = np.asarray(truth[pa], dtype=float)
        gb = np.asarray(truth[pb], dtype=float)
        length = float(np.linalg.norm(ga - gb))
        if length == 0.0:
            excluded.append(name)
            continue
        da = float(np.linalg.norm(np.asarray(predicted[pa], dtype=float) - ga))
        db = float(np.linalg.norm(np.asarray(predicted[pb], dtype=float) - gb))
        results[name] = da <= 0.5 * length and db <= 0.5 * length
    if not results:
        raise ValueError("no stick with positive length to evaluate")
    fraction = sum(results.values()) / len(results)
    return fraction, results, tuple(excluded)


# ---------------------------------------------------------------------------
# file formats

def save_grids(grids, path) -> None:
    G = np.asarray(grids, dtype=float)
    if G.ndim != 3 or np.any(G < 0) or not np.isfinite(G).all():
        raise ValueError("grids must be finite non-negative (P, H, W)")
    np.save(path, G)


@names_file
def load_grids(path) -> np.ndarray:
    G = read_npy(path)
    if G.ndim != 3 or np.any(G < 0) or not np.isfinite(G).all():
        raise ValueError("expected finite non-negative (P, H, W) grids")
    return G


def save_hand_hypotheses_csv(hypotheses: HandHypothesisSet, path) -> None:
    rows = np.column_stack([hypotheses.points, hypotheses.scores]).tolist()
    write_table(path, rows, ("x", "y", "score"))


@names_file
def load_hand_hypotheses_csv(path) -> HandHypothesisSet:
    _, rows = read_table(path, (float, float, float), ("x", "y", "score"))
    table = np.array(rows, dtype=float).reshape(-1, 3)
    return HandHypothesisSet(table[:, :2], table[:, 2])


def save_placements_csv(placements, path) -> None:
    write_table(path, ([part, x, y] for part, (x, y) in placements.items()),
                ("part", "x", "y"))


@names_file
def load_placements_csv(path) -> dict:
    """Read part,x,y rows; a part may appear once."""
    _, rows = read_table(path, (str, int, int), ("part", "x", "y"), key=1)
    return {part: (x, y) for part, x, y in rows}
