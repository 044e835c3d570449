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
kernel ("distance_transform", the default) or a full broadcast over all
location pairs ("naive"), two deliberately independent implementations
whose decode tables both give the best child row and column per parent
cell, ties to the lowest flat (row-major) index.  Exact per-part
posterior marginals use the same kernel with logsumexp in place of max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .posefeat import PARTS
from .tables import read_table, write_table

LOG_FLOOR = -1e30

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
        known = set(self.parts)
        self._children = {p: [] for p in self.parts}
        self._parent_edge = {}
        for e in self.edges:
            if e.parent not in known or e.child not in known:
                raise ValueError(f"edge {e.parent}->{e.child} names unknown parts")
            if e.child in self._parent_edge:
                raise ValueError(f"part {e.child!r} has two parents")
            self._parent_edge[e.child] = e
            self._children[e.parent].append(e.child)
        roots = [p for p in self.parts if p not in self._parent_edge]
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, found {roots}")
        self.root = roots[0]
        # BFS from the root must reach every part (catches cycles among
        # non-root components as well, since each part has one parent)
        seen = {self.root}
        queue = [self.root]
        while queue:
            for c in self._children[queue.pop()]:
                seen.add(c)
                queue.append(c)
        if seen != known:
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


def _log_pairwise(edge: EdgeParams, shape) -> np.ndarray:
    """Full (HW_child, HW_parent) table of log edge potentials."""
    H, W = shape
    ys, xs = np.divmod(np.arange(H * W), W)
    dxm = xs[:, None] - xs[None, :] - edge.mean[0]
    dym = ys[:, None] - ys[None, :] - edge.mean[1]
    return -0.5 * (dxm ** 2 / edge.var[0] + dym ** 2 / edge.var[1])


def _naive_max_message(beta, edge, shape):
    """Max-product message by brute force over all location pairs.

    Returns (message, ystar, xstar), all (H, W) on the parent grid:
    ystar and xstar are the best child row and column for each parent
    cell.  Ties go to the lowest flat (row-major) child index.
    """
    M = beta.ravel()[:, None] + _log_pairwise(edge, shape)
    ystar, xstar = np.divmod(M.argmax(axis=0).reshape(shape), shape[1])
    return M.max(axis=0).reshape(shape), ystar, xstar


def _axis_tables(edge, shape):
    """Per-axis log edge potentials tx[xp, xc] and ty[yp, yc], whose
    outer sum is the full pairwise table."""
    def table(n, mean, var):
        q = np.arange(n)
        return -((1.0 / (2.0 * var)) * (q[:, None] + mean - q[None, :]) ** 2)

    return (table(shape[1], edge.mean[0], edge.var[0]),
            table(shape[0], edge.mean[1], edge.var[1]))


def _reduce(A, maximize):
    """max (with its argmax) or logsumexp (with None) over the last axis."""
    if not maximize:
        return logsumexp(A, axis=-1), None
    arg = A.argmax(axis=-1)
    return np.take_along_axis(A, arg[..., None], -1)[..., 0], arg


def _separable_message(f, tx, ty, maximize):
    """Message out[yo, xo] = reduce over (yi, xi) of f[yi, xi] + tx[xo, xi]
    + ty[yo, yi] in O(HW(H+W)): over xi first, then over yi, with max
    (maximize) or logsumexp.  Returns (out, bestx, besty); for max,
    bestx[yi, xo] is the best xi per input row and besty[xo, yo] the
    best yi, else both are None.  Each sum is laid out so that the
    reduced axis is contiguous.
    """
    g, bestx = _reduce(np.add(f[:, None, :], tx, order="C"), maximize)
    out, besty = _reduce(np.add(g.T[:, None, :], ty, order="C"), maximize)
    return out.T, bestx, besty


def _dt_max_message(beta, edge, shape):
    """Max-product message via the separable kernel.

    Returns (message, ystar, xstar) in the same format as
    _naive_max_message.  Ties go to the lowest row on the y pass, then
    to the lowest column within that row on the x pass, which is the
    lowest flat (row-major) child index among exact maximisers.
    """
    msg, bestx, besty = _separable_message(beta, *_axis_tables(edge, shape),
                                           True)
    ystar = besty.T
    return msg, ystar, np.take_along_axis(bestx, ystar, axis=0)


# ---------------------------------------------------------------------------
# inference

@dataclass
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
    default) uses the separable kernel, "naive" the full pairwise
    broadcast, which holds (H*W)^2 floats per edge.  Marginals always
    use the separable sum-product kernel and accept either name.
    """
    G = np.asarray(grids, dtype=float)
    if G.ndim != 3 or G.shape[0] != len(graph.parts):
        raise ValueError("grids must be (num_parts, H, W)")
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
    _, up, _ = _upward(
        logphi, graph, order, lambda beta, edge: _separable_message(
            beta, *_axis_tables(edge, shape), False))
    down = {graph.root: np.zeros(shape)}
    posteriors = {}
    for part in order:
        children = graph.children_of(part)
        belief = logphi[part] + down[part]
        for ch in children:
            belief += up[ch]
        p = np.exp(belief - logsumexp(belief))
        posteriors[part] = p / p.sum()
        for ch in children:
            minus = logphi[part] + down[part]
            for other in children:
                if other != ch:
                    minus += up[other]
            tx, ty = _axis_tables(graph.parent_edge(ch), shape)
            down[ch] = _separable_message(minus, tx.T, ty.T, False)[0]
    return InferenceResult(posteriors=posteriors)


# ---------------------------------------------------------------------------
# hand likelihoods

@dataclass
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
                        precision: float = 0.005,
                        min_score: float = -1.0) -> np.ndarray:
    """Kernel density style likelihood grid from detector hypotheses.

    Each hypothesis k contributes (s_k - min_score) *
    exp(-precision * squared distance); hypotheses scoring below
    min_score are dropped.  The default precision corresponds to a
    Gaussian kernel with a 10 pixel standard deviation.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    H, W = shape
    keep = hypotheses.scores >= min_score
    pts = hypotheses.points[keep]
    w = hypotheses.scores[keep] - min_score
    out = np.zeros((H, W))
    if pts.shape[0] == 0:
        return out
    ys, xs = np.mgrid[0:H, 0:W]
    for (hx, hy), wk in zip(pts, w):
        out += wk * np.exp(-precision * ((xs - hx) ** 2 + (ys - hy) ** 2))
    return out


# ---------------------------------------------------------------------------
# evaluation

def pcp_eval(predicted, truth, sticks=DEFAULT_STICKS, factor: float = 0.5):
    """Fraction of correctly placed sticks.

    A stick (name, part_a, part_b) is correct when both predicted
    endpoints lie within factor times the true stick length of their
    true positions.  Zero-length truth sticks cannot be scored; they
    are excluded and reported.  Returns (fraction, per-stick dict,
    excluded names).
    """
    results = {}
    excluded = []
    for name, pa, pb in sticks:
        ga = np.asarray(truth[pa], dtype=float)
        gb = np.asarray(truth[pb], dtype=float)
        length = float(np.linalg.norm(ga - gb))
        if length == 0.0:
            excluded.append(name)
            continue
        da = float(np.linalg.norm(np.asarray(predicted[pa], dtype=float) - ga))
        db = float(np.linalg.norm(np.asarray(predicted[pb], dtype=float) - gb))
        results[name] = da <= factor * length and db <= factor * length
    if not results:
        raise ValueError("no stick with positive length to evaluate")
    fraction = sum(results.values()) / len(results)
    return fraction, results, tuple(excluded)


# ---------------------------------------------------------------------------
# file formats

def save_grids(grids, path) -> None:
    G = np.asarray(grids, dtype=float)
    if G.ndim != 3 or np.any(G < 0):
        raise ValueError("grids must be non-negative (P, H, W)")
    np.save(path, G)


def load_grids(path) -> np.ndarray:
    G = np.load(path)
    if G.ndim != 3 or np.any(G < 0) or not np.isfinite(G).all():
        raise ValueError(f"{path}: expected finite non-negative (P, H, W) grids")
    return G


def save_hand_hypotheses_csv(hypotheses: HandHypothesisSet, path) -> None:
    rows = np.column_stack([hypotheses.points, hypotheses.scores]).tolist()
    write_table(path, rows, ("x", "y", "score"))


def load_hand_hypotheses_csv(path) -> HandHypothesisSet:
    _, rows = read_table(path, (float, float, float), ("x", "y", "score"))
    table = np.array(rows, dtype=float).reshape(-1, 3)
    return HandHypothesisSet(table[:, :2], table[:, 2])


def save_placements_csv(placements, path) -> None:
    write_table(path, ([part, x, y] for part, (x, y) in placements.items()),
                ("part", "x", "y"))


def load_placements_csv(path) -> dict:
    """Read part,x,y rows; a part may appear once."""
    _, rows = read_table(path, (str, int, int), ("part", "x", "y"), key=1)
    return {part: (x, y) for part, x, y in rows}
