import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from actkit.psinfer import (DEFAULT_STICKS, LOG_FLOOR, EdgeParams,
                            HandHypothesisSet, PartGraph,
                            _axis_tables, _dt_max_message, _log_unary,
                            _logsumexp, _naive_max_message,
                            _reduce_slabs, _separable_message,
                            default_part_graph, hand_likelihood_map, infer,
                            load_grids, load_hand_hypotheses_csv,
                            load_placements_csv, pcp_eval, save_grids,
                            save_hand_hypotheses_csv, save_placements_csv)


def _brute_force_tensor(grids, graph):
    """Joint log score over all placements as an (n,) * P tensor.

    Independent of the module internals: builds the full configuration
    tensor by broadcasting unaries and pairwise penalty tables.
    """
    G = np.asarray(grids, dtype=float)
    P, H, W = G.shape
    n = H * W
    parts = list(graph.parts)
    ys, xs = np.divmod(np.arange(n), W)
    total = np.zeros((n,) * P)
    for i in range(P):
        g = G[i].ravel()
        lg = np.where(g > 0, np.log(np.where(g > 0, g, 1.0)), -1e30)
        shape = [1] * P
        shape[i] = n
        total = total + lg.reshape(shape)
    for e in graph.edges:
        pi = parts.index(e.parent)
        ci = parts.index(e.child)
        dxm = xs[:, None] - xs[None, :] - e.mean[0]
        dym = ys[:, None] - ys[None, :] - e.mean[1]
        pen = -0.5 * (dxm ** 2 / e.var[0] + dym ** 2 / e.var[1])
        ordered = pen if ci < pi else pen.T
        other = tuple(k for k in range(P) if k not in (ci, pi))
        total = total + np.expand_dims(ordered, axis=other)
    return total


def _brute_force_map(grids, graph):
    total = _brute_force_tensor(grids, graph)
    W = grids.shape[2]
    flat = np.unravel_index(np.argmax(total), total.shape)
    placements = {part: (int(loc % W), int(loc // W))
                  for part, loc in zip(graph.parts, flat)}
    return placements, float(total.max())


def _pairwise_table(edge, H, W):
    """Full (HW child, HW parent) table of log edge potentials, the
    expression the library's former _log_pairwise used."""
    ys, xs = np.divmod(np.arange(H * W), W)
    dxm = xs[:, None] - xs[None, :] - edge.mean[0]
    dym = ys[:, None] - ys[None, :] - edge.mean[1]
    return -0.5 * (dxm ** 2 / edge.var[0] + dym ** 2 / edge.var[1])


def _sum_product_oracle(grids, graph):
    """Per-part posteriors by full-pairwise sum-product.

    Every message is a logsumexp over the (HW, HW) table of log edge
    potentials, with no use of the axis separability.
    """
    G = np.asarray(grids, dtype=float)
    H, W = G.shape[1:]
    logphi = {part: np.where(G[i] > 0,
                             np.log(np.where(G[i] > 0, G[i], 1.0)),
                             LOG_FLOOR).ravel()
              for i, part in enumerate(graph.parts)}
    order = graph.topo_order()
    up = {}
    for part in reversed(order):
        b = logphi[part] + sum(up[ch] for ch in graph.children_of(part))
        if part != graph.root:
            psi = _pairwise_table(graph.parent_edge(part), H, W)
            up[part] = logsumexp(b[:, None] + psi, axis=0)
    down = {graph.root: np.zeros(H * W)}
    posteriors = {}
    for part in order:
        children = graph.children_of(part)
        base = logphi[part] + down[part]
        belief = base + sum(up[ch] for ch in children)
        posteriors[part] = np.exp(belief - logsumexp(belief)).reshape(H, W)
        for ch in children:
            minus = base + sum(up[o] for o in children if o != ch)
            psi = _pairwise_table(graph.parent_edge(ch), H, W)
            down[ch] = logsumexp(psi + minus[None, :], axis=1)
    return posteriors


def _random_tree(rng, num_parts):
    parts = tuple(f"p{i}" for i in range(num_parts))
    edges = []
    for i in range(1, num_parts):
        parent = int(rng.integers(0, i))
        mean = tuple(rng.uniform(-3, 3, size=2))
        var = tuple(rng.uniform(0.3, 4.0, size=2))
        edges.append(EdgeParams(parts[parent], parts[i], mean, var))
    return PartGraph(parts, edges)


def _random_grids(rng, num_parts, H, W, zero_rate=0.0):
    G = rng.uniform(0.05, 1.0, size=(num_parts, H, W))
    if zero_rate > 0:
        G[rng.uniform(size=G.shape) < zero_rate] = 0.0
        # keep every part placeable
        for i in range(num_parts):
            if not (G[i] > 0).any():
                G[i, 0, 0] = 0.5
    return G


# ---------------------------------------------------------------------------
# graph construction

def test_default_graph_is_torso_rooted():
    graph = default_part_graph()
    assert graph.root == "torso"
    assert len(graph.parts) == 10
    assert len(graph.edges) == 9
    assert set(graph.children_of("torso")) == \
        {"head", "r_shoulder", "l_shoulder"}
    assert graph.parent_edge("r_hand").parent == "r_wrist"


def test_topo_order_parents_first():
    graph = default_part_graph()
    order = graph.topo_order()
    assert order[0] == "torso"
    seen = set()
    for part in order:
        if part != graph.root:
            assert graph.parent_edge(part).parent in seen
        seen.add(part)
    assert seen == set(graph.parts)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_default_graph_rejects_bad_scale(scale):
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        default_part_graph(scale=scale)


def test_edge_params_validation():
    with pytest.raises(ValueError):
        EdgeParams("a", "b", (0.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        EdgeParams("a", "b", (0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        EdgeParams("a", "a", (0.0, 0.0), (1.0, 1.0))


def test_graph_validation():
    e = lambda p, c: EdgeParams(p, c, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        PartGraph(("a", "b"), (e("a", "b"), e("a", "b")))     # two parents
    with pytest.raises(ValueError):
        PartGraph(("a", "b"), (e("a", "x"),))                 # unknown part
    with pytest.raises(ValueError):
        PartGraph(("a", "b", "c", "d"), (e("a", "b"), e("c", "d")))  # 2 roots
    with pytest.raises(ValueError, match="not connected"):
        PartGraph(("a", "b", "c"), (e("b", "c"), e("c", "b")))  # cycle
    with pytest.raises(ValueError, match="not connected"):
        PartGraph(("r", "a", "b", "c"),
                  (e("a", "b"), e("b", "c"), e("c", "a")))      # 3-cycle
    with pytest.raises(ValueError):
        PartGraph(("a", "a"), ())
    PartGraph(("solo",), ())   # one part, no edges, is a valid tree


# ---------------------------------------------------------------------------
# hand-checked two part chain

def test_two_part_chain_hand_oracle():
    # 1 x 5 grid; parent unaries peak at x = 1, child at x = 2, and the
    # preferred offset of +1 lines them up with zero penalty, so the
    # joint optimum is ln 2 + ln 4 = ln 8.
    graph = PartGraph(("a", "b"),
                      (EdgeParams("a", "b", (1.0, 0.0), (2.0, 1.0)),))
    grids = np.array([[[1.0, 2.0, 1.0, 1.0, 1.0]],
                      [[1.0, 1.0, 4.0, 1.0, 1.0]]])
    for algorithm in ("naive", "distance_transform"):
        res = infer(grids, graph, mode="map", algorithm=algorithm)
        assert res.placements == {"a": (1, 0), "b": (2, 0)}
        assert res.log_score == pytest.approx(math.log(8.0))


def test_two_part_chain_penalty_tradeoff():
    # strong child peak one step beyond the preferred offset: moving
    # the child costs 0.5 * (1^2) / 2 = 0.25 but gains ln 4 - ln 1
    graph = PartGraph(("a", "b"),
                      (EdgeParams("a", "b", (1.0, 0.0), (2.0, 1.0)),))
    grids = np.array([[[5.0, 1.0, 1.0, 1.0, 1.0]],
                      [[1.0, 1.0, 4.0, 1.0, 1.0]]])
    res = infer(grids, graph)
    assert res.placements == {"a": (0, 0), "b": (2, 0)}
    assert res.log_score == pytest.approx(math.log(5.0) + math.log(4.0) - 0.25)


def test_single_part_graph_is_unary_argmax():
    graph = PartGraph(("solo",), ())
    grid = np.zeros((1, 3, 4))
    grid[0, 2, 1] = 7.0
    res = infer(grid, graph)
    assert res.placements == {"solo": (1, 2)}
    assert res.log_score == pytest.approx(math.log(7.0))


def test_map_tie_breaks_to_lowest_row_major():
    graph = PartGraph(("a", "b"),
                      (EdgeParams("a", "b", (0.0, 0.0), (1.0, 1.0)),))
    grids = np.ones((2, 2, 2))
    for algorithm in ("naive", "distance_transform"):
        res = infer(grids, graph, algorithm=algorithm)
        assert res.placements == {"a": (0, 0), "b": (0, 0)}


def test_map_tie_with_offset_on_rectangular_grid():
    # half-pixel offsets make every child tie between two columns and two
    # rows (penalties are exact binary fractions); the lowest row-major
    # flat index among the tied maximisers wins at every part
    graph = PartGraph(("a", "b", "c"),
                      (EdgeParams("a", "b", (1.5, 0.5), (1.0, 2.0)),
                       EdgeParams("b", "c", (-0.5, 0.5), (1.0, 2.0))))
    grids = np.ones((3, 3, 4))
    for algorithm in ("naive", "distance_transform"):
        res = infer(grids, graph, algorithm=algorithm)
        assert res.placements == {"a": (0, 0), "b": (1, 0), "c": (0, 0)}
        assert res.log_score == -0.375


# ---------------------------------------------------------------------------
# agreement between algorithms and with enumeration

def test_map_matches_enumeration_random():
    rng = np.random.default_rng(5)
    for _ in range(60):
        P = int(rng.integers(2, 4))
        H, W = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        graph = _random_tree(rng, P)
        grids = _random_grids(rng, P, H, W)
        expect_placements, expect_score = _brute_force_map(grids, graph)
        for algorithm in ("naive", "distance_transform"):
            res = infer(grids, graph, algorithm=algorithm)
            assert abs(res.log_score - expect_score) < 1e-9
            assert res.placements == expect_placements


@pytest.mark.parametrize("H, W", [(6, 9), (11, 7), (1, 5), (4, 1)])
def test_separable_max_message_matches_naive(H, W):
    rng = np.random.default_rng(100 + H * W)
    parent_flat = np.arange(H * W).reshape(H, W)
    for _ in range(10):
        edge = EdgeParams("p", "c", tuple(rng.uniform(-4, 4, size=2)),
                          tuple(rng.uniform(0.3, 5.0, size=2)))
        beta = _log_unary(_random_grids(rng, 1, H, W, zero_rate=0.2)[0])
        msg, ystar, xstar = _dt_max_message(beta, edge, (H, W))
        expect, _, _ = _naive_max_message(beta, edge, (H, W))
        assert np.abs(msg - expect).max() < 1e-12
        # the decoded child (ystar, xstar) of every parent cell lands on
        # a maximiser of the full pairwise table
        child_flat = ystar * W + xstar
        table = beta.ravel()[:, None] + _pairwise_table(edge, H, W)
        reached = table[child_flat, parent_flat]
        assert np.abs(reached - expect).max() < 1e-12


@pytest.mark.parametrize("H, W", [(6, 9), (11, 7), (1, 5), (4, 1)])
def test_kernels_decode_the_same_unique_maximiser(H, W):
    # continuous random unaries and offsets make every maximiser unique
    rng = np.random.default_rng(200 + H * W)
    for _ in range(10):
        edge = EdgeParams("p", "c", tuple(rng.uniform(-4, 4, size=2)),
                          tuple(rng.uniform(0.3, 5.0, size=2)))
        beta = _log_unary(_random_grids(rng, 1, H, W)[0])
        _, ys_n, xs_n = _naive_max_message(beta, edge, (H, W))
        _, ys_d, xs_d = _dt_max_message(beta, edge, (H, W))
        assert ys_n.shape == xs_n.shape == (H, W)
        assert np.array_equal(ys_n, ys_d)
        assert np.array_equal(xs_n, xs_d)


@pytest.mark.parametrize("kernel", [_naive_max_message, _dt_max_message])
@pytest.mark.parametrize("mean", [(0.5, 0.5), (1.5, -0.5), (-2.5, 2.5)])
def test_tied_decode_attains_the_message(kernel, mean):
    # constant unaries with half-pixel offsets tie two or more children
    # exactly at most parent cells (penalties are binary fractions); each
    # kernel's decoded child reaches the message value and is the lowest
    # row-major maximiser
    H, W = 5, 6
    edge = EdgeParams("p", "c", mean, (1.0, 2.0))
    beta = np.zeros((H, W))
    msg, ystar, xstar = kernel(beta, edge, (H, W))
    table = beta.ravel()[:, None] + _pairwise_table(edge, H, W)
    reached = table[ystar * W + xstar, np.arange(H * W).reshape(H, W)]
    assert np.array_equal(reached, msg)
    first = np.argmax(table == table.max(axis=0), axis=0).reshape(H, W)
    assert np.array_equal(ystar * W + xstar, first)


def _former_naive_max_message(beta, edge, shape):
    """The library's former naive kernel: one broadcast over the whole
    (HW child, HW parent) table, reduced down the child axis."""
    M = beta.ravel()[:, None] + _pairwise_table(edge, *shape)
    ystar, xstar = np.divmod(M.argmax(axis=0).reshape(shape), shape[1])
    return M.max(axis=0).reshape(shape), ystar, xstar


# Shapes on either side of the naive kernel's block boundaries at its
# 2^16-cell budget (step = 65536 // HW parent cells per block): HW = 255,
# 256 and 257 put HW^2 just under, at and over the budget, so one block
# becomes two; 361 = 2 * 181 - 1 leaves the last block one cell short,
# 512 = 4 * 128 fills every block, and 571 = 5 * 114 + 1 and
# 625 = 6 * 104 + 1 leave one cell for the last block.
_BLOCK_EDGE_SHAPES = [(15, 17), (16, 16), (1, 257), (257, 1), (19, 19),
                      (16, 32), (1, 571), (25, 25)]


@pytest.mark.parametrize("H, W", [(1, 1), (1, 9), (8, 1), (5, 6), (40, 40)]
                         + _BLOCK_EDGE_SHAPES)
def test_naive_message_bytes_match_former_broadcast(H, W):
    rng = np.random.default_rng(300 + H * W)
    random_beta = _log_unary(_random_grids(rng, 1, H, W, zero_rate=0.2)[0])
    cases = [
        # random fractional means and variances, LOG_FLOOR cells mixed in
        (random_beta, tuple(rng.uniform(-4, 4, size=2)),
         tuple(rng.uniform(0.3, 5.0, size=2))),
        # an all-zero grid: every cell is LOG_FLOOR
        (_log_unary(np.zeros((H, W))), tuple(rng.uniform(-4, 4, size=2)),
         tuple(rng.uniform(0.3, 5.0, size=2))),
        # zero beta with half-pixel means ties children exactly
        (np.zeros((H, W)), (0.5, -1.5), (1.0, 2.0)),
        (np.zeros((H, W)), (-2.5, 0.5), (4.0, 0.5)),
    ]
    for beta, mean, var in cases:
        edge = EdgeParams("p", "c", mean, var)
        got = _naive_max_message(beta, edge, (H, W))
        expect = _former_naive_max_message(beta, edge, (H, W))
        for g, e in zip(got, expect):
            assert g.shape == e.shape == (H, W)
            assert g.dtype == e.dtype
            assert g.tobytes() == e.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_naive_message_memory_is_one_block():
    # the former broadcast peaked near 82 MB here
    H, W = 40, 40
    beta = _log_unary(np.random.default_rng(15).uniform(size=(H, W)))
    edge = default_part_graph(scale=0.2).parent_edge("r_elbow")
    assert _traced_peak(lambda: _naive_max_message(beta, edge, (H, W))) < 8e6


def _former_separable_message(f, tx, ty, maximize):
    """The library's former separable kernel: each pass builds its whole
    sum tensor in C order, then reduces its last axis with argmax and
    take_along_axis, or with scipy's logsumexp."""
    def reduce(A):
        if not maximize:
            return logsumexp(A, axis=-1), None
        arg = A.argmax(axis=-1)
        return np.take_along_axis(A, arg[..., None], -1)[..., 0], arg

    g, bestx = reduce(np.add(f[:, None, :], tx, order="C"))
    out, besty = reduce(np.add(g.T[:, None, :], ty, order="C"))
    return out.T, bestx, besty


# At the 2^16-float block a pass over R rows with a (K, K) table reduces
# 2^16 // K^2 rows a slab: 37 x 53 leaves a short last slab in both
# passes (23 + 14 rows, then 47 + 6), and a 300-wide table (90,000 sums
# a row) is over the block, so 3 x 300 and 300 x 3 reduce a row a slab.
_MESSAGE_SHAPES = [(1, 1), (1, 9), (8, 1), (40, 40), (120, 160), (37, 53),
                   (3, 300), (300, 3)]


def _message_cases(H, W):
    """(beta, edge) pairs for the kernel comparisons on an (H, W) grid."""
    rng = np.random.default_rng(400 + H * W)
    return [
        # random fractional means and variances, LOG_FLOOR cells mixed in
        (_log_unary(_random_grids(rng, 1, H, W, zero_rate=0.2)[0]),
         EdgeParams("p", "c", tuple(rng.uniform(-4, 4, size=2)),
                    tuple(rng.uniform(0.3, 5.0, size=2)))),
        # an all-zero grid: every cell is LOG_FLOOR
        (_log_unary(np.zeros((H, W))), EdgeParams("p", "c", (1.5, -2.0),
                                                  (3.0, 0.7))),
        # zero beta with half-pixel means ties inputs exactly
        (np.zeros((H, W)), EdgeParams("p", "c", (0.5, -1.5), (1.0, 2.0))),
    ]


@pytest.mark.parametrize("H, W", _MESSAGE_SHAPES)
def test_separable_message_bytes_match_former_kernel(H, W):
    # the max kernel, and the slab sum that is now the product kernel's
    # exact fallback, keep the former kernel's bytes
    for beta, edge in _message_cases(H, W):
        tx, ty = _axis_tables(edge, (H, W))
        for tables in ((tx, ty), (tx.T, ty.T)):
            got = _separable_message(beta, *tables)
            expect = _former_separable_message(beta, *tables, True)
            for g, e in zip(got, expect):
                assert (g.shape, g.dtype) == (e.shape, e.dtype)
                assert g.tobytes() == e.tobytes()
            g = _reduce_slabs(beta, tables[0], False)[0]
            got = _reduce_slabs(np.ascontiguousarray(g.T), tables[1],
                                False)[0].T
            expect = _former_separable_message(beta, *tables, False)[0]
            assert (got.shape, got.dtype) == (expect.shape, expect.dtype)
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("H, W", _MESSAGE_SHAPES)
def test_product_kernel_matches_former_kernel(H, W):
    # _sum_pass bounds a pass's error by about (n + c + 1) u relative to
    # max(1, |out|) for n summed inputs; (H + W + 16) eps = 2 (H + W + 16) u
    # covers both passes and the former kernel's own rounding
    tol = (H + W + 16) * np.finfo(float).eps
    for beta, edge in _message_cases(H, W):
        tx, ty = _axis_tables(edge, (H, W))
        for tables in ((tx, ty), (tx.T, ty.T)):
            kernels = tuple(np.exp(t) for t in tables)
            got = _separable_message(beta, *tables, kernels)
            expect = _former_separable_message(beta, *tables, False)
            assert got[1:] == (None, None)
            assert got[0].shape == expect[0].shape
            err = np.abs(got[0] - expect[0]) / np.maximum(1.0,
                                                          np.abs(expect[0]))
            assert err.max() <= tol


def _lse_inputs():
    rng = np.random.default_rng(17)
    tied = rng.normal(size=(6, 9))
    tied[:, [2, 5, 7]] = 4.0                  # three maxima in every row
    tied[0] = 1.25                            # a row of equal values
    return {"random": rng.normal(scale=30.0, size=(5, 7, 11)),
            "tied": tied,
            "floor": np.full((4, 6), LOG_FLOOR),
            "floor mixed": _log_unary(rng.uniform(size=(8, 8))
                                      * (rng.uniform(size=(8, 8)) > 0.5)),
            "one long": rng.normal(size=(7, 1)),
            "one cell": np.array([[-3.5]])}


@pytest.mark.parametrize("name", list(_lse_inputs()))
@pytest.mark.parametrize("axis", [-1, None])
def test_logsumexp_bytes_match_scipy(name, axis):
    A = _lse_inputs()[name]
    got = np.asarray(_logsumexp(A, axis))
    expect = np.asarray(logsumexp(A, axis=axis))
    assert (got.shape, got.dtype) == (expect.shape, expect.dtype)
    assert got.tobytes() == expect.tobytes()


def test_separable_message_memory_is_one_slab():
    # the former kernel peaked near 25 MB (max) and 151 MB (sum) here
    H, W = 120, 160
    beta = _log_unary(np.random.default_rng(18).uniform(size=(H, W)))
    edge = default_part_graph().parent_edge("r_elbow")
    tx, ty = _axis_tables(edge, (H, W))
    assert _traced_peak(lambda: _dt_max_message(beta, edge, (H, W))) < 4e6
    assert _traced_peak(lambda: _separable_message(
        beta, tx.T, ty.T, (np.exp(tx.T), np.exp(ty.T)))) < 4e6
    # an offset past the grid's edge with a variance of 0.01 underflows
    # every product, so every row of both passes takes the slab fallback
    narrow = EdgeParams("p", "c", (170.0, 130.0), (0.01, 0.01))
    tx, ty = _axis_tables(narrow, (H, W))
    assert _traced_peak(lambda: _separable_message(
        beta, tx.T, ty.T, (np.exp(tx.T), np.exp(ty.T)))) < 4e6


def test_naive_and_dt_agree_on_default_graph_at_large_grid():
    # 3072 cells: the former broadcast needed 75 MB per table
    rng = np.random.default_rng(16)
    graph = default_part_graph(scale=0.25)
    grids = _random_grids(rng, len(graph.parts), 48, 64, zero_rate=0.1)
    res_n = infer(grids, graph, algorithm="naive")
    res_d = infer(grids, graph, algorithm="distance_transform")
    assert abs(res_n.log_score - res_d.log_score) < 1e-9
    assert res_n.placements == res_d.placements


def test_naive_and_dt_agree_with_zeros_and_deep_trees():
    rng = np.random.default_rng(6)
    for _ in range(60):
        P = int(rng.integers(2, 6))
        H, W = int(rng.integers(3, 11)), int(rng.integers(3, 11))
        graph = _random_tree(rng, P)
        grids = _random_grids(rng, P, H, W, zero_rate=0.15)
        res_n = infer(grids, graph, algorithm="naive")
        res_d = infer(grids, graph, algorithm="distance_transform")
        assert abs(res_n.log_score - res_d.log_score) < 1e-9
        assert res_n.placements == res_d.placements


def test_fractional_offsets_agree():
    rng = np.random.default_rng(7)
    graph = PartGraph(("a", "b"),
                      (EdgeParams("a", "b", (0.7, -1.3), (0.9, 2.2)),))
    grids = rng.uniform(0.1, 1.0, size=(2, 7, 9))
    res_n = infer(grids, graph, algorithm="naive")
    res_d = infer(grids, graph, algorithm="distance_transform")
    assert abs(res_n.log_score - res_d.log_score) < 1e-9
    assert res_n.placements == res_d.placements


def test_default_map_is_distance_transform(monkeypatch):
    import actkit.psinfer as psinfer

    def no_pairwise_table(*args):
        raise AssertionError("default MAP built the full pairwise table")

    rng = np.random.default_rng(14)
    for _ in range(10):
        P = int(rng.integers(1, 6))
        H, W = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        graph = _random_tree(rng, P)
        grids = _random_grids(rng, P, H, W, zero_rate=0.2)
        dt = infer(grids, graph, algorithm="distance_transform")
        with monkeypatch.context() as m:
            m.setattr(psinfer, "_naive_max_message", no_pairwise_table)
            res = infer(grids, graph)
        assert res.placements == dt.placements
        assert res.log_score == dt.log_score


def test_default_graph_both_algorithms():
    rng = np.random.default_rng(8)
    graph = default_part_graph(scale=0.05)
    grids = rng.uniform(0.1, 1.0, size=(10, 9, 9))
    res_n = infer(grids, graph, algorithm="naive")
    res_d = infer(grids, graph, algorithm="distance_transform")
    assert abs(res_n.log_score - res_d.log_score) < 1e-9
    assert res_n.placements == res_d.placements


def test_map_scale_invariant_placements():
    rng = np.random.default_rng(9)
    graph = _random_tree(rng, 3)
    grids = _random_grids(rng, 3, 5, 5)
    base = infer(grids, graph)
    scaled = infer(grids * 3.0, graph)
    assert scaled.placements == base.placements
    assert scaled.log_score == pytest.approx(base.log_score + 3 * math.log(3.0))


def test_forced_placement_through_zeros():
    graph = PartGraph(("a", "b"),
                      (EdgeParams("a", "b", (0.0, 0.0), (1.0, 1.0)),))
    grids = np.zeros((2, 4, 4))
    grids[0, 3, 2] = 1.0
    grids[1, 0, 1] = 1.0
    res = infer(grids, graph)
    assert res.placements == {"a": (2, 3), "b": (1, 0)}


# ---------------------------------------------------------------------------
# marginals

def test_marginals_match_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(30):
        P = int(rng.integers(2, 4))
        H, W = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        graph = _random_tree(rng, P)
        grids = _random_grids(rng, P, H, W)
        total = _brute_force_tensor(grids, graph)
        joint = np.exp(total - total.max())
        joint /= joint.sum()
        res = infer(grids, graph, mode="marginal")
        n = H * W
        for i, part in enumerate(graph.parts):
            axes = tuple(k for k in range(P) if k != i)
            expect = joint.sum(axis=axes).reshape(H, W)
            assert np.abs(res.posteriors[part] - expect).max() < 1e-10


@pytest.mark.parametrize("H, W", [(6, 9), (11, 7)])
def test_marginals_match_full_pairwise_oracle(H, W):
    rng = np.random.default_rng(H * W)
    for _ in range(8):
        P = int(rng.integers(2, 6))
        graph = _random_tree(rng, P)
        grids = _random_grids(rng, P, H, W, zero_rate=0.2)
        expect = _sum_product_oracle(grids, graph)
        res = infer(grids, graph, mode="marginal")
        for part in graph.parts:
            assert res.posteriors[part].shape == (H, W)
            assert np.abs(res.posteriors[part] - expect[part]).max() < 1e-10


def test_marginals_sum_to_one():
    rng = np.random.default_rng(11)
    graph = default_part_graph(scale=0.05)
    grids = rng.uniform(0.1, 1.0, size=(10, 6, 6))
    res = infer(grids, graph, mode="marginal")
    for part in graph.parts:
        assert res.posteriors[part].sum() == pytest.approx(1.0, abs=1e-12)
        assert (res.posteriors[part] >= 0).all()


def test_marginals_scale_invariant():
    rng = np.random.default_rng(12)
    graph = _random_tree(rng, 3)
    grids = _random_grids(rng, 3, 4, 4)
    base = infer(grids, graph, mode="marginal")
    scaled = infer(grids * 7.5, graph, mode="marginal")
    for part in graph.parts:
        assert np.allclose(base.posteriors[part], scaled.posteriors[part],
                           atol=1e-12)


def test_marginals_identical_under_either_algorithm_name():
    rng = np.random.default_rng(13)
    for _ in range(5):
        P = int(rng.integers(2, 5))
        graph = _random_tree(rng, P)
        grids = _random_grids(rng, P, 5, 7, zero_rate=0.2)
        base = infer(grids, graph, mode="marginal")
        for algorithm in ("naive", "distance_transform"):
            res = infer(grids, graph, mode="marginal", algorithm=algorithm)
            for part in graph.parts:
                assert np.array_equal(res.posteriors[part],
                                      base.posteriors[part])


def _assert_marginals_match_oracle(grids, graph):
    expect = _sum_product_oracle(grids, graph)
    res = infer(grids, graph, mode="marginal")
    for part in graph.parts:
        assert res.posteriors[part].shape == grids.shape[1:]
        assert np.abs(res.posteriors[part] - expect[part]).max() < 1e-10


def test_marginals_with_narrow_variances_match_oracle():
    # variances down to 0.005 put exp(t) below the float range a few
    # pixels off the mean, where the products underflow
    rng = np.random.default_rng(20)
    for _ in range(6):
        P = int(rng.integers(2, 5))
        graph = _random_tree(rng, P)
        graph = PartGraph(graph.parts, [
            EdgeParams(e.parent, e.child, e.mean,
                       tuple(rng.uniform(0.005, 0.05, size=2)))
            for e in graph.edges])
        _assert_marginals_match_oracle(
            _random_grids(rng, P, 7, 9, zero_rate=0.2), graph)


def test_marginals_with_sharp_unaries_match_oracle():
    # unaries raised to the 200th power span about 260 decades
    rng = np.random.default_rng(21)
    for graph in (_random_tree(rng, 4), default_part_graph(scale=0.01)):
        P = len(graph.parts)
        _assert_marginals_match_oracle(
            _random_grids(rng, P, 10, 12) ** 200, graph)


def test_marginals_with_floor_rows_match_oracle():
    # whole rows and a whole column of every unary are zero (LOG_FLOOR)
    rng = np.random.default_rng(22)
    for _ in range(4):
        graph = _random_tree(rng, 4)
        grids = _random_grids(rng, 4, 8, 7)
        grids[:, [0, 3, 4, 7]] = 0.0
        grids[:, :, 2] = 0.0
        _assert_marginals_match_oracle(grids, graph)


def test_marginals_on_a_single_cell():
    rng = np.random.default_rng(23)
    graph = _random_tree(rng, 4)
    grids = np.array([[[0.3]], [[0.0]], [[2.0]], [[1.0]]])
    _assert_marginals_match_oracle(grids, graph)
    res = infer(grids, graph, mode="marginal")
    assert all(p.tolist() == [[1.0]] for p in res.posteriors.values())


@pytest.mark.parametrize("H, W", [(9, 1), (1, 9)])
def test_marginals_on_a_single_column_or_row_match_oracle(H, W):
    rng = np.random.default_rng(24 + H)
    for _ in range(4):
        graph = _random_tree(rng, 4)
        _assert_marginals_match_oracle(
            _random_grids(rng, 4, H, W, zero_rate=0.2), graph)


def test_product_kernel_falls_back_where_its_product_underflows(monkeypatch):
    import actkit.psinfer as psinfer
    passed = []

    def spy(f, t, maximize):
        passed.append(len(f))
        return _reduce_slabs(f, t, maximize)

    monkeypatch.setattr(psinfer, "_reduce_slabs", spy)
    # the only live child cell is x = 0, so the message is exactly
    # tx[o, 0] = -(o - 0)^2 / (2 vx): with vx = 1 every product is
    # normal and no row falls back; with vx = 0.01, exp(-50 o^2)
    # underflows to zero from o = 4 on and the one input row falls back
    W = 12
    beta = np.full((1, W), LOG_FLOOR)
    beta[0, 0] = 0.0
    for vx, fallback in ((1.0, []), (0.01, [1])):
        passed.clear()
        tables = _axis_tables(EdgeParams("p", "c", (0.0, 0.0), (vx, 1.0)),
                              (1, W))
        out = _separable_message(beta, *tables,
                                 tuple(np.exp(t) for t in tables))[0]
        assert passed == fallback
        expect = -np.arange(W) ** 2 / (2 * vx)
        assert np.abs(out[0] - expect).max() <= 1e-15 * np.abs(expect).max()
    # the same edge in a two-part chain: the parent's posterior is
    # proportional to exp(-50 x^2)
    graph = PartGraph(("p", "c"), [EdgeParams("p", "c", (0.0, 0.0),
                                              (0.01, 1.0))])
    grids = np.zeros((2, 1, W))
    grids[0] = 1.0
    grids[1, 0, 0] = 1.0
    passed.clear()
    _assert_marginals_match_oracle(grids, graph)
    assert passed


def test_infer_validation():
    graph = PartGraph(("a",), ())
    with pytest.raises(ValueError):
        infer(np.ones((2, 2, 2)), graph)            # part count mismatch
    with pytest.raises(ValueError):
        infer(-np.ones((1, 2, 2)), graph)           # negative unaries
    with pytest.raises(ValueError):
        infer(np.ones((1, 2, 2)), graph, mode="sample")
    with pytest.raises(ValueError):
        infer(np.ones((1, 2, 2)), graph, algorithm="loopy")


@pytest.mark.parametrize("mode", ["map", "marginal"])
@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_infer_rejects_an_empty_grid(mode, shape):
    graph = default_part_graph()
    with pytest.raises(ValueError, match=re.escape(
            "grids must be (num_parts, H, W), H and W >= 1")):
        infer(np.ones((len(graph.parts), *shape)), graph, mode)


# ---------------------------------------------------------------------------
# hand likelihoods

def test_hand_likelihood_unit_peak():
    hyps = HandHypothesisSet(np.array([[5.0, 5.0]]), np.array([0.0]))
    grid = hand_likelihood_map(hyps, (10, 10))
    assert grid[5, 5] == pytest.approx(1.0)
    assert grid[5, 8] == pytest.approx(math.exp(-0.005 * 9.0))
    assert grid.argmax() == 5 * 10 + 5


def test_hand_likelihood_drops_low_scores():
    hyps = HandHypothesisSet(np.array([[2.0, 2.0]]), np.array([-2.0]))
    grid = hand_likelihood_map(hyps, (5, 5))
    assert np.all(grid == 0.0)


def test_hand_likelihood_sums_contributions():
    hyps = HandHypothesisSet(np.array([[1.0, 1.0], [1.0, 1.0]]),
                             np.array([0.0, 1.0]))
    grid = hand_likelihood_map(hyps, (3, 3))
    assert grid[1, 1] == pytest.approx(1.0 + 2.0)


def test_hand_likelihood_precision_controls_spread():
    hyps = HandHypothesisSet(np.array([[0.0, 0.0]]), np.array([0.0]))
    wide = hand_likelihood_map(hyps, (1, 10), precision=0.001)
    tight = hand_likelihood_map(hyps, (1, 10), precision=0.1)
    assert wide[0, 5] > tight[0, 5]
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match="precision must be finite and positive"):
            hand_likelihood_map(hyps, (2, 2), precision=bad)


def test_hand_hypothesis_validation():
    with pytest.raises(ValueError):
        HandHypothesisSet(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        HandHypothesisSet(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        HandHypothesisSet(np.array([[np.nan, 0.0]]), np.zeros(1))


# ---------------------------------------------------------------------------
# stick evaluation

def _upper_body_truth():
    return {
        "r_shoulder": (0.0, 0.0), "r_elbow": (10.0, 0.0),
        "r_wrist": (10.0, 10.0),
        "l_shoulder": (30.0, 0.0), "l_elbow": (40.0, 0.0),
        "l_wrist": (40.0, 10.0),
    }


def test_pcp_exact_prediction_scores_one():
    truth = _upper_body_truth()
    frac, per_stick, excluded = pcp_eval(truth, truth)
    assert frac == 1.0
    assert set(per_stick) == {name for name, _, _ in DEFAULT_STICKS}
    assert excluded == ()


def test_pcp_perturbation_beyond_half_length_fails():
    truth = _upper_body_truth()
    pred = dict(truth)
    pred["r_shoulder"] = (6.0, 0.0)   # moved 0.6 of the 10 px stick
    frac, per_stick, _ = pcp_eval(pred, truth)
    assert per_stick["r_upper_arm"] is False
    assert frac == pytest.approx(3 / 4)


def test_pcp_boundary_is_inclusive():
    truth = _upper_body_truth()
    pred = dict(truth)
    pred["r_shoulder"] = (5.0, 0.0)   # exactly half the stick length
    pred["l_wrist"] = (40.0, 15.0)    # the second endpoint, likewise
    frac, per_stick, _ = pcp_eval(pred, truth)
    assert per_stick["r_upper_arm"] is True
    assert per_stick["l_lower_arm"] is True
    assert frac == 1.0
    pred["l_wrist"] = (40.0, 15.5)
    frac, per_stick, _ = pcp_eval(pred, truth)
    assert per_stick["l_lower_arm"] is False
    assert frac == pytest.approx(3 / 4)


def test_pcp_zero_length_stick_excluded():
    truth = _upper_body_truth()
    truth["l_elbow"] = truth["l_shoulder"]
    frac, per_stick, excluded = pcp_eval(truth, truth)
    assert excluded == ("l_upper_arm",)
    assert "l_upper_arm" not in per_stick
    assert frac == 1.0


def test_pcp_all_sticks_degenerate_raises():
    truth = {part: (1.0, 1.0) for _, a, b in DEFAULT_STICKS
             for part in (a, b)}
    with pytest.raises(ValueError, match="no stick with positive length"):
        pcp_eval(truth, truth)


# ---------------------------------------------------------------------------
# file formats

def test_grids_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    G = rng.uniform(size=(3, 4, 5))
    path = tmp_path / "grids.npy"
    save_grids(G, path)
    assert np.array_equal(load_grids(path), G)
    with pytest.raises(ValueError):
        save_grids(np.ones((2, 2)), tmp_path / "bad.npy")
    np.save(tmp_path / "neg.npy", -np.ones((1, 2, 2)))
    with pytest.raises(ValueError):
        load_grids(tmp_path / "neg.npy")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_grids_rejects_non_finite_before_writing(tmp_path, value):
    grids = np.ones((2, 3, 3))
    grids[1, 2, 0] = value
    path = tmp_path / "bad.npy"
    with pytest.raises(ValueError, match="finite non-negative"):
        save_grids(grids, path)
    assert not path.exists()


def test_hand_hypotheses_round_trip(tmp_path):
    hyps = HandHypothesisSet(np.array([[1.5, 2.0], [3.0, 4.25]]),
                             np.array([0.5, -0.25]))
    path = tmp_path / "hands.csv"
    save_hand_hypotheses_csv(hyps, path)
    loaded = load_hand_hypotheses_csv(path)
    assert np.array_equal(loaded.points, hyps.points)
    assert np.array_equal(loaded.scores, hyps.scores)
    path.write_text("x,y\n")
    with pytest.raises(ValueError):
        load_hand_hypotheses_csv(path)


def test_placements_round_trip(tmp_path):
    placements = {"torso": (3, 4), "head": (3, 1)}
    path = tmp_path / "parts.csv"
    save_placements_csv(placements, path)
    assert load_placements_csv(path) == placements
    path.write_text("part,x\n")
    with pytest.raises(ValueError):
        load_placements_csv(path)
