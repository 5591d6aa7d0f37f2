"""Soft graph clustering by gradient-based modularity maximization.

A two-layer graph convolutional network with skip connections maps node
features to k cluster logits; row-softmax gives a soft assignment C. The
training objective is negative modularity, -(1/2m) Tr(Cᵀ B C), plus
COLLAPSE_WEIGHT times a collapse regularizer (sqrt(k)/n) * ||column sums
of C||₂ - 1 that is zero at the uniform assignment and sqrt(k) - 1 when
everything lands in one cluster. Training runs on the active subgraph,
the nodes with at least one edge, so n counts active nodes. The network
has exactly two layers, and one straight-line ``_forward`` serves every
pass: each epoch, the dropout-free loss, the gradient check, and the
final assignment of every node, where an isolated node takes the skip
path alone. ``_backward`` is its straight-line reverse. Everything is
plain numpy with hand-written gradients so runs are bit-reproducible for
a fixed seed; a finite-difference check guards the backward pass.

Training computes in the floating dtype of the features: float32 features
(what ``graph.node_features`` returns, as in DMoN and the GCN paper) train
in float32, anything else in float64. The two weight gradients, the only
products that sum over the nodes, add fixed row blocks in block order, so
the result does not depend on how many threads BLAS uses.

The weights are one flat array from the seeded draw on: W₀, W_s0, W₁
and W_s1 are drawn into it in that order, and ``GCNParams`` holds the four
blocks as named views of it. Their gradients are views of a second flat
array, so Adam updates every weight in one elementwise pass per step.
``_prepare`` computes Â X once for every loss pass, and SeLU and its
derivative need no ``np.where``. Each step gives the same bits as a plain
per-layer epoch, which ``tests/oracles.py`` keeps as ``train_reference``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import lazy_import
from .reviews import row_writer

np = lazy_import("numpy")
sp = lazy_import("scipy.sparse")

# Self-normalizing activation constants (Klambauer et al.).
SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

CHECKPOINT_VERSION = 1

# Rows per block of the weight-gradient sums; see _blocked_gram.
GRAD_BLOCK_ROWS = 256

# Entries per block of rows that normalized_adjacency scales in float64 at once.
NORM_BLOCK_ENTRIES = 1 << 20

# Adam's step size, the share of hidden units each epoch drops, and the
# weight of the collapse regularizer in the loss.
LEARNING_RATE = 1e-3
DROPOUT_RATE = 0.5
COLLAPSE_WEIGHT = 0.5


def _float_array(x):
    """x as an array of float32 if it is one, else of float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def selu(x):
    """λ·max(x, 0) + λα·expm1(min(x, 0)).

    Bit-equal to choosing λx or λα·expm1(x) by the sign of x, except that
    -0.0 maps to +0.0, and it needs no branch select.
    """
    x = _float_array(x)
    out = np.maximum(x, 0)
    out *= SELU_SCALE
    neg = np.expm1(np.minimum(x, 0))
    neg *= SELU_SCALE * SELU_ALPHA
    out += neg
    return out


def _selu_grad(x):
    """λ where x > 0, else λα·exp(x), as pos·λ + (not pos)·λα·exp(min(x, 0))."""
    x = _float_array(x)
    pos = x > 0
    out = np.exp(np.minimum(x, 0))
    out *= SELU_SCALE * SELU_ALPHA
    out *= ~pos
    out += pos * x.dtype.type(SELU_SCALE)
    return out


def normalized_adjacency(adj, dtype="float64") -> sp.csr_array:
    """Symmetric normalization D^{-1/2} A D^{-1/2}, as a CSR array of ``dtype``.

    No self-loops are added; the skip connection in the network carries
    each node's own signal instead. Zero-degree rows stay zero. A CSR adj,
    in a run the int32 co-reviewer counts, is read in place. Entry (i, j)
    is (a_ij · s_i) · s_j in float64, cast to ``dtype``, on the input's own
    index arrays. Blocks of whole rows, about NORM_BLOCK_ENTRIES entries
    each, are scaled at a time, so no float64 array of every entry is made.
    """
    a = sp.csr_array(adj)
    deg = np.asarray(a.sum(axis=1), dtype=np.float64).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    data, indptr, start = np.empty(a.nnz, dtype=dtype), a.indptr, 0
    while start < a.shape[0]:  # a row longer than a block is a block of its own
        end = np.searchsorted(indptr, indptr[start] + NORM_BLOCK_ENTRIES, side="right") - 1
        end = max(int(end), start + 1)
        lo, hi = indptr[start], indptr[end]
        block = a.data[lo:hi] * np.repeat(inv_sqrt[start:end], np.diff(indptr[start : end + 1]))
        block *= inv_sqrt[a.indices[lo:hi]]
        data[lo:hi] = block
        start = end
    return sp.csr_array((data, a.indices, a.indptr), shape=a.shape)


class GCNParams(NamedTuple):
    """The propagation and skip weights of the two layers, in the order they
    are drawn and laid out in the flat array (see _views); W₀ and W_s0 are
    in × hidden, W₁ and W_s1 hidden × k."""

    w0: np.ndarray
    ws0: np.ndarray
    w1: np.ndarray
    ws1: np.ndarray


def _views(flat, n_in: int, config: TrainConfig) -> GCNParams:
    """The 1-D array flat as the four weight blocks, consecutive in GCNParams order."""
    h, k = config.hidden_width, config.n_clusters
    shapes = ((n_in, h), (n_in, h), (h, k), (h, k))
    parts = np.split(flat, np.cumsum([a * b for a, b in shapes])[:-1])
    return GCNParams(*(part.reshape(shape) for part, shape in zip(parts, shapes)))


@dataclass
class TrainConfig:
    n_clusters: int = 50
    hidden_width: int = 64
    epochs: int = 500
    assign_threshold: float = 0.2

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ValueError("train.n_clusters must be >= 2")
        if self.hidden_width < 1:
            raise ValueError("train.hidden_width must be >= 1")
        if self.epochs < 1:
            raise ValueError("train.epochs must be >= 1")
        if not 0.0 < self.assign_threshold < 1.0:
            raise ValueError("train.assign_threshold must be in (0, 1)")


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(propagate, feats, params: GCNParams, mask=None, agg0=None):
    """The network: H = SeLU(Â X W₀ + X W_s0), times the dropout mask if
    given, then C = softmax(Â H W₁ + H W_s1) row by row.

    propagate(x) is Â x; agg0, if given, is Â X, computed once by the
    caller. Returns (C, cache), the cache (Â X, the hidden pre-activation,
    H, Â H) being what _backward reads.
    """
    w0, ws0, w1, ws1 = params
    agg0 = propagate(feats) if agg0 is None else agg0
    z0 = agg0 @ w0 + feats @ ws0
    hidden = selu(z0)
    if mask is not None:
        hidden *= mask
    agg1 = propagate(hidden)
    return _row_softmax(agg1 @ w1 + hidden @ ws1), (agg0, z0, hidden, agg1)


def _softmax_backward(assignment, d_assign):
    inner = (d_assign * assignment).sum(axis=1, keepdims=True)
    return assignment * (d_assign - inner)


def _blocked_gram(a, b, out=None):
    """aᵀ b as a sum of GRAD_BLOCK_ROWS-row block products, added in block order,
    written into out if given.

    OpenBLAS splits a long inner dimension across its threads, so a plain
    aᵀ b over some 400 rows or more sums in an order, and rounds to bits,
    that depend on the thread count. A block stays below that length, and
    the blocks are added in one fixed order.
    """
    out = np.matmul(a[:GRAD_BLOCK_ROWS].T, b[:GRAD_BLOCK_ROWS], out=out)
    for start in range(GRAD_BLOCK_ROWS, a.shape[0], GRAD_BLOCK_ROWS):
        out += a[start : start + GRAD_BLOCK_ROWS].T @ b[start : start + GRAD_BLOCK_ROWS]
    return out


def _backward(propagate, feats, params: GCNParams, cache, d_logits, mask=None, out=None):
    """Gradients of the four weight blocks, as a GCNParams, from the logits'
    gradient and the cache of the _forward pass that took feats and mask;
    each is written into its block of out, a GCNParams, if given."""
    out = out or GCNParams(None, None, None, None)
    agg0, z0, hidden, agg1 = cache
    g_w1 = _blocked_gram(agg1, d_logits, out.w1)
    g_ws1 = _blocked_gram(hidden, d_logits, out.ws1)
    # adjacency is symmetric, so Âᵀ = Â
    dh = propagate(d_logits @ params.w1.T) + d_logits @ params.ws1.T
    if mask is not None:
        dh *= mask
    dh *= _selu_grad(z0)
    g_w0, g_ws0 = _blocked_gram(agg0, dh, out.w0), _blocked_gram(feats, dh, out.ws0)
    return GCNParams(g_w0, g_ws0, g_w1, g_ws1)


def _loss_and_assignment_grad(assignment, adj, deg, two_m):
    """Loss and dLoss/dC without materializing B: BC = AC - d (dᵀC) / 2m."""
    ac = adj @ assignment
    dc = deg @ assignment
    trace = float((assignment * ac).sum() - (dc @ dc) / two_m)
    col = assignment.sum(axis=0)
    col_norm = float(np.linalg.norm(col))
    n, k = assignment.shape
    # a Python float scale keeps float32 arrays float32; np.sqrt would give a float64 scalar
    scale = math.sqrt(k) / n
    collapse = scale * col_norm - 1.0
    loss = -trace / two_m + COLLAPSE_WEIGHT * collapse
    d_assign = (-2.0 / two_m) * (ac - np.outer(deg, dc) / two_m)
    d_assign += COLLAPSE_WEIGHT * scale * (col / col_norm)
    return loss, d_assign


@dataclass
class TrainResult:
    assignment: np.ndarray  # every node of the graph, active or isolated
    loss_trace: list[float]  # loss on the active subgraph, as are the two below
    params: GCNParams
    config: TrainConfig
    seed: int  # the one seed of the init and dropout streams
    initial_loss: float
    final_loss: float
    n_train_nodes: int  # active nodes, the ones the epochs ran on
    clusters: np.ndarray  # node × cluster bool mask: memberships at assign_threshold


class _Problem(NamedTuple):
    """The loss and the propagation on the active subgraph."""

    adj: sp.csr_array  # loss adjacency among active nodes
    deg: np.ndarray
    two_m: float
    adj_norm: sp.csr_array  # propagation matrix among active nodes
    feats: np.ndarray  # feature rows of the active nodes
    agg0: np.ndarray  # Â X of the active nodes
    active: np.ndarray  # indices of the active nodes in the full graph

    def propagate(self, x):
        return self.adj_norm @ x

    def loss(self, params: GCNParams, grads=None, mask=None) -> float:
        """The loss at params, with the dropout mask if given; the gradient
        of each weight block is written into grads, a GCNParams, if given."""
        assignment, cache = _forward(self.propagate, self.feats, params, mask, self.agg0)
        loss, d_assign = _loss_and_assignment_grad(assignment, self.adj, self.deg, self.two_m)
        if grads is not None:
            d_logits = _softmax_backward(assignment, d_assign)
            _backward(self.propagate, self.feats, params, cache, d_logits, mask, out=grads)
        return loss


def _prepare(adj, features) -> _Problem:
    """Restrict the loss and the propagation to the active nodes.

    A node is active when its degree in adj is positive. An isolated node
    has no modularity gradient and feeds no other node's forward pass, so
    leaving it out changes only the collapse term, whose n and column sums
    then count active nodes. Degrees, 2m and the normalization are computed
    in float64; the matrices, degrees and features are then cast to the
    features' dtype (see _float_array). The two matrices share one pair of
    index arrays. When every node is active they are adj's own index
    arrays: a canonical CSR indexed by the identity would be an equal copy.
    """
    adj_sp = sp.csr_array(adj)
    deg = np.asarray(adj_sp.sum(axis=1), dtype=np.float64).ravel()
    two_m = float(deg.sum())
    if two_m <= 0:
        raise ValueError("graph has no edges (2m = 0); modularity loss undefined")
    feats = _float_array(features)
    if feats.shape[0] != adj_sp.shape[0]:
        raise ValueError("features and adjacency disagree on node count")
    dtype = feats.dtype
    active = np.flatnonzero(deg > 0)
    every_node = active.size == adj_sp.shape[0] and adj_sp.has_canonical_format
    sub = adj_sp if every_node else adj_sp[active][:, active]

    def on_sub_pattern(data):
        return sp.csr_array((data.astype(dtype, copy=False), sub.indices, sub.indptr), sub.shape)

    adj_norm, active_feats = on_sub_pattern(normalized_adjacency(sub, dtype).data), feats[active]
    return _Problem(
        adj=on_sub_pattern(sub.data),
        deg=deg[active].astype(dtype, copy=False),
        two_m=two_m,
        adj_norm=adj_norm,
        feats=active_feats,
        agg0=adj_norm @ active_feats,
        active=active,
    )


def _assign_all(prob: _Problem, feats, params: GCNParams) -> np.ndarray:
    """Dropout-free soft assignment of every node of the graph.

    Only the active rows are propagated. An isolated node has no
    neighbours, so its propagated row is zero and its logits come from the
    skip path alone: softmax(selu(x W_s0) W_s1). The dense products still
    run over all rows, as in a forward pass over the full graph, because
    BLAS can round a product of a few rows differently from the same rows
    inside a taller one.
    """

    def propagate(h):
        agg = np.zeros_like(h)
        agg[prob.active] = prob.propagate(h[prob.active])
        return agg

    return _forward(propagate, feats, params)[0]


def _seeded_init(
    n_in: int, config: TrainConfig, seed: int, dtype
) -> tuple[np.ndarray, np.random.Generator]:
    """The initial weights as one flat array of dtype (see _views), and the
    dropout stream, split from the one training seed. The blocks W₀, W_s0,
    W₁, W_s1 are drawn in that order, fan-in scaled uniform, in float64
    whatever dtype, so one seed starts both dtypes from the same values."""
    init_seq, drop_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(init_seq))
    flat = np.empty(2 * config.hidden_width * (n_in + config.n_clusters))
    for block in _views(flat, n_in, config):
        bound = 1.0 / np.sqrt(block.shape[0])
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return flat.astype(dtype, copy=False), np.random.Generator(np.random.PCG64(drop_seq))


def train(adj, features, config: TrainConfig, seed: int = 0) -> TrainResult:
    """Full-batch Adam on the clustering loss; deterministic per seed.

    Computes in float32 if the features are float32, else in float64.
    Every epoch runs on the active subgraph (see _prepare). Dropout masks
    are drawn each epoch from a dedicated stream; the returned assignment
    is a dropout-free forward pass of the final parameters over every
    node (see _assign_all), and its clusters are the memberships at
    config.assign_threshold. Raises RuntimeError if the loss stops being
    finite.
    """
    prob = _prepare(adj, features)
    n, n_in = prob.feats.shape
    dtype = prob.feats.dtype
    # The weight blocks, and their gradients, are views into one flat array
    # each, so an Adam step is one pass over all parameters.
    flat, drop_rng = _seeded_init(n_in, config, seed, dtype)
    grad = np.empty_like(flat)
    params, grads = _views(flat, n_in, config), _views(grad, n_in, config)
    initial_loss = prob.loss(params)
    m_state, v_state = np.zeros_like(flat), np.zeros_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    keep = 1.0 - DROPOUT_RATE
    mask_scale = dtype.type(1) / dtype.type(keep)

    loss_trace: list[float] = []
    for epoch in range(config.epochs):
        mask = (drop_rng.random(size=(n, config.hidden_width)) < keep) * mask_scale
        loss = prob.loss(params, grads, mask)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={loss!r}")
        loss_trace.append(float(loss))
        step = epoch + 1
        m_state *= beta1
        m_state += (1 - beta1) * grad
        v_state *= beta2
        v_state += (1 - beta2) * grad * grad
        m_hat = m_state / (1 - beta1**step)
        v_hat = v_state / (1 - beta2**step)
        flat -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)

    assignment = _assign_all(prob, _float_array(features), params)
    return TrainResult(
        assignment=assignment,
        loss_trace=loss_trace,
        params=params,
        config=config,
        seed=seed,
        initial_loss=float(initial_loss),
        final_loss=float(prob.loss(params)),
        n_train_nodes=n,
        clusters=memberships(assignment, config.assign_threshold),
    )


def gradient_check(adj, features, config: TrainConfig, seed: int = 0, step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Runs the dropout-free loss that train optimizes, on the same active
    subgraph, at the seeded initial parameters and perturbs every entry
    of the flat weight array. It always runs in float64, whatever the
    features' dtype: a central difference at step 1e-5 needs that
    precision. Intended for small instances; cost is two forward passes
    per parameter. Note the SeLU kink: an instance with a pre-activation
    within ~step of zero makes the central difference straddle two
    branches, inflating the reported error for that entry.
    """
    prob = _prepare(adj, np.asarray(features, dtype=np.float64))
    n_in = prob.feats.shape[1]
    flat, _ = _seeded_init(n_in, config, seed, np.float64)
    grad = np.empty_like(flat)
    params = _views(flat, n_in, config)
    prob.loss(params, _views(grad, n_in, config))

    worst = 0.0
    for i, orig in enumerate(flat.tolist()):
        flat[i] = orig + step
        up = prob.loss(params)
        flat[i] = orig - step
        down = prob.loss(params)
        flat[i] = orig
        fd = (up - down) / (2 * step)
        a = grad[i]
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst


def memberships(assignment, threshold: float) -> np.ndarray:
    """Node × cluster mask of overlapping hard clusters: each node's argmax
    cluster and every cluster whose probability (compared in float64)
    reaches the threshold."""
    c = np.asarray(assignment, dtype=np.float64)
    mask = c >= threshold
    mask[np.arange(c.shape[0]), c.argmax(axis=1)] = True
    return mask


def save_checkpoint(path, result: TrainResult) -> None:
    w0, ws0, w1, ws1 = result.params
    config = {**dataclasses.asdict(result.config), "seed": result.seed}
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        n_layers=np.int64(2),
        config_json=json.dumps(config, sort_keys=True),
        final_loss=np.float64(result.final_loss),
        weight_0=w0, skip_weight_0=ws0, weight_1=w1, skip_weight_1=ws1,
    )


def write_assignment(path, node_ids, assignment, clusters) -> None:
    """Per-node CSV export, ids quoted as needed: id, argmax cluster, the
    node's columns of the clusters mask, max prob."""
    c = np.asarray(assignment, dtype=np.float64)
    columns = np.nonzero(clusters)[1].tolist()  # row-major: each node's clusters ascending
    ends = np.cumsum(clusters.sum(axis=1)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = row_writer(fh)
        writer.writerow(("node_id", "argmax_cluster", "memberships", "max_prob"))
        writer.writerows(
            (node_id, j, "|".join(map(str, columns[start:end])), f"{top:.6f}")
            for node_id, j, start, end, top in zip(
                node_ids, c.argmax(axis=1).tolist(), [0] + ends, ends, c.max(axis=1).tolist()
            )
        )
