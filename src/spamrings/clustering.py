"""Soft graph clustering by gradient-based modularity maximization.

A two-layer graph convolutional network with skip connections maps node
features to k cluster logits; row-softmax gives a soft assignment C. The
training objective is negative modularity, -(1/2m) Tr(Cᵀ B C), plus a
collapse regularizer (sqrt(k)/n) * ||column sums of C||₂ - 1 that is zero
at the uniform assignment and sqrt(k) - 1 when everything lands in one
cluster. Training runs on the active subgraph, the nodes with at least
one edge, so n counts active nodes; one forward pass of the trained
network then assigns every node. Everything is plain numpy with
hand-written gradients so runs are bit-reproducible for a fixed seed; a
finite-difference check guards the backward pass.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ._lazy import lazy_import

if TYPE_CHECKING:
    import scipy.sparse as sp

np = lazy_import("numpy")

# Self-normalizing activation constants (Klambauer et al.).
SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

CHECKPOINT_VERSION = 1


def selu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_SCALE * x, SELU_SCALE * SELU_ALPHA * np.expm1(x))


def _selu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * np.exp(np.minimum(x, 0.0)))


def normalized_adjacency(adj) -> sp.csr_array:
    """Symmetric normalization D^{-1/2} A D^{-1/2}, as a CSR array.

    No self-loops are added; the skip connection in the network carries
    each node's own signal instead. Zero-degree rows stay zero.
    """
    import scipy.sparse as sp

    a = sp.csr_array(adj, dtype=np.float64)
    deg = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    scale = sp.diags_array(inv_sqrt, format="csr")
    return sp.csr_array(scale @ a @ scale)


@dataclass
class GCNParams:
    """Per-layer propagation and skip weight matrices, shapes chained."""

    weights: list[np.ndarray]
    skip_weights: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.skip_weights) or not self.weights:
            raise ValueError("need matching, nonempty weight/skip-weight lists")
        for t, (w, ws) in enumerate(zip(self.weights, self.skip_weights)):
            if w.shape != ws.shape:
                raise ValueError(f"layer {t}: weight {w.shape} vs skip {ws.shape}")
            if t > 0 and self.weights[t - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {t} input width does not chain")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @classmethod
    def init(cls, layer_sizes: Iterable[int], rng: np.random.Generator) -> "GCNParams":
        """Fan-in scaled uniform init, one draw order fixed by the generator."""
        sizes = list(layer_sizes)
        weights, skips = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            skips.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        return cls(weights, skips)


@dataclass
class TrainConfig:
    n_clusters: int = 50
    hidden_width: int = 64
    learning_rate: float = 1e-3
    epochs: int = 500
    dropout_rate: float = 0.5
    collapse_weight: float = 0.5
    seed: int = 0
    assign_threshold: float = 0.2

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ValueError("n_clusters must be >= 2")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.collapse_weight < 0.0:
            raise ValueError("collapse_weight must be >= 0")
        if not 0.0 < self.assign_threshold < 1.0:
            raise ValueError("assign_threshold must be in (0, 1)")
        if self.epochs < 1 or self.hidden_width < 1:
            raise ValueError("epochs and hidden_width must be positive")


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(adj_norm, feats, params: GCNParams, dropout_masks=None):
    """Returns (hiddens, logits, assignment, cache) with per-layer cache
    (layer input, propagated input, pre-activation)."""
    h = feats
    cache = []
    hiddens = []
    last = params.n_layers - 1
    for t, (w, ws) in enumerate(zip(params.weights, params.skip_weights)):
        agg = adj_norm @ h
        z = agg @ w + h @ ws
        cache.append((h, agg, z))
        if t == last:
            h = z
        else:
            h = selu(z)
            if dropout_masks is not None:
                h = h * dropout_masks[t]
            hiddens.append(h)
    logits = h
    return hiddens, logits, _row_softmax(logits), cache


def gcn_forward(adj_norm, feats, params: GCNParams, dropout_masks=None):
    """Run the network: hidden layers SeLU(Ã H W + H W_s), linear output,
    row-softmax into the soft assignment."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"feature width {feats.shape[1]} does not match first layer "
            f"input {params.weights[0].shape[0]}"
        )
    hiddens, logits, assignment, _ = _forward(adj_norm, feats, params, dropout_masks)
    return hiddens, logits, assignment


def _softmax_backward(assignment, d_assign):
    inner = (d_assign * assignment).sum(axis=1, keepdims=True)
    return assignment * (d_assign - inner)


def _backward(adj_norm, params: GCNParams, cache, d_logits, dropout_masks=None):
    grads_w = [None] * params.n_layers
    grads_ws = [None] * params.n_layers
    dh = d_logits
    for t in reversed(range(params.n_layers)):
        h_in, agg, z = cache[t]
        if t != params.n_layers - 1:
            if dropout_masks is not None:
                dh = dh * dropout_masks[t]
            dh = dh * _selu_grad(z)
        grads_w[t] = agg.T @ dh
        grads_ws[t] = h_in.T @ dh
        if t > 0:
            # adjacency is symmetric, so Ãᵀ = Ã
            dh = adj_norm @ (dh @ params.weights[t].T) + dh @ params.skip_weights[t].T
    return grads_w, grads_ws


def _loss_and_assignment_grad(assignment, adj, deg, two_m, collapse_weight):
    """Loss and dLoss/dC without materializing B: BC = AC - d (dᵀC) / 2m."""
    ac = adj @ assignment
    dc = deg @ assignment
    trace = float((assignment * ac).sum() - (dc @ dc) / two_m)
    col = assignment.sum(axis=0)
    col_norm = float(np.linalg.norm(col))
    n, k = assignment.shape
    collapse = (np.sqrt(k) / n) * col_norm - 1.0
    loss = -trace / two_m + collapse_weight * collapse
    d_assign = (-2.0 / two_m) * (ac - np.outer(deg, dc) / two_m)
    d_assign += collapse_weight * (np.sqrt(k) / n) * (col / col_norm)
    return loss, d_assign


@dataclass
class TrainResult:
    assignment: np.ndarray  # every node of the graph, active or isolated
    loss_trace: list[float]  # loss on the active subgraph, as are the two below
    params: GCNParams
    config: TrainConfig
    initial_loss: float
    final_loss: float
    n_train_nodes: int  # active nodes, the ones the epochs ran on


class _Problem(NamedTuple):
    """The loss on the active subgraph, and the full graph the final pass assigns."""

    adj: sp.csr_array  # loss adjacency among active nodes
    deg: np.ndarray
    two_m: float
    adj_norm: sp.csr_array  # propagation matrix among active nodes
    feats: np.ndarray  # feature rows of the active nodes
    full_adj_norm: sp.csr_array
    full_feats: np.ndarray


def _prepare(adj, features) -> _Problem:
    """Restrict the loss and the propagation to the active nodes.

    A node is active when its degree in adj is positive. An isolated node
    has no modularity gradient and feeds no other node's forward pass, so
    leaving it out changes only the collapse term, whose n and column sums
    then count active nodes.
    """
    import scipy.sparse as sp

    adj_sp = sp.csr_array(adj).astype(np.float64)
    deg = np.asarray(adj_sp.sum(axis=1)).ravel()
    two_m = float(deg.sum())
    if two_m <= 0:
        raise ValueError("graph has no edges (2m = 0); modularity loss undefined")
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape[0] != adj_sp.shape[0]:
        raise ValueError("features and adjacency disagree on node count")
    active = np.flatnonzero(deg > 0)
    sub = adj_sp[active][:, active]
    return _Problem(
        adj=sub,
        deg=deg[active],
        two_m=two_m,
        adj_norm=normalized_adjacency(sub),
        feats=feats[active],
        full_adj_norm=normalized_adjacency(adj_sp),
        full_feats=feats,
    )


def _seeded_init(feats, config: TrainConfig) -> tuple[GCNParams, np.random.Generator]:
    """Initial parameters and the dropout stream, split from the one training seed."""
    init_seq, drop_seq = np.random.SeedSequence(config.seed).spawn(2)
    sizes = [feats.shape[1], config.hidden_width, config.n_clusters]
    params = GCNParams.init(sizes, np.random.Generator(np.random.PCG64(init_seq)))
    return params, np.random.Generator(np.random.PCG64(drop_seq))


def _loss_at(prob: _Problem, params: GCNParams, config: TrainConfig) -> float:
    """Dropout-free loss of the active subgraph."""
    _, _, assignment, _ = _forward(prob.adj_norm, prob.feats, params)
    loss, _ = _loss_and_assignment_grad(
        assignment, prob.adj, prob.deg, prob.two_m, config.collapse_weight
    )
    return loss


def train(adj, features, config: TrainConfig) -> TrainResult:
    """Full-batch Adam on the clustering loss; deterministic per seed.

    Every epoch runs on the active subgraph (see _prepare). Dropout masks
    are drawn each epoch from a dedicated stream; the returned assignment
    is a dropout-free forward pass of the final parameters over the full
    graph, where an isolated node's row comes from the skip path alone.
    Raises RuntimeError if the loss stops being finite.
    """
    prob = _prepare(adj, features)
    n = prob.feats.shape[0]
    params, drop_rng = _seeded_init(prob.feats, config)
    initial_loss = _loss_at(prob, params, config)

    flat = params.weights + params.skip_weights
    m_state = [np.zeros_like(p) for p in flat]
    v_state = [np.zeros_like(p) for p in flat]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    hidden_sizes = params.layer_sizes[1:-1]

    loss_trace: list[float] = []
    for epoch in range(config.epochs):
        masks = None
        if config.dropout_rate > 0:
            keep = 1.0 - config.dropout_rate
            masks = [
                (drop_rng.random(size=(n, width)) < keep).astype(np.float64) / keep
                for width in hidden_sizes
            ]
        _, _, assignment, cache = _forward(prob.adj_norm, prob.feats, params, masks)
        loss, d_assign = _loss_and_assignment_grad(
            assignment, prob.adj, prob.deg, prob.two_m, config.collapse_weight
        )
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={loss!r}")
        loss_trace.append(float(loss))
        d_logits = _softmax_backward(assignment, d_assign)
        grads_w, grads_ws = _backward(prob.adj_norm, params, cache, d_logits, masks)
        step = epoch + 1
        for p, g, m, v in zip(flat, grads_w + grads_ws, m_state, v_state):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    _, _, final_assignment, _ = _forward(prob.full_adj_norm, prob.full_feats, params)
    return TrainResult(
        assignment=final_assignment,
        loss_trace=loss_trace,
        params=params,
        config=config,
        initial_loss=float(initial_loss),
        final_loss=float(_loss_at(prob, params, config)),
        n_train_nodes=n,
    )


def gradient_check(adj, features, config: TrainConfig, step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Runs the dropout-free loss that train optimizes, on the same active
    subgraph, at the seeded initial parameters and perturbs every entry
    of every weight block. Intended for small instances; cost is two
    forward passes per parameter. Note the SeLU
    kink: an instance with a pre-activation within ~step of zero makes
    the central difference straddle two branches, inflating the reported
    error for that entry.
    """
    prob = _prepare(adj, features)
    params, _ = _seeded_init(prob.feats, config)

    _, _, assignment, cache = _forward(prob.adj_norm, prob.feats, params)
    _, d_assign = _loss_and_assignment_grad(
        assignment, prob.adj, prob.deg, prob.two_m, config.collapse_weight
    )
    grads_w, grads_ws = _backward(
        prob.adj_norm, params, cache, _softmax_backward(assignment, d_assign)
    )

    worst = 0.0
    for block, grad in zip(params.weights + params.skip_weights, grads_w + grads_ws):
        it = np.nditer(block, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = block[idx]
            block[idx] = orig + step
            up = _loss_at(prob, params, config)
            block[idx] = orig - step
            down = _loss_at(prob, params, config)
            block[idx] = orig
            fd = (up - down) / (2 * step)
            a = grad[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
            it.iternext()
    return worst


def assign_clusters(assignment, threshold: float = 0.2) -> dict[int, set[int]]:
    """Overlapping hard clusters from a soft assignment.

    Each node joins its argmax cluster plus every cluster whose
    probability reaches the threshold; clusters that attract nobody are
    dropped.
    """
    c = np.asarray(assignment, dtype=np.float64)
    members: dict[int, set[int]] = {}
    argmax = c.argmax(axis=1)
    for i in range(c.shape[0]):
        targets = {int(argmax[i])} | {int(j) for j in np.flatnonzero(c[i] >= threshold)}
        for j in targets:
            members.setdefault(j, set()).add(i)
    return {j: members[j] for j in sorted(members)}


def save_checkpoint(path, result: TrainResult) -> None:
    arrays = {}
    for t, (w, ws) in enumerate(zip(result.params.weights, result.params.skip_weights)):
        arrays[f"weight_{t}"] = w
        arrays[f"skip_weight_{t}"] = ws
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        n_layers=np.int64(result.params.n_layers),
        config_json=json.dumps(dataclasses.asdict(result.config), sort_keys=True),
        final_loss=np.float64(result.final_loss),
        **arrays,
    )


def load_checkpoint(path) -> tuple[GCNParams, TrainConfig, float]:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n_layers = int(data["n_layers"])
        weights = [data[f"weight_{t}"] for t in range(n_layers)]
        skips = [data[f"skip_weight_{t}"] for t in range(n_layers)]
        config = TrainConfig(**json.loads(str(data["config_json"])))
        final_loss = float(data["final_loss"])
    return GCNParams(weights, skips), config, final_loss


def write_assignment(path, node_ids, assignment, threshold: float = 0.2) -> None:
    """Per-node export: id, argmax cluster, all memberships, max probability."""
    c = np.asarray(assignment, dtype=np.float64)
    clusters = assign_clusters(c, threshold)
    memberships: dict[int, list[int]] = {i: [] for i in range(c.shape[0])}
    for j, nodes in clusters.items():
        for i in nodes:
            memberships[i].append(j)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id,argmax_cluster,memberships,max_prob\n")
        for i, node_id in enumerate(node_ids):
            joined = "|".join(str(j) for j in sorted(memberships[i]))
            fh.write(f"{node_id},{int(c[i].argmax())},{joined},{c[i].max():.6f}\n")
