"""Exact modularity of a hard partition, from a sparse adjacency.

Q = (1/2m) sum_ij (A_ij - d_i d_j / 2m) over same-cluster ordered node
pairs, i == j included, with d the weighted degree and 2m the total
weight. Summed per cluster this is (within-cluster weight - sum over
clusters of (cluster degree)² / 2m) / 2m, so no n x n matrix is needed.
"""

from __future__ import annotations

from ._lazy import lazy_import

np = lazy_import("numpy")
sp = lazy_import("scipy.sparse")


def modularity(adj, labels) -> float:
    """Modularity Q of a hard cluster assignment on a symmetric adjacency.

    adj may be a dense array or any scipy sparse matrix; a CSR array, such
    as the int32 co-reviewer counts, is read in place, row by row. labels
    holds one nonnegative cluster id per node. Raises ValueError on an
    edgeless graph, where Q is undefined.
    """
    a = sp.csr_array(adj)
    labels = np.asarray(labels)
    if a.shape[0] != a.shape[1] or labels.shape != (a.shape[0],):
        raise ValueError(
            f"need a square adjacency and one label per node, got {a.shape} and {labels.shape}"
        )
    deg = a @ np.ones(a.shape[0])  # float64 degrees, whatever adj's dtype
    two_m = float(deg.sum())
    if two_m <= 0:
        raise ValueError("modularity undefined for edgeless graph (2m = 0)")
    small = labels.astype(np.min_scalar_type(labels.max()))  # one byte for up to 256 clusters
    within = float(a.data[small[a.indices] == np.repeat(small, np.diff(a.indptr))].sum())
    by_cluster = np.bincount(labels, weights=deg)
    return (within - float((by_cluster * by_cluster).sum()) / two_m) / two_m
