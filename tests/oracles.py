"""Independent brute-force oracles used to pin expected values.

Everything here computes straight from definitions (explicit index loops,
Gram-matrix eigenvalues) and never calls into the package's own kernels,
so tests compare two genuinely different routes to the same quantity.
"""

import itertools

import numpy as np


def matricize_loops(t, mode):
    """Unfolding by explicit index enumeration.

    Columns run over the remaining modes in increasing order with the first
    remaining mode varying fastest.
    """
    t = np.asarray(t)
    rest = [d for ax, d in enumerate(t.shape) if ax != mode]
    out = np.zeros((t.shape[mode], int(np.prod(rest))))
    col = 0
    # itertools.product varies its last factor fastest, so feed the remaining
    # dims reversed and flip each index tuple back.
    for rev_idx in itertools.product(*[range(d) for d in reversed(rest)]):
        idx_rest = tuple(reversed(rev_idx))
        for r in range(t.shape[mode]):
            full = list(idx_rest)
            full.insert(mode, r)
            out[r, col] = t[tuple(full)]
        col += 1
    return out


def mode_n_product_loops(t, a, mode):
    """Mode product by explicit summation over the contracted index."""
    t = np.asarray(t)
    a = np.asarray(a)
    out_shape = list(t.shape)
    out_shape[mode] = a.shape[0]
    out = np.zeros(out_shape)
    for idx in itertools.product(*[range(d) for d in out_shape]):
        acc = 0.0
        for i in range(t.shape[mode]):
            src = list(idx)
            src[mode] = i
            acc += t[tuple(src)] * a[idx[mode], i]
        out[idx] = acc
    return out


def cross_cov_loops(x, y):
    """Mode-0 cross-covariance entry by entry."""
    x = np.asarray(x)
    y = np.asarray(y)
    out = np.zeros(x.shape[1:] + y.shape[1:])
    for ix in itertools.product(*[range(d) for d in x.shape[1:]]):
        for iy in itertools.product(*[range(d) for d in y.shape[1:]]):
            acc = 0.0
            for i in range(x.shape[0]):
                acc += x[(i,) + ix] * y[(i,) + iy]
            out[ix + iy] = acc
    return out


def tucker_reconstruct_loops(core, factors):
    """[[core; F0..FN-1]] by enumerating output entries.

    Each entry is the full contraction of the core against the outer product
    of factor rows (numpy handles only that innermost elementwise sum).
    """
    core = np.asarray(core)
    dims = tuple(np.asarray(f).shape[0] for f in factors)
    out = np.zeros(dims)
    for idx in itertools.product(*[range(d) for d in dims]):
        w = np.asarray(factors[0])[idx[0], :]
        for k in range(1, len(factors)):
            w = np.multiply.outer(w, np.asarray(factors[k])[idx[k], :])
        out[idx] = float(np.sum(core * w))
    return out


def kron_loops(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def gram_singular_values(m):
    """Singular values via the eigenvalues of m^T m (descending)."""
    m = np.asarray(m)
    evals = np.linalg.eigvalsh(m.T @ m)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def rank_one_block(scale, vectors):
    """scale * v1 o v2 o ... o vk by repeated outer products."""
    out = np.asarray(vectors[0], dtype=float)
    for v in vectors[1:]:
        out = np.multiply.outer(out, np.asarray(v, dtype=float))
    return scale * out


def pls_predict_sequential(model, x, r):
    """Two-way PLS prediction by deflating the new data one component at a time.

    Each score is read off the current residual, t_j = E_j w_j, which is then
    deflated, E_{j+1} = E_j - t_j p_j^T; the response accumulates
    d_j t_j q_j^T. Works on the model's raw weights and loadings only.
    """
    e = np.asarray(x, dtype=float)
    if model.x_mean is not None:
        e = e - model.x_mean
    y = np.zeros((e.shape[0], model.y_loadings.shape[0]))
    for j in range(r):
        t = e @ model.x_weights[:, j]
        e = e - np.outer(t, model.x_loadings[:, j])
        y += model.coefs[j] * np.outer(t, model.y_loadings[:, j])
    if model.y_mean is not None:
        y = y + model.y_mean
    return y
