"""The logistic training objective and the full-batch gradient descent that
minimizes it.

One objective and one optimizer serve the plain trainer, the penalty trainer,
and the cluster-split loss. Descent is deterministic: zero initialization and
backtracking (Armijo) line search, stopping at gradient norm <= tol or the
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class OptimizerSettings:
    lam: float = 1e-4
    tol: float = 1e-6
    max_iters: int = 5000


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log1p_exp(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow."""
    return np.where(z > 0, z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def make_objective(x, y, lam: float, tau: float = 0.0, cells=(), labels=(0, 1)):
    """Closure computing (value, gradient) of the penalized training loss in
    the augmented weight vector (bias appended).

    The loss is the mean logistic loss plus (lam/2)||w||^2 with the bias
    unpenalized. With tau > 0 it adds tau / len(labels) times the squared gap
    of per-group mean sigmoid scores, summed over group pairs and over the
    conditioning labels in ``labels``. ``cells`` lists ((s, y), row indices)
    as ``Dataset.cells`` orders them; every cell must be non-empty.
    """
    x_aug = np.hstack([x, np.ones((x.shape[0], 1))])
    n = x_aug.shape[0]
    y = np.asarray(y).astype(np.float64)
    if tau > 0:
        for (s, yy), idx in cells:
            if idx.size == 0:
                raise ValidationError(
                    f"empty cell (s={s}, y={yy}): disparity penalty undefined"
                )
        groups = sorted({s for (s, _), _ in cells})
        scale = 1.0 / len(labels)

    def value_and_grad(w_aug):
        z = x_aug @ w_aug
        p = sigmoid(z)
        loss = float(np.mean(log1p_exp(z) - y * z))
        reg = w_aug.copy()
        reg[-1] = 0.0
        loss += 0.5 * lam * float(reg @ reg)
        grad = x_aug.T @ (p - y) / n + lam * reg
        if tau > 0:
            sp = p * (1.0 - p)
            mu, dmu = {}, {}
            for (s, yy), idx in cells:
                mu[(s, yy)] = float(np.mean(p[idx]))
                dmu[(s, yy)] = x_aug[idx].T @ sp[idx] / idx.size
            pen = 0.0
            pen_grad = np.zeros_like(w_aug)
            for yy in labels:
                for i in range(len(groups)):
                    for j in range(i + 1, len(groups)):
                        gap = mu[(groups[i], yy)] - mu[(groups[j], yy)]
                        pen += gap * gap
                        pen_grad += 2.0 * gap * (
                            dmu[(groups[i], yy)] - dmu[(groups[j], yy)]
                        )
            loss += tau * scale * pen
            grad = grad + tau * scale * pen_grad
        return loss, grad

    return value_and_grad


def descend(value_and_grad, w0: np.ndarray, tol: float, max_iters: int,
            armijo: float = 1e-4):
    """Minimize a smooth convex function by gradient descent with backtracking.

    ``value_and_grad(w) -> (f, g)``. Returns (w, f, iterations). The first
    step tries size 2; the accepted step size carries over between iterations
    (doubled once per iteration) so well-scaled problems rarely backtrack.
    """
    w = w0.astype(np.float64).copy()
    f, g = value_and_grad(w)
    step = 1.0
    it = 0
    while it < max_iters:
        gnorm2 = float(g @ g)
        if np.sqrt(gnorm2) <= tol:
            break
        step = min(step * 2.0, 1e8)
        while True:
            w_new = w - step * g
            f_new, g_new = value_and_grad(w_new)
            if f_new <= f - armijo * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-16:
                w_new, f_new, g_new = w, f, g
                break
        if step < 1e-16:
            break
        w, f, g = w_new, f_new, g_new
        it += 1
    return w, f, it
