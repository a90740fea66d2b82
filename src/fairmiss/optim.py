"""The logistic training objective and the L-BFGS-B solver that minimizes it.

One objective and one solver serve the plain trainer, the penalty trainer,
and the cluster-split loss. An evaluation of the objective takes one
exponential per row: ``logistic`` derives both the sigmoid and the softplus
log(1 + exp(z)) from e = exp(-|z|), branch-free. Its sigmoid, 1/(1 + e) for
z >= 0 and e/(1 + e) below, has the bits of the usual two-exponential form,
so fits do not depend on which form ran. The solver is scipy's L-BFGS-B
without bounds, started from the caller's point (zero everywhere in this
package), so a fit is a deterministic function of its data. It stops when
the max-norm of the projected gradient drops to ``tol`` or at the iteration
cap; stopping short of ``tol`` logs a WARNING on the ``fairmiss`` logger.

``descend`` calls scipy's compiled L-BFGS-B step, the private
``scipy.optimize._lbfgsb.setulb``, in the loop that
``minimize(method="L-BFGS-B")`` runs, with its arguments, work arrays and
stops. The routine's stopping points define every fit, so it stays; what
goes is minimize's wrapper, which builds a ``ScalarFunction`` per fit and
passes every evaluation through its caching layers: a fit of a few
evaluations took about twice as long through ``minimize``. The routine is
private, so ``tests/test_optim.py`` checks that both loops stop at the same
point with the same bits.

``load_lbfgsb`` loads that routine's extension file on its own, once per
process, without importing ``scipy.optimize``, whose ``__init__`` takes
about 0.4 s and 48 MB of resident memory for the one routine used here. The
module is registered under its own name, so a later ``import
scipy.optimize`` uses the same module object.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys

import numpy as np

from .errors import FairmissError

log = logging.getLogger("fairmiss")

# L-BFGS-B's relative-decrease stop, set near machine precision so that the
# gradient test (``tol``) decides convergence, and its memory of past steps
FTOL = 1e-15
MAXCOR = 20
# at most MAXLS evaluations per line search; an iteration that ends with
# more than MAXFUN evaluations in all stops the fit (minimize's defaults)
MAXLS = 20
MAXFUN = 15000
EPS = 2.0 ** -52  # float64's machine epsilon: setulb takes FTOL in units of it
# the trainers' L2 weight, the max-norm of the projected gradient at a stop
# (L-BFGS-B's ``gtol``) and the iteration cap
LAM = 1e-4
TOL = 1e-6
MAX_ITERS = 5000

# the words for L-BFGS-B's stop codes that descend's WARNING prints, status
# task[0] and reason task[1], as scipy's ``optimize._lbfgsb_py`` spells them
STATUS_MESSAGES = {0: "START", 1: "NEW_X", 2: "RESTART", 3: "FG", 4: "CONVERGENCE",
                   5: "STOP", 6: "WARNING", 7: "ERROR", 8: "ABNORMAL"}
TASK_MESSAGES = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS", 602: "STP = STPMAX", 603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION", 702: "FACTR < 0", 703: "FTOL < 0", 704: "GTOL < 0",
    705: "XTOL < 0", 706: "STP < STPMIN", 707: "STP > STPMAX", 708: "STPMIN < 0",
    709: "STPMAX < STPMIN", 710: "INITIAL G >= 0", 711: "M <= 0", 712: "N <= 0",
    713: "INVALID NBD",
}


def _scipy_dir() -> str:
    """The installed scipy package's directory, found without importing it."""
    return os.path.dirname(importlib.util.find_spec("scipy").origin)


@functools.cache
def load_lbfgsb():
    """scipy's compiled L-BFGS-B module, loaded from its extension file on
    the first call in a process and registered in ``sys.modules``.

    Raises ``FairmissError`` if scipy's ``optimize`` directory has no
    ``_lbfgsb`` module; scipy ships one from 1.15 on.
    """
    name = "scipy.optimize._lbfgsb"
    where = os.path.join(_scipy_dir(), "optimize")
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        from importlib.metadata import version
        raise FairmissError(
            f"scipy {version('scipy')} has no L-BFGS-B extension in {where}; "
            "fairmiss needs scipy >= 1.15"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def logistic(z: np.ndarray):
    """(sigmoid(z), log(1 + exp(z))) elementwise, both from the one
    exponential exp(-|z|), so neither overflows."""
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0, e)
    p /= 1.0 + e
    return p, np.maximum(z, 0.0) + np.log1p(e)


def _contrast(cells, labels, n: int) -> np.ndarray:
    """(pairs x n) matrix whose product with the score vector gives every
    penalized gap: one row per conditioning label and group pair (i < j),
    holding 1/|cell| on group i's rows and -1/|cell| on group j's."""
    index = dict(cells)
    groups = sorted({s for (s, _), _ in cells})
    rows = []
    for yy in labels:
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                row = np.zeros(n)
                for s, sign in ((groups[i], 1.0), (groups[j], -1.0)):
                    idx = index[(s, yy)]
                    row[idx] = sign / idx.size
                rows.append(row)
    return np.array(rows).reshape(len(rows), n)


def make_objective(x, y, lam: float, tau: float = 0.0, cells=(), labels=(0, 1)):
    """Closure computing (value, gradient) of the penalized training loss in
    the augmented weight vector (bias appended).

    The loss is the mean logistic loss plus (lam/2)||w||^2 with the bias
    unpenalized. With tau > 0 it adds tau / len(labels) times the squared gap
    of per-group mean sigmoid scores, summed over group pairs and over the
    conditioning labels in ``labels``. ``cells`` lists ((s, y), row indices)
    as ``Dataset.cells`` orders them; every cell whose label is in ``labels``
    must be non-empty, which ``Dataset.require_cells`` checks (the penalty
    trainer calls it). All gaps come from one contrast matrix built here, so
    an evaluation costs two products with the data like the plain loss.
    """
    x_aug = np.hstack([x, np.ones((x.shape[0], 1))])
    n = x_aug.shape[0]
    y = np.asarray(y).astype(np.float64)
    if tau > 0:
        contrast = _contrast(cells, labels, n)
        weight = tau / len(labels)

    def value_and_grad(w_aug):
        z = x_aug @ w_aug
        p, softplus = logistic(z)
        loss = float((softplus - y * z).sum()) / n  # np.mean's bits, less overhead
        reg = w_aug.copy()
        reg[-1] = 0.0
        loss += 0.5 * lam * float(reg @ reg)
        residual = (p - y) / n
        if tau > 0:
            gaps = contrast @ p
            loss += weight * float(gaps @ gaps)
            residual += 2.0 * weight * (gaps @ contrast) * p * (1.0 - p)
        return loss, x_aug.T @ residual + lam * reg

    return value_and_grad


def descend(value_and_grad, w0: np.ndarray, tol: float = TOL,
            max_iters: int = MAX_ITERS):
    """Minimize a smooth convex function with L-BFGS-B from ``w0``.

    ``value_and_grad(w) -> (f, g)`` returns a float and a new float64 array,
    and must not modify ``w``. Returns (w, f, iterations). It stops when the
    max-norm of the projected gradient is at most ``tol``, after
    ``max_iters`` iterations, or once an iteration ends with more than
    ``MAXFUN`` evaluations; ``max_iters = 0`` returns ``w0`` unchanged. A stop
    without convergence (a cap, or a failed line search) logs one WARNING
    with the iteration count, the final gradient norm and the stop reason.

    The loop is ``scipy.optimize.minimize(method="L-BFGS-B")``'s own, minus
    its wrapper: the same ``setulb`` arguments and work arrays, the same
    stops, and an evaluation counted, as minimize's ``ScalarFunction`` counts
    it, only when the point differs from the last one evaluated. So every fit
    stops where minimize stops, with the same bits.
    """
    # setulb is private, with this signature since scipy 1.15; it comes
    # from its extension file, not through scipy.optimize (module docstring)
    setulb = load_lbfgsb().setulb
    w = w0.astype(np.float64)
    if max_iters <= 0:
        f, _ = value_and_grad(w)
        return w, f, 0
    n, m = w.size, MAXCOR
    nbd = np.zeros(n, np.int32)  # no bounds: the bound arrays are never read
    bound = np.zeros(n)
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    last_x = last_f = last_g = None
    n_evals = iterations = 0
    while True:
        # setulb may write g, so it gets a copy and the last evaluation stays
        # as it was returned
        g = g.astype(np.float64)
        setulb(m, w, bound, bound, nbd, f, g, FTOL / EPS, tol, wa, iwa, task,
               lsave, isave, dsave, MAXLS, ln_task)
        if task[0] == 3:  # FG: f and g at w
            if last_x is None or not (w == last_x).all():
                last_f, last_g = value_and_grad(w)
                last_x = w.copy()
                n_evals += 1
            f, g = last_f, last_g
        elif task[0] == 1:  # NEW_X: an iteration ended
            iterations += 1
            if iterations >= max_iters:
                task[:] = 5, 504  # STOP: the iteration cap
            elif n_evals > MAXFUN:
                task[:] = 5, 502  # STOP: the evaluation cap
        else:
            break
    if task[0] != 4:  # CONVERGENCE
        log.warning(
            "L-BFGS-B stopped without converging after %d iterations "
            "(gradient max-norm %.3g, tol %g): %s: %s",
            iterations, float(np.max(np.abs(g))), tol,
            STATUS_MESSAGES[task[0]], TASK_MESSAGES[task[1]],
        )
    return w, float(f), iterations
