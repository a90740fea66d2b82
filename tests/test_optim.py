"""``optim.descend`` drives scipy's L-BFGS-B routine itself; it must stop
where ``scipy.optimize.minimize`` stops, with the same bits, on every
objective the package minimizes."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import _lbfgsb_py

from fairmiss.data import Dataset
from fairmiss.optim import (LAM, MAX_ITERS, STATUS_MESSAGES, TASK_MESSAGES, TOL, descend,
                            make_objective)

from oracles import reference_descend


@st.composite
def objectives(draw):
    """A plain, penalty or cluster-loss objective on a small training set
    whose four (group, label) cells are non-empty, and its start point."""
    n = draw(st.integers(4, 120))
    d = draw(st.integers(1, 8))
    x = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3, 3, allow_subnormal=False)
                        | st.just(0.0)))  # zero-imputed holes
    s = np.array([0, 0, 1, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 4,
                                              max_size=n - 4)))
    y = np.array([0, 1, 0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 4,
                                              max_size=n - 4)))
    if draw(st.booleans()):  # labels a linear rule fits, so weights grow
        y = (x[:, 0] > 0).astype(np.int64)
        y[:4] = [0, 1, 0, 1]
    kind = draw(st.sampled_from(["plain", "penalty", "cluster"]))
    if kind == "plain":
        obj = make_objective(x, y, LAM)
    elif kind == "cluster":
        obj = make_objective(x, y, LAM / n)
    else:
        tau = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]) | st.floats(0.01, 100.0))
        labels = draw(st.sampled_from([(0, 1), (1,)]))
        obj = make_objective(x, y, LAM, tau, Dataset(x, s, y).cells(), labels)
    return obj, np.zeros(d + 1)


@given(objectives(), st.sampled_from([1, 2, 5, MAX_ITERS]), st.sampled_from([TOL, 1e-9]))
def test_descend_stops_where_minimize_stops(case, max_iters, tol):
    obj, w0 = case
    w, f, iterations = descend(obj, w0, tol, max_iters)
    w_ref, f_ref, iterations_ref = reference_descend(obj, w0, tol, max_iters)
    assert w.tobytes() == w_ref.tobytes()
    assert f == f_ref and iterations == iterations_ref


def test_stop_words_are_scipys():
    # descend's WARNING prints these for task = (status, reason); a failed line
    # search stops with (ABNORMAL, 0)
    assert STATUS_MESSAGES == _lbfgsb_py.status_messages
    assert TASK_MESSAGES == _lbfgsb_py.task_messages
