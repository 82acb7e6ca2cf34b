"""Property tests of the batched local-metric solver.

Every generated bias matrix is Q diag(w) Q^T with |w| in [0.1, 10], so its
spectrum stays far above the relative threshold eps_rel * max|w| = 1e-9 * 10,
and each eigenvalue sits on a definite side of it.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from glmetric.local_metric import _check_stack, _solve_stack, local_metric_stack  # noqa: E402
from test_generative import model_set, random_model_set  # noqa: E402

EPS_REL = 1e-9
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


@st.composite
def bias_stacks(draw):
    """(B, Q): an (N, D, D) stack of symmetric matrices with well-separated
    spectra, and one random rotation Q."""
    dim = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    magnitude = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
    spectra = draw(st.lists(st.lists(magnitude, min_size=dim, max_size=dim),
                            min_size=n, max_size=n))
    signs = draw(st.lists(st.lists(st.sampled_from((-1.0, 1.0)), min_size=dim, max_size=dim),
                          min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.array(spectra) * np.array(signs)
    u = np.stack([random_rotation(rng, dim) for _ in range(n)])
    b = (u * w[:, None, :]) @ u.transpose(0, 2, 1)
    return 0.5 * (b + b.transpose(0, 2, 1)), random_rotation(rng, dim)


def indefinite(b):
    w = np.linalg.eigvalsh(b)
    return (w.max(axis=1) > 0) & (w.min(axis=1) < 0)


@PROPERTY_SETTINGS
@given(bias_stacks())
def test_unit_determinant_and_positive_definite(case):
    b, _ = case
    stack, degenerate = _solve_stack(b, EPS_REL)
    assert not degenerate.any()
    np.testing.assert_array_equal(stack, stack.transpose(0, 2, 1))
    w = np.linalg.eigvalsh(stack)
    assert (w > 0).all()
    np.testing.assert_allclose(np.log(w).sum(axis=1), 0.0, atol=1e-10)


@PROPERTY_SETTINGS
@given(bias_stacks())
def test_trace_vanishes_on_indefinite_rows(case):
    b, _ = case
    stack, _ = _solve_stack(b, EPS_REL)
    rows = indefinite(b)
    products = np.linalg.solve(stack[rows], b[rows])
    trace = np.trace(products, axis1=1, axis2=2)
    scale = np.abs(np.linalg.eigvals(products)).sum(axis=1)
    assert (np.abs(trace) <= 1e-10 * scale).all()


@PROPERTY_SETTINGS
@given(bias_stacks(), st.floats(1e-3, 1e3))
def test_invariant_to_positive_scaling(case, c):
    b, _ = case
    stack, _ = _solve_stack(b, EPS_REL)
    scaled, _ = _solve_stack(c * b, EPS_REL)
    np.testing.assert_allclose(scaled, stack, rtol=0, atol=1e-9 * np.abs(stack).max())


@PROPERTY_SETTINGS
@given(bias_stacks())
def test_rotation_equivariance(case):
    b, q = case
    stack, _ = _solve_stack(b, EPS_REL)
    rotated, _ = _solve_stack(q @ b @ q.T, EPS_REL)
    np.testing.assert_allclose(rotated, q @ stack @ q.T, rtol=0,
                               atol=1e-9 * np.abs(stack).max())


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_local_metric_stack_rows_are_unit_determinant_metrics(dim, classes, seed):
    rng = np.random.default_rng(seed)
    ms = random_model_set(rng, dim, classes)
    x = rng.normal(size=(12, dim)) * 2.0
    stack, degenerate = local_metric_stack(x, ms)
    assert stack.shape == (12, dim, dim) and degenerate.shape == (12,)
    np.testing.assert_array_equal(stack[degenerate], np.broadcast_to(np.eye(dim),
                                                                     stack[degenerate].shape))
    w = np.linalg.eigvalsh(stack)
    assert (w > 0).all()
    np.testing.assert_allclose(np.log(w).sum(axis=1), 0.0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(16, 64), st.floats(715.0, 740.0), st.integers(0, 2 ** 32 - 1))
def test_far_apart_classes_give_unit_determinant_metrics(dim, gap, seed):
    # Two unit-covariance classes 60 apart, queried where the log densities
    # differ by gap: the scale-free bias matrices there have subnormal entries.
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    sep = 60.0
    ms = model_set([np.zeros(dim), sep * direction], [np.eye(dim)] * 2)
    # at x = t * sep * direction + (a component orthogonal to direction),
    # log p0 - log p1 = (1 - 2t) * sep**2 / 2 = gap
    t = 0.5 - gap / sep ** 2
    x = rng.normal(size=(8, dim))
    x += np.outer(t * sep - x @ direction, direction)
    stack, degenerate = local_metric_stack(x, ms)
    assert not degenerate.any()
    _check_stack(stack, det_normalized=True)
