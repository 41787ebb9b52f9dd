"""Tests for the sequential reference P-Tucker engine (Algorithms 2-4)."""
import numpy as np
import pytest

from repro.core import reference
from repro.core.approx import dense_core_from_coo, full_core_coo, truncate_core
from repro.core.config import PTuckerConfig
from repro.core.metrics import fit, reconstruction_error, rmse
from repro.synth_data import lowrank_tensor, sparse_tensor_uniform


@pytest.fixture(scope="module")
def planted():
    return lowrank_tensor(
        shape=(30, 25, 20), ranks=(3, 3, 3), nnz=3000, noise=0.0, seed=1
    )


@pytest.fixture(scope="module")
def planted_result(planted):
    cfg = PTuckerConfig(ranks=(3, 3, 3), max_iters=12, tol=1e-6, seed=0)
    return reference.factorize(planted, cfg)


def test_error_decreases_monotonically(planted_result):
    """Theorem 2: the loss never increases, so Eq. 6 errors are monotone."""
    es = planted_result.errors
    assert all(es[i + 1] <= es[i] + 1e-9 for i in range(len(es) - 1))


def test_high_fit_on_noiseless_planted(planted, planted_result):
    assert planted_result.fit(planted.norm()) > 0.95


def test_final_state_reproduces_recorded_error(planted, planted_result):
    """The QR step (lines 8-11) must preserve the reconstruction error."""
    err = reconstruction_error(
        planted, planted_result.core, planted_result.factors
    )
    assert err == pytest.approx(planted_result.errors[-1], rel=1e-6)


def test_factors_orthonormal_after_qr(planted_result):
    for q in planted_result.factors:
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-8)


def test_unobserved_rows_handled(planted):
    """A mode index with no observations must end as a zero row pre-QR;
    post-QR its row stays in the orthonormal basis but contributes no
    prediction weight — check via prediction at an unobserved-only index."""
    t = sparse_tensor_uniform(shape=(40, 8, 6), nnz=30, seed=3)
    observed0 = set(np.unique(t.idx[:, 0]).tolist())
    missing = [i for i in range(40) if i not in observed0]
    assert missing, "generator must leave some mode-0 indices unobserved"
    cfg = PTuckerConfig(ranks=(2, 2, 2), max_iters=3, tol=0.0, seed=0)
    res = reference.factorize(t, cfg)
    # Pre-QR zero rows rotate by R^(n); prediction contribution must be 0.
    from repro.core.metrics import predict

    probe = np.array([[missing[0], t.idx[0, 1], t.idx[0, 2]]], np.int64)
    pred = predict(res.core, res.factors, probe)
    np.testing.assert_allclose(pred, 0.0, atol=1e-8)


def test_convergence_flag(planted):
    cfg = PTuckerConfig(ranks=(3, 3, 3), max_iters=50, tol=1e-3, seed=0)
    res = reference.factorize(planted, cfg)
    assert res.converged
    assert res.n_iters < 50


def test_deterministic_given_seed(planted):
    cfg = PTuckerConfig(ranks=(2, 2, 2), max_iters=3, tol=0.0, seed=5)
    r1 = reference.factorize(planted, cfg)
    r2 = reference.factorize(planted, cfg)
    np.testing.assert_array_equal(r1.errors, r2.errors)
    for a, b in zip(r1.factors, r2.factors):
        np.testing.assert_array_equal(a, b)


def test_seed_changes_init(planted):
    r1 = reference.factorize(
        planted, PTuckerConfig(ranks=(2, 2, 2), max_iters=1, tol=0.0, seed=1)
    )
    r2 = reference.factorize(
        planted, PTuckerConfig(ranks=(2, 2, 2), max_iters=1, tol=0.0, seed=2)
    )
    assert r1.errors[0] != r2.errors[0]


def test_cache_variant_matches_default(planted):
    kw = dict(ranks=(3, 3, 3), max_iters=4, tol=0.0, seed=0)
    rd = reference.factorize(planted, PTuckerConfig(**kw))
    rc = reference.factorize(planted, PTuckerConfig(**kw, variant="cache"))
    np.testing.assert_allclose(rc.errors, rd.errors, rtol=1e-10)
    for a, b in zip(rc.factors, rd.factors):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_approx_truncates_core(planted):
    cfg = PTuckerConfig(
        ranks=(3, 3, 3),
        max_iters=5,
        tol=0.0,
        seed=0,
        variant="approx",
        truncation_rate=0.2,
    )
    res = reference.factorize(planted, cfg)
    hist = res.core_nnz_history
    assert hist[0] == 27 - 5  # 20% of 27 -> 5 removed after iter 1
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))


def test_approx_first_iteration_matches_default(planted):
    """Before any truncation the approx path must follow the default."""
    kw = dict(ranks=(3, 3, 3), max_iters=1, tol=0.0, seed=0)
    rd = reference.factorize(planted, PTuckerConfig(**kw))
    ra = reference.factorize(planted, PTuckerConfig(**kw, variant="approx"))
    assert ra.errors[0] == pytest.approx(rd.errors[0], rel=1e-10)


def test_approx_worse_or_equal_fit(planted):
    kw = dict(ranks=(3, 3, 3), max_iters=6, tol=0.0, seed=0)
    rd = reference.factorize(planted, PTuckerConfig(**kw))
    ra = reference.factorize(
        planted, PTuckerConfig(**kw, variant="approx", truncation_rate=0.3)
    )
    assert ra.errors[-1] >= rd.errors[-1] - 1e-9


def test_rmse_on_heldout_small(planted):
    train, test = planted.split(0.1, seed=0)
    cfg = PTuckerConfig(ranks=(3, 3, 3), max_iters=10, tol=1e-6, seed=0)
    res = reference.factorize(train, cfg)
    assert rmse(test, res.core, res.factors) < 0.1


def test_truncate_core_removes_highest_rerror():
    c_idx, c_vals = full_core_coo(np.arange(8, dtype=float).reshape(2, 2, 2))
    rerr = np.array([0.1, 5.0, 0.2, 4.0, 0.3, 0.0, 0.1, 0.2])
    new_idx, new_vals = truncate_core(c_idx, c_vals, rerr, 0.25)
    # top-2 rerror are positions 1 and 3 -> removed
    assert len(new_vals) == 6
    assert 1.0 not in new_vals and 3.0 not in new_vals


def test_truncate_core_zero_rate_noop():
    c_idx, c_vals = full_core_coo(np.ones((2, 2)))
    new_idx, new_vals = truncate_core(c_idx, c_vals, np.zeros(4), 0.1)
    assert len(new_vals) == 4  # int(0.1*4)=0 removed


def test_dense_core_from_coo_roundtrip():
    core = np.random.default_rng(0).random((2, 3, 2))
    c_idx, c_vals = full_core_coo(core)
    np.testing.assert_allclose(
        dense_core_from_coo(c_idx, c_vals, core.shape), core
    )


def test_config_validation():
    with pytest.raises(ValueError, match="variant"):
        PTuckerConfig(ranks=(2, 2), variant="bogus")
    with pytest.raises(ValueError, match="truncation_rate"):
        PTuckerConfig(ranks=(2, 2), variant="approx", truncation_rate=1.5)
    with pytest.raises(ValueError, match="positive"):
        PTuckerConfig(ranks=(0, 2))
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lam"):
            PTuckerConfig(ranks=(2, 2), lam=lam)
    with pytest.raises(ValueError, match="max_iters"):
        PTuckerConfig(ranks=(2, 2), max_iters=0)


def test_fit_metric_consistency(planted, planted_result):
    f1 = planted_result.fit(planted.norm())
    f2 = fit(planted, planted_result.core, planted_result.factors)
    assert f1 == pytest.approx(f2, rel=1e-6)
