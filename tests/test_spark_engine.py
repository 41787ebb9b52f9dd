"""Integration tests: the Spark P-Tucker engines vs the sequential oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.core import ptucker, reference
from repro.core.config import PTuckerConfig
from repro.core.metrics import reconstruction_error
from repro.synth_data import lowrank_tensor
from repro.tensor.linalg import init_factors
from repro.tensor.spark_tensor import ModePartitionedTensor


@pytest.fixture(scope="module")
def tensor():
    return lowrank_tensor(
        shape=(40, 30, 20), ranks=(3, 3, 3), nnz=4000, noise=0.0, seed=1
    )


@pytest.fixture(scope="module")
def mpt(spark, tensor):
    m = ModePartitionedTensor(tensor.to_spark(spark), tensor.shape, partitions=4)
    yield m
    m.unpersist()


def _cfg(**kw):
    base = dict(ranks=(3, 3, 3), max_iters=3, tol=0.0, seed=0, partitions=4)
    base.update(kw)
    return PTuckerConfig(**base)


def test_mpt_counts_and_views(spark, tensor, mpt):
    assert mpt.nnz == tensor.nnz
    for n in range(3):
        v = mpt.view(n)
        assert v.rdd.getNumPartitions() == 4
        assert v.count() == tensor.nnz


def test_mpt_partitioning_groups_rows(spark, tensor, mpt):
    """Hash partitioning must keep each row group in one partition."""
    view = mpt.view(1)

    def owner_count(pdf_iter):
        import pandas as pd

        frames = list(pdf_iter)
        if not frames:
            return iter([pd.DataFrame({"i": []})])
        pdf = pd.concat(frames)
        return iter([pd.DataFrame({"i": pdf["i1"].unique()})])

    owners = view.mapInPandas(owner_count, schema="i long").toPandas()
    # every mode-1 index appears in exactly one partition
    assert owners["i"].is_unique


def test_spark_matches_reference_default(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg())
    rr = reference.factorize(tensor, _cfg())
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)
    for a, b in zip(rs.factors, rr.factors):
        np.testing.assert_allclose(a, b, atol=1e-8)
    np.testing.assert_allclose(rs.core, rr.core, atol=1e-8)


def test_spark_matches_reference_approx(spark, tensor, mpt):
    cfg = _cfg(variant="approx", max_iters=4)
    rs = ptucker.factorize(spark, mpt, tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)
    assert rs.core_nnz_history == rr.core_nnz_history


def test_spark_matches_reference_cache(spark, tensor):
    cfg = _cfg(variant="cache", max_iters=2)
    rs = ptucker.factorize(spark, tensor.to_spark(spark), tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-8)
    for a, b in zip(rs.factors, rr.factors):
        np.testing.assert_allclose(a, b, atol=1e-7)


@pytest.mark.parametrize("partitions", [1, 2, 8, 64])
@pytest.mark.parametrize("variant", ["default", "approx", "cache"])
def test_partition_count_invariance(spark, tensor, variant, partitions):
    """Results must not depend on the parallelism degree. 64 partitions
    exceed I_2 = 20, so empty partitions reach every pass."""
    cfg = _cfg(variant=variant, partitions=partitions, max_iters=2)
    rs = ptucker.factorize(spark, tensor.to_spark(spark), tensor.shape, cfg)
    rr = reference.factorize(tensor, cfg)
    np.testing.assert_allclose(rs.errors, rr.errors, rtol=1e-9)


def test_accepts_raw_dataframe(spark, tensor):
    """factorize() must build (and clean up) its own MPT from a DataFrame."""
    rs = ptucker.factorize(
        spark, tensor.to_spark(spark), tensor.shape, _cfg(max_iters=1)
    )
    assert len(rs.errors) == 1


def test_spark_error_monotone(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg(max_iters=5))
    es = rs.errors
    assert all(es[i + 1] <= es[i] + 1e-9 for i in range(len(es) - 1))


def test_assemble_factor_zero_fills():
    collected = pd.DataFrame(
        {"i": [1, 3], "row": [np.array([1.0, 2.0]), np.array([3.0, 4.0])]}
    )
    out = ptucker.assemble_factor(collected, 5, 2)
    np.testing.assert_allclose(out[1], [1, 2])
    np.testing.assert_allclose(out[3], [3, 4])
    np.testing.assert_allclose(out[[0, 2, 4]], 0.0)


def test_assemble_factor_empty():
    out = ptucker.assemble_factor(pd.DataFrame({"i": [], "row": []}), 4, 3)
    np.testing.assert_allclose(out, np.zeros((4, 3)))


def test_spark_sse_matches_numpy(spark, tensor, mpt):
    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=0)
    bc = spark.sparkContext.broadcast((core, factors, None))
    got = ptucker.spark_sse(mpt.view(0), bc, 3)
    bc.unpersist()
    want = reconstruction_error(tensor, core, factors) ** 2
    assert got == pytest.approx(want, rel=1e-9)


def test_spark_reconstruction_error_matches_numpy(spark, tensor):
    """spark_sse also runs on a raw, unpartitioned entries DataFrame."""
    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=1)
    bc = spark.sparkContext.broadcast((core, factors, None))
    got = np.sqrt(ptucker.spark_sse(tensor.to_spark(spark), bc, 3))
    bc.unpersist()
    want = reconstruction_error(tensor, core, factors)
    assert got == pytest.approx(want, rel=1e-9)


def test_spark_sse_vs_duckdb_oracle(spark, tensor):
    """Query-result check: the distributed SSE equals a SQL aggregation
    over per-entry squared residuals (DuckDB as ground truth)."""
    from repro.core.delta import predictions
    from repro.oracle import assert_equivalent
    from pyspark.sql import functions as F

    factors, core = init_factors(tensor.shape, (3, 3, 3), seed=2)
    pdf = tensor.to_pandas()
    pdf["pred"] = predictions(core, factors, tensor.idx)
    df = spark.createDataFrame(pdf)
    out = df.select(
        F.round(F.sum((F.col("val") - F.col("pred")) ** 2), 6).alias("sse")
    )
    assert_equivalent(
        out,
        "SELECT ROUND(SUM((val - pred) * (val - pred)), 6) AS sse FROM entries",
        entries=pdf,
    )


def test_spark_entries_from_coo(spark, tensor):
    df = tensor.to_spark(spark)
    assert df.count() == tensor.nnz
    assert set(df.columns) == {"i0", "i1", "i2", "val"}


def test_iter_times_recorded(spark, tensor, mpt):
    rs = ptucker.factorize(spark, mpt, tensor.shape, _cfg(max_iters=2))
    assert len(rs.iter_times) == 2
    assert all(t > 0 for t in rs.iter_times)


def test_spark_convergence_stops_early(spark):
    t = lowrank_tensor(
        shape=(20, 15, 10), ranks=(2, 2, 2), nnz=1500, noise=0.0, seed=4
    )
    cfg = PTuckerConfig(
        ranks=(2, 2, 2), max_iters=40, tol=1e-3, seed=0, partitions=2
    )
    rs = ptucker.factorize(spark, t.to_spark(spark), t.shape, cfg)
    assert rs.converged
    assert rs.n_iters < 40
