"""Spark-side management of a partitioned sparse tensor.

``ModePartitionedTensor`` owns N persisted copies of the entries
DataFrame, copy ``n`` hash-partitioned by the mode-n index ``i{n}``.
Hash partitioning puts every row group Ω^(n)_{i_n} into exactly one
partition, so a ``mapInPandas`` pass over copy ``n`` can update its
owned factor-matrix rows without any cross-partition coordination —
the Spark analogue of P-Tucker's per-thread row allocation
(Section III-D of the paper).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel


def entry_columns(order: int) -> list[str]:
    """Index column names i0..i{N-1} for an order-N tensor."""
    return [f"i{n}" for n in range(order)]


class ModePartitionedTensor:
    """N mode-partitioned, persisted views of one sparse tensor.

    Args:
        entries: DataFrame with columns i0..i{N-1} (long) and val (double).
        shape:   tensor dimensionality.
        partitions: partitions per view; defaults to the cluster's
            default parallelism (one task per core on local[*]).
    """

    def __init__(
        self,
        entries: DataFrame,
        shape: tuple[int, ...],
        partitions: int | None = None,
    ) -> None:
        self.shape = tuple(shape)
        self.order = len(shape)
        spark = entries.sparkSession
        self.partitions = partitions or spark.sparkContext.defaultParallelism
        cols = entry_columns(self.order) + ["val"]
        base = entries.select(
            *[F.col(c).cast("long") for c in entry_columns(self.order)],
            F.col("val").cast("double"),
        ).select(*cols)
        self._views: list[DataFrame] = []
        for n in range(self.order):
            v = base.repartition(self.partitions, F.col(f"i{n}")).persist(
                StorageLevel.MEMORY_AND_DISK
            )
            self._views.append(v)
        # Materialize and record |Omega| once.
        self.nnz = self._views[0].count()
        for v in self._views[1:]:
            v.count()

    def view(self, mode: int) -> DataFrame:
        """The persisted entries view hash-partitioned by mode ``mode``."""
        return self._views[mode]

    def unpersist(self) -> None:
        """Release all cached views."""
        for v in self._views:
            v.unpersist()
