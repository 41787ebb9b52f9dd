"""Workload definitions of the P-Tucker benchmark.

A workload fixes the tensor generator, its shape, the Tucker rank, the
variant and how much the benchmark runs. The program only ever sees the
tensor generated from ``--seed``; the seed also fixes the 10% hold-out
split and the factor initialization.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

# Entries in the miniature tensor the oracle check runs on.
MINI_NNZ = 2_000
HOLDOUT = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name, why: as recorded in BENCHMARK.json.
        variant: P-Tucker variant passed to ``PTuckerConfig``.
        order, dim, nnz, rank: N, I (every mode), generated |Ω| and J.
        planted: ``lowrank_tensor`` (planted Tucker structure, noise
            0.01) instead of ``sparse_tensor_uniform``.
        iters: ALS iterations of each timed solve (tol=0, so exactly this).
        setups: set-ups per run; ``setup_s`` is their median.
        mini_dim, mini_iters: shape and length of the oracle miniature.
    """

    name: str
    why: str
    variant: str
    order: int
    dim: int
    nnz: int
    rank: int
    planted: bool
    iters: int
    setups: int
    mini_dim: int
    mini_iters: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dim,) * self.order

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.rank,) * self.order

    def generate(self, seed: int, *, mini: bool = False):
        """The seeded input tensor (a ``CooTensor``), full size or miniature."""
        from repro.synth_data import lowrank_tensor, sparse_tensor_uniform

        shape = (self.mini_dim,) * self.order if mini else self.shape
        nnz = MINI_NNZ if mini else self.nnz
        if self.planted:
            return lowrank_tensor(
                shape=shape, ranks=self.ranks, nnz=nnz, noise=0.01, seed=seed
            )
        return sparse_tensor_uniform(shape=shape, nnz=nnz, seed=seed)

    def describe(self) -> str:
        kind = "planted" if self.planted else "uniform"
        return (
            f"N={self.order} I={self.dim} |Omega|={self.nnz} {kind} "
            f"J={self.rank} {self.variant}, {self.iters} iters/solve, "
            f"{self.setups} setups/run"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default-1m",
            why=(
                "N=3 I=1e5 |Omega|=1e6 uniform J=10 default: data-bound, "
                "so kernel, Arrow decode and layout changes show here"
            ),
            variant="default",
            order=3,
            dim=100_000,
            nnz=1_000_000,
            rank=10,
            planted=False,
            iters=2,
            setups=2,
            mini_dim=40,
            mini_iters=3,
        ),
        Workload(
            name="approx-300k",
            why=(
                "N=3 I=3e4 |Omega|=3e5 planted J=10 approx p=0.2: the only "
                "one running R(beta), truncate_core and the COO delta path"
            ),
            variant="approx",
            order=3,
            dim=30_000,
            nnz=300_000,
            rank=10,
            planted=True,
            iters=10,
            setups=2,
            mini_dim=40,
            mini_iters=9,
        ),
        Workload(
            name="cache-n6",
            why=(
                "N=6 I=100 |Omega|=1e4 uniform J=3 cache: tiny kernel, 58 MB "
                "Pres reshuffled twice per mode, so stage and persist "
                "overhead dominate"
            ),
            variant="cache",
            order=6,
            dim=100,
            nnz=10_000,
            rank=3,
            planted=False,
            iters=1,
            setups=3,
            mini_dim=8,
            mini_iters=1,
        ),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload at a scale that runs in seconds (self-tests)."""
    small = {
        "default": dict(dim=2_000, nnz=20_000),
        "approx": dict(dim=300, nnz=3_000),
        "cache": dict(dim=10, nnz=1_000),
    }[w.variant]
    return replace(w, setups=2, **small)
