"""P-Tucker benchmark: generate a seeded tensor, set up Spark, factorize,
check the returned model, and print every metric with its unit.

    python3 ptbench/run.py --workload default-1m --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra, traced solve (see README.md). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Run it from the root of a checkout that holds ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Do not start another solve that would end later than this after launch.
SOLVE_CUTOFF_S = 150.0
# Layers only the approx or only the cache variant runs. They read exactly
# 0 on every run of the other workloads, so they are printed as lines but
# kept out of the JSON result (and of BENCHMARK.json's per_layer list).
VARIANT_ONLY = (
    "ptucker.rerror_pass_s",
    "row_update.rerror_partial_s",
    "delta.delta_sparse_s",
    "approx.truncate_s",
    "approx.coo_iters",
    "cache.pres_pass_s",
    "cache.pres_mb",
    "delta.compute_pres_s",
    "delta.delta_from_pres_s",
    "delta.rescale_pres_s",
)


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep starting timed solves until this much has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="shrink the workload to seconds (self-tests only)")
    return p.parse_args(argv)


class Report:
    """Metrics by name with units; all are printed as lines, and all but
    ``VARIANT_ONLY`` go into the JSON result."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def lines(self) -> list[str]:
        return [
            f"metric {k} = {v['value']!r} {v['unit']}"
            for k, v in self.metrics.items()
        ]

    def result(self) -> dict[str, dict]:
        return {
            k: v for k, v in self.metrics.items() if k not in VARIANT_ONLY
        }


class Bench:
    """One invocation: set-ups, oracle check, timed solves, optional trace.

    Modules that import NumPy or PySpark are imported inside the methods,
    after ``launcher.configure`` has set the environment they read.
    """

    def __init__(self, args, settings, workload) -> None:
        self.args = args
        self.settings = settings
        self.wl = workload
        self.t_launch = time.perf_counter()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def say(self, line: str) -> None:
        print(line, flush=True)

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        self.say(f"phase {name} ended at {now - self.t_launch:.1f} s")

    def cfg(self):
        from repro.core.config import PTuckerConfig

        return PTuckerConfig(
            ranks=self.wl.ranks,
            max_iters=self.wl.iters,
            tol=0.0,
            variant=self.wl.variant,
            partitions=self.settings.partitions,
            seed=self.args.seed,
        )

    def setup(self, train):
        """Start the session and build the mode views ``wl.setups`` times."""
        from launcher import start_session
        from repro.tensor.spark_tensor import ModePartitionedTensor

        spark = mpt = None
        setup_s, ingest_s = [], []
        for _ in range(self.wl.setups):
            if mpt is not None:
                mpt.unpersist()
                spark.stop()
            t0 = time.perf_counter()
            spark = start_session(self.settings)
            t1 = time.perf_counter()
            mpt = ModePartitionedTensor(
                train.to_spark(spark), train.shape, self.settings.partitions
            )
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            ingest_s.append(t2 - t1)
        self.say(f"samples setup_s = {[round(s, 3) for s in setup_s]}")
        return spark, mpt, setup_s, ingest_s

    def solve(self, spark, mpt, train):
        """One checked ``factorize`` call; None if it raised."""
        from checks import check_model
        from repro.core import ptucker

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = ptucker.factorize(spark, mpt, train.shape, self.cfg())
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            self.problems.append("factorize raised")
            return None, None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        chk = check_model(res, train)
        if sum(res.iter_times) > wall:
            chk.problems.append("sum(iter_times) exceeds the solve wall time")
        if chk.problems:
            self.failed += 1
            self.problems.extend(chk.problems)
        return res, chk, wall

    def timed_solves(self, spark, mpt, train):
        from tracing import RssSampler

        runs = []
        t_start = time.perf_counter()
        while True:
            with RssSampler() as rss:
                res, chk, wall = self.solve(spark, mpt, train)
            if res is not None:
                runs.append((res, chk, wall, rss.peak))
            now = time.perf_counter()
            if now - t_start >= self.args.seconds or (
                now - self.t_launch + wall > SOLVE_CUTOFF_S
            ):
                return runs

    def traced_solve(self, spark, mpt, train):
        """One solve under the wrappers and the executor UDF profiler."""
        from tracing import JOB_GROUP, Tracer, job_counts, kernel_times

        sc = spark.sparkContext
        dump = Path(self.settings.work) / "profile"
        spark.profile.clear()
        spark.conf.set("spark.sql.pyspark.udf.profiler", "perf")
        sc.setJobGroup(JOB_GROUP, "traced solve")
        try:
            with Tracer() as tr:
                res, chk, wall = self.solve(spark, mpt, train)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            spark.conf.unset("spark.sql.pyspark.udf.profiler")
        spark.profile.dump(str(dump), type="perf")
        return res, chk, wall, tr, kernel_times(dump), job_counts(sc)

    def run(self) -> int:
        from checks import oracle_check
        from repro.core.metrics import rmse
        from tracing import cached_bytes
        from workloads import HOLDOUT

        from launcher import shutdown

        a, wl = self.args, self.wl
        for line in self.settings.lines():
            self.say(line)
        self.say(f"workload {wl.name}: {wl.describe()}, seed {a.seed}")
        tensor = wl.generate(a.seed)
        train, test = tensor.split(HOLDOUT, a.seed + 1)
        self.phase("generate")
        spark = None
        try:
            spark, mpt, setup_s, ingest_s = self.setup(train)
            cached = cached_bytes(spark.sparkContext)
            self.phase("setup")
            oracle = oracle_check(spark, wl, a.seed, self.settings.partitions)
            self.say(f"check oracle = {'ok' if not oracle else oracle}")
            self.problems.extend(oracle)
            self.phase("oracle")
            runs = self.timed_solves(spark, mpt, train)
            self.phase("timed solves")
            traced = self.traced_solve(spark, mpt, train) if a.trace else None
            self.phase("traced solve")
            mpt.unpersist()
        finally:
            shutdown(spark)
        self.phase("shutdown")
        if not runs or (traced is not None and traced[0] is None):
            self.say(f"no solve completed: {self.problems}")
            return 1

        res, chk, _, _ = runs[-1]
        walls = [r[2] for r in runs]
        iters = [t for r in runs for t in r[0].iter_times]
        self.say(
            f"samples: {len(setup_s)} setups, {len(runs)} timed solves, "
            f"{len(iters)} iterations"
        )
        self.say(f"samples solve_s = {[round(w, 3) for w in walls]}")
        self.say(f"samples iter_s = {[round(t, 3) for t in iters]}")
        for problem in dict.fromkeys(self.problems):
            self.say(f"check FAILED: {problem}")
        self.say(
            f"metric failed_frac = {self.failed / self.attempted!r} 1 "
            f"({self.failed} of {self.attempted} solves)"
        )

        report = Report()
        if a.trace:
            self.per_layer(report, traced, train, ingest_s, cached, walls)
        else:
            report.add("setup_s", statistics.median(setup_s), "s")
            report.add("solve_s", statistics.median(walls), "s")
            report.add("iter_s", statistics.median(iters), "s")
            report.add("fit", 1.0 - chk.error / train.norm(), "1")
            report.add("test_rmse", rmse(test, res.core, res.factors), "1")
            report.add(
                "peak_rss_mb", statistics.median(r[3] for r in runs) / 2**20, "MB"
            )
        for line in report.lines():
            self.say(line)
        correct = not self.problems and self.failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": report.result(),
        }), flush=True)
        return 0

    def per_layer(self, report, traced, train, ingest_s, cached, walls) -> None:
        import numpy as np

        from repro.core.approx import use_sparse_core
        from repro.core.cache import pres_bytes

        res, chk, wall, tr, kern, (jobs, stages) = traced
        wl = self.wl
        n = res.n_iters
        iter_wall = sum(res.iter_times)
        w = tr.wall
        passes = w["update"] + w["sse"] + w["rerror"] + w["pres"]
        size = int(np.prod(wl.ranks))
        mb = 1e6

        add = report.add
        add("tensor.ingest_s", statistics.median(ingest_s), "s")
        add("spark.cached_mb", cached / mb, "MB")
        add("spark.jobs_per_iter", jobs / n, "count")
        add("spark.stages_per_iter", stages / n, "count")
        add("spark.broadcast_mb_per_iter", tr.broadcast_bytes / mb / n, "MB")
        add("spark.broadcast_s", w["broadcast"] / n, "s")
        add(
            "spark.broadcast_changed_frac",
            tr.broadcast_changed / tr.broadcast_bytes if tr.broadcast_bytes else 0.0,
            "1",
        )
        add("spark.collect_mb_per_iter", tr.collect_bytes / mb / n, "MB")
        add("spark.overhead_s",
            (passes - kern["task.udf_s"] / self.settings.partitions) / n, "s")
        add("ptucker.iter_wall_s", iter_wall / n, "s")
        add("ptucker.update_pass_s", w["update"] / n, "s")
        add("ptucker.sse_pass_s", w["sse"] / n, "s")
        add("ptucker.rerror_pass_s", w["rerror"] / n, "s")
        add("ptucker.assemble_s", w["assemble"] / n, "s")
        add("ptucker.driver_other_s", (iter_wall - passes) / n, "s")
        add("cache.pres_pass_s", w["pres"] / n, "s")
        add("cache.pres_mb",
            pres_bytes(train.nnz, wl.ranks) / mb if wl.variant == "cache" else 0.0,
            "MB")
        for name in ("task.udf_s", *sorted(k for k in kern if k != "task.udf_s")):
            add(name, kern[name] / n, "s")
        add("approx.truncate_s", w["truncate"] / n, "s")
        coo = 0
        if wl.variant == "approx":
            coo = sum(use_sparse_core(h, size) for h in res.core_nnz_history[:-1])
        add("approx.coo_iters", coo, "count")
        add("approx.final_core_nnz", res.core_nnz_history[-1], "count")
        add("linalg.qr_s", w["qr"], "s")
        add("check.error_gap", chk.error_gap, "1")
        add("trace.overhead", wall / statistics.median(walls), "1")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "ptucker.py").is_file():
        print(
            f"ptbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    from launcher import configure
    from workloads import WORKLOADS, toy

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    settings = configure(ROOT, work)
    wl = WORKLOADS[args.workload]
    try:
        return Bench(args, settings, toy(wl) if args.toy else wl).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
