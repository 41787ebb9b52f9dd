"""Spark session settings of the benchmark, kept apart from ``jobs/``.

``configure`` must run before NumPy or PySpark is imported: the BLAS
thread caps and the JVM launch arguments are read at import / launch.
Every file Spark, the JVM and Python write goes under ``work``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

MAX_CORES = 4


@dataclass(frozen=True)
class Settings:
    """What the benchmark launches Spark with (printed with the results)."""

    master: str
    partitions: int
    driver_memory: str
    work: str

    def lines(self) -> list[str]:
        return [
            f"setting master = {self.master}",
            f"setting partitions = {self.partitions}",
            f"setting driver_memory = {self.driver_memory}",
            "setting OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1",
            "setting spark.ui.showConsoleProgress = false",
        ]


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to [2, 8]: the tier-1 test rule."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    gib = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, gib))}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def configure(root: Path, work: Path) -> Settings:
    """Set the process environment the JVM and Python workers inherit."""
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    mem = driver_memory()
    tmp = work / "tmp"
    local = work / "local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYSPARK_PYTHON=sys.executable,
        PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ),
        TMPDIR=str(tmp),
        SPARK_LOCAL_DIRS=str(local),
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{cores}] --driver-memory {mem} "
            f"--driver-java-options -Djava.io.tmpdir={tmp} "
            "--conf spark.driver.host=127.0.0.1 "
            "--conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            "pyspark-shell"
        ),
    )
    if src not in sys.path:
        sys.path.insert(0, src)
    return Settings(
        master=f"local[{cores}]",
        partitions=cores,
        driver_memory=mem,
        work=str(work),
    )


def start_session(settings: Settings):
    """Start (or, after ``stop``, restart in the same JVM) the session."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("ptbench")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(settings.partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session, then the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        # The JVM exits on EOF of its stdin (PythonGatewayServer).
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
