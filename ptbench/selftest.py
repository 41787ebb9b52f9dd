"""Self-tests of the benchmark, run from the root of a checkout:

    python3 ptbench/selftest.py

Every workload runs at toy scale (``--toy``), untraced and traced, in its
own process. The tests check that each metric named in BENCHMARK.json is
printed with its unit (and each variant-only layer as a line), that the wrapped pass walls fit inside the
iteration walls, that job counts are whole numbers, that the known approx
error gap is reported as a failure, and that the output check can fail.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from run import VARIANT_ONLY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = ("default-1m", "approx-300k", "cache-n6")


def run_toy(workload: str, trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return out, json.loads(out.strip().splitlines()[-1])


class ToyRuns(unittest.TestCase):
    def check_printed(self, out: str, result: dict, spec: list[dict]) -> None:
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertIn(f"metric {m['name']} = {got['value']!r} {m['unit']}", out)
        self.assertIn("metric failed_frac = ", out)

    def printed(self, out: str) -> dict[str, float]:
        """Every ``metric name = value unit`` line, as name -> value."""
        fields = [ln.split() for ln in out.splitlines() if ln.startswith("metric ")]
        return {f[1]: float(f[3]) for f in fields}

    def check_outcome(self, workload: str, result: dict) -> None:
        self.assertGreaterEqual(result["attempted"], 1)
        if workload == "approx-300k":
            # Known defect: errors[-1] is taken before the last truncation,
            # but the truncated core is returned. It must show as failed.
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
        else:
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_end_to_end(self) -> None:
        for w in WORKLOAD_NAMES:
            with self.subTest(workload=w):
                out, result = run_toy(w, 0)
                self.check_printed(out, result, SPEC["end_to_end"])
                self.check_outcome(w, result)
                m = result["metrics"]
                self.assertLessEqual(m["iter_s"]["value"], m["solve_s"]["value"])

    def test_per_layer(self) -> None:
        for w in WORKLOAD_NAMES:
            with self.subTest(workload=w):
                out, result = run_toy(w, 1)
                self.check_printed(out, result, SPEC["per_layer"])
                self.check_outcome(w, result)
                m = self.printed(out)
                for name in VARIANT_ONLY:
                    self.assertIn(name, m)
                passes = (
                    m["ptucker.update_pass_s"] + m["ptucker.sse_pass_s"]
                    + m["ptucker.rerror_pass_s"] + m["cache.pres_pass_s"]
                )
                self.assertLessEqual(passes, m["ptucker.iter_wall_s"])
                self.assertGreater(m["task.udf_s"], 0.0)
                for k in ("spark.jobs_per_iter", "spark.stages_per_iter"):
                    self.assertEqual(m[k], round(m[k]), k)
                if w == "approx-300k":
                    self.assertGreater(m["approx.coo_iters"], 0)
                    self.assertGreater(m["ptucker.rerror_pass_s"], 0.0)
                if w == "cache-n6":
                    self.assertGreater(m["cache.pres_pass_s"], 0.0)
                    self.assertGreater(m["delta.compute_pres_s"], 0.0)


class OutputCheck(unittest.TestCase):
    def test_check_can_fail(self) -> None:
        from checks import check_model
        from repro.core import reference
        from repro.core.config import PTuckerConfig
        from workloads import WORKLOADS, toy

        wl = toy(WORKLOADS["default-1m"])
        x = wl.generate(5)
        cfg = PTuckerConfig(ranks=wl.ranks, max_iters=2, tol=0.0, seed=5)
        res = reference.factorize(x, cfg)
        self.assertEqual(check_model(res, x).problems, [])
        res.factors[1][7] += 1e-3
        chk = check_model(res, x)
        self.assertFalse(chk.ok)
        self.assertGreater(chk.error_gap, 1e-9)


if __name__ == "__main__":
    unittest.main(verbosity=2)
