"""The metric and workload names perfbench prints match BENCHMARK.json.

Run through `python3 perfbench/run.py --self-test`, which builds the
binary and passes its path in PERFBENCH_BIN.
"""
import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BIN = os.environ.get("PERFBENCH_BIN", "")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    out = subprocess.run([BIN, *args], capture_output=True, text=True, timeout=170, cwd=ROOT)
    return out.returncode, out.stdout.strip().splitlines()


@unittest.skipUnless(BIN, "PERFBENCH_BIN not set")
class OutputNames(unittest.TestCase):
    def test_binary_tables_match_benchmark_json(self):
        spec = benchmark_json()
        rc, lines = run("--list")
        self.assertEqual(rc, 0)
        listed = json.loads(lines[-1])
        # The binary also runs the two ungated simulation workloads.
        for w in spec["workloads"]:
            self.assertIn(w["name"], listed["workloads"])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(listed[key], {m["name"]: m["unit"] for m in spec[key]}, key)

    def check_run(self, workload, trace, seconds):
        spec = benchmark_json()
        rc, lines = run("--workload", workload, "--seed", "3", "--seconds", str(seconds),
                        "--trace", str(trace), "--out", os.path.join(ROOT, ".bench_out"))
        self.assertEqual(rc, 0, "\n".join(lines[-5:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_library_mix_end_to_end(self):
        self.check_run("library_mix", 0, 2)

    def test_lecture_tree_end_to_end(self):
        self.check_run("lecture_tree_1023", 0, 1)

    def test_lecture_tree_traced(self):
        self.check_run("lecture_tree_1023", 1, 1)


if __name__ == "__main__":
    unittest.main()
