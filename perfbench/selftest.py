"""Self-tests of the benchmark, at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

They take well under a minute.  The repository's own test suite does not
collect them.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import types
import unittest
from contextlib import redirect_stdout

import numpy as np

import run  # pins the BLAS threads before numpy does any work
import spans
from workloads import LOCAL, Analyze, CheckFailed, Cli, Forge, Lattice

gf = run.import_gaussforge()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {Forge: {4: 2, 6: 1}, Analyze: {4: 2, 6: 1, LOCAL: 1}, Lattice: {5: 2, 8: 1}}
WORK = run.ROOT / ".perfbench-work"


def tiny(cls, seed=3, work_dir=None):
    if cls is Cli:
        return Cli(gf, seed, block=dict.fromkeys(Cli.block, 1), root=run.ROOT, work_dir=work_dir,
                   modes=4, ring_modes=6, gmps_max=40)
    return cls(gf, seed, block=TINY[cls])


def first_job(workload, label):
    return next(job for job in workload.warmup() if job.label == str(label))


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


class CliCase(unittest.TestCase):
    def setUp(self):
        self.work_dir = WORK / f"selftest-{os.getpid()}"
        self.cli = tiny(Cli, work_dir=self.work_dir)

    def tearDown(self):
        self.cli.close()


class SmokeTest(CliCase):
    def test_library_workloads_pass(self):
        for cls in TINY:
            records, _ = run.closed_loop(gf, tiny(cls), 0.0, 1)
            for record in records:
                # the local-frame jobs are refused until local-unitary normalization is exact
                allowed = ("ok", "refused") if record.label == LOCAL else ("ok",)
                self.assertIn(record.status, allowed, f"{cls.name} {record.label}: {record.detail}")

    def test_cli_workload_passes(self):
        records, _ = run.closed_loop(gf, self.cli, 0.0, 1)
        self.assertEqual([r.status for r in records], ["ok"] * len(Cli.block),
                         [r.detail for r in records])


class MetricsTest(CliCase):
    def assert_reported(self, args, records, metrics, units, section):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            run.report(args, records, metrics, units)
        result = last_json_line(buffer.getvalue())
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, entry in result["metrics"].items():
            self.assertIsInstance(entry["value"], (int, float), name)
            self.assertTrue(np.isfinite(entry["value"]), name)
        return result

    def test_end_to_end_metrics(self):
        workload = tiny(Forge)
        records, blocks = run.closed_loop(gf, workload, 0.0, 1)
        args = types.SimpleNamespace(workload="forge", seed=3, seconds=0.0, trace=0)
        metrics = run.end_to_end(args, workload, records, blocks)
        result = self.assert_reported(args, records, metrics, run.END_TO_END, "end_to_end")
        self.assertTrue(result["correct"])
        self.assertGreater(result["metrics"]["setup_s"]["value"], 0.0)

    def test_per_layer_metrics_of_cli(self):
        args = types.SimpleNamespace(workload="cli", seed=3, seconds=0.0, trace=1)
        metrics, records = run.per_layer(gf, args, self.cli)
        self.assert_reported(args, records, metrics, run.PER_LAYER, "per_layer")
        for name in ("cli.import_ms", "cli.interpreter_ms", "cli.gmps.ms", "gmps.parity_table.calls",
                     "jsonio.dumps.calls", "jsonio.dumps.bytes", "cli.share"):
            self.assertGreater(metrics[name], 0.0, name)

    def test_spans_nest_and_uninstall(self):
        original = gf.engineer_state
        args = types.SimpleNamespace(workload="forge", seed=3, seconds=0.0, trace=1)
        metrics, _ = run.per_layer(gf, args, tiny(Forge))
        self.assertIs(gf.engineer_state, original)
        self.assertEqual(metrics["engineering.engineer_state.calls"], 1.0)
        self.assertGreater(metrics["symplectic.apply_symplectic.calls"], 1.0)
        self.assertGreater(metrics["standard_form.reconstruct_diagonal.newton_iters"], 0)

    def test_self_time_subtracts_children(self):
        trace = [["a.f", 0.0, 10.0, -1, 0, None], ["b.g", 1.0, 4.0, 0, 0, None],
                 ["b.g", 5.0, 6.0, 0, 0, None], ["c.h", 2.0, 3.0, 1, 0, None]]
        self.assertEqual(spans.self_times(trace), [6.0, 2.0, 1.0, 1.0])


class CorruptionTest(CliCase):
    def assert_fails(self, job, out):
        with self.assertRaises(CheckFailed):
            job.check(out)

    def test_corrupted_vq(self):
        job = first_job(tiny(Forge), 6)
        cm, sf, params, rebuilt = job.run()
        job.check((cm, sf, params, rebuilt))
        vq = np.array(rebuilt.vq)
        vq[0, 1] = vq[1, 0] = vq[0, 1] + 1e-6
        self.assert_fails(job, (cm, sf, params, types.SimpleNamespace(vq=vq)))

    def test_corrupted_entropy(self):
        job = first_job(tiny(Analyze), 6)
        spectrum, purity, report, pairwise, residuals = job.run()
        job.check((spectrum, purity, report, pairwise, residuals))
        shifted = [pairwise[0] + 1e-6] + pairwise[1:]
        self.assert_fails(job, (spectrum, purity, report, shifted, residuals))
        bad_report = types.SimpleNamespace(**{**report.__dict__, "per_mode_entropy": shifted})
        self.assert_fails(job, (spectrum, purity, bad_report, shifted, residuals))

        job = first_job(tiny(Lattice), 8)
        cm, direct, sf, pairwise, rebuilt, logneg = job.run()
        job.check((cm, direct, sf, pairwise, rebuilt, logneg))
        self.assert_fails(job, (cm, [x + 1e-6 for x in direct], sf, pairwise, rebuilt, logneg))

    def test_corrupted_cli_stdout(self):
        job = first_job(self.cli, "analyze")
        proc = job.run()
        job.check(proc)
        doc = json.loads(proc.stdout)
        doc["entanglement"]["per_mode_entropy"][0] += 1e-6
        corrupted = subprocess.CompletedProcess(proc.args, 0, json.dumps(doc).encode(), proc.stderr)
        self.assert_fails(job, corrupted)  # differs from the first stdout of this call
        fresh = tiny(Cli)
        self.assert_fails(first_job(fresh, "analyze"), corrupted)  # wrong even as a first call
        self.assert_fails(job, subprocess.CompletedProcess(proc.args, 0, b"not json", b""))
        self.assert_fails(job, subprocess.CompletedProcess(proc.args, 1, proc.stdout, b"error"))


class SeedTest(unittest.TestCase):
    def test_equal_seeds_give_identical_inputs(self):
        for cls in (Forge, Analyze, Lattice, Cli):
            self.assertEqual(tiny(cls, 5).fingerprint(), tiny(cls, 5).fingerprint(), cls.name)
            self.assertNotEqual(tiny(cls, 5).fingerprint(), tiny(cls, 6).fingerprint(), cls.name)


class ExitTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = WORK / f"bare-{os.getpid()}"
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in (run.ROOT / "perfbench").glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "forge",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"metrics"', proc.stdout)


def tearDownModule():
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


if __name__ == "__main__":
    unittest.main()
