"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the generators are deterministic, that each oracle catches
a planted wrong answer and the error count includes it, that the traced
self times add up to job time, and that BENCHMARK.json, layers.json and the
runner name the same per-layer metrics.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs as gen  # noqa: E402
import jobs  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from tiledorder import cli, conjugation, gorenstein, orders  # noqa: E402
from tiledorder.errors import DomainError  # noqa: E402

WORKDIR = runner.OUT / f"selftest-{os.getpid()}"


def setUpModule():
    WORKDIR.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)


def workload(name, in_process=True):
    return jobs.make(name, str(WORKDIR), str(runner.SRC), in_process=in_process)


def built(name, seed=3):
    w = workload(name)
    return w, w.build(random.Random(f"{name}:{seed}"))


class Tampered:
    """A workload whose output for one job is altered after the program ran."""

    def __init__(self, inner, target, tamper):
        self.inner, self.target, self.tamper = inner, target, tamper
        self.reference = inner.reference

    def before_pass(self, job_list):
        self.inner.before_pass(job_list)

    def run(self, job):
        try:
            out = self.inner.run(job)
        except DomainError as exc:
            out = exc
        return self.tamper(out) if job is self.target else out

    def check(self, job, out):
        return self.inner.check(job, out)


def failures_of(w, job_list):
    failures = []
    runner.run_pass(w, job_list, failures)
    return failures


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in jobs.NAMES:
            w = workload(name)
            digests = [
                runner.inputs_digest(w.make_jobs(random.Random(f"{name}:{seed}")))
                for seed in (7, 7, 8)
            ]
            self.assertEqual(digests[0], digests[1], name)
            self.assertNotEqual(digests[0], digests[2], name)

    def test_every_workload_has_100_jobs(self):
        for name in jobs.NAMES:
            self.assertGreaterEqual(len(built(name)[1]), 100, name)

    def test_planted_inputs_agree_with_the_package_at_small_n(self):
        reject = workload("reject")
        matrix = workload("matrix")
        for seed in range(15):
            rng = random.Random(seed)
            for n in range(3, 10):
                cases = [
                    (reject, reject.triangle_job(rng, n)),
                    (reject, reject.not_gorenstein_job(rng, n)),
                    (reject, reject.negative_cycle_job(rng, n)),
                ]
                for w, job in cases:
                    self.assertEqual(failures_of(w, [job]), [], (seed, n, job.kind))
            for g, lengths in ((2, (2, 4)), (3, (3, 6)), (4, (4, 8, 4))):
                rows, twist, images, avg = gen.multi_orbit_data(rng, g, lengths)
                job = jobs.Job("mdata", (rows, twist, images), {"avg": avg, "orbits": len(lengths)})
                self.assertEqual(failures_of(matrix, [job]), [], (seed, g))

    def test_not_gorenstein_witness_is_the_late_column(self):
        rows, witness = gen.late_not_gorenstein(random.Random(1), 12)
        with self.assertRaises(DomainError) as caught:
            gorenstein.detect_gorenstein(orders.ExponentMatrix.from_rows(rows))
        self.assertEqual((caught.exception.code, caught.exception.witness), ("NotGorenstein", 10))
        self.assertEqual(witness, 10)


class Oracles(unittest.TestCase):
    def assert_caught(self, w, job_list, target, tamper):
        self.assertEqual(failures_of(w, job_list), [])
        failures = failures_of(Tampered(w, target, tamper), job_list)
        self.assertEqual(len(failures), 1, failures)
        index = next(k for k, job in enumerate(job_list) if job is target)
        self.assertTrue(failures[0].startswith(f"job {index} "), failures)

    def test_matrix_catches_a_parameter_off_by_one(self):
        w, job_list = built("matrix")
        job_list = job_list[:3] + job_list[-2:]

        def off_by_one(out):
            nu, p, period, s, final = out
            return nu, (p[0] + 1,) + p[1:], period, s, final

        self.assert_caught(w, job_list, job_list[1], off_by_one)

    def test_matrix_catches_a_normalization_that_is_not_within_1(self):
        w, job_list = built("matrix")
        target = job_list[-1]  # multi-orbit data

        def moved(out):
            avg, orbits, s = out
            return avg, orbits, (s[0] + 1,) + s[1:]

        self.assert_caught(w, [job_list[0], target], target, moved)

    def test_poset_catches_a_dropped_arrow(self):
        w, job_list = built("poset")
        job_list = [j for j in job_list if len(j.expected["vertices"]) < 200][:4]

        def drop(out):
            nu, p, vertices, arrows, dot = out
            return nu, p, vertices, arrows[1:], dot

        self.assert_caught(w, job_list, job_list[2], drop)

    def test_reject_catches_a_wrong_witness(self):
        w, job_list = built("reject")
        small = [j for j in job_list if len(j.inputs if j.kind != "negative_cycle" else j.inputs[0]) <= 64]
        by_kind = {}
        for j in small:
            by_kind.setdefault(j.kind, j)
        job_list = list(by_kind.values())

        def triangle(out):
            ok, basic, graded, (i, j, k) = out
            return ok, basic, graded, (i, j, (k + 1) % 3)

        def witness(out):
            out.witness = (out.witness + 1) if isinstance(out.witness, int) else out.witness[::-1]
            return out

        for target in job_list:
            self.assert_caught(w, job_list, target, triangle if target.kind == "triangle" else witness)

    def test_cli_catches_wrong_stdout_and_a_dropped_dot_arrow(self):
        w, job_list = built("cli")
        job_list = job_list[:13]
        gor = next(j for j in job_list if j.inputs["argv"][:2] == ["gorenstein", "@cyc-r0.json"])

        def bump_p(out):
            code, stdout, stderr = out
            lines = stdout.splitlines(True)
            lines[2] = lines[2].replace("p: [", "p: [1")
            return code, "".join(lines), stderr

        self.assert_caught(w, job_list, gor, bump_p)
        quiver = next(j for j in job_list if j.inputs["argv"][0] == "quiver")
        dot_path = w.path(quiver.inputs["argv"][3][1:])

        def drop_dot_arrow(out):
            with open(dot_path) as fh:
                lines = fh.readlines()
            arrow = next(k for k, line in enumerate(lines) if "->" in line)
            with open(dot_path, "w") as fh:
                fh.writelines(lines[:arrow] + lines[arrow + 1:])
            return out

        self.assert_caught(w, job_list, quiver, drop_dot_arrow)

    def test_cli_subprocess_matches_in_process(self):
        w, job_list = built("cli")
        sub = workload("cli", in_process=False)
        for job in job_list[:13]:
            self.assertEqual(sub.run(job), w.run(job), job.inputs["argv"])

    def test_error_rate_counts_a_crash(self):
        w, job_list = built("matrix")

        def crash(out):
            raise RuntimeError("boom")

        self.assert_caught(w, job_list[:2], job_list[0], crash)


class Tracing(unittest.TestCase):
    def test_self_times_and_other_cover_job_time(self):
        for name in jobs.NAMES:
            w = workload(name)
            job_list = w.warm_up_jobs() if name != "cli" else built(name)[1][:13]
            tracer = spans.Tracer()
            with tracer.installed():
                runner.run_pass(w, job_list, [], tracer)
            self.assertEqual(tracer.missing, [])
            job_ns = sum(end - start for _, span, start, end, _ in tracer.spans if span == spans.JOB)
            times = tracer.self_times()
            self.assertAlmostEqual(sum(times.values()), job_ns / 1e9, places=9)
            self.assertGreaterEqual(times[spans.JOB], 0)
            self.assertTrue(all(t >= 0 for t in times.values()), times)
            self.assertGreater(len(times), 2, name)

    def test_installed_restores_the_package(self):
        def targets():
            return (
                cli.detect_gorenstein,
                conjugation.find_negative_cycle,
                orders.ExponentMatrix.__dict__["from_rows"],
            )

        before = targets()
        with spans.Tracer().installed():
            self.assertIsNot(cli.detect_gorenstein, before[0])
        self.assertEqual(before, targets())

    def test_rejections_counted_once_at_the_innermost_layer(self):
        w = workload("reject")
        tracer = spans.Tracer()
        with tracer.installed():
            runner.run_pass(w, w.warm_up_jobs(), [], tracer)
        self.assertEqual(
            [tracer.counts[f"{layer}.rejects"] for layer in spans.REJECTING_LAYERS], [1, 1, 1]
        )


class Rescaling(unittest.TestCase):
    def test_latency_scales_with_the_slowness_around_it(self):
        self.assertEqual(speed.rescale([10, 20], [1.0] * 3), [10, 20])
        slow = speed.rescale([10] * 8, [1.0] * 4 + [2.0] * 5)
        self.assertEqual(slow[0], 10)
        self.assertEqual(slow[-1], 5)

    def test_a_pass_returns_one_slowness_more_than_jobs(self):
        for w in (workload("matrix"), workload("cli", in_process=False)):
            latencies, slowness = runner.run_pass(w, w.warm_up_jobs(), [])
            self.assertEqual(len(slowness), len(latencies) + 1)
            self.assertTrue(all(0 < x < 100 for x in slowness), slowness)

    def test_subprocess_jobs_use_the_spawn_reference(self):
        self.assertIs(workload("cli", in_process=False).reference, speed.SPAWN)
        self.assertIs(workload("cli").reference, speed.PYTHON)
        self.assertIs(workload("poset").reference, speed.PYTHON)


class Declarations(unittest.TestCase):
    def test_benchmark_json_layers_json_and_runner_agree(self):
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        layers = json.loads((BENCH / "layers.json").read_text())
        printed = [m for m, _, _ in runner.LAYER_TIMES]
        printed += ["cli.import_ms", *spans.COUNT_NAMES, "trace.overhead_ratio"]
        declared = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(sorted(printed), sorted(declared))
        self.assertEqual(sorted(layers["per_layer"]), sorted(declared))
        self.assertEqual(sorted(layers["workloads"]), sorted(w["name"] for w in bench["workloads"]))
        e2e = {m["name"] for m in bench["end_to_end"]}
        workloads = set(layers["workloads"])
        for metric, entry in layers["per_layer"].items():
            for target in entry["moves"]:
                self.assertIn(target["metric"], e2e, metric)
                self.assertTrue(set(target["workloads"]) <= workloads, metric)


if __name__ == "__main__":
    unittest.main()
