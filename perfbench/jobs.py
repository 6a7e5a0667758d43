"""The four workloads: their job lists, how a job calls the program, and the
oracle that checks each output.

A job is one closed-loop request.  ``Workload.run`` makes only calls into the
package (that is what gets timed); ``Workload.check`` compares the output
with the expectation that ``inputs`` computed from the construction, and
returns a description of the first disagreement, or None.  Job sizes come
from fixed ladders, so every seed asks for the same amount of work and only
the random content (weights, relabelings, shifts, planted positions) moves.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from tiledorder import cli, conjugation, files, gorenstein, orders, tilting
from tiledorder.errors import DomainError

import inputs as gen
import speed


@dataclass
class Job:
    kind: str
    inputs: object  # everything the program is given; hashed into the digest
    expected: object  # what the oracle expects; never shown to the program


class Workload:
    """Dispatches ``run``/``check`` to the ``run_<kind>``/``check_<kind>`` methods."""

    name = ""
    reference = speed.PYTHON  # what rescales its job latencies

    def build(self, rng: random.Random) -> list:
        raise NotImplementedError

    def make_jobs(self, rng: random.Random) -> list:
        """The job list in random order: the machine's speed drifts over
        seconds, and a block of alike jobs run back to back would drift with it."""
        out = self.build(rng)
        rng.shuffle(out)
        return out

    def warm_up_jobs(self) -> list:
        """A few tiny jobs that touch the same code paths."""
        raise NotImplementedError

    def warm_up(self, jobs) -> None:
        """Run (and check) jobs before timing starts."""
        for job in jobs:
            try:
                out = self.run(job)
            except Exception as exc:  # expected rejections are outputs too
                out = exc
            error = self.check(job, out)
            if error is not None:
                raise RuntimeError(f"warm-up job {job.kind} failed: {error}")

    def before_pass(self, jobs) -> None:
        pass

    def run(self, job: Job):
        return getattr(self, "run_" + job.kind)(job.inputs)

    def check(self, job: Job, out):
        rejected = job.expected.get("reject") if isinstance(job.expected, dict) else None
        if rejected is not None:
            return check_rejection(rejected, out)
        if isinstance(out, BaseException):
            return f"unexpected {type(out).__name__}: {out}"
        return getattr(self, "check_" + job.kind)(job, out)


def check_rejection(expected, out):
    code, witness = expected
    if not isinstance(out, DomainError):
        return f"expected {code}, got {out!r:.200}"
    got = json.loads(json.dumps(out.to_json()))
    if got["code"] != code or got["witness"] != json.loads(json.dumps(witness)):
        return f"expected {code} {witness}, got {got['code']} {got['witness']}"
    return None


# ------------------------------------------------------------------ matrix

# Relabeled, shifted cyclic orders: (n, periods, jobs); job k of a row has
# period g = periods[k % len(periods)].  By latency the rows form blocks: 35
# jobs below the thirty of n = 44, which hold job_p50_ms; twelve of n = 64
# with g >= 8 (the slower half of that size), which hold job_p90_ms; four up
# to n = 120 above them.  A percentile that fell between two blocks would
# jump with the noise.
MATRIX_ORDERS = (
    (40, (1, 2, 4, 5, 8, 10, 20, 40), 11),
    (44, (1, 2, 4, 11, 22, 44), 30),
    (48, (1, 2, 3, 4, 6, 8, 12, 16, 24, 48), 11),
    (52, (1, 2, 4, 13, 26, 52), 6),
    (56, (8, 14), 2),
    (64, (8, 16, 32, 64), 12),
    (72, (72,), 1),
    (80, (16,), 1),
    (96, (32,), 1),
    (120, (5,), 1),
)
# Multi-orbit equivariant data: (period g, orbit lengths), four jobs each.
MATRIX_MULTI_ORBIT = (
    (2, (8, 12, 20)),
    (3, (9, 15, 21)),
    (4, (8, 12, 24)),
    (5, (10, 15, 20)),
    (6, (12, 18, 24)),
    (2, (6, 6, 10, 14, 16)),
)


class MatrixWorkload(Workload):
    """`tiledorder normalize` in process, plus multi-orbit equivariant data."""

    name = "matrix"

    def build(self, rng):
        out = []
        for n, periods, count in MATRIX_ORDERS:
            for k in range(count):
                g = periods[k % len(periods)]
                rows, nu, p = gen.shuffled_cyclic(rng, n, gen.total_for_period(rng, n, g))
                out.append(Job("order", rows, {"nu": nu, "p": p, "period": g}))
        for _ in range(4):
            for g, lengths in MATRIX_MULTI_ORBIT:
                rows, twist, images, avg = gen.multi_orbit_data(rng, g, lengths)
                out.append(
                    Job(
                        "mdata",
                        (rows, twist, images),
                        {"avg": avg, "orbits": len(lengths)},
                    )
                )
        return out

    def warm_up_jobs(self):
        rng = random.Random(0)
        rows, nu, p = gen.shuffled_cyclic(rng, 6, 9)
        data = gen.multi_orbit_data(rng, 2, (2, 4))
        return [
            Job("order", rows, {"nu": nu, "p": p, "period": 2}),
            Job("mdata", data[:3], {"avg": data[3], "orbits": 2}),
        ]

    def run_order(self, rows):
        m = orders.ExponentMatrix.from_rows(rows)
        g = gorenstein.detect_gorenstein(m)
        ed = conjugation.order_equivariant_data(m, g)
        s = conjugation.normalize_equivariant(ed)
        out = orders.morita_shift(m, [-x for x in s])
        return g.nu.images, g.p, ed.period, s, out.rows

    def check_order(self, job, out):
        nu_out, p_out, period, s, final = out
        exp = job.expected
        nu, p, rows = exp["nu"], exp["p"], job.inputs
        if tuple(nu_out) != nu:
            return "Nakayama permutation differs from the closed form"
        if tuple(p_out) != p:
            return "parameters differ from the closed form"
        if period != exp["period"]:
            return f"period {period}, expected {exp['period']}"
        return check_normalized_order(rows, nu, p, s, final)

    def run_mdata(self, data):
        rows, twist, images = data
        ed = conjugation.equivariant_data(rows, twist, orders.Permutation(images))
        return ed.twist_avg, len(ed.orbits), conjugation.normalize_equivariant(ed)

    def check_mdata(self, job, out):
        avg, orbit_count, s = out
        exp = job.expected
        if avg != exp["avg"] or orbit_count != exp["orbits"]:
            return f"average {avg} over {orbit_count} orbits, expected {exp}"
        return check_normalized_mdata(*job.inputs, exp["avg"], s)


def check_normalized_order(rows, nu, p, s, final):
    """Normalized output: m conjugated by -s, entrywise >= 0, same p_av, every
    new parameter strictly within 1 of p_av, and Gorenstein for those values."""
    n = len(rows)
    if len(s) != n:
        return "shift has the wrong length"
    expected = tuple(tuple(rows[i][j] - s[i] + s[j] for j in range(n)) for i in range(n))
    if tuple(map(tuple, final)) != expected:
        return "normalized matrix is not m conjugated by -s"
    if not gen.is_graded(expected):
        return "normalized matrix has a negative entry"
    new_p = [p[x] - s[x] + s[nu[x]] for x in range(n)]
    avg = Fraction(sum(p), n)
    if Fraction(sum(new_p), n) != avg:
        return "normalization moved p_av"
    if any(abs(x - avg) >= 1 for x in new_p):
        return "a normalized parameter is not within 1 of p_av"
    if not gen.is_gorenstein_with(expected, nu, new_p):
        return "normalized order fails the Gorenstein relation"
    return None


def check_normalized_mdata(rows, twist, images, avg, s):
    """Conjugated data: floor-aligned twist (hence within 1 of the average),
    entrywise non-negative matrix."""
    n = len(rows)
    if len(s) != n:
        return "shift has the wrong length"
    new_twist = [twist[i] + s[i] - s[images[i]] for i in range(n)]
    if not gen.is_floor_aligned(new_twist, images, avg):
        return "conjugated twist is not floor-aligned"
    if any(rows[i][j] + s[i] - s[j] < 0 for i in range(n) for j in range(n)):
        return "conjugated matrix has a negative entry"
    return None


# ------------------------------------------------------------------- poset

# (n, weight sum, jobs).  Long cycles with small weights (1 or 2) and short
# cycles with heavy weights (10..60).  By latency: 35 heavy jobs, then thirty
# long cycles of n = 15 holding job_p50_ms, then nineteen a little slower,
# twelve of n = 18 holding job_p90_ms, and four larger.  A percentile that
# fell between two blocks would jump with the noise.
POSET_LONG = ((15, 16, 30), (15, 17, 19), (18, 20, 12), (22, 24, 2), (30, 32, 1))
POSET_HEAVY = ((3, 30, 12), (3, 45, 12), (3, 60, 7), (4, 50, 4), (6, 120, 1))


class PosetWorkload(Workload):
    """`tiledorder quiver --dot` in process on cyclic orders."""

    name = "poset"

    def build(self, rng):
        out = []
        for shapes, lo, hi in ((POSET_LONG, 1, 2), (POSET_HEAVY, 10, 60)):
            for n, total, count in shapes:
                for _ in range(count):
                    out.append(self.job(gen.weights_with_sum(rng, n, total, lo, hi)))
        return out

    def warm_up_jobs(self):
        return [self.job((1, 2, 1, 1))]

    @staticmethod
    def job(w):
        vertices, arrows = gen.cyclic_quiver(w)
        return Job(
            "quiver",
            w,
            {
                "p": gen.cyclic_params(w),
                "vertices": vertices,
                "arrows": arrows,
                "dot": gen.dot_text(vertices, arrows),
            },
        )

    def run_quiver(self, w):
        m, _ = gorenstein.cyclic_order(w)
        g = gorenstein.detect_gorenstein(m)
        q = tilting.hasse_quiver(tilting.tilting_poset(m, g))
        return g.nu.images, g.p, q.vertices, q.arrows, files.quiver_dot(q)

    def check_quiver(self, job, out):
        nu, p, vertices, arrows, dot = out
        exp = job.expected
        n = len(job.inputs)
        if tuple(nu) != tuple((i + 1) % n for i in range(n)) or tuple(p) != exp["p"]:
            return "Gorenstein data differs from the closed form"
        if len(vertices) != 1 - sum(exp["p"]):
            return f"poset has {len(vertices)} elements, expected 1 - sum(p) = {1 - sum(exp['p'])}"
        if tuple(vertices) != exp["vertices"]:
            return "poset elements differ from the line description"
        if tuple(arrows) != exp["arrows"]:
            missing = len(set(exp["arrows"]) - set(arrows))
            extra = len(set(arrows) - set(exp["arrows"]))
            return f"Hasse arrows differ from rules (a)/(b)/(c): {missing} missing, {extra} extra"
        if dot != exp["dot"]:
            return "DOT text differs"
        return None


# ------------------------------------------------------------------ reject

# (n, jobs) per kind of planted rejection.  By latency the jobs form blocks:
# 22 small negative cycles and not-Gorenstein orders, 60 triangle violations
# (job_p50_ms falls mid-block), fifteen negative cycles of n = 24 (job_p90_ms
# falls mid-block), three larger cycles.  A percentile near the edge of a
# block would move with the machine's noise.
REJECT_TRIANGLE = ((80, 60),)
REJECT_NOT_GORENSTEIN = ((40, 16),)
REJECT_NEGATIVE_CYCLE = ((12, 3), (16, 3), (24, 15), (32, 1), (40, 1), (60, 1))


class RejectWorkload(Workload):
    """Planted rejections through the matrix layers."""

    name = "reject"

    def build(self, rng):
        out = []
        for n, count in REJECT_TRIANGLE:
            out += [self.triangle_job(rng, n) for _ in range(count)]
        for n, count in REJECT_NOT_GORENSTEIN:
            out += [self.not_gorenstein_job(rng, n) for _ in range(count)]
        for n, count in REJECT_NEGATIVE_CYCLE:
            out += [self.negative_cycle_job(rng, n) for _ in range(count)]
        return out

    def warm_up_jobs(self):
        rng = random.Random(0)
        return [
            self.triangle_job(rng, 6),
            self.not_gorenstein_job(rng, 6),
            self.negative_cycle_job(rng, 6),
        ]

    @staticmethod
    def triangle_job(rng, n):
        rows, witness, basic, graded = gen.late_triangle_violation(rng, n)
        return Job("triangle", rows, {"report": (False, basic, graded, witness)})

    @staticmethod
    def not_gorenstein_job(rng, n):
        rows, witness = gen.late_not_gorenstein(rng, n)
        return Job("not_gorenstein", rows, {"reject": ("NotGorenstein", witness)})

    @staticmethod
    def negative_cycle_job(rng, n):
        rows, twist, images, witness = gen.long_negative_cycle(rng, n)
        return Job("negative_cycle", (rows, twist, images), {"reject": ("NegativeCycle", witness)})

    def run_triangle(self, rows):
        r = orders.validate_order(rows)
        return r.triangle_ok, r.basic, r.n_graded, r.first_violation

    def check_triangle(self, job, out):
        if tuple(out) != job.expected["report"]:
            return f"report {out}, expected {job.expected['report']}"
        return None

    def run_not_gorenstein(self, rows):
        return gorenstein.detect_gorenstein(orders.ExponentMatrix.from_rows(rows))

    def run_negative_cycle(self, data):
        rows, twist, images = data
        ed = conjugation.equivariant_data(rows, twist, orders.Permutation(images))
        return conjugation.normalize_equivariant(ed)


# --------------------------------------------------------------------- cli

CLI_ROUNDS = 8  # 13 jobs per round, every subcommand in each round
CLI_MDATA = (
    (2, (2, 4)),
    (3, (3, 3)),
    (2, (4, 4)),
    (4, (4, 4)),
    (2, (2, 2, 2)),
    (3, (3,)),
    (2, (2, 6)),
    (4, (4,)),
)
CLI_MALFORMED = (
    ("gorenstein", "{"),
    ("validate", '{"kind": "matrix"}'),
    ("normalize", '{"kind": "matrix", "m": [[0, 1], [1]]}'),
    ("tilting", '{"kind": "cyclic", "weights": [1, -1]}'),
    ("mdata-check", '{"m": [[0]], "a": [0]}'),
    ("cyclic", None),  # argparse rejects "--weights 1,x"
)


class CliWorkload(Workload):
    """Tiny inputs through `python -S -m tiledorder`, one subprocess per job.

    ``-S`` keeps the start-up hooks of the host interpreter's site-packages
    out of the measurement; the package is stdlib-only.  Arguments starting
    with "@" name files in the work directory.  With ``in_process`` the same
    argv goes to ``cli.main`` in this process, which is how the traced run
    sees the layers under the CLI.
    """

    name = "cli"

    def __init__(self, workdir: str, src: str, in_process: bool = False):
        self.workdir = workdir
        self.in_process = in_process
        self.reference = speed.PYTHON if in_process else speed.SPAWN
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=path)
        self.child_rss_kb = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def argv(self, args) -> list:
        return [self.path(a[1:]) if a.startswith("@") else a for a in args]

    def build(self, rng):
        out = []
        for r in range(CLI_ROUNDS):
            out += self.round_jobs(rng, r)
        for job in out:
            for name, text in job.inputs["files"].items():
                with open(self.path(name), "w") as fh:
                    fh.write(text)
        return out

    def warm_up_jobs(self):
        argv = ["cyclic", "--weights", "1,1"]
        expected = {"exit": 0, "stdout": gen.order_text(weights=(1, 1))}
        return [Job("cli", {"argv": argv, "files": {}}, expected)]

    def round_jobs(self, rng, r):
        n = 3 + r % 6
        tag = f"r{r}"

        def job(argv, files_=None, **expected):
            expected.setdefault("exit", 0)
            return Job("cli", {"argv": argv, "files": files_ or {}}, expected)

        w = gen.weights_with_sum(rng, n, rng.randint(n, 3 * n), 1, 3)
        total = sum(w)
        p_cyc = gen.cyclic_params(w)
        nu_cyc = tuple((i + 1) % n for i in range(n))
        cyc = {f"cyc-{tag}.json": gen.order_text(weights=w)}
        rows, nu, p = gen.shuffled_cyclic(rng, n, rng.randint(n, 3 * n))
        mat = {f"mat-{tag}.json": gen.order_text(rows=rows)}
        plain, _, _ = gen.shuffled_cyclic(rng, n, rng.randint(n, 3 * n), shift=False)
        tri, tri_w, tri_basic, tri_graded = gen.late_triangle_violation(rng, n)
        notgor, notgor_w = gen.late_not_gorenstein(rng, n)
        g, lengths = CLI_MDATA[r % len(CLI_MDATA)]
        md_rows, md_twist, md_nu, md_avg = gen.multi_orbit_data(rng, g, lengths)
        md = {f"md-{tag}.json": gen.mdata_text(md_rows, md_twist, md_nu)}
        neg_rows, neg_twist, neg_nu, neg_w = gen.long_negative_cycle(rng, n)
        k = 1 - sum(p_cyc)
        quiver = gen.cyclic_quiver(w)
        weights_arg = ",".join(map(str, w))
        if r % 2:
            cyclic_job = job(
                ["cyclic", "--weights", weights_arg, "--emit", f"@out-cyc-{tag}.json"],
                stdout=f"emitted: @out-cyc-{tag}.json\n",
                emitted=(f"out-cyc-{tag}.json", gen.order_text(weights=w)),
            )
        else:
            cyclic_job = job(["cyclic", "--weights", weights_arg], stdout=gen.order_text(weights=w))
        command, text = CLI_MALFORMED[r % len(CLI_MALFORMED)]
        if text is None:
            malformed = job(
                ["cyclic", "--weights", "1,x"], exit=2, usage="weights must be comma-separated integers"
            )
        else:
            malformed = job(
                [command, f"@bad-{tag}.json"],
                {f"bad-{tag}.json": text},
                exit=2,
                stdout="",
                reject=("MalformedInput", None),
            )
        vs = gen.vector_str
        return [
            cyclic_job,
            job(
                ["validate", f"@plain-{tag}.json"],
                {f"plain-{tag}.json": gen.order_text(rows=plain)},
                stdout="triangle_ok: true\nbasic: true\nn_graded: true\n",
            ),
            job(
                ["validate", f"@tri-{tag}.json"],
                {f"tri-{tag}.json": gen.order_text(rows=tri)},
                exit=1,
                stdout=(
                    f"triangle_ok: false\nbasic: {str(tri_basic).lower()}\n"
                    f"n_graded: {str(tri_graded).lower()}\n"
                    f"first_violation: ({tri_w[0]}, {tri_w[1]}, {tri_w[2]})\n"
                ),
                reject=("TriangleViolation", tri_w),
            ),
            job(
                ["gorenstein", f"@cyc-{tag}.json"],
                cyc,
                stdout=(
                    f"nu: {vs(nu_cyc)}\nell: {vs([total - x for x in w])}\np: {vs(p_cyc)}\n"
                    f"p_av: {gen.rational_str(Fraction(sum(p_cyc), n))}\n"
                ),
            ),
            job(
                ["gorenstein", f"@mat-{tag}.json"],
                mat,
                stdout=(
                    f"nu: {vs(nu)}\nell: {vs([1 - x for x in p])}\np: {vs(p)}\n"
                    f"p_av: {gen.rational_str(Fraction(sum(p), n))}\n"
                ),
            ),
            job(
                ["gorenstein", f"@notgor-{tag}.json"],
                {f"notgor-{tag}.json": gen.order_text(rows=notgor)},
                exit=1,
                stdout="",
                reject=("NotGorenstein", notgor_w),
            ),
            job(
                ["normalize", f"@mat-{tag}.json", "--emit", f"@out-norm-{tag}.json"],
                mat,
                normalize=(rows, nu, p, f"out-norm-{tag}.json"),
            ),
            job(
                ["tilting", f"@cyc-{tag}.json"],
                cyc,
                stdout=f"rank: {k}\n"
                + "".join(line + "\n" for line in gen.tilting_listing(gen.cyclic_rows(w), nu_cyc, p_cyc)),
            ),
            job(
                ["quiver", f"@cyc-{tag}.json", "--dot", f"@out-q-{tag}.dot", "--oracle"],
                cyc,
                stdout=(
                    f"vertices: {k}\narrows: {len(quiver[1])}\n"
                    f"emitted: @out-q-{tag}.dot\noracle: ISOMORPHIC\n"
                ),
                emitted=(f"out-q-{tag}.dot", gen.dot_text(*quiver)),
            ),
            job(
                ["mdata-check", f"@md-{tag}.json"],
                md,
                stdout=(
                    f"valid: true\na_av: {gen.rational_str(md_avg)}\n"
                    f"orbits: {gen.orbits_of(md_nu)}\n"
                ),
            ),
            job(
                ["mdata-normalize", f"@md-{tag}.json", "--emit", f"@out-md-{tag}.json"],
                md,
                mdata_normalize=(md_rows, md_twist, md_nu, md_avg, f"out-md-{tag}.json"),
            ),
            job(
                ["mdata-normalize", f"@neg-{tag}.json"],
                {f"neg-{tag}.json": gen.mdata_text(neg_rows, neg_twist, neg_nu)},
                exit=1,
                stdout="",
                reject=("NegativeCycle", neg_w),
            ),
            malformed,
        ]

    def before_pass(self, jobs):
        # A file left by the previous pass must not pass this pass's check.
        for job in jobs:
            for arg in job.inputs["argv"]:
                if arg.startswith("@out-") and os.path.exists(self.path(arg[1:])):
                    os.remove(self.path(arg[1:]))

    def run(self, job):
        argv = self.argv(job.inputs["argv"])
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        with open(self.path("stdout"), "w+") as out, open(self.path("stderr"), "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-m", "tiledorder", *argv],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=self.env,
                cwd=self.workdir,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def check(self, job, out):
        if isinstance(out, BaseException):
            return f"unexpected {type(out).__name__}: {out}"
        code, stdout, stderr = out
        exp = job.expected
        if code != exp["exit"]:
            return f"exit {code}, expected {exp['exit']}: {stderr.strip()[-200:]}"
        if "usage" in exp:
            return None if exp["usage"] in stderr else "argparse message missing"
        if "reject" in exp:
            try:
                got = json.loads(stderr.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return "stderr does not end with a JSON error object"
            code_, witness = exp["reject"]
            if got.get("code") != code_ or got.get("witness") != json.loads(json.dumps(witness)):
                return f"error {got.get('code')} {got.get('witness')}, expected {code_} {witness}"
        elif stderr:
            return f"unexpected stderr: {stderr.strip()[-200:]}"
        stdout = stdout.replace(self.workdir + os.sep, "@")
        if "stdout" in exp and stdout != exp["stdout"]:
            return "stdout differs from the oracle"
        if "emitted" in exp:
            name, text = exp["emitted"]
            if self.read(name) != text:
                return f"{name} differs from the oracle"
        if "normalize" in exp:
            return self.check_normalize(stdout, *exp["normalize"])
        if "mdata_normalize" in exp:
            return self.check_mdata_normalize(stdout, *exp["mdata_normalize"])
        return None

    def read(self, name):
        try:
            with open(self.path(name)) as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def check_normalize(self, stdout, rows, nu, p, emitted):
        lines = stdout.splitlines()
        n = len(rows)
        try:
            s = json.loads(lines[0].removeprefix("s: "))
            final = [json.loads(line.strip()) for line in lines[4:4 + n]]
        except (ValueError, IndexError):
            return "normalize output does not parse"
        new_p = [p[x] - s[x] + s[nu[x]] for x in range(n)]
        header = [
            f"s: {gen.vector_str(s)}",
            f"p': {gen.vector_str(new_p)}",
            f"p_av: {gen.rational_str(Fraction(sum(p), n))}",
            "m':",
        ]
        if lines[:4] != header or lines[4 + n:] != [f"emitted: @{emitted}"]:
            return "normalize output differs from the oracle"
        error = check_normalized_order(rows, nu, p, s, final)
        if error is None and self.read(emitted) != gen.order_text(rows=final):
            return "emitted order file differs"
        return error

    def check_mdata_normalize(self, stdout, rows, twist, images, avg, emitted):
        lines = stdout.splitlines()
        n = len(rows)
        try:
            s = json.loads(lines[0].removeprefix("s: "))
        except (ValueError, IndexError):
            return "mdata-normalize output does not parse"
        new_twist = [twist[i] + s[i] - s[images[i]] for i in range(n)]
        if lines != [
            f"s: {gen.vector_str(s)}",
            f"a': {gen.vector_str(new_twist)}",
            f"a_av: {gen.rational_str(avg)}",
            f"emitted: @{emitted}",
        ]:
            return "mdata-normalize output differs from the oracle"
        error = check_normalized_mdata(rows, twist, images, avg, s)
        conj = gen.shifted(rows, s)
        if error is None and self.read(emitted) != gen.mdata_text(conj, new_twist, images):
            return "emitted equivariant file differs"
        return error


def make(name: str, workdir: str, src: str, in_process: bool = False) -> Workload:
    if name == "cli":
        return CliWorkload(workdir, src, in_process)
    return {"matrix": MatrixWorkload, "poset": PosetWorkload, "reject": RejectWorkload}[name]()


NAMES = ("matrix", "poset", "reject", "cli")
