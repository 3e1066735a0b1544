#!/usr/bin/env python3
"""bowforge benchmark: one client, closed loop, verdicts checked against a reference.

Usage (from the repository root):

    python3 bench/run.py --workload suite-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see bench/README.md for why each was chosen):

* ``suite-verify``: generate and certify one datum per acceptance-suite
  topology, with a 2.7 % share of SO/Sp mirror jobs.
* ``scan-ladder``: ``scan_local_freeness`` on suite_topology(3, 3, m0) for
  m0 = 3, 10, 20, one scan per job, about equal time on each rung.
* ``cli-cold``: one ``python -m bowforge.cli`` child process per job.

Jobs run in whole rounds (74 suite jobs, 48 scans, 74 CLI commands); a
new round starts only when the previous one predicts it will finish inside
``--seconds``, and at least one round always runs.  A calibration kernel
timed between jobs scales the end-to-end times to a reference machine
speed; the unscaled figures are printed as ``measured.*``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced for half the time, then traced for the other half, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread, fixed before numpy is imported here or in any child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import bisect
import collections
import hashlib
import json
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracing import END, FAILED, JOB, LAYER, NAME, PARENT, START, Tracer, self_times_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
FIXTURES = TESTS / "fixtures"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)
SETUP_PROBES = 4  # set-up repeated in child processes, plus once in this process
STARTUP_PROBES = 5  # children timed for python.startup_ms and cli.import_ms
CHILD_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 2.0
CALIBRATION_REFERENCE_S = 0.006  # kernel time that defines the reference speed

SUITE = [(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)]
TINY_SUITE = [(n, k, m0) for n in (1, 2) for k in (1, 2) for m0 in (0, 1)]
MIRRORS = ("so2-mirror", "sp1-mirror")
MIRROR_POINTS = 20
RUNGS = (3, 10, 20)
RUNG_NAMES = tuple(f"m0_{m0}" for m0 in RUNGS)
RUNG_REPEATS = (40, 7, 1)  # scans per round: about 4.5 s on each rung
SCAN_RANDOM = 20
BOW_FIXTURES = ("so2-mirror", "sp1-mirror", "u1-charge", "u1-single-nut", "u2-basic")
TOPOLOGY_FIXTURE = "u2-topology"
BOW_COMMANDS = ("validate", "exactness", "invariants", "scan", "fiber", "pairing", "export-bow")
CLI_COMMANDS = ("dims", "gen") + BOW_COMMANDS
LAYERS = (
    "harness", "python", "import", "cli", "bowfile", "export",
    "generator", "bowdata", "orthosymplectic", "monad",
)

END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    [(f"monad.{fn}.us_per_point.{r}", "us")
     for fn in ("assemble_monad", "fiber_at", "is_locally_free_at", "scan_local_freeness")
     for r in RUNG_NAMES]
    + [(f"monad.points.{r}", "count") for r in RUNG_NAMES]
    + [(f"monad.{fn}.us", "us") for fn in ("assemble_monad", "fiber_at", "is_locally_free_at")]
    + [("generator.generate.us", "us"), ("generator.generate_mirror.us", "us")]
    + [(f"bowdata.{fn}.us", "us")
       for fn in ("validate_relations", "check_exactness_all", "check_chain_invariants")]
    + [("orthosymplectic.verify_pairing_relations.us", "us"),
       ("orthosymplectic.fiber_form.us_per_point", "us")]
    + [("python.startup_ms", "ms"), ("cli.import_ms", "ms")]
    + [(f"cli.main_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [("bowfile.parse_us", "us"), ("bowfile.serialize_us", "us"),
       ("export.export_bow_complex.us", "us")]
    + [(f"self_s.{layer}", "s") for layer in LAYERS]
    + [(f"failed.{layer}", "count") for layer in LAYERS]
    + [(f"calls_per_job.{layer}", "ratio") for layer in LAYERS]
    + [("trace.overhead_ms", "ms"), ("trace.overhead_frac", "ratio")]
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _import_library():
    """Make the checkout's bowforge and test factories importable, or fail."""
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bowforge

    if SRC not in Path(bowforge.__file__).resolve().parents:
        raise SystemExit(f"bowforge imported from {bowforge.__file__}, not from {SRC}")


class Job:
    """One finished job: its reference key, verdict and timing.

    ``seconds`` is the wall time as measured; ``scaled`` is the same time
    at the reference machine speed, set by ``scale_to_reference``.
    """

    __slots__ = ("key", "tag", "start", "seconds", "scaled", "verdict", "matches", "failed",
                 "points")

    def __init__(self, key, tag, start, seconds, verdict, matches, failed, points=0):
        self.key, self.tag, self.start, self.seconds = key, tag, start, seconds
        self.scaled = seconds
        self.verdict, self.matches, self.failed, self.points = verdict, matches, failed, points


class Workload:
    """A workload's set-up, rounds of jobs and reference verdicts.

    ``run(job, tracer)`` returns (verdict line, contract breach or None,
    verdict points); ``key(job)`` returns (reference key, tag), where the tag
    groups jobs for per-layer figures (job kind, rung or CLI command).
    """

    def __init__(self, seed, tiny, reference):
        self.seed, self.tiny, self.reference = seed, tiny, reference

    def expected(self, key, tag):
        return self.reference[tag]

    def matches(self, key, tag, verdict):
        return verdict == self.expected(key, tag)

    def close(self):
        pass


class SuiteVerify(Workload):
    """Generate and certify small data; Python overhead sets the cost."""

    name = "suite-verify"

    def setup(self):
        _import_library()
        from _suites import suite_topology
        from bowforge import bowfile

        self.suite = [(f"{n},{k},{m0}", suite_topology(n, k, m0))
                      for n, k, m0 in (TINY_SUITE if self.tiny else SUITE)]
        self.mirrors = []
        for name in MIRRORS:
            parsed = bowfile.parse((FIXTURES / f"{name}.json").read_bytes())
            self.mirrors.append((name, parsed.topo, parsed.pairing.flavor))
        warm = random.Random(f"{self.name}:warm-up:{self.seed}")
        for job in self.round(warm)[:4]:
            self.run(job, None)

    def round(self, rng):
        jobs = [("suite", key, topo, rng.randrange(2**31))
                for key, topo in self.suite for _ in range(2)]
        jobs += [("mirror", name, (topo, flavor), rng.randrange(2**31))
                 for name, topo, flavor in self.mirrors]
        rng.shuffle(jobs)
        return jobs

    def run(self, job, tracer):
        from bowforge.bowdata import check_chain_invariants, check_exactness_all, validate_relations
        from bowforge.generator import generate, generate_mirror
        from bowforge.monad import random_points
        from bowforge.orthosymplectic import fiber_form, verify_pairing_relations
        from bowforge.errors import BowforgeError

        kind, _, topo, seed = job
        if kind == "suite":
            datum = generate(topo, seed=seed)
            relations = validate_relations(datum, tol=1e-8).passed
            exact = all(r.passed for r in check_exactness_all(datum))
            invariants = check_chain_invariants(datum, tol=1e-6).passed
            verdict = " ".join(
                f"{name}={'pass' if ok else 'fail'}"
                for name, ok in (("relations", relations), ("exactness", exact),
                                 ("invariants", invariants))
            )
        else:
            topo, flavor = topo
            datum, pairing = generate_mirror(topo, flavor, seed=seed)
            paired = verify_pairing_relations(datum, pairing, tol=1e-8).passed
            forms = collections.Counter()
            for point in random_points(datum, MIRROR_POINTS, seed=seed):
                try:
                    fiber_form(datum, pairing, point, tol=1e-6)
                    forms["ok"] += 1
                except BowforgeError as exc:
                    forms[type(exc).__name__] += 1
            verdict = f"pairing={'pass' if paired else 'fail'} forms=" + ",".join(
                f"{k}:{v}" for k, v in sorted(forms.items()))
        return verdict, None, 0

    def key(self, job):
        return f"{job[0]} {job[1]}", job[0]


class ScanLadder(Workload):
    """Local-freeness scans up the m0 ladder; dense SVDs set the cost."""

    name = "scan-ladder"

    def setup(self):
        _import_library()
        from _suites import suite_topology
        from bowforge.generator import generate
        from bowforge.monad import ScanConfig, monad_dimensions, scan_local_freeness

        rng = random.Random(f"{self.name}:data:{self.seed}")
        self.data = {
            f"m0_{m0}": generate(suite_topology(3, 3, m0), seed=rng.randrange(2**31))
            for m0 in (RUNGS[:1] if self.tiny else RUNGS)
        }
        self.dimensions = {r: monad_dimensions(d.dims) for r, d in self.data.items()}
        scan_local_freeness(self.data[RUNG_NAMES[0]], ScanConfig(n_random=SCAN_RANDOM, seed=0))

    def round(self, rng):
        jobs = [(rung, rng.randrange(2**31))
                for rung, repeats in zip(RUNG_NAMES, RUNG_REPEATS) if rung in self.data
                for _ in range(repeats)]
        rng.shuffle(jobs)
        return jobs

    def run(self, job, tracer):
        from bowforge.monad import ScanConfig, scan_local_freeness

        rung, seed = job
        report = scan_local_freeness(self.data[rung], ScanConfig(n_random=SCAN_RANDOM, seed=seed))
        counts = collections.Counter(f"{p.status}/{p.fiber_rank}" for p in report.points)
        verdict = f"points={len(report.points)} " + " ".join(
            f"{k}={v}" for k, v in sorted(counts.items()))
        breach = "indeterminate points" if report.indeterminate else None
        return verdict, breach, len(report.points)

    def key(self, job):
        return job[0], job[0]


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[+-]\d+)?")
_HUMAN_VERDICT = re.compile(r"^verdict: (\w+)$", re.MULTILINE)


def _normalise(text, workdir):
    """Output with temp paths removed and floats at four significant digits.

    Residuals below 1e-6 are rounding noise that differs between BLAS
    kernels, so they read as 0; the pass/fail fields that rest on them are
    hashed unchanged.
    """
    text = text.replace(str(workdir), "<tmp>")
    return _FLOAT.sub(
        lambda m: "0" if abs(float(m.group())) < 1e-6 else f"{float(m.group()):.3e}", text)


def _document_verdict(stdout, fmt):
    if fmt == "machine":
        try:
            return json.loads(stdout).get("verdict")
        except (ValueError, AttributeError):
            return None
    found = _HUMAN_VERDICT.search(stdout)
    return found.group(1) if found else None


class CliCold(Workload):
    """One cold ``python -m bowforge.cli`` process per job; imports set the cost."""

    name = "cli-cold"

    def __init__(self, seed, tiny, reference):
        super().__init__(seed, tiny, reference)
        fixtures = ("u2-basic",) if tiny else BOW_FIXTURES
        self.commands = [
            (cmd, fixture, fmt)
            for fmt in ("human", "machine")
            for cmd, fixture in [("dims", TOPOLOGY_FIXTURE), ("gen", TOPOLOGY_FIXTURE)]
            + [(cmd, fx) for fx in fixtures for cmd in BOW_COMMANDS]
        ]

    def setup(self):
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        self.run(("dims", TOPOLOGY_FIXTURE, "human", 0), None)

    def round(self, rng):
        jobs = [cmd + (rng.randrange(2**31),) for cmd in self.commands]
        rng.shuffle(jobs)
        return jobs

    def argv(self, job):
        cmd, fixture, fmt, seed = job
        args = [cmd, f"tests/fixtures/{fixture}.json", "--format", fmt]
        if cmd == "gen":
            args += ["--seed", str(seed), "-o", str(self.workdir / "gen.json")]
        elif cmd == "export-bow":
            args += ["-o", str(self.workdir / "export.json")]
        elif cmd == "scan":
            args += ["--n", str(SCAN_RANDOM)]
        elif cmd == "fiber":
            args += ["--xi", "1.0", "--eta", "2.1+0.4j"]
        return args

    def run(self, job, tracer):
        if tracer is None:
            proc = self._spawn([sys.executable, "-m", "bowforge.cli"], job)
            breach = self._breach(proc)
        else:
            spans_file = self.workdir / "spans.json"
            process_span = tracer.begin("process", "python")
            breach = "no exit"
            try:
                proc = self._spawn([sys.executable, str(BENCH / "cli_child.py"), str(spans_file)], job)
                breach = self._breach(proc)
                if spans_file.exists():
                    tracer.adopt(json.loads(spans_file.read_text()))
                    spans_file.unlink()
            finally:
                tracer.end(process_span, failed=breach is not None)
        out = hashlib.sha256(_normalise(proc.stdout, self.workdir).encode()).hexdigest()[:16]
        verdict = f"exit={proc.returncode} doc={_document_verdict(proc.stdout, job[2])} out={out}"
        if breach == "traceback":
            verdict += " traceback=" + proc.stderr.strip().splitlines()[-1]
        return verdict, breach, 0

    def _spawn(self, prefix, job):
        return subprocess.run(prefix + self.argv(job), cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    @staticmethod
    def _breach(proc):
        """How a finished command broke the exit-code contract, if it did."""
        if "Traceback (most recent call last)" in proc.stderr:
            return "traceback"
        if proc.returncode not in (0, 1, 2):
            return f"exit code {proc.returncode}"
        return None

    def key(self, job):
        return " ".join(job[:3]), job[0]

    def expected(self, key, tag):
        entry = self.reference.get(key)
        return entry["verdict"] if entry else None

    def matches(self, key, tag, verdict):
        """Equal to the reference, or a known crash now fixed.

        A fixed crash must exit cleanly with the exit code and verdict of
        its human-format twin; its new output has no reference hash yet.
        """
        entry = self.reference.get(key)
        if entry is None:
            return False
        if verdict == entry["verdict"]:
            return True
        fixed = entry.get("fixed")
        return bool(fixed) and "traceback=" not in verdict and verdict.startswith(
            f"exit={fixed['exit']} doc={fixed['verdict']} ")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SuiteVerify, ScanLadder, CliCold)}


class Calibration:
    """Fixed work, independent of bowforge, timed between jobs.

    It mixes the three kinds of work the workloads do: interpreter loops,
    many small numpy calls, and one dense LAPACK SVD.  Its time near a job
    measures how fast the machine ran at that moment: on a shared 2-core
    host that speed drifts by 20-50 % over tens of seconds, for this kernel
    and the workloads alike.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.dense = rng.standard_normal((96, 128)) + 1j * rng.standard_normal((96, 128))
        self.svd = numpy.linalg.svd
        self.samples = []  # (midpoint, seconds)
        self.spent = 0.0
        self.last = 0.0

    def maybe_run(self):
        """Time the kernel if CALIBRATE_EVERY_S has passed since the last time."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.run()

    def run(self):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(40):
            self.svd(self.small @ self.small)
        self.svd(self.dense)
        self.last = time.perf_counter()
        self.samples.append(((start + self.last) / 2, self.last - start))
        self.spent += self.last - start
        return total


def scale_to_reference(jobs, samples):
    """Set each job's time at the reference speed; return the run's factor.

    A job's factor is CALIBRATION_REFERENCE_S over the median calibration
    time within CALIBRATION_WINDOW_S of the job (at least the three nearest
    samples); the run's factor uses the median over the whole run.
    """
    times = [t for t, _ in samples]
    durations = [d for _, d in samples]
    for job in jobs:
        middle = job.start + job.seconds / 2
        lo = bisect.bisect_left(times, middle - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(times, middle + CALIBRATION_WINDOW_S)
        if hi - lo < 3:
            lo = max(0, min(bisect.bisect_left(times, middle) - 1, len(times) - 3))
            hi = lo + 3
        job.scaled = job.seconds * CALIBRATION_REFERENCE_S / statistics.median(durations[lo:hi])
    return CALIBRATION_REFERENCE_S / statistics.median(durations)


def measure(workload, rng, budget_s, tracer):
    """Run whole rounds of jobs for about ``budget_s`` seconds.

    Returns the jobs, the elapsed time without calibration, and the
    calibration samples taken between jobs.
    """
    calibration = Calibration()
    calibration.run()
    jobs, last_round, start = [], 0.0, time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - calibration.spent

    while not jobs or elapsed() + last_round <= budget_s:
        round_start = elapsed()
        for spec in workload.round(rng):
            jobs.append(run_job(workload, spec, tracer, len(jobs)))
            calibration.maybe_run()
        last_round = elapsed() - round_start
    calibration.run()
    return jobs, elapsed(), calibration.samples


def run_job(workload, spec, tracer, job_id):
    if tracer is not None:
        tracer.job = job_id
        span = tracer.begin("job", "harness")
    key, tag = workload.key(spec)
    start = time.perf_counter()
    try:
        verdict, breach, points = workload.run(spec, tracer)
    except Exception as exc:  # a job that raises is counted failed; the loop goes on
        traceback.print_exc(file=sys.stderr)
        verdict, breach, points = f"error={type(exc).__name__}", "exception", 0
    seconds = time.perf_counter() - start
    matches = workload.matches(key, tag, verdict)
    failed = breach is not None or not matches
    if tracer is not None:
        tracer.end(span, failed=failed)
    return Job(key, tag, start, seconds, verdict, matches, failed, points)


def setup_probe(args):
    """Set-up time of one fresh child process, in seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def child_ms(code, repeats):
    """Median wall time of ``python -c code`` children, or of the value they print."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        wall = time.perf_counter() - start
        times.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return 1e3 * statistics.median(times)


def digest(lines):
    return hashlib.sha256("\n".join(sorted(set(lines))).encode()).hexdigest()[:16]


def end_to_end(jobs, setup_s, factor):
    """The bounded metrics, with times at the reference machine speed."""
    times = [j.scaled for j in jobs]
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s * factor,
        "job_p50_ms": 1e3 * _median(times),
        "job_p90_ms": 1e3 * _p90(times),
        "jobs_per_s": len(jobs) / sum(times),
        "peak_rss_mb": usage / 1024.0,
    }


def extras(workload, jobs, elapsed, samples, setup_s):
    """Figures printed beside the metrics, as (unit, value).

    The ``measured.*`` figures are the headline times before scaling to the
    reference speed; the others are workload-specific.
    """
    raw = [j.seconds for j in jobs]
    scaled = [j.scaled for j in jobs]
    p90 = _p90(scaled)
    out = {
        "measured.setup_s": ("s", setup_s),
        "measured.job_p50_ms": ("ms", 1e3 * _median(raw)),
        "measured.job_p90_ms": ("ms", 1e3 * _p90(raw)),
        "measured.jobs_per_s": ("1/s", len(jobs) / elapsed),
        "calibration_ms": ("ms", 1e3 * statistics.median(d for _, d in samples)),
        "calibration_samples": ("count", len(samples)),
        "failed_frac": ("ratio", sum(j.failed for j in jobs) / len(jobs)),
        "samples": ("count", len(jobs)),
        "samples_beyond_p90": ("count", sum(t > p90 for t in scaled)),
    }
    if workload.name == "scan-ladder":
        for rung in RUNG_NAMES:
            rung_times = [j.scaled for j in jobs if j.tag == rung]
            if rung_times:
                out[f"scan_ms.{rung}"] = ("ms", 1e3 * _median(rung_times))
        out["points_per_s"] = ("1/s", sum(j.points for j in jobs) / sum(scaled))
    return out


def per_layer(workload, tracer, jobs, plain_jobs, probes):
    spans = tracer.spans
    selfs = self_times_ns(spans)
    tags = [j.tag for j in jobs]
    points = collections.Counter()
    for j in jobs:
        points[j.tag] += j.points
    scans = collections.Counter(j.tag for j in jobs)
    durations = collections.defaultdict(list)
    for s in spans:
        durations[s[NAME]].append((s[END] - s[START], tags[s[JOB]]))

    def median_us(name):
        return _median([d for d, _ in durations[name]]) / 1e3

    out = {}
    for fn in ("assemble_monad", "fiber_at", "is_locally_free_at", "scan_local_freeness"):
        for rung in RUNG_NAMES:
            total = sum(d for d, tag in durations[f"monad.{fn}"] if tag == rung)
            out[f"monad.{fn}.us_per_point.{rung}"] = total / 1e3 / points[rung] if points[rung] else 0.0
    for rung in RUNG_NAMES:
        out[f"monad.points.{rung}"] = points[rung] // scans[rung] if scans[rung] else 0
    for fn in ("assemble_monad", "fiber_at", "is_locally_free_at"):
        out[f"monad.{fn}.us"] = median_us(f"monad.{fn}")
    for name in ("generator.generate", "generator.generate_mirror", "bowdata.validate_relations",
                 "bowdata.check_exactness_all", "bowdata.check_chain_invariants",
                 "orthosymplectic.verify_pairing_relations", "export.export_bow_complex"):
        out[f"{name}.us"] = median_us(name)
    out["orthosymplectic.fiber_form.us_per_point"] = median_us("orthosymplectic.fiber_form")
    out["python.startup_ms"], out["cli.import_ms"] = probes
    for cmd in CLI_COMMANDS:
        out[f"cli.main_ms.{cmd}"] = _median(
            [d for d, tag in durations["cli.main"] if tag == cmd]) / 1e6
    out["bowfile.parse_us"] = _median(
        [d for name in ("bowfile.parse", "bowfile.parse_topology") for d, _ in durations[name]]) / 1e3
    out["bowfile.serialize_us"] = _median([
        s[END] - s[START] for s in spans
        if s[NAME] in ("bowfile.serialize", "bowfile.canonical_dumps")
        and (s[PARENT] is None or spans[s[PARENT]][LAYER] != "bowfile")
    ]) / 1e3
    for layer in LAYERS:
        out[f"self_s.{layer}"] = sum(t for s, t in zip(spans, selfs) if s[LAYER] == layer) / 1e9
        out[f"failed.{layer}"] = sum(1 for s in spans if s[LAYER] == layer and s[FAILED])
        out[f"calls_per_job.{layer}"] = sum(1 for s in spans if s[LAYER] == layer) / len(jobs)
    plain_p50 = _median([j.scaled for j in plain_jobs])
    traced_p50 = _median([j.scaled for j in jobs])
    out["trace.overhead_ms"] = 1e3 * (traced_p50 - plain_p50)
    out["trace.overhead_frac"] = (traced_p50 - plain_p50) / plain_p50
    return out


def run_metadata(workload, args):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }
    if workload.name == "scan-ladder":
        meta["monad_dimensions"] = {r: list(d) for r, d in workload.dimensions.items()}
    return meta


def run_workload(args):
    reference = json.loads(REFERENCE.read_text())[args.workload]
    workload = WORKLOADS[args.workload](args.seed, args.tiny, reference)
    if args.setup_only:
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    workload.setup()
    setups.append(time.perf_counter() - start)
    setup_s = statistics.median(setups)
    rng = random.Random(f"{args.workload}:{args.seed}")
    try:
        if not args.trace:
            jobs, elapsed, samples = measure(workload, rng, args.seconds, None)
            factor = scale_to_reference(jobs, samples)
            all_jobs = jobs
            metrics = end_to_end(jobs, setup_s, factor)
            units = dict(END_TO_END)
        else:
            plain_jobs, _, plain_samples = measure(workload, rng, args.seconds / 2, None)
            scale_to_reference(plain_jobs, plain_samples)
            tracer = Tracer()
            if workload.name != "cli-cold":
                tracer.instrument()
            try:
                jobs, elapsed, samples = measure(workload, rng, args.seconds / 2, tracer)
            finally:
                tracer.uninstrument()
            scale_to_reference(jobs, samples)
            probes = (0.0, 0.0)
            if workload.name == "cli-cold":
                probes = (
                    child_ms("pass", STARTUP_PROBES),
                    child_ms("import time; t = time.perf_counter(); import bowforge.cli; "
                             "print(time.perf_counter() - t)", STARTUP_PROBES),
                )
            all_jobs = plain_jobs + jobs
            metrics = per_layer(workload, tracer, jobs, plain_jobs, probes)
            units = dict(PER_LAYER)
            write_trace(workload, args, tracer)
    finally:
        workload.close()

    observed = [f"{j.key}\t{j.verdict}" for j in all_jobs]
    expected = [f"{j.key}\t{workload.expected(j.key, j.tag)}" for j in all_jobs]
    report(workload, args, metrics, units, all_jobs, observed, expected,
           extras(workload, jobs, elapsed, samples, setup_s))
    print(json.dumps({
        "correct": all(j.matches for j in all_jobs),
        "attempted": len(all_jobs),
        "failed": sum(j.failed for j in all_jobs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def write_trace(workload, args, tracer):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"
    fields = ("name", "layer", "start_ns", "end_ns", "parent", "job", "failed")
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def report(workload, args, metrics, units, jobs, observed, expected, extra):
    print(f"# bowforge benchmark: {workload.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, one client, closed loop")
    print("meta " + json.dumps(run_metadata(workload, args), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for name, (unit, value) in extra.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    mismatched = sorted({j.key for j in jobs if not j.matches})
    print(f"verdict digest {digest(observed)} reference {digest(expected)} "
          f"{'match' if not mismatched else 'MISMATCH on ' + ', '.join(mismatched)}")
    breaches = collections.Counter(j.key for j in jobs if j.failed)
    for key, count in sorted(breaches.items()):
        print(f"failed job {key}: {count}x")


def run_all(args):
    """Run every workload in its own child process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "bowforge" / "__init__.py", TESTS / "_suites.py", FIXTURES)
               if not p.exists()]
    if missing:
        print(f"error: not a bowforge checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
