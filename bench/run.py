"""Seeded closed-loop benchmark of the polysweep command line.

    python3 bench/run.py --workload verify-small --seed 3 --seconds 30 --trace 0

One client sends one job at a time and sends the next when the previous
one has returned.  A job is an in-process call of ``polysweep.cli.main``
with its standard output and error captured; the package is imported
from ``src/`` of the checkout this file sits in.  The inputs come from
the seed alone (see ``workloads.py``) and are distinct within a run, so
a cache kept across calls cannot make a run faster than the one-process-
per-call use of the CLI would be.

``--trace 0`` measures for ``--seconds`` seconds and stops at the end of
a cycle of the workload's job kinds once it has run at least 100 jobs,
so that ten job times lie above the 90th percentile; a program too slow
for 100 jobs stops at the first cycle end after four times
``--seconds``.  It reports the end-to-end metrics.  ``--trace 1`` runs the first ``TRACE_JOBS`` jobs
of the seed twice each, untraced and traced in alternating order, and
reports the per-layer metrics of ``tracing.py`` plus the cost of
tracing.  Its job count is fixed so that its work counts repeat exactly
for a seed.

Every job's output is checked (``checks.py``), and after the measured
part the first ``DIGEST_JOBS`` jobs of the default seed are run again
and their outputs compared byte for byte with ``digests.json``.  The
last line of standard output is the result object; the line before it
is the run record.  Spans and records go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

MIN_JOBS = 100
TRACE_JOBS = {"hull-describe": 30, "verify-small": 30, "query-mix": 126}
SETUP_RUNS = 11
DEFAULT_SEED = 1
DIGEST_JOBS = 5


def load_cli():
    """Import polysweep.cli from this checkout's src/, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "polysweep" / "cli.py").is_file():
        sys.exit(f"error: no polysweep sources under {src}")
    sys.path.insert(0, str(src))
    import polysweep.cli

    if Path(polysweep.cli.__file__).resolve().parent != src / "polysweep":
        sys.exit(f"error: imported polysweep from {polysweep.cli.__file__}")
    return polysweep.cli


# ---------------------------------------------------------------------------
# One job.


@dataclass
class Outcome:
    code: int
    stdout: str
    error: str | None  # uncaught exception, which the CLI would print as a traceback
    wall: float
    cpu: float


def call(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # uncaught: the CLI would exit with code 1
            code, error = 1, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), error, wall, time.process_time() - c0)


def argv_for(job, workload: str, seed: int, index: int) -> list:
    """Write the job's input file and return the CLI arguments.  Paths
    are relative to the checkout root, which is the working directory."""
    if job.vertices is None:
        source = job.spec
    else:
        path = OUT / "in" / f"{workload}-{seed}-{index}.json"
        path.write_text(json.dumps(job.input_json()))
        source = str(path.relative_to(ROOT))
    return [job.command, "--input", source, *job.options]


def judge(job, outcome: Outcome) -> tuple[str | None, bool]:
    """(why the job failed or None, whether the program gave a wrong answer).

    Every exit code other than the expected one is a failure.  It is also
    a wrong answer, except for a crash on a malformed request: that
    request gets no answer, and the failure is the missing exit 2.  So a
    cross-check failure (exit 3, two routes disagree), a crash or refusal
    on a well-formed input, an accepted malformed input, and an exit-0
    output that fails its check all make the run incorrect.
    """
    if outcome.error:
        cause = f"exit 1 with uncaught {outcome.error}; expected exit {job.expect}"
        return cause, job.expect == 0
    if outcome.code != job.expect:
        return f"exit {outcome.code}; expected exit {job.expect}", True
    if job.expect == 0:
        problem = checks.check(job, outcome.stdout)
        if problem:
            return f"wrong answer: {problem}", True
    return None, False


class Tally:
    """Failures and wrong answers across the jobs of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes = Counter()

    def add(self, job, outcome: Outcome) -> None:
        cause, wrong = judge(job, outcome)
        self.attempted += 1
        if cause:
            self.failed += 1
            self.wrong += wrong
            self.causes[f"{job.kind}: {cause}"] += 1


# ---------------------------------------------------------------------------
# The two kinds of run.


def measure_setup() -> float:
    """Median over fresh interpreters of the time to import polysweep.cli,
    which every CLI call pays before it starts working."""
    code = (
        "import time; t = time.perf_counter(); import polysweep.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def timed_run(cli, workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    setup = measure_setup()
    cycle = len(workloads.WORKLOADS[workload])
    stream = workloads.jobs(workload, seed)
    walls, cpus = [], []
    start = time.perf_counter()
    for index in itertools.count():
        elapsed = time.perf_counter() - start
        if index and index % cycle == 0 and (
            (index >= MIN_JOBS and elapsed >= seconds) or elapsed >= 4 * seconds
        ):
            break
        job = next(stream)
        outcome = call(cli, argv_for(job, workload, seed, index))
        tally.add(job, outcome)
        walls.append(outcome.wall)
        cpus.append(outcome.cpu)
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.p90": (statistics.quantiles(walls, n=10, method="inclusive")[-1], "s"),
        "jobs_per_s": (len(walls) / elapsed, "1/s"),
        "cpu_s.per_job": (sum(cpus) / len(cpus), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup, "s"),
    }


def traced_run(cli, workload: str, seed: int, n_jobs: int, tally: Tally, spans_path: Path) -> dict:
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    jobs = list(itertools.islice(workloads.jobs(workload, seed), n_jobs))
    plain_s = traced_s = 0.0
    output_bytes = 0
    for index, job in enumerate(jobs):
        argv = argv_for(job, workload, seed, index)
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if not traced:
                plain_s += call(cli, argv).wall
                continue
            tracer.start_job(index)
            with tracer.installed():
                outcome = call(cli, argv)
            tracer.end_job()
            traced_s += outcome.wall
            output_bytes += len(outcome.stdout.encode())
            tally.add(job, outcome)
    tracer.write_spans(spans_path)

    calls, counts, busy = tracer.calls, tracer.counts, tracer.busy_s
    m = {
        "trace.job_s": (traced_s, "s"),
        "trace_overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        m[f"{layer}.self_share"] = (tracer.self_s[layer] / traced_s, "ratio")
        m[f"{layer}.busy_s"] = (busy[layer], "s")
    hull_calls = calls["polytope.hull_lattice"]
    figures = calls["sweep.vertex_figure"]
    m.update({
        "exactnum.calls": (sum(v for k, v in calls.items() if k.startswith("exactnum.")), "count"),
        "polytope.hull.self_s": (tracer.self_s["polytope.hull_lattice"], "s"),
        "polytope.hull.busy_s": (busy["polytope.hull_lattice"], "s"),
        "polytope.hull.calls": (hull_calls, "count"),
        "polytope.hull.calls_per_job": (hull_calls / len(jobs), "count"),
        "polytope.hull.subsets": (counts["polytope.hull.subsets"], "count"),
        "polytope.hull.facets": (counts["polytope.hull.facets"], "count"),
        "polytope.hull.faces": (counts["polytope.hull.faces"], "count"),
        "polytope.polar_dual.calls": (calls["polytope.polar_dual"], "count"),
        "sweep.vertex_figure.calls": (figures, "count"),
        "sweep.vertex_figure.distinct": (counts["sweep.vertex_figure.distinct"], "count"),
        "sweep.vertex_figure.useful_ratio": (
            counts["sweep.vertex_figure.distinct"] / figures if figures else 0.0, "ratio"),
        "sweep.sweep_section.calls": (calls["sweep.sweep_section"], "count"),
        "sweep.sweep_section.distinct": (counts["sweep.sweep_section.distinct"], "count"),
        "flagvec.cd_index.calls": (calls["flagvec.cd_index"], "count"),
        "toric.toric_sweep.busy_s": (busy["toric.toric_sweep"], "s"),
        "toric.toric_h_definition.busy_s": (busy["toric.toric_h_definition"], "s"),
        # extended_toric and reconstruct_cd never call each other
        "toric.extended.busy_s": (busy["toric.extended_toric"] + busy["toric.reconstruct_cd"], "s"),
        "truncpartition.chains": (counts["truncpartition.chains"], "count"),
        "truncpartition.blocks": (counts["truncpartition.blocks"], "count"),
        "cli.output_bytes": (output_bytes, "bytes"),
    })
    return m


# ---------------------------------------------------------------------------
# Byte-identical outputs on the default seed.


def digest_jobs(cli, workload: str) -> list:
    stream = workloads.jobs(workload, DEFAULT_SEED)
    out = []
    for index, job in enumerate(itertools.islice(stream, DIGEST_JOBS)):
        outcome = call(cli, argv_for(job, workload, DEFAULT_SEED, index))
        text = f"exit {outcome.code}\n{outcome.error or ''}\n{outcome.stdout}"
        out.append(hashlib.sha256(text.encode()).hexdigest())
    return out


def check_digests(cli, workload: str) -> list:
    """Indices of the default-seed jobs whose output changed."""
    want = json.loads(DIGESTS.read_text())[workload]
    got = digest_jobs(cli, workload)
    return [i for i, (a, b) in enumerate(zip(want, got)) if a != b]


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git
        return "unknown"
    return proc.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record the default seed's output digests and exit")
    args = ap.parse_args(argv)
    if not args.write_digests and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    cli = load_cli()
    (OUT / "in").mkdir(parents=True, exist_ok=True)
    if args.write_digests:
        digests = {w: digest_jobs(cli, w) for w in sorted(workloads.WORKLOADS)}
        DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
        return 0

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    tally = Tally()
    if args.trace:
        metrics = traced_run(
            cli, args.workload, args.seed, TRACE_JOBS[args.workload], tally,
            OUT / f"spans-{tag}.jsonl",
        )
    else:
        metrics = timed_run(cli, args.workload, args.seed, args.seconds, tally)
    changed = check_digests(cli, args.workload)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": tally.attempted,
        "failed": tally.failed,
        "failure_causes": dict(tally.causes),
        "wrong_answers": tally.wrong,
        "digest_mismatches": changed,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": tally.wrong == 0 and not changed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
