"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Checks that a seed fixes the inputs and another seed changes them, that
inputs are distinct within a run, that the output checks reject a wrong
answer, that a cross-check failure (exit 3) or a crash on a valid input
makes the run incorrect, that two traced runs of one seed give exactly
the same work counts, and that the default seed's outputs still match
digests.json.
Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import checks
import run
import workloads

COUNT_JOBS = 4  # jobs per workload in the repeat check; a few seconds each


def expect(condition, message):
    """A check that still runs under python -O."""
    if not condition:
        raise AssertionError(message)


def first(workload, seed, n=60):
    return list(itertools.islice(workloads.jobs(workload, seed), n))


def test_seed_fixes_inputs():
    for w in workloads.WORKLOADS:
        expect(first(w, 5) == first(w, 5), f"{w}: seed 5 gave two job lists")
        expect(first(w, 5) != first(w, 6), f"{w}: seeds 5 and 6 gave one job list")


def test_inputs_distinct():
    for w in workloads.WORKLOADS:
        inputs = [(j.dim, j.vertices, j.spec) for j in first(w, 7, 400)]
        expect(len(set(inputs)) == len(inputs), f"{w}: repeated input")


def test_checks_reject_wrong_answers(cli):
    job = next(j for j in first("hull-describe", 1) if j.command == "describe")
    good = run.call(cli, run.argv_for(job, "hull-describe", 1, 0)).stdout
    expect(checks.check(job, good) is None, "correct output rejected")
    obj = json.loads(good)
    obj["f_vector"][2] += 1
    expect(checks.check(job, json.dumps(obj)) is not None, "Euler check missed")


def test_judge_exit_codes():
    valid = next(j for j in first("query-mix", 1, 42) if j.expect == 0)
    malformed = next(j for j in first("query-mix", 1, 42) if j.expect == 2)
    cases = [  # (job, exit code, uncaught error, failed, wrong answer)
        (valid, 3, None, True, True),  # two routes disagreed
        (valid, 1, "ValueError: x", True, True),  # crash on a valid input
        (valid, 2, None, True, True),  # valid input refused
        (malformed, 0, None, True, True),  # malformed input accepted
        (malformed, 3, None, True, True),
        (malformed, 1, "ValueError: x", True, False),  # crash, not an answer
        (malformed, 2, None, False, False),
    ]
    for job, code, error, failed, wrong in cases:
        cause, got_wrong = run.judge(job, run.Outcome(code, "", error, 0.0, 0.0))
        expect((cause is not None, got_wrong) == (failed, wrong),
               f"judge of exit {code} on {job.kind}: {cause!r}, wrong={got_wrong}")


def test_counts_repeat(cli):
    for w in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            m = run.traced_run(
                cli, w, 3, COUNT_JOBS, run.Tally(), run.OUT / f"selftest-spans-{w}.jsonl"
            )
            counts.append({k: v for k, (v, unit) in m.items() if unit in ("count", "bytes")})
        expect(counts[0] == counts[1], f"{w}: work counts differ between runs")


def test_digests(cli):
    for w in workloads.WORKLOADS:
        expect(run.check_digests(cli, w) == [], f"{w}: default-seed output changed")


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.load_cli()
    (run.OUT / "in").mkdir(parents=True, exist_ok=True)
    tests = [
        (test_seed_fixes_inputs, ()),
        (test_inputs_distinct, ()),
        (test_checks_reject_wrong_answers, (cli,)),
        (test_judge_exit_codes, ()),
        (test_counts_repeat, (cli,)),
        (test_digests, (cli,)),
    ]
    failures = 0
    for test, args in tests:
        try:
            test(*args)
        except AssertionError as e:
            failures += 1
            print(f"FAIL {test.__name__}: {e}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
