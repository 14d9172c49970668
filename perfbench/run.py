"""Closed-loop benchmark of the abstractnet CLI: abstract -> verify -> lift.

One client in one process, no threads: each job calls
``abstractnet.cli.main(argv)`` in-process with stdout captured, so Python
start-up is not timed, and a job ends before the next one starts. A round is
one pass over the workload's jobs (see workloads.py). The first round is a
warm-up whose reports are checked in full outside the timed region
(checks.py); the timed rounds that follow, until ``--seconds`` have passed,
must reproduce the warm-up reports apart from timings.

    python3 perfbench/run.py --workload desk-verify --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: self time and
calls per round of each public function (spans.py), plus the tracing
overhead. The last stdout line is the result object; the line before it
holds the details (environment, sample counts, tail percentiles, failures).
Both are also written to ``.bench_out/`` in the checkout, with the spans of
a traced run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3
MIN_ROUNDS = 2
WORKLOADS = ("desk-abstract", "desk-verify", "redundant-lift")  # set up in workloads.py

# name -> unit; the same names, units and directions are in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "abstract_s": "s",
    "verify_original_qps": "queries/s",
    "verify_abstract_qps": "queries/s",
    "lift_qps": "queries/s",
    "proved_original": "count",
    "proved_abstract": "count",
    "reduction_rate": "ratio",
    "accuracy_abstract": "ratio",
    "peak_rss_mb": "MB",
}

CALLS = (
    "clustering.kmeans",
    "abstraction.layer_epsilons",
    "data.accuracy",
    "data.collect_activations",
    "network.classify",
    "verifier.ibp_bounds",
    "verifier.check_robust",
    "lifting.lift_proof",
    "lifting.lifted_bounds",
)
SELF_S = (
    "clustering.kmeans",
    "clustering.cluster_layer",
    "clustering.epsilon_vector",
    "abstraction.identify_clusters",
    "abstraction.abstract",
    "abstraction.record_save",
    "abstraction.record_load",
    "abstraction.layer_epsilons",
    "data.load_csv",
    "data.accuracy",
    "data.collect_activations",
    "data.split_dataset",
    "network.load",
    "network.classify",
    "verifier.ibp_bounds",
    "verifier.check_robust",
    "lifting.lift_proof",
    "lifting.lifted_bounds",
)
SETUP_S = ("trainer.train", "synthetic.make_synthetic_digits")
PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.s": "s" for name in SELF_S + SETUP_S},
    "cli.main.self_s": "s",
    "verifier.ibp_bounds.rows_per_call": "rows",
    "abstraction.search_commit_ratio": "ratio",
    "verifier.proof_ratio.original": "ratio",
    "verifier.proof_ratio.abstract": "ratio",
    "lifting.lift_ratio": "ratio",
    "lifting.proved_lifted": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="draws the query rows")
    p.add_argument("--seconds", type=float, required=True, help="timed rounds run this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small nets and data, for the self-check")
    return p.parse_args(argv)


def import_program():
    """Import abstractnet from this checkout's src/, never from anywhere else."""
    package = SRC / "abstractnet" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import abstractnet
    import abstractnet.cli

    if Path(abstractnet.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported abstractnet from {abstractnet.__file__}")
    return abstractnet, abstractnet.cli


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read from files, no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(an, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "abstractnet": an.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_job(cli, job, tracer=None):
    """Run one CLI job; returns (exit code, wall seconds, captured stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(job.argv))
            else:
                with tracer.span("cli.main"):
                    code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
    return code, seconds, buf.getvalue()


def run_round(cli, jobs, round_id, tracer=None):
    if tracer is None:
        return [run_job(cli, job) for job in jobs]
    outcomes = []
    with tracer.installed():
        for index, job in enumerate(jobs):
            tracer.job = (round_id, index)
            outcomes.append(run_job(cli, job, tracer))
        tracer.job = None
    return outcomes


def check_warmup(checks, checker, jobs, outcomes):
    """Full output checks; returns (stripped reports, problems per job)."""
    reports, problems = [], []
    abstract_verdicts = {}
    for job, (code, _, stdout) in zip(jobs, outcomes):
        report, found = None, []
        if code != 0:
            found.append(f"exit code {code}")
        else:
            try:
                report = checks.parse_report(job, stdout)
                if job.kind == "abstract":
                    found = checker.abstract(job, report)
                elif job.kind == "lift":
                    found = checker.lift(job, report, abstract_verdicts.get(job.delta))
                else:
                    found = checker.verify(job, report)
                    if job.kind == "verify_abstract":
                        abstract_verdicts[job.delta] = [line["verdict"] for line in report]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found.append(f"malformed report: {exc!r}")
        reports.append(checks.strip_timings(report))
        problems.append(found)
    return reports, problems


def check_repeat(checks, jobs, outcomes, reference):
    problems = []
    for job, (code, _, stdout), expected in zip(jobs, outcomes, reference):
        if code != 0:
            problems.append([f"exit code {code}"])
            continue
        try:
            same = checks.strip_timings(checks.parse_report(job, stdout)) == expected
        except ValueError as exc:
            problems.append([f"malformed report: {exc!r}"])
            continue
        problems.append([] if same else ["report differs from the warm-up round"])
    return problems


def by_kind(jobs, job_samples) -> dict[str, list[float]]:
    """Per job kind, the wall seconds of each round (its jobs' times summed)."""
    out: dict[str, list[float]] = {}
    for job, samples in zip(jobs, job_samples):
        acc = out.setdefault(job.kind, [0.0] * len(samples))
        for r, seconds in enumerate(samples):
            acc[r] += seconds
    return out


def median_by_kind(jobs, job_samples) -> dict[str, float]:
    """Per job kind, the sum of each job's median timed run."""
    out: dict[str, float] = {}
    for job, samples in zip(jobs, job_samples):
        out[job.kind] = out.get(job.kind, 0.0) + statistics.median(samples)
    return out


def timing_summary(samples) -> dict:
    """Median and the highest percentile that has at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    tail = None
    if n >= 11:
        k = n - 11
        tail = {"percentile": 100.0 * (k + 1) / n, "s": s[k]}
    return {"n": n, "median_s": statistics.median(s), "tail": tail}


def proof_counts(jobs, reports) -> dict[str, int]:
    counts = {"original": 0, "abstract": 0, "lifted": 0, "lift_attempts": 0,
              "original_queries": 0, "abstract_queries": 0}
    for job, report in zip(jobs, reports):
        if report is None:
            continue
        if job.kind in ("verify_original", "verify_abstract"):
            which = job.kind.split("_")[1]
            counts[which] += sum(line["verdict"] == "robust" for line in report)
            counts[f"{which}_queries"] += job.count
        elif job.kind == "lift":
            counts["lifted"] += report["lifted_robust"]
            counts["lift_attempts"] += report["abstract_robust"]
    return counts


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(jobs, reports, counts, job_samples, setup_times) -> dict[str, float]:
    median_s = median_by_kind(jobs, job_samples)
    queries = {kind: sum(j.count for j in jobs if j.kind == kind) for kind in median_s}
    abstract_report = next(r for j, r in zip(jobs, reports) if j.kind == "abstract")
    return {
        "setup_s": statistics.median(setup_times),
        "abstract_s": median_s["abstract"],
        "verify_original_qps": queries["verify_original"] / median_s["verify_original"],
        "verify_abstract_qps": queries["verify_abstract"] / median_s["verify_abstract"],
        "lift_qps": queries["lift"] / median_s["lift"],
        "proved_original": counts["original"],
        "proved_abstract": counts["abstract"],
        "reduction_rate": abstract_report["reduction_rate"],
        "accuracy_abstract": abstract_report["accuracy_abstract"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, an, tracer, jobs, reports, counts, traced, round_totals):
    """Per-round self times and calls from the traced rounds; set-up ones per set-up."""
    n = len(traced)
    stats = spans.summarize(tracer.spans, lambda job: job is not None and job[0] in traced)
    setup = spans.summarize(tracer.spans, lambda job: job is not None and job[0] == "setup")
    committed = 0
    for job, report in zip(jobs, reports):
        if job.kind == "abstract" and report is not None:
            net = an.Network.load(job.argv[job.argv.index("--net") + 1])
            committed += sum(k < net.width(int(layer)) for layer, k in report["k_l"].items())
    out = {f"{name}.calls": stats[name]["calls"] / n for name in CALLS}
    out.update({f"{name}.s": stats[name]["self_s"] / n for name in SELF_S})
    out.update({f"{name}.s": setup[name]["self_s"] / SETUPS for name in SETUP_S})
    ibp = stats["verifier.ibp_bounds"]
    out.update({
        "cli.main.self_s": stats["cli.main"]["self_s"] / n,
        "verifier.ibp_bounds.rows_per_call": ratio(ibp["rows"], ibp["calls"]),
        "abstraction.search_commit_ratio": ratio(committed, stats["clustering.kmeans"]["calls"] / n),
        "verifier.proof_ratio.original": ratio(counts["original"], counts["original_queries"]),
        "verifier.proof_ratio.abstract": ratio(counts["abstract"], counts["abstract_queries"]),
        "lifting.lift_ratio": ratio(counts["lifted"], counts["lift_attempts"]),
        "lifting.proved_lifted": counts["lifted"],
        "trace.overhead_ratio": statistics.median(round_totals[r - 1] for r in traced)
        / statistics.median(t for r, t in enumerate(round_totals, 1) if r not in traced) - 1.0,
    })
    return out


def bench(args, an, cli, work: Path):
    import checks
    import spans
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    setup = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    setup_times = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        if tracer is None:
            prepared = setup(work, args.seed, sizes)
        else:
            tracer.job = ("setup", i)
            with tracer.installed():
                prepared = setup(work, args.seed, sizes)
            tracer.job = None
        setup_times.append(time.perf_counter() - t0)
    jobs = prepared.jobs

    checker = checks.Checker(prepared)
    warmup = run_round(cli, jobs, 0)
    reports, problems = check_warmup(checks, checker, jobs, warmup)

    job_samples = [[] for _ in jobs]
    round_totals, traced = [], set()
    deadline = time.perf_counter() + args.seconds
    while len(round_totals) < MIN_ROUNDS or time.perf_counter() < deadline:
        round_id = len(round_totals) + 1
        trace_this = tracer is not None and round_id % 2 == 0
        outcomes = run_round(cli, jobs, round_id, tracer if trace_this else None)
        problems.extend(check_repeat(checks, jobs, outcomes, reports))
        for samples, (_, seconds, _) in zip(job_samples, outcomes):
            samples.append(seconds)
        round_totals.append(sum(seconds for _, seconds, _ in outcomes))
        if trace_this:
            traced.add(round_id)

    counts = proof_counts(jobs, reports)
    failures = [f"{job.kind} {' '.join(job.argv[1:2])} delta={job.delta}: {p}"
                for job, found in zip(jobs * (len(round_totals) + 1), problems) for p in found]
    attempted = len(problems)
    failed = sum(1 for found in problems if found)

    if tracer is None:
        metrics = end_to_end(jobs, reports, counts, job_samples, setup_times)
        units = END_TO_END
    else:
        metrics = per_layer(spans, an, tracer, jobs, reports, counts, traced, round_totals)
        units = PER_LAYER
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(an, args.seed),
        "client": "closed loop, 1 client, 1 process",
        "setup_s": timing_summary(setup_times),
        "rounds": timing_summary(round_totals),
        "jobs_per_round": len(jobs),
        "round_s_by_kind": {k: timing_summary(v) for k, v in by_kind(jobs, job_samples).items()},
        "median_s_by_kind": median_by_kind(jobs, job_samples),
        "job_samples": [[j.kind, j.delta, s] for j, s in zip(jobs, job_samples)],
        "proofs_per_round": counts,
        "failed_ops": {"failed": failed, "attempted": attempted},
        "failures": failures[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the CLI's per-query products are small, and a second
    # thread on a shared 2-core machine only adds waiting and noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    an, cli = import_program()
    work = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        detail, result = bench(args, an, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
