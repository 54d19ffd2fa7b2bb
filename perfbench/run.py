#!/usr/bin/env python3
"""Job-level benchmark of the crossedideals command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives a closed loop in this single thread.  A job is one
in-process `crossedideals.cli.main([verb, file, ..., --json-out tmp])`
call on a generated `.system` file, so it pays what a user's command
pays: parse, build, then the verb.  Jobs run in rounds, each round one
seeded variant of every rung of the workload's fixed ladder in seeded
order, until --seconds have passed.  Every job's exit code and report are
checked; a failed check counts in `failed` and never stops the run.

Job times are taken over the complete rounds, so every rung weighs the
same whatever the host's speed; the last, partial round is only checked.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round twice,
untraced and then traced, requires the two reports of every job to be
identical, and prints the per-layer metrics of the traced pass.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 15
LAYERS = ("cli", "formats", "semigroups", "dynsys", "bundles", "exactlin",
          "induction", "groupoids")


# ---------------------------------------------------------------------------
# set-up

def _purge():
    """Forget the package, so that every set-up pays for importing it."""
    for name in list(sys.modules):
        if name == "gen" or name == "crossedideals" or name.startswith("crossedideals."):
            del sys.modules[name]


def load_inputs(workload: str, seed: int, workdir: Path):
    """Import the package, generate and validate the seeded systems, and
    write them as .system files.  Returns (cli module, gen module, jobs,
    {job key: path})."""
    _purge()
    cli = importlib.import_module("crossedideals.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"crossedideals was imported from {cli.__file__}, not {SRC}")
    gen = importlib.import_module("gen")
    jobs = gen.workload_jobs(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for i, job in enumerate(jobs):
        path = workdir / f"job{i}.system"
        path.write_text(job.text, encoding="utf-8")
        paths[job.key] = str(path)
    return cli, gen, jobs, paths


def setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times, each importing the package afresh;
    returns the last set-up and the time of each."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        loaded = load_inputs(workload, seed, workdir)
        times.append(perf_counter() - start)
    return loaded, times


# ---------------------------------------------------------------------------
# one job

def run_job(cli, job, path: str, out_path: str, tracer=None, job_id: int = 0):
    """Run one command; returns (seconds, exit code or None, report bytes)."""
    argv = [job.verb, path, *job.generators, "--json-out", out_path]
    if os.path.exists(out_path):
        os.remove(out_path)
    code = None
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        start = perf_counter()
        try:
            code = cli.main(argv) if tracer is None else tracer.run_job(job_id, cli.main, argv)
        except Exception:   # a traceback is a failed job, not a failed run
            traceback.print_exc()
        elapsed = perf_counter() - start
    data = Path(out_path).read_bytes() if os.path.exists(out_path) else b""
    return elapsed, code, data


def check(job, code, data: bytes) -> str | None:
    """Seed-independent checks of one job; returns the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        body = json.loads(data)
    except ValueError:
        return "report is not JSON"
    if job.verb == "isocheck":
        basis_map = body.get("basis_map", {})
        if body.get("ok") is not True:
            return "isocheck not ok"
        if len(basis_map) != job.germs or len(set(basis_map.values())) != job.germs:
            return f"basis_map is not a bijection onto {job.germs} germs"
        if body.get("dimension") != job.germs:
            return "dimension differs from the germ count"
    elif job.verb == "decompose":
        cert = body.get("certificate", {})
        if body.get("ok") is not True or cert.get("exact") is not True:
            return "decomposition not ok/exact"
        if cert.get("intersection") != cert.get("ideal"):
            return "intersection differs from the ideal"
        if cert["ideal"]["dim"] != body.get("ideal_dimension"):
            return "certificate ideal differs from the generated ideal"
    elif job.verb == "oracle":
        rows = body.get("ideals", [])
        if body.get("ideal_count") != job.ideals or len(rows) != job.ideals:
            return f"ideal count {body.get('ideal_count')} != predicted {job.ideals}"
        if not all(row.get("exact") is True for row in rows):
            return "an oracle decomposition is not exact"
    return None


# ---------------------------------------------------------------------------
# the timed loop

class Results:
    def __init__(self, rungs: int):
        self.rungs = rungs
        self.times = []        # (round, rung, wall time) of every job
        self.failures = []
        self.round_seconds = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def loop_seconds(self) -> float:
        return sum(self.round_seconds)

    def record(self, job, round_index, elapsed, reason):
        self.times.append((round_index, job.key.split("/", 1)[1], elapsed))
        if reason is not None:
            self.failures.append(f"{job.key}: {reason}")

    def complete_rounds(self) -> int:
        """Rounds that ran every rung; all rounds if none did."""
        done = sum(1 for r in range(len(self.round_seconds))
                   if sum(1 for t in self.times if t[0] == r) == self.rungs)
        return done or len(self.round_seconds)

    def timed(self) -> list:
        """(rung, wall time) of every job of the complete rounds."""
        rounds = self.complete_rounds()
        return [(rung, t) for r, rung, t in self.times if r < rounds]


def run_loop(args, cli, gen, jobs, paths, workdir: Path, digests):
    """Rounds until args.seconds have passed; the last one may stop early.
    In trace mode the jobs of every round run again traced; returns
    (untraced results, traced results, tracer)."""
    out_path = str(workdir / "report.json")
    rungs = len(gen.round_order(jobs, args.seed, 0))
    plain = Results(rungs)
    traced = Results(rungs) if args.trace else None
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    job_id = 0
    round_index = 0
    start = perf_counter()
    while True:
        order = gen.round_order(jobs, args.seed, round_index)
        seen = {}
        loop_start = perf_counter()
        for job in order:
            elapsed, code, data = run_job(cli, job, paths[job.key], out_path)
            reason = check(job, code, data)
            digest = hashlib.sha256(data).hexdigest()
            if reason is None and digests is not None and digests.get(job.key) != digest:
                reason = "digest differs from the recorded default-seed digest"
            seen[job.key] = digest
            plain.record(job, round_index, elapsed, reason)
            if perf_counter() - start >= args.seconds:
                break
        plain.round_seconds.append(perf_counter() - loop_start)
        if tracer is not None:
            tracer.install()
            loop_start = perf_counter()
            try:
                for job in order[:len(seen)]:
                    elapsed, code, data = run_job(cli, job, paths[job.key], out_path,
                                                  tracer, job_id)
                    job_id += 1
                    reason = check(job, code, data)
                    if reason is None and hashlib.sha256(data).hexdigest() != seen[job.key]:
                        reason = "traced report differs from the untraced report"
                    traced.record(job, round_index, elapsed, reason)
            finally:
                traced.round_seconds.append(perf_counter() - loop_start)
                tracer.uninstall()
        round_index += 1
        if perf_counter() - start >= args.seconds:
            return plain, traced, tracer


# ---------------------------------------------------------------------------
# metrics

def end_to_end(plain: Results, setup_times: list) -> dict:
    """Job times are summarised per rung first: a rung's median job.  The
    median or maximum of all jobs would sit in the gap between two rungs
    and jump as noise reorders them, and a rank counted in jobs would move
    from rung to rung as the host's speed changes the number of rounds."""
    timed = plain.timed()
    rounds = plain.complete_rounds()
    by_rung = {}
    for rung, t in timed:
        by_rung.setdefault(rung, []).append(t)
    medians = {rung: statistics.median(t) for rung, t in by_rung.items()}
    slowest = max(medians, key=medians.get)
    rank = sum(1 for _, t in timed if t <= medians[slowest])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    jobs = f"{len(timed)} jobs of {rounds} complete rounds"
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {SETUP_REPEATS} set-ups, fastest {min(setup_times):.6f} s"),
        "job_p50_s": (statistics.median(medians.values()), "s",
                      f"median over {len(medians)} rungs of each rung's median job"),
        "job_tail_s": (medians[slowest], "s",
                       f"median job of the slowest rung, {slowest}: p{100 * rank / len(timed):.1f} "
                       f"of {jobs}, {len(timed) - rank} jobs beyond it"),
        "jobs_per_s": (len(timed) / sum(plain.round_seconds[:rounds]), "1/s",
                       f"{jobs} in {sum(plain.round_seconds[:rounds]):.2f} s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB", "ru_maxrss of this process"),
    }


def per_layer(summary, traced: Results, plain: Results) -> dict:
    """Per-job means over the traced pass, except the ratios."""
    n = traced.attempted
    calls, secs = summary.span_calls, summary.span_seconds

    def span_s(name):
        return secs.get(name, 0.0) / n

    def span_calls(name):
        return calls.get(name, 0) / n

    def leaf(name, field):
        return summary.leaves.get(name, (0, 0.0, 0))[field] / n

    def mean_value(name):
        return summary.values.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    tried = summary.yields.get("exactlin.enumerate_subspaces", 0)
    found = summary.values.get("exactlin.enumerate_ideals", 0)
    metrics = {
        "exactlin.algebra_build_s": (span_s("exactlin.FiniteAlgebra.__init__"), "s/job"),
        "exactlin.algebras_built": (span_calls("exactlin.FiniteAlgebra.__init__"), "count/job"),
        "exactlin.alg_mul_calls": (leaf("exactlin.FiniteAlgebra.mul", 0), "count/job"),
        "exactlin.rref_calls": (leaf("exactlin.rref", 0), "count/job"),
        "exactlin.rref_s": (leaf("exactlin.rref", 1), "s/job"),
        "exactlin.rref_entries": (leaf("exactlin.rref", 2), "count/job"),
        "exactlin.nullspace_calls": (span_calls("exactlin.nullspace"), "count/job"),
        "exactlin.reduce_calls": (leaf("exactlin.Subspace.reduce", 0), "count/job"),
        "exactlin.reduce_s": (leaf("exactlin.Subspace.reduce", 1), "s/job"),
        "exactlin.ideal_generate_s": (span_s("exactlin.ideal_generate"), "s/job"),
        "exactlin.is_ideal_calls": (span_calls("exactlin.is_ideal"), "count/job"),
        "exactlin.is_ideal_s": (span_s("exactlin.is_ideal"), "s/job"),
        "exactlin.subspaces_tried": (tried / n, "count/job"),
        "exactlin.ideals_found": (found / n, "count/job"),
        "exactlin.ideal_hit_ratio": (found / tried if tried else 0.0, "ratio"),
        "induction.context_s": (span_s("induction.InductionContext.__init__"), "s/job"),
        "induction.contexts_built": (span_calls("induction.InductionContext.__init__"), "count/job"),
        "induction.induced_ideal_calls": (span_calls("induction.InductionContext.induced_ideal"), "count/job"),
        "induction.induced_ideal_s": (span_s("induction.InductionContext.induced_ideal"), "s/job"),
        "induction.decompose_s": (span_s("induction.decompose_ideal"), "s/job"),
        "bundles.semidirect_s": (span_s("bundles.semidirect_bundle"), "s/job"),
        "bundles.sections_s": (span_s("bundles.CrossSectionalAlgebra.__init__"), "s/job"),
        "bundles.crossed_product_s": (span_s("bundles.CrossedProduct.__init__"), "s/job"),
        "bundles.cp_dim": (mean_value("bundles.CrossedProduct.__init__"), "dim"),
        "bundles.redundancy_dim": (mean_value("bundles.CrossSectionalAlgebra.__init__"), "dim"),
        "groupoids.steinberg_s": (span_s("groupoids.SteinbergIso.__init__"), "s/job"),
        "formats.parse_s": (span_s("formats.parse_system"), "s/job"),
        "dynsys.validate_s": (span_s("dynsys.AmpleSystem.validate"), "s/job"),
        "dynsys.validate_calls": (span_calls("dynsys.AmpleSystem.validate"), "count/job"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (summary.layer_self.get(layer, 0.0) / n, "s/job")
    metrics["trace.overhead_ratio"] = (traced.loop_seconds / plain.loop_seconds, "ratio")
    return metrics


def report(metrics: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crossedideals" / "__init__.py").is_file():
        print(f"error: no crossedideals package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        (cli, gen, jobs, paths), setup_times = setup(args.workload, args.seed, workdir)
        digests = None
        if args.seed == DEFAULT_SEED:
            digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload, {})
        plain, traced, tracer = run_loop(args, cli, gen, jobs, paths, workdir, digests)
    except (ImportError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {plain.attempted} jobs in "
          f"{len(plain.round_seconds)} rounds, {len(plain.failures)} failed")
    for failure in plain.failures + (traced.failures if traced else []):
        print(f"  FAILED {failure}")
    if tracer is None:
        metrics = end_to_end(plain, setup_times)
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<12} {value:12.6f} {unit:<4} {note}")
        print(f"  {'fail_ratio':<12} {len(plain.failures) / plain.attempted:12.6f} "
              f"{'ratio':<4} {len(plain.failures)} of {plain.attempted} jobs")
        print(json.dumps(report({k: v[:2] for k, v in metrics.items()},
                                plain.attempted, len(plain.failures))))
        return 0
    import tracer as tracing
    summary = tracing.summarize(tracer)
    WORK.mkdir(exist_ok=True)
    dump = WORK / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.dump(dump)
    metrics = per_layer(summary, traced, plain)
    total_self = sum(summary.layer_self.values())
    print(f"  traced pass: {traced.attempted} jobs, spans written to {dump.relative_to(ROOT)}")
    if tracer.absent:
        print(f"  absent names (not traced): {' '.join(tracer.absent)}")
    for layer in LAYERS:
        share = summary.layer_self.get(layer, 0.0) / total_self if total_self else 0.0
        print(f"  share {layer:<11} {100 * share:6.2f} %")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6f} {unit}")
    print(json.dumps(report(metrics, plain.attempted + traced.attempted,
                            len(plain.failures) + len(traced.failures))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
