"""Benchmark of the isogeny-forge command line.

    python3 perfbench/run.py --workload {search,certify,skew,filtration} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ./src.
One client in a closed loop calls isogeny_forge.cli.main(argv) in this
process, job after job, repeating the workload's seeded job list (one pass)
until S seconds are spent.  Every job is one CLI command and starts with the
program's caches cleared, as a fresh CLI process would.

--trace 0 prints the end-to-end metrics, with each time scaled by the time
of a fixed calibration kernel run around it (see scale() and
perfbench/README.md), and --trace 1 the per-layer metrics of
a traced run (see tracing.py); their names and units are the ones listed in
BENCHMARK.json.  Earlier stdout lines are JSON reports; the
last line is the result.  Outputs are checked by oracles.py and must agree
byte for byte (timing_ms removed) across passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import GUARD_PROBES, WORKLOADS, make_jobs

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

JOB_CAP_S = 5.0  # a job that runs longer fails
MIN_PASSES = 3
SETUPS_PER_PASS = 3
# Times are scaled to a host on which calibration_kernel() takes CAL_REF_S,
# about its fastest time on the 2-vCPU VM the benchmark was written on.
CAL_REF_S = 0.5e-3
SETUP_ARGV = ("check", "main1", "--curves", "1,-1", "--p", "7")
TAIL_JOBS_ABOVE = 10


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM at the per-job cap (a BaseException so
    that the CLI's own handlers cannot swallow it)."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # kgroup, exactnum and elliptic re-verify certificates with assert;
    # under -O the benchmark would time a program that skips its checks
    if sys.flags.optimize:
        print("refusing to run with python -O: certificate checks would be skipped",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "isogeny_forge", "cli.py")):
        print(f"no program source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    os.environ.pop("ISOGENY_FORGE_CACHE", None)
    sys.path.insert(0, SRC)
    import isogeny_forge.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported {cli.__file__}, not the checkout's program", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(cli, args.workload, args.seed)
    if args.trace:
        jobs = make_jobs(args.workload, args.seed, WORKDIR, serial=True)
        result = bench.traced(jobs, args.seconds)
    else:
        jobs = make_jobs(args.workload, args.seed, WORKDIR, serial=False)
        result = bench.untraced(jobs, GUARD_PROBES.get(args.workload, []), args.seconds)
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.caches = _program_caches()
        self.first: list = []  # (code, records, error) of each job in the first pass
        self.digests: list[str] = []
        self.failures: dict[str, list[str]] = {}  # job argv, "setup" or "trace" -> problems
        self.failed_jobs: set[int] = set()  # indices into the job list
        self.wrong = False  # an output failed a check

    # -- one job, one pass ---------------------------------------------------------------

    def run_job(self, argv, call=None) -> tuple:
        """(seconds, exit code or None, stdout, error text)."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(self.cli.main, list(argv)) if call else self.cli.main(list(argv))
        except JobTimeout:
            error = f"timeout after {JOB_CAP_S} s"
        except SystemExit as e:  # argparse rejected the command line
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash of the program under test is a failed job
            error = f"{type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        if error is None and dt > JOB_CAP_S:
            error = f"ran {dt:.2f} s, past the {JOB_CAP_S} s cap"
        return dt, code, out.getvalue(), error or err.getvalue().strip() or None

    def run_pass(self, jobs, call=None) -> tuple[list[float], list[float]]:
        """Run every job once: (latencies, calibration times), the latter
        taken before each job and after the last.  The first pass keeps the
        outputs for the oracles, later passes must reproduce their digests."""
        from oracles import digest
        lat, cal = [], []
        first = not self.first
        for i, job in enumerate(jobs):
            cal.append(calibrate())
            dt, code, stdout, error = self.run_job(job.argv, call)
            lat.append(dt)
            try:
                records = [json.loads(line) for line in stdout.splitlines()]
            except ValueError:
                records, error = [], error or "output is not JSON lines"
            d = digest(code, records)
            if first:
                self.first.append((code, records, error))
                self.digests.append(d)
            elif d != self.digests[i]:
                self.fail(problems=["output differs between passes"], job=(i, job), wrong=True)
            if error and code is None:
                self.fail(problems=[error], job=(i, job))
        cal.append(calibrate())
        return lat, cal

    def fail(self, problems: list[str], job=None, step: str = "", wrong: bool = False) -> None:
        """Record problems of job (index, Job), or of a step ("setup", "trace")."""
        if job is not None:
            self.failed_jobs.add(job[0])
            step = " ".join(job[1].argv)
        known = self.failures.setdefault(step, [])
        known += [p for p in problems if p not in known]
        self.wrong |= wrong

    def loop(self, jobs, seconds: float, between=None) -> list[tuple[list, list]]:
        """A warm-up pass (its outputs are the ones checked), then measured
        passes until the next one would end after `seconds`; `between` runs
        after each pass and its time counts towards `seconds`."""
        t0 = time.perf_counter()
        self.run_pass(jobs)
        passes, spent = [], []
        while True:
            tp = time.perf_counter()
            passes.append(self.run_pass(jobs))
            if between:
                between()
            now = time.perf_counter()
            spent.append(now - tp)
            if len(passes) >= MIN_PASSES and now - t0 + statistics.median(spent) > seconds:
                return passes

    def check_outputs(self, jobs) -> None:
        from oracles import check
        for i, (job, (code, records, error)) in enumerate(zip(jobs, self.first)):
            problems = check(job, code, records) if code is not None else []
            if problems:
                self.fail(problems, job=(i, job), wrong=True)

    # -- the two kinds of run -------------------------------------------------------------

    def untraced(self, jobs, probes, seconds: float) -> dict:
        setup, raw_setup = [], []

        def time_setup():  # fresh interpreters after each pass
            for _ in range(SETUPS_PER_PASS):
                before = calibrate()
                dt, code, out = self.fresh_cli(SETUP_ARGV)
                raw_setup.append(dt)
                setup.append(scale(dt, before, calibrate()))
                if code != 0 or '"HypothesesMet"' not in out:
                    self.fail([f"setup command exited {code}"], step="setup", wrong=True)

        self.fresh_cli(SETUP_ARGV)  # warm-up: writes the bytecode cache
        passes = self.loop(jobs, seconds, between=time_setup)
        # search's pool workers and the setup interpreters are waited-for children
        peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                          (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        self.check_outputs(jobs)
        # one at a time, each with the job cap counted from the end of start-up
        probe_results = [self.probe(job, statistics.median(raw_setup)) for job in probes]

        # The shared host's speed swings by 30-40% within seconds, and a
        # whole run can fall in a slow spell.  Each latency is therefore
        # scaled by the calibration times taken just before and after it,
        # and a job's cost is the median of its scaled passes.
        per_job = [statistics.median(col) for col in zip(*(
            [scale(t, cal[j], cal[j + 1]) for j, t in enumerate(lat)] for lat, cal in passes))]
        raw_per_job = [min(col) for col in zip(*(lat for lat, _ in passes))]
        tail, pct = tail_latency(per_job)
        attempted = len(jobs) * (1 + len(passes))
        failed = len(self.failed_jobs) * (1 + len(passes))
        probes_failed = sum(1 for p in probe_results if not p["ok"])
        self.report({
            "passes": len(passes),
            "jobs_per_pass": len(jobs),
            "tail_percentile": pct,
            "tail_jobs_above": TAIL_JOBS_ABOVE,
            "failed_frac": (failed + probes_failed) / (attempted + len(probe_results)),
            # equal on two commits when every job's output is (timing_ms removed)
            "outputs_digest": hashlib.sha256("".join(self.digests).encode()).hexdigest(),
            "guard_probes": probe_results,
            "size_classes": size_table(jobs, per_job),
            # the same figures unscaled: each job at its fastest pass
            "unscaled": {
                "wall_s": sum(raw_per_job),
                "job_p50_ms": statistics.median(raw_per_job) * 1e3,
                "setup_s": statistics.median(raw_setup),
                "calibration_ms": statistics.median(c for _, cal in passes for c in cal) * 1e3,
            },
        })
        metrics = {
            "wall_s": sum(per_job),
            "job_p50_ms": statistics.median(per_job) * 1e3,
            "job_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        return result(not self.wrong, attempted, failed, metrics, "end_to_end")

    def traced(self, jobs, seconds: float) -> dict:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        chi = getattr(sys.modules.get("isogeny_forge.elliptic"), "_chi_table", None)
        plain, traced, per_pass = [], [], []
        t0 = time.perf_counter()
        self.run_pass(jobs)  # warm-up; its outputs are the ones checked
        records = sum(len(r) for _, r, _ in self.first)
        search_records = sum(1 for _, r, _ in self.first for rec in r
                             if rec.get("kind") == "scholten-search")
        while len(traced) < 1 or time.perf_counter() - t0 < seconds:
            tracer.install()
            missed = tracer.missed_bindings()
            first_span = len(tracer.spans)
            bits = []
            misses = 0

            def call(main, argv):
                nonlocal misses
                tracer.start_job(len(tracer.spans))
                before = chi.cache_info().misses if chi else 0
                try:
                    return tracer.call("cli.main", main, argv)
                finally:
                    bits.append(tracer.end_job())
                    misses += (chi.cache_info().misses if chi else 0) - before

            traced.append(sum(self.run_pass(jobs, call)[0]))
            tracer.uninstall()
            plain.append(sum(self.run_pass(jobs)[0]))
            per_pass.append(layer_metrics(tracer.spans, first_span, bits, misses,
                                          records, search_records))
            if len(traced) == 1:
                problems = [f"missed binding {b}" for b in missed]
                problems += cross_check(self.workload, jobs, self.first, tracer.spans,
                                        first_span)
                if problems:
                    self.fail(problems, step="trace", wrong=True)
        self.check_outputs(jobs)
        tracer.dump(os.path.join(WORKDIR, f"spans-{self.workload}-seed{self.seed}.jsonl"))
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        self.report({"passes": len(traced), "jobs_per_pass": len(jobs),
                     "spans": len(tracer.spans), "missing_targets": tracer.missing})
        attempted = len(jobs) * (1 + len(plain) + len(traced))
        failed = len(self.failed_jobs) * (1 + len(plain) + len(traced))
        return result(not self.wrong, attempted, failed, metrics, "per_layer")

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def start_cli(argv) -> tuple:
        """Start the CLI in a new interpreter: (start time, process)."""
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "isogeny_forge.cli", *argv],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        return t0, proc

    @staticmethod
    def finish_cli(t0: float, proc, timeout=None) -> tuple:
        """Wait for a started CLI, killing it at t0 + timeout:
        (seconds, exit code or None, stdout)."""
        try:
            left = None if timeout is None else max(0.0, t0 + timeout - time.perf_counter())
            out, _ = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - t0, None, ""
        return time.perf_counter() - t0, proc.returncode, out

    def fresh_cli(self, argv) -> tuple:
        return self.finish_cli(*self.start_cli(argv))

    def probe(self, job, startup_s: float) -> dict:
        """Run a guard probe in a new interpreter, killed JOB_CAP_S after its
        start-up (taken as the median setup_s)."""
        from oracles import check
        t0, proc = self.start_cli(job.argv)
        try:
            dt, code, out = self.finish_cli(t0, proc, timeout=JOB_CAP_S + startup_s)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        dt -= startup_s
        if code is None:
            problems = [f"timeout after {JOB_CAP_S} s"]
        else:
            try:
                problems = check(job, code, [json.loads(line) for line in out.splitlines()])
            except ValueError:
                problems = ["output is not JSON lines"]
        return {"argv": list(job.argv), "ok": not problems, "seconds": dt,
                "problems": problems}

    def report(self, fields: dict) -> None:
        print(json.dumps({"report": self.workload, "seed": self.seed,
                          "optimize": sys.flags.optimize, **fields,
                          "failures": self.failures}))


def calibration_kernel():
    """A fixed mix of what the program spends its time on: small-integer
    arithmetic mod p, dict updates, big-integer products and fractions."""
    s = 0
    for x in range(1500):
        s += (x * x * x + 7 * x + 3) % 1009
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    y = 12345678901234567890
    for i in range(200):
        y = (y * y + i) % (10**24 + 7)
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 1)
    return s, counts, y, f


def calibrate() -> float:
    """The faster of two timed runs of calibration_kernel(), in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, cal_before: float, cal_after: float) -> float:
    """seconds as they would read on the reference host (see CAL_REF_S)."""
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


def _program_caches() -> list:
    """Every functools cache in the program (cleared before each job)."""
    seen, out = set(), []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("isogeny_forge"):
            continue
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and id(value) not in seen:
                seen.add(id(value))
                out.append(value)
    return out


def tail_latency(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_JOBS_ABOVE values above it:
    (its value, the percentile)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_JOBS_ABOVE - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def size_table(jobs, per_job: list[float]) -> dict:
    classes: dict[str, list[float]] = {}
    for job, t in zip(jobs, per_job):
        classes.setdefault(job.size, []).append(t)
    return {k: {"jobs": len(v), "median_ms": statistics.median(v) * 1e3}
            for k, v in sorted(classes.items())}


def cross_check(workload, jobs, first, spans, first_span) -> list[str]:
    """Span counts of one traced pass against what the outputs imply."""
    from tracing import span_counts
    problems = []
    n = span_counts(spans, first_span)
    recs = [r for _, rs, _ in first for r in rs]

    def want(what, got, expected):
        if got != expected:
            problems.append(f"{what}: traced {got}, outputs imply {expected}")

    if workload == "certify":
        rows = sum(len(r["outputs"]["rows"]) for r in recs if r["kind"] == "split-jacobian")
        tested = sum(r["outputs"]["tested_good_primes"] for r in recs
                     if r["kind"] == "supersingular-scan")
        want("genus2.hcount_calls", n["genus2.hcount"], rows)
        want("elliptic.ap_calls under verify", n[("elliptic.ap", "scholten.verify")], 2 * rows)
        want("elliptic.ap_calls under scans", n[("elliptic.ap", "checkers.scan")], tested)
        want("elliptic.ap_calls", n["elliptic.ap"],
             2 * rows + tested + n[("elliptic.ap", "reduction.classify")])
    elif workload == "search":
        builds = sum(len(job.params["grid"]) for job in jobs if job.oracle == "search")
        builds += sum(len(r["outputs"]["members"]) + len(r["outputs"]["degenerate"])
                      for r in recs if r["kind"] == "scholten-family")
        want("scholten.build_calls", n["scholten.build"], builds)
        want("genus2.class_key under family", n[("genus2.class_key", "scholten.family")],
             sum(len(r["outputs"]["members"]) for r in recs if r["kind"] == "scholten-family"))
    elif workload == "skew":
        want("exactnum.lattice_inserts", n["exactnum.lattice_insert"],
             sum(r["outputs"]["generators"] for r in recs if r["kind"] == "kgroup-skew"))
        want("exactnum.lattice_reduces", n["exactnum.lattice_reduce"], n["kgroup.member"])
        want("kgroup.prove_skew calls", n["kgroup.prove_skew"],
             sum(1 for r in recs if r["kind"] == "kgroup-skew"))
    elif workload == "filtration":
        want("exactnum.snf_calls", n["exactnum.snf"],
             sum(len(r["outputs"]["quotients"]) for r in recs))
        want("pontryagin.filtration calls", n["pontryagin.filtration"], len(recs))
    return problems


def result(correct: bool, attempted: int, failed: int, metrics: dict, kind: str) -> dict:
    """The result line; metrics must be exactly BENCHMARK.json's `kind` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           f"measured and listed under {kind} in BENCHMARK.json")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
