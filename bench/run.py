"""The eqhom benchmark: fixed workloads through the real CLI, answers checked.

Usage:
    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A closed loop with one client: every job is a fresh ``python -m
eqhom.cli`` process, started only after the previous one exited, all on
one CPU.  With ``--trace 0`` the run repeats the workload's job list for
about S seconds and prints the end-to-end metrics (medians over the
passes); job times are scaled to the CPU's nominal speed, sampled by a
reference loop that shares the CPU with the jobs (bench/reference.py).
With ``--trace 1`` it runs the list once plainly and once under
bench/tracejob.py, requires byte-identical stdout, and prints the
per-layer metrics, with times scaled the same way.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
Workloads, metrics and the layer each metric watches are described in
bench/DESIGN.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, make_jobs
from tracejob import GROUPS, LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "work"
DEADLINE_S = 170          # a run must end within 180 s
SETUP_PROBES = 15         # import-only processes per timed pass
# Seconds per reference chunk at nominal speed: about the median on the
# 2.1 GHz Xeon VM the benchmark was tuned on, so that scaled seconds are
# close to the seconds timed there.  Only ratios between runs matter.
NOMINAL_CHUNK_S = 0.00028


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def job_env():
    """The caller's environment without PYTHON* settings, plus this checkout's
    sources and a fixed hash seed.  Bytecode caching stays on, as for an
    installed package."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv, deadline):
    """(exit code, stdout bytes, wall s, cpu s, peak RSS MB) of one child."""
    start = perf_counter()
    with open(WORK / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=job_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        out = proc.stdout.read()
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return code, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Reference:
    """Runs bench/reference.py beside the block; ``scale`` is then the
    factor that turns seconds timed in the block into nominal seconds."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "reference.py")],
                                     stdout=subprocess.PIPE, env=job_env(), cwd=ROOT)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        out, _ = self.proc.communicate()
        try:
            chunks, cpu = out.split()
            self.scale = NOMINAL_CHUNK_S / (float(cpu) / int(chunks))
        except (ValueError, ZeroDivisionError):
            raise BenchError(f"reference loop gave no sample: {out!r}") from None


def check_program():
    """Refuse a setting in which a different program would be measured."""
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        raise BenchError("refusing to run with -O or PYTHONOPTIMIZE: the "
                         "certificate checks in eqhom are asserts")
    if not (ROOT / "src" / "eqhom" / "cli.py").is_file():
        raise BenchError(f"no eqhom sources under {ROOT / 'src'}")


def probe_import(deadline):
    """Seconds (as timed) for an interpreter to start and import eqhom.cli,
    which must come from this checkout's src/."""
    expected = os.path.realpath(ROOT / "src" / "eqhom" / "cli.py")
    code, out, wall, _, _ = run_process(
        [sys.executable, "-c", "import sys, eqhom.cli; sys.stdout.write(eqhom.cli.__file__)"],
        deadline)
    if code != 0 or os.path.realpath(out.decode()) != expected:
        raise BenchError(f"eqhom.cli did not import from {expected}: "
                         f"exit {code}, got {out.decode()!r}")
    return wall


def run_pass(jobs, deadline, traced=False, probes=0):
    """Run the job list once, with ``probes`` import probes spread between
    the jobs.  Returns per job (name, code, stdout, wall, cpu, rss, error)
    and the probe times."""
    results, setup = [], []
    for i, job in enumerate(jobs):
        for _ in range(probes * (i + 1) // len(jobs) - probes * i // len(jobs)):
            setup.append(probe_import(deadline))
        if traced:
            argv = [sys.executable, str(ROOT / "bench" / "tracejob.py"),
                    str(WORK / f"spans-{job.name}.json"), job.name, "--", *job.args]
        else:
            argv = [sys.executable, "-m", "eqhom.cli", *job.args]
        code, out, wall, cpu, rss = run_process(argv, deadline)
        results.append((job.name, code, out, wall, cpu, rss, job.check(code, out)))
    return results, setup


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

def self_times(spans):
    """Self time of every span: its duration minus its children's intervals
    and the tracer's bookkeeping after them."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[5] >= 0:
            own[s[5]] -= (s[4] - s[3]) + s[6]
    return own


COUNTS = ("intlinalg.input_entries", "intlinalg.input_nnz", "intlinalg.max_dim",
          "intlinalg.max_entry_bits", "complexes.cells", "complexes.boundary_nnz",
          "complexes.boundary_entries", "groups.order_max", "groups.rep_rank_max",
          "duality.cup_calls", "duality.cap_calls", "group_homology.bar_rank_max",
          "coarse.ball_vertices", "coarse.ball_edges", "coarse.flow_calls",
          "coarse.flow_arcs")


def layer_metrics(job_spans, traced_wall):
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    m.update({f"{layer}.{group}_s": 0.0 for (layer, _), group in GROUPS.items()})
    m["other.self_s"] = traced_wall
    m.update(dict.fromkeys(COUNTS, 0))
    factorizations = distinct = most_verifies = 0
    for spans in job_spans:
        factored, verifies = set(), {}
        for s, own in zip(spans, self_times(spans)):
            name, layer, group, _, _, _, _, attrs = s
            m[f"{layer}.self_s"] += own
            m[f"{layer}.calls"] += 1
            m["other.self_s"] -= own
            if group:
                m[f"{layer}.{group}_s"] += own
            for key, value in (attrs or {}).items():
                if key == "factored":
                    factorizations += 1
                    factored.add(tuple(value))
                elif key == "cert":
                    verifies[value] = verifies.get(value, 0) + 1
                    most_verifies = max(most_verifies, verifies[value])
                elif "max" in key:
                    m[key] = max(m[key], value)
                else:
                    m[key] += value
        distinct += len(factored)
    m["intlinalg.refactor_ratio"] = factorizations / distinct if distinct else 0.0
    m["coarse.verify_per_cert"] = most_verifies
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# ---------------------------------------------------------------------------

def timed_pass(jobs, deadline, traced=False, probes=0):
    """One pass beside the reference loop: (results, probe times, speed scale)."""
    with Reference() as ref:
        results, setup = run_pass(jobs, deadline, traced, probes)
    print(f"  {'traced' if traced else 'plain'} pass: "
          f"{sum(r[3] for r in results):.3f} s as timed, CPU speed {ref.scale:.3f} x nominal")
    return results, setup, ref.scale


def measure(workload, seed, seconds, trace):
    """(correct, attempted, failed, metrics) of one workload run."""
    deadline = perf_counter() + DEADLINE_S
    jobs = make_jobs(workload, ROOT, WORK, seed)
    print(f"workload {workload}  seed {seed}  jobs {len(jobs)}")
    problems = []
    if trace:
        plain, _, plain_scale = timed_pass(jobs, deadline)
        traced, _, scale = timed_pass(jobs, deadline, traced=True)
        passes = [plain, traced]
        for p, t in zip(plain, traced):
            if p[1:3] != t[1:3]:
                problems.append(f"{p[0]}: traced output differs from untraced output")
        job_spans = []
        for job in jobs:
            path = WORK / f"spans-{job.name}.json"
            if path.is_file():
                job_spans.append(json.loads(path.read_text())["spans"])
                path.unlink()
        traced_wall = sum(r[3] for r in traced)
        metrics = layer_metrics(job_spans, traced_wall)
        for key in metrics:
            if key.endswith("_s"):
                metrics[key] *= scale
        metrics["trace.overhead_s"] = (traced_wall * scale
                                       - sum(r[3] for r in plain) * plain_scale)
    else:
        probe_import(deadline)  # fills the bytecode cache
        start = perf_counter()
        runs = [timed_pass(jobs, deadline, probes=SETUP_PROBES)]
        # As many whole passes as come nearest to the requested seconds.
        for _ in range(round(seconds / (perf_counter() - start)) - 1):
            runs.append(timed_pass(jobs, deadline, probes=SETUP_PROBES))
        passes = [p for p, _, _ in runs]
        metrics = {
            "wall_s": statistics.median(sum(r[3] for r in p) * k for p, _, k in runs),
            "cpu_s": statistics.median(sum(r[4] for r in p) * k for p, _, k in runs),
            "setup_s": statistics.median(statistics.median(s) * k for _, s, k in runs),
            "peak_rss_mb": statistics.median(max(r[5] for r in p) for p in passes),
        }
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r[6])
    problems += [f"{r[0]}: {r[6]}" for r in results if r[6]]
    for line in dict.fromkeys(problems):
        print(f"FAIL {workload} {line}", file=sys.stderr)
    units = {k: unit_of(k) for k in metrics}
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':30s} {failed / len(results):>14.6g} ratio "
          f"({failed} of {len(results)} jobs)")
    return (not problems, len(results), failed,
            {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eqhom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        check_program()
        # Jobs and the reference loop inherit this: they share one CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        WORK.mkdir(exist_ok=True)
        print("env " + json.dumps(environment()))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = {w: measure(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(runs) == 1:
        correct, attempted, failed, metrics = runs[args.workload]
    else:
        correct = all(r[0] for r in runs.values())
        attempted = sum(r[1] for r in runs.values())
        failed = sum(r[2] for r in runs.values())
        metrics = {f"{w}.{k}": v for w, r in runs.items() for k, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
