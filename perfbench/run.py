"""End-to-end benchmark of the npspec command line pipelines.

Usage (from the repository root):

    python3 perfbench/run.py --workload sphere10-operator --seed 0 --seconds 50 --trace 0

Each CLI stage runs as its own process, as a user runs the ``npspec``
console script, on a config generated from the workload and the seed.
The loop is closed: one process at a time, the next only after the
previous one ended.  The seed picks the Lame pair (seed 0 is
lambda = mu = 1); the geometry and sizes are fixed per workload.

A run first times ``npspec essential`` several times (setup_s), then runs
whole pipelines back to back for about --seconds (always at least one,
and another only while it is expected to fit), checks every output, and
prints a report.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every stage runs under
perfbench/stage.py, which records spans around the public functions of
each npspec module, and the metrics are the per-layer ones.  Each run
also appends a full record (seed, Lame pair, environment, samples,
checks) to perfbench/_runs/results.jsonl; perfbench/report.py
summarizes that file.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import stats  # noqa: E402

# What the ``npspec`` console script runs.
CONSOLE_SCRIPT = "import sys; from npspec.cli import main; sys.exit(main())"
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
OPERATOR_STAGES = ("assemble", "spectrum", "count", "fit")

# Why each workload: the sphere has closed-form patch geometry, so its
# time goes to assembly rows, stencil scatter, NPMAT text and the
# eigensolve; the dented radial graph takes the symbol route alone and
# never touches assembly or NPMAT io, while its chart Newton solves carry
# the geometry cost.  BENCHMARK.json lists these two, at sizes near the
# smallest the CLI accepts (at n = 6 the sphere's -S is not yet positive
# definite; n = 4 and 64 angles are the extraction minimum), so
# a run holds several pipelines.  ellipsoid8-operator is not benchmarked:
# one pipeline takes about 30 s, most of it chart Newton solves, too long
# for a steady median in one run; it stays runnable by name for traced
# runs of the geometry layer.
WORKLOADS = {
    "sphere10-operator": {
        "surface": {"kind": "sphere", "radius": 1.0},
        "n": 10,
        "stages": OPERATOR_STAGES,
        "accuracy": "top_eig_err",
        "matrix_probe": True,
    },
    "dent4-symbol": {
        "surface": {"kind": "radial_graph", "harmonics": [[2, 0, -0.6]]},
        "n": 4,
        "stages": ("coeff",),
        "accuracy": "angle_drift",
    },
    "ellipsoid8-operator": {
        "surface": {"kind": "ellipsoid", "a": 1.0, "b": 1.2, "c": 0.8},
        "n": 8,
        "stages": OPERATOR_STAGES,
        "accuracy": "top_eig_err",
    },
}
ANGLES = 64
KNOWN_PROBE_FAILURE = "imaginary parts"
# Every end-to-end figure the report prints, with its unit ("n/a" where a
# workload does not produce it).  Only the BENCHMARK.json end_to_end ones
# reach the result line, since those must exist on every workload.
REPORTED = (
    ("wall_s", "s"), ("setup_s", "s"), ("assemble_s", "s"), ("spectrum_s", "s"),
    ("count_s", "s"), ("fit_s", "s"), ("coeff_s", "s"), ("peak_rss_mb", "MB"),
    ("output_mb", "MB"), ("rigid_residual", "1"), ("top_eig_err", "1"),
    ("angle_drift", "1"), ("fail_rate", "ratio"),
)


def lame_pair(seed):
    """(lambda, mu): 1, 1 for seed 0, else mu ~ U(0.3, 2), lambda ~ U(-mu/2, 3)."""
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    mu = rng.uniform(0.3, 2.0)
    return rng.uniform(-0.5 * mu, 3.0), mu


def blas_threads():
    """One BLAS thread: the host lends the run a few shared cores, and a
    second thread makes the eigensolve time the neighbours' load."""
    return 1


def environment(threads):
    import numpy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "npspec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
    }


def run_process(argv, env, log_path, deadline):
    """Run one process to its end: (exit code, start, end, peak RSS MB).

    The process is killed at the deadline (time.monotonic)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: a workload, a seed and a work directory."""

    def __init__(self, name, seed, trace):
        self.name, self.seed, self.trace = name, seed, trace
        self.wl = WORKLOADS[name]
        self.nodes = 2 * self.wl["n"] ** 2
        self.lam, self.mu = lame_pair(seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = os.path.join(RUNS, "%s-seed%d-pid%d" % (name, seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.threads = blas_threads()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.log = os.path.join(self.dir, "stages.log")
        self.traces = 0

    def config(self, outdir):
        path = os.path.join(self.dir, "config.json")
        cfg = {
            "surface": self.wl["surface"],
            "material": {"lambda": self.lam, "mu": self.mu},
            "mesh": {"n": self.wl["n"]},
            "extract": {"angles": ANGLES},
            "out": {"dir": outdir},
        }
        with open(path, "w") as f:
            json.dump(cfg, f)
        return path

    def stage(self, name, args):
        """Run one CLI stage; returns its record (spans when traced)."""
        trace_path = None
        if self.trace:
            self.traces += 1
            trace_path = os.path.join(self.dir, "trace%d.json" % self.traces)
            argv = [sys.executable, os.path.join(HERE, "stage.py"), trace_path] + args
        else:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT] + args
        with open(self.log, "a") as f:
            f.write("\n$ npspec %s\n" % " ".join(args))
        if time.monotonic() >= self.deadline:
            return {"stage": name, "code": None, "wall_s": 0.0, "rss_mb": 0.0,
                    "note": "not started: run time limit reached"}
        code, start, end, rss = run_process(argv, self.env, self.log, self.deadline)
        rec = {"stage": name, "code": code, "start": start, "end": end,
               "wall_s": end - start, "rss_mb": rss}
        if trace_path and os.path.exists(trace_path):
            with open(trace_path) as f:
                rec["trace"] = json.loads(f.readline())
                rec["trace"].update(json.loads(f.readline() or "{}"))
            os.remove(trace_path)
        return rec

    def log_tail(self):
        with open(self.log, errors="replace") as f:
            lines = [line.strip() for line in f if line.strip()]
        return lines[-1] if lines else ""

    def pipeline(self, index):
        outdir = os.path.join(self.dir, "out%d" % index)
        os.makedirs(outdir)
        cfg = self.config(outdir)
        start = time.perf_counter()
        stages = [self.stage(s, ["--config", cfg, s]) for s in self.wl["stages"]]
        wall = time.perf_counter() - start
        accuracy = {}
        for rec in stages:
            found, acc = checks.STAGE_CHECKS[rec["stage"]](outdir, self.nodes, self.lam, self.mu)
            accuracy.update(acc)
            rec["checks"] = found
            rec["failed"] = rec["code"] != 0 or not all(ok for _, ok, _ in found)
        written = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
        result = {"wall_s": wall, "stages": stages, "accuracy": accuracy,
                  "output_mb": written / 1e6,
                  "peak_rss_mb": max(r["rss_mb"] for r in stages)}
        # Once per untraced run; after every pipeline when traced, so that
        # the per-layer medians over pipelines include its NPMAT read.
        if self.wl.get("matrix_probe") and (index == 0 or self.trace):
            result["probe"] = self.matrix_probe(cfg, outdir)
        for name in os.listdir(outdir):
            if name.endswith(".npmat"):
                os.remove(os.path.join(outdir, name))
        return result

    def matrix_probe(self, cfg, outdir):
        """``npspec spectrum --matrix`` on the assembled K.  On the seed
        code it fails: the raw K has a non-real spectrum at the 1e-6
        tolerance.  That failure is reported as known, not counted as an
        unexpected one; any other outcome is checked like a stage."""
        probe_dir = os.path.join(self.dir, "probe")
        rec = self.stage("spectrum --matrix", [
            "--config", cfg, "spectrum", "--matrix", os.path.join(outdir, "np_matrix.npmat"),
            "--out.dir", probe_dir])
        if rec["code"] == 0:
            rec["checks"], _ = checks.check_spectrum(probe_dir, self.nodes, self.lam, self.mu)
            rec["failed"] = not all(ok for _, ok, _ in rec["checks"])
            rec["known_failure"] = False
        else:
            rec["message"] = self.log_tail()
            rec["known_failure"] = rec["code"] is not None and KNOWN_PROBE_FAILURE in rec["message"]
            rec["failed"] = not rec["known_failure"]
            rec["checks"] = []
        return rec


def setup_times(run):
    """Wall time of ``npspec essential``, SETUP_REPS times; None if it fails."""
    times = []
    expected = checks.essential_roots(run.lam, run.mu)
    cfg = run.config(os.path.join(run.dir, "setup"))
    out_path = os.path.join(run.dir, "essential.out")
    for _ in range(SETUP_REPS):
        argv = [sys.executable, "-c", CONSOLE_SCRIPT, "--config", cfg, "essential"]
        code, start, end, _ = run_process(argv, run.env, out_path, run.deadline)
        if code != 0:
            return None
        times.append(end - start)
    with open(out_path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not all(len(x["roots"]) == 3 and all(abs(a - b) < 1e-6 for a, b in zip(x["roots"], expected))
               for x in lines):
        return None
    return times


def spans_of(pipeline):
    """Stage spans plus the program spans recorded inside each stage."""
    spans, extra, imports = [], {}, []
    for rec in pipeline["stages"] + ([pipeline["probe"]] if "probe" in pipeline else []):
        if "start" not in rec:
            continue
        stage_idx = len(spans)
        spans.append(("stage." + rec["stage"].split()[0], rec["start"], rec["end"], -1))
        trace = rec.pop("trace", None)
        if trace is None:
            continue
        imports.append(trace["import_s"])
        # The tracer's own install and dump, set apart from the stage's time.
        for part in ("install", "dump"):
            if part in trace:
                spans.append(("trace." + part, trace[part][0], trace[part][1], stage_idx))
        base = len(spans)
        names = trace["names"]
        for idx, start, end, parent in trace["spans"]:
            spans.append((names[idx], start, end, stage_idx if parent < 0 else base + parent))
        for sid, value in trace["extra"].items():
            extra[base + int(sid)] = value
    return spans, extra, imports


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def untraced_wall_median(name):
    path = os.path.join(RUNS, "results.jsonl")
    if not os.path.exists(path):
        return None, 0
    with open(path) as f:
        walls = [r["metrics"]["wall_s"] for r in map(json.loads, f)
                 if r["workload"] == name and not r["trace"]]
    return (statistics.median(walls) if walls else None), len(walls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "npspec", "cli.py")):
        print("npspec sources not found under %s" % SRC, file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    setup = setup_times(run)
    if setup is None:
        print("npspec essential failed; see %s" % run.dir, file=sys.stderr)
        return 1

    pipelines = []
    measured = 0.0
    while True:
        pipelines.append(run.pipeline(len(pipelines)))
        last = pipelines[-1]["wall_s"]
        measured += last
        if measured + last > args.seconds or time.monotonic() + 2 * last > run.deadline:
            break

    record = summarize_run(run, args.seconds, setup, pipelines)
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    if record["failed"] == 0:
        shutil.rmtree(run.dir, ignore_errors=True)
    print_report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": stats.unit_of(k)} for k, v in record["metrics"].items()},
    }))
    return 0


def summarize_run(run, seconds, setup, pipelines):
    """The run's record: figures, checks, failures and the result metrics."""
    stage_recs = [rec for p in pipelines for rec in p["stages"]]
    probes = [p["probe"] for p in pipelines if "probe" in p]
    known = [p for p in probes if p["known_failure"]]
    failed = sum(r["failed"] for r in stage_recs + probes)
    walls = [p["wall_s"] for p in pipelines]
    rate = stats.fail_rate(len(stage_recs) + len(probes), failed + len(known))
    figures = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in pipelines),
        "output_mb": statistics.median(p["output_mb"] for p in pipelines),
        "fail_rate": rate["value"],
    }
    for stage in run.wl["stages"]:
        figures[stage + "_s"] = statistics.median(
            r["wall_s"] for r in stage_recs if r["stage"] == stage)
    for name in pipelines[0]["accuracy"]:
        figures[name] = median_or_none(p["accuracy"].get(name) for p in pipelines)
    record = {
        "workload": run.name, "seed": run.seed, "trace": run.trace,
        "lame": {"lambda": run.lam, "mu": run.mu},
        "nodes": run.nodes, "N": 3 * run.nodes, "seconds": seconds,
        "environment": environment(run.threads),
        "pipeline_wall_s": stats.summarize(walls),
        "setup_s": stats.summarize(setup),
        # The samples behind the medians: each setup, and each pipeline's stage walls.
        "setup_samples": setup,
        "stage_walls": [[r["wall_s"] for r in p["stages"]] for p in pipelines],
        "figures": figures,
        # The known spectrum --matrix failure counts in fail_rate, not in
        # "failed": the result line counts only unexpected failures.
        "attempted": len(stage_recs) + len(probes) - len(known),
        "failed": failed,
        "fail_rate": rate,
        "known_failures": [p["message"] for p in known],
        "checks": [[r["stage"], n, ok, d] for r in stage_recs + probes for n, ok, d in r["checks"]],
    }
    if run.trace:
        per_pipeline = []
        for p in pipelines:
            spans, extra, imports = spans_of(p)
            layer = stats.layer_metrics(spans, extra, imports, run.nodes, ANGLES)
            layer["trace.wall_s"] = p["wall_s"]
            per_pipeline.append(layer)
            if "span_tree" not in record:
                record["span_tree"] = stats.span_tree(spans)
                # The first pipeline's spans, (name, start, end, parent index).
                with open(os.path.join(RUNS, "spans-%s.json" % run.name), "w") as f:
                    json.dump({"workload": run.name, "seed": run.seed, "spans": spans}, f)
        metrics = {k: statistics.median(m[k] for m in per_pipeline) for k in per_pipeline[0]}
        untraced, n_untraced = untraced_wall_median(run.name)
        record["trace_overhead_s"] = None if untraced is None else metrics["trace.wall_s"] - untraced
        record["trace_overhead_base_runs"] = n_untraced
    else:
        metrics = {name: figures[name] for name in ("wall_s", "setup_s", "peak_rss_mb", "output_mb")}
        # The route's own error figure, as the checks read it from the outputs:
        # |top eigenvalue - 1/2| on the operator route (rigid motions make
        # 1/2 the top eigenvalue on every closed surface), angle drift on
        # the symbol route.  The rigid-motion residual is reported too but
        # carries no bound: on the sphere it rises from 4.5e-3 to 7.5e-3 as
        # the Poisson ratio goes negative, so it spreads across seeds by
        # more than any allowed bound.
        metrics["discretization_err"] = figures.get(run.wl["accuracy"])
    record["metrics"] = metrics
    return record


def print_report(record):
    figures = record["figures"]
    print("npspec benchmark: %s seed %d (lambda %.6g, mu %.6g), N=%d, %s"
          % (record["workload"], record["seed"], record["lame"]["lambda"], record["lame"]["mu"],
             record["N"], "traced" if record["trace"] else "untraced"))
    for name, unit in REPORTED:
        value = figures.get(name)
        print("  %-32s %s" % (name, "n/a" if value is None else "%.6g %s" % (value, unit)))
    fr = record["fail_rate"]
    print("  fail_rate base: %d of %d stages failed, %d of them the known failure: %s"
          % (fr["failed"], fr["attempted"], len(record["known_failures"]),
             "; ".join(record["known_failures"]) or "none"))
    if record["trace"]:
        for name, value in record["metrics"].items():
            print("  %-32s %.6g %s" % (name, value, stats.unit_of(name)))
        print("  largest self times (parent > span: calls, self s):")
        for edge in record["span_tree"][:12]:
            print("    %s > %s: %d, %.4f" % (edge["parent"], edge["name"], edge["calls"], edge["self_s"]))
        if record["trace_overhead_s"] is not None:
            print("  trace overhead: %.3f s over the median of %d untraced runs"
                  % (record["trace_overhead_s"], record["trace_overhead_base_runs"]))
    for stage, name, ok, detail in record["checks"]:
        if not ok:
            print("  FAILED CHECK %s/%s: %s" % (stage, name, detail))
    print("record: " + json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
