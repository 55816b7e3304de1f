"""Benchmark of oseenspec's dense path, run from the root of a checkout:

    python3 perfbench/run.py --workload sigma-ladder --seed 3 --seconds 20 --trace 0

One process sets oseenspec up, then makes the workload's command-line
calls through oseenspec.cli.main one after another, in whole passes,
until --seconds have gone by.  It checks every output (workloads.py),
and prints as its last stdout line one JSON object with the end-to-end
metrics (--trace 0) or, after one more pass with spans around every
public function of the seven modules, the per-layer metrics (--trace 1).
A record of the run (environment, samples, failures) goes to
perfbench/out/, and the spans of a traced pass beside it.  See README.md.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("sigma-ladder", "psi-sweep", "certify")
SETUP_PROBES = 4            # child processes, beside this process's own set-up
CONTENDED_SHARE = 0.05      # of wall x nproc, taken by other processes or the host

# medians of one call per command, over the untraced passes of a traced run;
# operation names start with the command they run
COMMAND_METRICS = {"cli.sigma_bound_s": "spectrum", "cli.psi_bound_s": "pseudo",
                   "cli.psi_sweep_s": "sweep-psi", "cli.range_sweep_s": "sweep-range",
                   "cli.verify_s": "verify"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------- environment

def _cpu_snapshot():
    """(busy, steal) seconds of the whole machine from /proc/stat, and this
    process's own CPU seconds with its finished children."""
    own = sum(getattr(resource.getrusage(who), f) for who in
              (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) for f in ("ru_utime", "ru_stime"))
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None, None, own
    hz = os.sysconf("SC_CLK_TCK")
    idle, steal = ticks[3] + ticks[4], ticks[7]
    return (sum(ticks) - idle - steal) / hz, steal / hz, own


def _blas_threads():
    import scipy
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for so in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(so).scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        return fn()
    return None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _environment(start, end, wall):
    nproc = len(os.sched_getaffinity(0))
    env = {"nproc": nproc, "blas_threads": _blas_threads(),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "git_sha": _git_sha(), "python": sys.version.split()[0],
           "loadavg_end": os.getloadavg(), "run_s": wall}
    if start[0] is not None:
        other = (end[0] - start[0]) - (end[2] - start[2])
        steal = end[1] - start[1]
        env.update(other_cpu_s=other, steal_s=steal,
                   contended=other + steal > CONTENDED_SHARE * wall * nproc)
    return env


# -------------------------------------------------------------------- runs

def _setup_samples():
    import setup_probe
    samples = [setup_probe.timed_setup()]
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, setup_probe.__file__], cwd=ROOT,
                             capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _one_pass(workload):
    """Run every operation once; returns (wall, [(name, seconds, outcome)])."""
    from oseenspec import cli
    calls = []
    t_pass = time.perf_counter()
    for name, argv in workload.ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rc, err = None, io.StringIO("%s: %s" % (type(exc).__name__, exc))
        calls.append((name, time.perf_counter() - t0, (rc, out.getvalue(), err.getvalue())))
    return time.perf_counter() - t_pass, calls


def _check_pass(workload, calls):
    """Returns ({name: failure message}, [cross-operation failures])."""
    failures, docs = {}, {}
    for name, _, (rc, out, err) in calls:
        if rc != 0:
            failures[name] = "%s: exit code %s: %s" % (name, rc, err.strip()[-300:])
            continue
        try:
            doc = json.loads(out)
            msg = workload.check(name, doc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            msg = "%s: malformed output (%s: %s)" % (name, type(exc).__name__, exc)
        if msg:
            failures[name] = msg
        else:
            docs[name] = doc
    return failures, workload.cross(docs)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _traced_pass(workload):
    import oseenspec
    import spans
    recorder = spans.Recorder()
    recorder.install(oseenspec)
    try:
        return _one_pass(workload), recorder.spans
    finally:
        recorder.uninstall()


def _layer_metrics(recorded, traced_wall, passes, wall_s):
    import spans
    metrics = spans.layer_metrics(recorded)
    metrics["trace.overhead_s"] = traced_wall - wall_s
    for metric, prefixes in COMMAND_METRICS.items():
        metrics[metric] = _median([sec for _, calls in passes for name, sec, _ in calls
                                   if name.startswith(prefixes)])
    return {m: {"value": v, "unit": spans.unit(m)} for m, v in metrics.items()}


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "oseenspec", "cli.py")):
        print("perfbench: no oseenspec sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cpu0, t_run = _cpu_snapshot(), time.perf_counter()
    setup = _setup_samples()

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(_one_pass(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced, recorded = _traced_pass(workload) if args.trace else (None, None)

    attempted = failed = 0
    messages, cross = {}, []
    for _, calls in passes + ([traced] if traced else []):
        failures, wrong = _check_pass(workload, calls)
        attempted += len(calls)
        failed += len(failures)
        messages.update(failures)
        cross += wrong
    wall_s = _median([wall for wall, _ in passes])
    if args.trace:
        metrics = _layer_metrics(recorded, traced[0], passes, wall_s)
    else:
        metrics = {"setup_s": {"value": _median(setup), "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not cross, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env = _environment(cpu0, _cpu_snapshot(), time.perf_counter() - t_run)
    for _, msg in sorted(messages.items()):
        print("FAILED %s" % msg, file=sys.stderr)
    for msg in cross:
        print("INCORRECT %s" % msg, file=sys.stderr)
    print("environment: %s" % json.dumps(env), file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "scale": workload.scale,
                   "seconds": args.seconds, "environment": env, "setup_samples": setup,
                   "passes": [{"wall_s": wall, "calls": [[n, s] for n, s, _ in calls]}
                              for wall, calls in passes],
                   "failures": messages, "incorrect": cross, "result": result}, fh, indent=1)
    if recorded is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([s._asdict() for s in recorded], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
