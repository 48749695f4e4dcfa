#!/usr/bin/env python3
"""mtfrac benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
workloads are defined in ``perfbench/workloads.py``; ``--workload all`` runs
each of them in its own process, one after another.

``--trace 0`` measures the end-to-end metrics with tracing off.  Every time
is process CPU time at a reference speed.  On a shared virtual machine the
host takes the CPU away for a varying share of wall time (steal), and the
CPU itself runs up to twice as slow at times, flipping within a fraction of
a second; both are properties of the host, not of the program.  CPU time
leaves out the first.  For the second, a fixed reference kernel of the
benchmark's own runs between ops, and each op's CPU time is scaled by
``REF_MS`` over the kernel's median time in the run.  The program runs
single-threaded (``threads=1``, one BLAS thread).  The unscaled CPU and wall
figures go to the ``meta`` record beside the metrics.

* ``setup_s``: median over separate set-up processes, run before and after
  the timed phase, of the time from process start to the first op (import,
  input generation, operator sampling, eigendecomposition);
* ``ops_per_s``: ops completed per second of the timed phase;
* ``op_p50_ms``, ``op_tail_ms``: median op latency, and latency at the highest
  percentile with at least 10 ops beyond it;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs the ops of a ``seconds / 3`` untraced phase again under
the span recorder of ``perfbench/tracing.py`` and once more untraced, then
runs the CLI presets twice each, and reports the per-layer metrics.

Every op is checked against an independent reference after the timed phase.
The last line of standard output is the JSON result; a full record with the
run metadata goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up processes before the timed phase, and as many after it: the
# machine's speed drifts over tens of seconds, and probes on both sides of
# the timed phase sample two moments of it.
SETUP_PROBES = 3
# Reference kernel: dot products of growing length in a Python loop, the
# shape of the L1 history sums and series shells that dominate the ops.
# REF_MS is its CPU time on an uncontended CPU of the machine the benchmark
# was tuned on (2 vCPUs of a 2.0 GHz Xeon); times are scaled to that speed.
REF_N = 3000
REF_MS = 8.0
TAIL_BEYOND = 10
CLI_PRESETS = ("thm21", "thm22", "thm24", "rem36", "verify")


def _import_program():
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Timed phase and checks

def reference_ms():
    """CPU time of one run of the reference kernel, in ms.  The kernel is
    the benchmark's own code, so a change to the program does not move it;
    a change in the machine's speed does."""
    import numpy as np
    w = np.linspace(0.0, 1.0, REF_N)
    h = np.cos(w)
    acc = 0.0
    t0 = process_time()
    for n in range(1, REF_N):
        acc += float(np.dot(w[:n], h[n - 1::-1])) * math.exp(-1e-3 * n)
    return (process_time() - t0) * 1e3


def run_ops(ops, seconds=None, count=None, recorder=None, block=1, calibrate=False):
    """Closed loop with one client: the next op starts when the last ends.

    Runs until ``seconds`` of wall time have passed and a whole number of
    ``block``s is done, or until ``count`` ops are done.  With ``calibrate``
    the reference kernel runs before every op and after the last.  Returns
    the ops, their outcomes (result or exception), their latencies in
    process CPU time, the reference times, and the phase's CPU and wall
    time from the first op's start to the last op's end.
    """
    done, outcomes, lat, refs = [], [], [], []
    start, cpu_start = perf_counter(), process_time()
    while (count is None and (perf_counter() - start < seconds or len(done) % block)) or \
            (count is not None and len(done) < count):
        op = next(ops)
        if recorder is not None:
            recorder.op = len(done)
        if calibrate:
            refs.append(reference_ms())
        t0 = process_time()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out = exc
        lat.append(process_time() - t0)
        done.append(op)
        outcomes.append(out)
    if calibrate:
        refs.append(reference_ms())
    return done, outcomes, lat, refs, process_time() - cpu_start, perf_counter() - start


def scale_to_reference(lat, refs):
    """The ops' CPU times at the reference speed: scaled by REF_MS over the
    median reference time of the run.  One factor for the whole run: in
    some short changes of speed the kernel slows more than the program, so
    a factor from the kernel times next to each op moved the median op
    more from run to run."""
    factor = REF_MS / statistics.median(refs)
    return [x * factor for x in lat]


def check_ops(done, outcomes):
    """Error over tolerance for every op; an exception or a missed check
    fails the op.  Returns (ratios, failures)."""
    ratios, failures = [], []
    for i, (op, out) in enumerate(zip(done, outcomes)):
        if isinstance(out, Exception):
            failures.append(f"op {i} ({op.kind}) raised {type(out).__name__}: {out}")
            ratios.append(float("inf"))
            continue
        try:
            err, tol = op.check(out)
            ratio = float(err) / tol
        except Exception as exc:  # noqa: BLE001 - a failed check is counted, not fatal
            failures.append(f"op {i} ({op.kind}) check raised {type(exc).__name__}: {exc}")
            ratios.append(float("inf"))
            continue
        ratios.append(ratio)
        if not ratio <= 1.0:
            failures.append(f"op {i} ({op.kind}) error {err:.3g} above tolerance {tol:.3g}")
    return ratios, failures


def latency_stats(lat):
    s = sorted(lat)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {"op_p50_ms": statistics.median(s) * 1e3, "op_tail_ms": s[k] * 1e3,
            "tail_percentile": 100.0 * (k + 1) / n, "tail_ops_beyond": n - k - 1}


def summarize_inputs(done):
    """Input-property summary: counts of discrete values, ranges of reals."""
    out = {"kinds": {}}
    for op in done:
        out["kinds"][op.kind] = out["kinds"].get(op.kind, 0) + 1
    keys = sorted({k for op in done for k in op.props})
    for key in keys:
        vals = [op.props[key] for op in done if key in op.props]
        if all(isinstance(v, (int, str)) for v in vals):
            counts = {}
            for v in vals:
                counts[str(v)] = counts.get(str(v), 0) + 1
            out[key] = dict(sorted(counts.items()))
        else:
            out[key] = {"min": min(vals), "median": statistics.median(vals),
                        "max": max(vals)}
    return out


# ---------------------------------------------------------------------------
# Set-up time

def probe_setup(workload, seed):
    """Set-up probe (child process): set up, draw the first op, report the
    process's CPU time since it started, then the median of 5 reference
    kernel times."""
    workloads = _import_program()
    next(workloads.WORKLOADS[workload](seed))
    cpu = process_time()
    ref = statistics.median(reference_ms() for _ in range(5))
    print(f"ready {cpu!r} {ref!r}", flush=True)


def measure_setup(workload, seed):
    """Set-up times of ``SETUP_PROBES`` set-up processes at the reference
    speed, their CPU times and their wall times."""
    times, cpus, walls = [], [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--probe",
               "--workload", workload, "--seed", str(seed)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, *values = line.split()
        if word != "ready" or len(values) != 2 or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        cpu, ref = map(float, values)
        times.append(cpu * REF_MS / ref)
        cpus.append(cpu)
        walls.append(elapsed)
    return times, cpus, walls


# ---------------------------------------------------------------------------
# Traced run

def clear_program_caches():
    for name, mod in list(sys.modules.items()):
        if name == "mtfrac" or name.startswith("mtfrac."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def cli_pass():
    """Run the CLI presets in-process twice each; time them and compare the
    CSVs byte for byte."""
    import mtfrac.cli as cli
    base = os.path.join(OUT, f"cli-{os.getpid()}")
    times = {name: [] for name in CLI_PRESETS}
    identical = True
    try:
        for name in CLI_PRESETS:
            csvs = []
            for rep in range(2):
                cfg = cli.RunConfig(command="verify") if name == "verify" \
                    else cli.preset_config(name)
                out_dir = os.path.join(base, f"{name}-{rep}")
                t0 = perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.run(cfg, out_dir=out_dir)
                times[name].append(perf_counter() - t0)
                if rc != 0:
                    raise RuntimeError(f"preset {name} exited with {rc}")
                with open(os.path.join(out_dir, cfg.out_path), "rb") as fh:
                    csvs.append(fh.read())
            identical = identical and csvs[0] == csvs[1]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    metrics = {f"cli.preset_s.{n}": statistics.mean(t) for n, t in times.items()}
    metrics["cli.csv_identical"] = 1 if identical else 0
    return metrics


def traced_run(workloads, workload, seed, seconds):
    """Untraced phase of ``seconds / 3``; then its ops again, traced and
    untraced, each from cold program caches; then the CLI preset pass."""
    import tracing
    ops, outcomes, lat, *_ = run_ops(workloads.WORKLOADS[workload](seed),
                                     seconds=seconds / 3)
    ratios, failures = check_ops(ops, outcomes)

    clear_program_caches()
    rec = tracing.Recorder()
    rec.install()
    try:
        t0 = perf_counter()
        stream = workloads.WORKLOADS[workload](seed)
        t_setup = perf_counter() - t0
        *_, replay, replay_wall = run_ops(stream, count=len(ops), recorder=rec)
        t_work = perf_counter()
        n_work, work_counts = len(rec.spans), dict(rec.counts)
        rec.op = -1
        cli_metrics = cli_pass()
        t1 = perf_counter()
    finally:
        rec.uninstall()
    clear_program_caches()
    *_, untraced, untraced_wall = run_ops(workloads.WORKLOADS[workload](seed),
                                          count=len(ops))
    # Layer metrics cover the workload's set-up and ops; the cli layer's
    # come from the CLI preset pass, its own window.
    metrics = tracing.layer_metrics(rec, 0, n_work, work_counts, t_work - t0)
    cli_window = tracing.layer_metrics(rec, n_work, len(rec.spans), {}, t1 - t_work)
    metrics.update({k: v for k, v in cli_window.items() if k.startswith("cli.")})
    metrics.update(cli_metrics)
    metrics["check.worst_err_ratio"] = max(ratios)
    # Both replays follow the first phase, which paid the process's one-off
    # costs (heap growth); set-up is outside both.  CPU times, as for the
    # end-to-end metrics.
    metrics["trace.overhead_frac"] = (replay - untraced) / untraced
    os.makedirs(OUT, exist_ok=True)
    rec.write(os.path.join(OUT, f"spans-{workload}-{seed}.json"))
    extra = {"traced_setup_s": t_setup, "traced_ops_cpu_s": replay,
             "traced_ops_wall_s": replay_wall, "untraced_ops_cpu_s": untraced,
             "untraced_ops_wall_s": untraced_wall, "cli_pass_s": t1 - t_work,
             "spans": len(rec.spans)}
    return ops, lat, failures, metrics, extra


def run_all(names, args):
    """Run every workload in its own process, one after another, print their
    metric lines, and end with one JSON object of all their results."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


# ---------------------------------------------------------------------------
# Metadata and output

def _git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _src_sha256():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_metadata(seed, load_at_start):
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in BLAS_VARS}},
        "loadavg_at_start": load_at_start,
        "seed": seed,
        "loop": "closed, one client",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mtfrac", "__init__.py")):
        print(f"error: {SRC}/mtfrac not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.probe:
        probe_setup(args.workload, args.seed)
        return 0

    load = os.getloadavg()
    workloads = _import_program()
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        ops, lat, failures, metrics, extra = traced_run(workloads, args.workload,
                                                        args.seed, args.seconds)
        cpu_lat, refs = lat, []
    else:
        setup_times, setup_cpus, setup_walls = measure_setup(args.workload, args.seed)
        stream = workloads.WORKLOADS[args.workload](args.seed)
        ops, outcomes, cpu_lat, refs, phase, phase_wall = run_ops(
            stream, seconds=args.seconds, block=workloads.BLOCKS[args.workload],
            calibrate=True)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = measure_setup(args.workload, args.seed)
        setup_times += after[0]
        setup_cpus += after[1]
        setup_walls += after[2]
        ratios, failures = check_ops(ops, outcomes)
        lat = scale_to_reference(cpu_lat, refs)
        stats = latency_stats(lat)
        metrics = {"setup_s": statistics.median(setup_times),
                   "ops_per_s": len(ops) / sum(lat),
                   "op_p50_ms": stats["op_p50_ms"],
                   "op_tail_ms": stats["op_tail_ms"],
                   "peak_rss_mb": peak}
        # Unscaled figures, for comparison.  Wall time exceeds CPU time
        # mostly by the time the host took the CPU away from this machine.
        extra = {"setup_probes_s": setup_times, "setup_probes_cpu_s": setup_cpus,
                 "setup_probes_wall_s": setup_walls,
                 "ref_ms": {"median": statistics.median(refs), "min": min(refs),
                            "max": max(refs), "runs": len(refs)},
                 "timed_phase_cpu_s": phase, "timed_phase_wall_s": phase_wall,
                 "ops_per_cpu_s": len(ops) / phase,
                 "ops_per_wall_s": len(ops) / phase_wall,
                 "op_p50_cpu_ms": statistics.median(cpu_lat) * 1e3,
                 "tail_percentile": stats["tail_percentile"],
                 "tail_ops_beyond": stats["tail_ops_beyond"],
                 "error_rate": len(failures) / len(ops),
                 "check_worst_err_ratio": max(ratios)}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    meta = run_metadata(args.seed, load)
    meta.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                inputs=summarize_inputs(ops), **extra)
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {len(failures) / len(ops):.6g} "
          f"(failed {len(failures)} of {len(ops)} attempted)")
    if not args.trace:
        print(f"{args.workload} op_tail_ms is p{extra['tail_percentile']:.1f} "
              f"with {extra['tail_ops_beyond']} ops beyond")
    print("meta " + json.dumps(meta, sort_keys=True, default=str))
    os.makedirs(OUT, exist_ok=True)
    record = {"result": result, "meta": meta, "ref_ms": refs,
              "ops": [{"kind": op.kind, "ms": x * 1e3, "cpu_ms": c * 1e3, **op.props}
                      for op, x, c in zip(ops, lat, cpu_lat)]}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
