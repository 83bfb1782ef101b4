#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the r2tr command line.

    python3 bench/run.py --workload exchange --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory. One client issues ``r2tr.cli.main``
commands in sequence (a closed loop), each with a fresh ``--out``
directory, and checks every command's output after each pass. Inputs are
generated from ``--seed`` and written before any timing starts.

``--trace 0`` measures the end-to-end metrics: the wall time of a typical
warm pass, the median command time, the peak traced heap of one pass (its
own pass) and the set-up time (a fresh interpreter importing ``r2tr.cli``,
generating the inputs and running one warm-up command; median of five).
Times are scaled to a reference host speed by ``SpeedGauge``. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object; ``.bench_out/`` receives a record of the run with its environment,
and the spans of a traced run. See NOTES.md.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count()
# One BLAS thread, within the nproc cap: the commands do 4x4 linear algebra,
# and a second OpenBLAS thread only spin-waits, doubling CPU time and the
# run-to-run spread on a shared two-core machine (see NOTES.md).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

import argparse  # noqa: E402  (thread caps must precede any numpy import)
from contextlib import redirect_stderr, redirect_stdout
import gc
import io
import json
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
import tracemalloc

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
SETUP_PROBES = 5
GAUGE_PROBE_KERNELS = 5
# kernel time of SpeedGauge at the reference speed (see NOTES.md)
GAUGE_REFERENCE_S = 0.0025
PROBE_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("cmd_p50_s", "s"), ("peak_mem_mb", "MB"),
              ("setup_s", "s"))


def import_cli():
    """Import r2tr.cli from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "r2tr", "cli.py")):
        raise SystemExit(f"error: no r2tr sources under {SRC}")
    sys.path.insert(0, SRC)
    import r2tr.cli

    if not os.path.abspath(r2tr.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported r2tr from {r2tr.cli.__file__}")
    return r2tr.cli


def call(main, argv):
    """Run one CLI command quietly; return (exit code, error, output)."""
    buf = io.StringIO()
    rc, error = None, None
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing command is a failed command
            error = traceback.format_exc(limit=4)
    return rc, error, buf.getvalue()


def amplitude_solver(main, scratch, pinned):
    """Class-a m=2 amplitude (Hz) of a system, from the program's ``solve``.

    ``solve(name, system)`` checks the program's root against the closed
    form (1e-6 w_r) and returns it rounded to 1e-3 Hz. ``pinned`` maps
    command names to the amplitudes stored with the references: when the
    program's root is within 1e-6 w_r of the pinned one, the pinned one is
    used, so that a solver change within that tolerance leaves the inputs
    of the reference seeds unchanged.
    """

    def solve(name, system):
        cfg = workloads.base_config(system)
        cfg["solve"] = {"classes": ["a"], "harmonics": [2]}
        path = os.path.join(scratch, "solve_input.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = tempfile.mkdtemp(dir=scratch)
        rc, error, _ = call(main, ["solve", "--config", path, "--out", out])
        if rc != 0 or error:
            raise RuntimeError(f"solve failed while generating inputs: {error}")
        with open(os.path.join(out, "plans.json")) as fh:
            plans = json.load(fh)
        shutil.rmtree(out)
        if len(plans) != 1:
            raise RuntimeError(f"expected one class-a m=2 plan, got {len(plans)}")
        w1 = plans[0]["omega_1_hz"]
        d_i, d_s = system["offsets_hz"]
        tol = checks.ROOT_RTOL * system["spin_rate_hz"]
        closed = workloads.matching_root(d_i, d_s, system["spin_rate_hz"], "a", 2)
        if closed is None or abs(w1 - closed) > tol:
            raise RuntimeError(f"solve amplitude {w1} Hz != closed form {closed}")
        if name in pinned and abs(w1 - pinned[name]) <= tol:
            return pinned[name]
        return round(w1, 3)

    return solve


def prepare(main, workload, seed, run_dir, reference):
    """Generate a workload's inputs, with the amplitudes pinned by the
    references of this seed."""
    prefix = f"{workload}/{seed}/"
    pinned = {key[len(prefix):]: w1
              for key, w1 in reference["amplitudes"].items()
              if key.startswith(prefix)}
    return workloads.generate(workload, seed,
                              amplitude_solver(main, run_dir, pinned),
                              os.path.join(run_dir, "inputs"))


def run_pass(main, items, run_dir, tracer=None, gauge=None, collect=False):
    """Issue every command once, in order; return (outcomes, pass dir).

    Each outcome holds the command's exit code, error, output directory,
    standard output and wall time; with a gauge, also the host speed factor
    measured around the command. ``collect`` runs the cyclic garbage
    collector before each command, so that a heap peak does not depend on
    how much garbage earlier commands left behind.
    """
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=run_dir)
    outcomes = {}
    kernel = gauge.kernel() if gauge else None
    for item in items:
        out = tempfile.mkdtemp(dir=pass_dir)
        argv = item.argv(out)
        if collect:
            gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            rc, error, text = call(main, argv)
        else:
            rc, error, text = tracer.command(item.name, call, main, argv)
        seconds = time.perf_counter() - t0
        factor = 1.0
        if gauge:
            before, kernel = kernel, gauge.kernel()
            factor = gauge.factor(before, kernel)
        outcomes[item.name] = {"rc": rc, "error": error, "stdout": text,
                               "out_dir": out, "seconds": seconds,
                               "speed_factor": factor}
    return outcomes, pass_dir


class Runner:
    """Runs passes of one workload and keeps the checked outcomes."""

    def __init__(self, main, workload, seed, items, run_dir, reference,
                 gauge=None):
        self.main, self.workload, self.seed = main, workload, seed
        self.items, self.run_dir, self.reference = items, run_dir, reference
        self.gauge = gauge
        self.attempted = 0
        self.failures = []  # (pass index, item name, [reasons])
        self.passes = 0

    def run(self, tracer=None, memory=False):
        """One checked pass; return {item name: (seconds, speed factor)}.

        ``memory`` marks the pass whose heap is traced: no speed gauge, and
        garbage collected before each command.
        """
        gauge = None if memory else self.gauge
        outcomes, pass_dir = run_pass(self.main, self.items, self.run_dir,
                                      tracer, gauge, collect=memory)
        result = checks.check_pass(self.workload, self.seed, self.items,
                                   outcomes, self.reference)
        shutil.rmtree(pass_dir)
        self.attempted += len(self.items)
        self.failures += [(self.passes, name, bad)
                          for name, bad in result.items() if bad]
        self.passes += 1
        return {name: (o["seconds"], o["speed_factor"])
                for name, o in outcomes.items()}


# ----------------------------------------------------------------- set-up

def setup_probe(workload, seed):
    """Time a fresh interpreter's import, input generation and warm-up.

    The speed gauge needs numpy, so it starts after the import. A single
    kernel time is too noisy to scale by, so the probe's total is scaled by
    the median of GAUGE_PROBE_KERNELS kernels timed after the import and as
    many after the warm-up.
    """
    clock = time.perf_counter
    t0 = clock()
    cli = import_cli()
    import_s = clock() - t0
    gauge = SpeedGauge()
    kernels = [gauge.kernel() for _ in range(GAUGE_PROBE_KERNELS)]
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        t1 = clock()
        items = prepare(cli.main, workload, seed, run_dir,
                        checks.load_reference(REFERENCE))
        inputs_s = clock() - t1
        t2 = clock()
        run_pass(cli.main, items[:1], run_dir)
        warmup_s = clock() - t2
    finally:
        shutil.rmtree(run_dir)
    kernels += [gauge.kernel() for _ in range(GAUGE_PROBE_KERNELS)]
    factor = GAUGE_REFERENCE_S / statistics.median(kernels)
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s,
                      "warmup_s": warmup_s, "speed_factor": factor,
                      "scaled_s": (import_s + inputs_s + warmup_s) * factor}))
    return 0


def setup_probe_run(workload, seed):
    """Run setup_probe in a fresh interpreter and return its timings."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ environment

def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed, items):
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "nproc": NPROC,
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "git_revision": git_revision(),
            "stated_size": workloads.stated_size(items)}


# ------------------------------------------------------------- host speed

class SpeedGauge:
    """Host speed, from a fixed numpy and Python kernel outside r2tr.

    On a shared machine the speed of the whole host drifts by tens of
    percent within seconds, for every program alike. The kernel is timed
    before every command and after the last one, and each command's time
    is scaled by GAUGE_REFERENCE_S / (mean of the two kernel times around
    it): times are reported in seconds at the reference speed. A change to
    r2tr cannot move the kernel, so the scaling keeps the program's own
    differences and drops the host's.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        a = (rng.standard_normal((256, 4, 4))
             + 1j * rng.standard_normal((256, 4, 4)))
        self._np = numpy
        self._h = a + a.conj().transpose(0, 2, 1)
        self.kernel()

    def kernel(self):
        """Run the kernel once; return its time in seconds."""
        np = self._np
        t0 = time.perf_counter()
        _, vecs = np.linalg.eigh(self._h)
        u = np.eye(4, dtype=complex)
        for v in vecs:
            u = v @ u
            u = u / abs(u[0, 0])
        total = 0.0
        for k in range(1500):
            total += (k * 0.5) ** 0.5
        return time.perf_counter() - t0

    def factor(self, before, after):
        return GAUGE_REFERENCE_S / (0.5 * (before + after))


# ------------------------------------------------------------------ modes

def scaled(times):
    """Speed-scaled seconds per command, from Runner.run's result."""
    return {name: t * f for name, (t, f) in times.items()}


def typical_pass(passes):
    """Wall time of a typical pass: the sum over commands of each command's
    median time across passes (robust to a pass hit by a burst of load)."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def measure_end_to_end(runner, workload, seed, seconds):
    setup = [setup_probe_run(workload, seed) for _ in range(SETUP_PROBES)]
    passes, raw_passes, raw_times = [], [], {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times = runner.run()
        passes.append(scaled(times))
        raw_passes.append({name: t for name, (t, _) in times.items()})
        for name, (t, f) in times.items():
            raw_times.setdefault(name, []).append([t, f])
    cmd_times = [t for p in passes for t in p.values()]
    tracemalloc.start()
    runner.run(memory=True)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    setup_totals = [probe["scaled_s"] for probe in setup]
    metrics = {"wall_s": typical_pass(passes),
               "cmd_p50_s": statistics.median(cmd_times),
               "peak_mem_mb": peak / 1e6,
               "setup_s": statistics.median(setup_totals)}
    detail = {"command_samples": len(cmd_times),
              "raw_command_times_and_factors": raw_times,
              "setup_probes": setup}
    notes = [f"cmd_p50_s from {len(cmd_times)} commands in {len(passes)} passes",
             "setup_s median of " + ", ".join(
                 f"{t:.3f}" for t in setup_totals) + " s",
             f"unscaled: wall_s {typical_pass(raw_passes):.4f} s, cmd_p50_s "
             f"{statistics.median(t for p in raw_passes for t in p.values()):.4f} s"]
    return metrics, [], detail, notes


def traced_pass(runner, tracer):
    tracer.install()
    tracer.reset()
    try:
        times = runner.run(tracer)
    finally:
        tracer.remove()
    factors = {name: f for name, (_, f) in times.items()}
    seconds = {name: t for name, (t, _) in times.items()}
    return times, tracer.summary(factors), tracer.self_time_gaps(seconds)


def measure_layers(runner, seconds):
    from tracing import PER_LAYER, Tracer

    unit = dict(PER_LAYER)
    tracer = Tracer()
    plain, traced, layers, counters, spans = [], [], [], [], []
    problems, largest_gap = [], 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(scaled(runner.run()))
        times, summary, gaps = traced_pass(runner, tracer)
        spans += [dict(span, traced_pass=len(traced))
                  for span in tracer.export()]
        traced.append(scaled(times))
        layers.append(summary)
        counters.append({k: v for k, v in summary.items() if unit[k] != "s"})
        worst = max(gaps.values())
        largest_gap = max(largest_gap, worst)
        if worst > 0.05:
            problems.append(f"layer self times miss a command's time by "
                            f"{worst:.1%}")
    if any(c != counters[0] for c in counters):
        problems.append("work counters differ between traced passes")
    if tracer.missing:
        problems.append("functions not found for tracing: "
                        + ", ".join(tracer.missing))
    metrics = {name: (statistics.median(l[name] for l in layers)
                      if unit[name] == "s" else layers[0][name])
               for name, _ in PER_LAYER}
    traced_wall, plain_wall = typical_pass(traced), typical_pass(plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    detail = {"untraced_passes_s": plain, "traced_passes_s": traced,
              "spans": spans}
    notes = [f"tracing overhead from {len(traced)} traced and {len(plain)} "
             f"untraced passes: wall_s {traced_wall:.4f} s traced, "
             f"{plain_wall:.4f} s untraced",
             f"layer self times within {largest_gap:.2%} of each command's "
             f"measured time"]
    return metrics, problems, detail, notes


def units(trace):
    if trace:
        from tracing import PER_LAYER
        return dict(PER_LAYER)
    return dict(END_TO_END)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    cli = import_cli()
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        reference = checks.load_reference(REFERENCE)
        items = prepare(cli.main, args.workload, args.seed, run_dir, reference)
        gauge = SpeedGauge()
        runner = Runner(cli.main, args.workload, args.seed, items, run_dir,
                        reference, gauge)
        run_pass(cli.main, items[:1], run_dir)  # warm-up
        if args.trace:
            metrics, problems, detail, notes = measure_layers(
                runner, args.seconds)
        else:
            metrics, problems, detail, notes = measure_end_to_end(
                runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(args.workload, args.seed, items)
    failed = len(runner.failures)
    unit = units(args.trace)
    record = {"env": env, "trace": args.trace, "seconds": args.seconds,
              "passes": runner.passes, "attempted": runner.attempted,
              "failed": failed, "failed_frac": failed / runner.attempted,
              "failures": runner.failures[:50], "problems": problems,
              "metrics": metrics, "units": unit}
    spans = detail.pop("spans", None)
    record["detail"] = detail
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(WORK, stem + "-spans.json"), "w") as fh:
            json.dump(spans, fh)

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit[name]}")
    print(f"failed_frac = {failed / runner.attempted:.6g} "
          f"({failed} of {runner.attempted} commands)")
    for line in notes + problems:
        print(line)
    for pass_index, name, bad in runner.failures[:10]:
        print(f"FAILED pass {pass_index} {name}: {'; '.join(bad)[:500]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
