#!/usr/bin/env python3
"""Self-test of the benchmark: counters, determinism and the correctness gate.

    python3 bench/selftest.py

1. The work counters of the fixed commands equal the values measured on
   the seed engine: fig3a integrates 51,761 steps and decomposes as many
   matrices; the default ``solve`` evaluates the matching residual 16,398
   times. An engine change that alters these counts must update them here
   and say so.
2. Two benchmark runs with the same seed report identical counters.
3. A wrong result injected into each workload (a period off by 1%, a gate
   element off by 1e-5 in phase, a dropped matching root) is caught:
   ``failed_frac`` > 0.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets the BLAS thread caps before numpy is imported
import checks
import tracing
import workloads

FIG3A_STEPS = 51761
DEFAULT_SOLVE_RESIDUAL_EVALS = 16398


@contextlib.contextmanager
def injected(module_name, attr, make_wrapper):
    """Replace a function in every r2tr namespace that holds it."""
    original = getattr(sys.modules[module_name], attr)
    undo = tracing.replace_everywhere(original, make_wrapper(original))
    try:
        yield
    finally:
        for module, key, value in undo:
            setattr(module, key, value)


def traced_counters(cli, workload, seed, names, run_dir, reference):
    items = [i for i in run.prepare(cli.main, workload, seed, run_dir,
                                    reference)
             if i.name in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, pass_dir = run.run_pass(cli.main, items, run_dir, tracer)
    finally:
        tracer.remove()
    shutil.rmtree(pass_dir)
    return tracer.summary()


def failed_fraction(runner):
    runner.failures.clear()
    runner.attempted = 0
    runner.run()
    return len(runner.failures) / runner.attempted


def counters_of_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run failed: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = dict(tracing.PER_LAYER)
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()
                               if units[k] != "s"}


def main():
    cli = run.import_cli()
    reference = checks.load_reference(run.REFERENCE)
    failures = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    os.makedirs(run.WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        fig3a = traced_counters(cli, "exchange", 0, {"fig3a"}, run_dir,
                                 reference)
        expect(fig3a["propagator.steps"] == FIG3A_STEPS
               and fig3a["propagator.eigh_matrices"] == FIG3A_STEPS,
               f"fig3a steps {fig3a['propagator.steps']} and eigh matrices "
               f"{fig3a['propagator.eigh_matrices']} == {FIG3A_STEPS}")
        solve = traced_counters(cli, "solve_sweep", 0, {"default"}, run_dir,
                                reference)
        expect(solve["recoupling.residual_evals"] == DEFAULT_SOLVE_RESIDUAL_EVALS,
               f"default solve residual evals {solve['recoupling.residual_evals']}"
               f" == {DEFAULT_SOLVE_RESIDUAL_EVALS}")

        for workload in workloads.WORKLOADS:
            first_ok, first = counters_of_run(workload, 7)
            second_ok, second = counters_of_run(workload, 7)
            expect(first_ok and second_ok and first == second,
                   f"{workload}: two runs with seed 7 report identical counters")

        def off_period(fit):
            def wrapper(*args, **kwargs):
                result = fit(*args, **kwargs)
                return type(result)(result.period * 1.01, result.amplitude,
                                    result.offset, result.phase)
            return wrapper

        def off_phase(extract):
            def wrapper(*args, **kwargs):
                u = extract(*args, **kwargs).copy()
                u[:, 3] *= complex(0.99999999995, 1e-5)
                return u
            return wrapper

        def dropped_root(solve_amplitude):
            def wrapper(*args, **kwargs):
                return solve_amplitude(*args, **kwargs)[:-1]
            return wrapper

        injections = (("exchange", "r2tr.cli", "fit_exchange_period", off_period),
                      ("gate_circuits", "r2tr.propagator", "extract_gate",
                       off_phase),
                      ("solve_sweep", "r2tr.recoupling", "solve_amplitude",
                       dropped_root))
        for workload, module, attr, make_wrapper in injections:
            items = run.prepare(cli.main, workload, 0, run_dir, reference)
            runner = run.Runner(cli.main, workload, 0, items, run_dir, reference)
            clean = failed_fraction(runner)
            with injected(module, attr, make_wrapper):
                broken = failed_fraction(runner)
            expect(clean == 0 and broken > 0,
                   f"{workload}: failed_frac {clean:.3f} clean, {broken:.3f} "
                   f"with a wrong {attr} result")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("selftest " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
