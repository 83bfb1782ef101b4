#!/usr/bin/env python3
"""Write bench/reference.json: the stored outputs the correctness gate
compares against.

    python3 bench/make_reference.py

Runs every command of every workload once per reference seed (0-31) on the
program in this checkout and requires all independent checks to pass. It
stores each command's reference record under its workload, seed and name
(the fixed commands, the fig3a/fig3b/fig4 presets and the default solve,
once under workload and name), with the hash of the config it came from,
and the class-a m=2 amplitudes that the program's ``solve`` gave for the
seeded systems, to which later runs pin their inputs. Seeded solve
commands are checked against closed forms alone and are not stored.
Regenerate only when a change of physics is intended, and say so where the
change is described.
"""

import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS thread caps before numpy is imported
import checks
import workloads

REFERENCE_SEEDS = range(32)
STORED_SEEDED = ("exchange", "gate_circuits")


def write_reference(reference, path):
    """One stored record per line, so that a regeneration diffs readably."""
    def block(mapping):
        return ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                          for key, value in sorted(mapping.items()))
    with open(path, "w") as fh:
        fh.write(f'{{\n "seeds": {json.dumps(reference["seeds"], sort_keys=True)},'
                 f'\n "amplitudes": {{\n{block(reference["amplitudes"])}\n }},'
                 f'\n "items": {{\n{block(reference["items"])}\n }}\n}}\n')


def main():
    cli = run.import_cli()
    seeds = list(REFERENCE_SEEDS)
    empty = {"seeds": {}, "amplitudes": {}, "items": {}}
    reference = {"seeds": {w: seeds for w in STORED_SEEDED}, "amplitudes": {},
                 "items": {}}
    os.makedirs(run.WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    try:
        for workload in workloads.WORKLOADS:
            for seed in seeds if workload in STORED_SEEDED else seeds[:1]:
                solve = run.amplitude_solver(cli.main, run_dir, {})

                def recording(name, system):
                    w1 = solve(name, system)
                    reference["amplitudes"][f"{workload}/{seed}/{name}"] = w1
                    return w1

                items = workloads.generate(workload, seed, recording,
                                           os.path.join(run_dir, "inputs"))
                outcomes, pass_dir = run.run_pass(cli.main, items, run_dir)
                failures = checks.check_pass(workload, seed, items, outcomes,
                                             empty)
                for item in items:
                    if failures[item.name]:
                        raise SystemExit(f"{workload} seed {seed} {item.name}: "
                                         f"{failures[item.name]}")
                    if item.command == "solve" and not item.fixed:
                        continue
                    parsed = checks.parse(item, outcomes[item.name])
                    reference["items"][item.reference_key(workload, seed)] = \
                        checks.reference_record(item, parsed)
                shutil.rmtree(pass_dir)
                print(f"{workload} seed {seed}: {len(items)} commands checked",
                      file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    write_reference(reference, run.REFERENCE)
    print(f"wrote {run.REFERENCE} ({len(reference['items'])} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
