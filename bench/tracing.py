"""Per-layer spans and work counters, recorded from outside the program.

``Tracer.install`` wraps public functions of the r2tr modules and replaces
every module namespace that holds the original object, so a function
imported by name elsewhere (``cli.run_sequence`` as well as
``propagator.run_sequence``) is traced wherever it is called. ``remove``
puts the originals back. Spans carry name, start, end, parent and command
id and stay in memory; counters are plain integers. A layer's self time is
its span's duration minus the time its child spans cover, so the self times
of one command add up to the command's own span.
"""

from collections import Counter
import functools
import sys
import time

# (module, attribute, span name); each span name maps to one metric below
SPANS = (
    ("r2tr.cli", "fit_exchange_period", "cli.fit"),
    ("r2tr.propagator", "run_sequence", "propagator.run_sequence"),
    ("r2tr.propagator", "extract_gate", "propagator.extract_gate"),
    ("r2tr.propagator", "segment_propagator", "propagator.segment_propagator"),
    ("r2tr.propagator", "trim_unitaries", "propagator.trim"),
    ("r2tr.propagator", "HarmonicHamiltonian.step_generators",
     "propagator.step_generators"),
    ("r2tr.recoupling", "solve_plans", "recoupling.solve_plans"),
    ("r2tr.recoupling", "solve_amplitude", "recoupling.solve_amplitude"),
    ("r2tr.gates", "makhlin_invariants", "gates.makhlin"),
    ("r2tr.gates", "locally_equivalent", "gates.equivalence"),
    ("r2tr.gates", "weyl_coordinates", "gates.weyl"),
    ("r2tr.gates", "universality_class", "gates.class"),
    ("r2tr.readout", "stick_spectrum", "readout.stick_spectrum"),
    ("r2tr.readout", "simulate_fid", "readout.simulate_fid"),
    ("r2tr.readout", "fid_to_csv", "readout.fid_to_csv"),
    ("r2tr.readout", "classify_state", "readout.classify"),
)
COMMAND_SPAN = "cli.command"
EIGH_SPAN = "propagator.eigh"

# (module, attribute, counter): called too often for a span each
COUNTS = (
    ("r2tr.recoupling", "condition_residual", "recoupling.residual_evals"),
    ("r2tr.recoupling", "brentq", "recoupling.brackets"),
    ("r2tr.hamiltonian", "effective_field", "hamiltonian.effective_field_calls"),
    ("r2tr.hamiltonian", "bq_factors", "hamiltonian.bq_factors_calls"),
    ("r2tr.operators", "spin_operator", "operators.spin_operator_calls"),
    ("r2tr.operators", "expectation", "operators.expectation_calls"),
)

# arrays of a generator batch's size alive at once in the step integrator:
# the generators, the eigenvectors and the step unitaries
ARRAYS_HELD = 3

SELF_TIME_METRICS = {
    COMMAND_SPAN: "cli.self_s",
    "cli.fit": "cli.fit_s",
    "propagator.run_sequence": "propagator.run_sequence_self_s",
    "propagator.step_generators": "propagator.step_generators_s",
    EIGH_SPAN: "propagator.eigh_s",
    "propagator.segment_propagator": "propagator.segment_propagator_self_s",
    "propagator.extract_gate": "propagator.extract_gate_s",
    "propagator.trim": "propagator.trim_s",
    "recoupling.solve_plans": "recoupling.solve_plans_self_s",
    "recoupling.solve_amplitude": "recoupling.solve_amplitude_s",
}
LAYER_METRICS = {"gates": "gates.analysis_s", "readout": "readout.readout_s"}

# every per-layer metric the benchmark reports, with its unit
PER_LAYER = (
    ("propagator.run_sequence_self_s", "s"),
    ("propagator.samples", "count"),
    ("propagator.step_generators_s", "s"),
    ("propagator.eigh_s", "s"),
    ("propagator.steps", "count"),
    ("propagator.eigh_matrices", "count"),
    ("propagator.segment_propagator_self_s", "s"),
    ("propagator.extract_gate_s", "s"),
    ("propagator.trim_s", "s"),
    ("propagator.segments", "count"),
    ("propagator.max_batch_bytes", "B"),
    ("recoupling.solve_amplitude_s", "s"),
    ("recoupling.solve_plans_self_s", "s"),
    ("recoupling.residual_evals", "count"),
    ("recoupling.brackets", "count"),
    ("recoupling.root_yield", "ratio"),
    ("hamiltonian.effective_field_calls", "count"),
    ("hamiltonian.bq_factors_calls", "count"),
    ("cli.fit_s", "s"),
    ("cli.self_s", "s"),
    ("gates.analysis_s", "s"),
    ("readout.readout_s", "s"),
    ("readout.fid_points", "count"),
    ("operators.spin_operator_calls", "count"),
    ("operators.expectation_calls", "count"),
    ("trace.overhead_s", "s"),
)
COUNTERS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def replace_everywhere(original, replacement):
    """Rebind every r2tr module attribute that is ``original``; return the
    (module, attribute, original) triples that undo it."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "r2tr" or name.startswith("r2tr.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def metric_of(span_name):
    if span_name in SELF_TIME_METRICS:
        return SELF_TIME_METRICS[span_name]
    return LAYER_METRICS[span_name.split(".")[0]]


class Tracer:
    """Spans and counters of one traced pass (``reset`` between passes)."""

    def __init__(self):
        self.spans = []  # [command, name, start, end, parent index, child time]
        self.stack = []
        self.counts = Counter()
        self.command_id = None
        self.missing = []
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # ------------------------------------------------------------ spans
    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [self.command_id, name, 0.0, 0.0, parent, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[2] = time.perf_counter()
        return rec

    def _exit(self, rec):
        rec[3] = time.perf_counter()
        self.stack.pop()
        if rec[4] >= 0:
            self.spans[rec[4]][5] += rec[3] - rec[2]

    def command(self, command_id, fn, *args):
        """Call fn(*args) as one command under a top-level span."""
        self.command_id = command_id
        rec = self._enter(COMMAND_SPAN)
        try:
            return fn(*args)
        finally:
            self._exit(rec)

    def _on_result(self, name, result):
        counts = self.counts
        if name == "propagator.run_sequence":
            counts["propagator.samples"] += len(result.times)
        elif name == "propagator.step_generators":
            counts["propagator.steps"] += result.shape[0]
            counts["propagator.segments"] += 1
            batch = result.shape[0] * result[0].nbytes * ARRAYS_HELD
            counts["propagator.max_batch_bytes"] = max(
                counts["propagator.max_batch_bytes"], batch)
        elif name == "recoupling.solve_amplitude":
            counts["recoupling.roots"] += len(result)
        elif name == "readout.simulate_fid":
            counts["readout.fid_points"] += len(result)

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            self._on_result(name, result)
            return result
        return wrapper

    def _eigh_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self.stack or not self.spans[self.stack[-1]][1].startswith(
                    "propagator."):
                return fn(a, *args, **kwargs)
            rec = self._enter(EIGH_SPAN)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._exit(rec)
                self.counts["propagator.eigh_matrices"] += (
                    a.shape[0] if a.ndim == 3 else 1)
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---------------------------------------------------------- patching
    def _patch(self, module_name, path, make_wrapper):
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make_wrapper(original)
        if owner_name:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        else:
            self._undo += replace_everywhere(original, wrapper)

    def install(self):
        import numpy.linalg

        self.missing = []
        for module_name, path, name in SPANS:
            self._patch(module_name, path,
                        lambda fn, name=name: self._span_wrapper(fn, name))
        for module_name, path, key in COUNTS:
            self._patch(module_name, path,
                        lambda fn, key=key: self._count_wrapper(fn, key))
        original = numpy.linalg.eigh
        numpy.linalg.eigh = self._eigh_wrapper(original)
        self._undo.append((numpy.linalg, "eigh", original))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results
    def summary(self, factors=None):
        """Per-layer metrics of the pass recorded since the last reset.

        ``factors`` maps command ids to a scale for that command's times.
        """
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        for command, name, start, end, _, child in self.spans:
            scale = factors[command] if factors else 1.0
            metrics[metric_of(name)] += ((end - start) - child) * scale
        for name in COUNTERS:
            metrics[name] = self.counts.get(name, 0)
        brackets = self.counts.get("recoupling.brackets", 0)
        metrics["recoupling.root_yield"] = (
            self.counts.get("recoupling.roots", 0) / brackets if brackets else 0.0)
        return metrics

    def self_time_gaps(self, command_seconds):
        """Per command: |sum of self times - command time| / command time.

        ``command_seconds`` maps command ids to each command's wall time as
        measured around the call, outside the tracer. The self times of a
        command's spans add up to its top-level span by construction (the
        command span's own self time is the remainder), so the comparison
        is with the independent measurement: it shows a span left open or
        lost, or time the spans do not cover.
        """
        totals = Counter()
        for command, name, start, end, parent, child in self.spans:
            totals[command] += (end - start) - child
        return {c: abs(totals[c] - t) / t if t else 0.0
                for c, t in command_seconds.items()}

    def export(self):
        return [{"command": c, "name": n, "start": s, "end": e, "parent": p}
                for c, n, s, e, p, _ in self.spans]
