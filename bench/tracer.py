"""Per-layer tracing from outside rangekit.

The tracer replaces public functions at the name their caller looks up
(``rangekit.cli.monte_carlo``, ``rangekit.ranging.delay_signal``,
``rangekit.rand.trial_generator`` and so on) with wrappers that record one
span per call: id, parent id, ``<layer>.<function>``, start, end and whether
the call raised.  The layer is the module that defines the function.  The
chunk body handed to ``rand.run_trials`` is wrapped too and named after its
caller's module (``ranging.chunk``, ``beamform.chunk``), so ``rand`` keeps
only partitioning, thread dispatch and waiting as its own time.  Parent ids
follow a per-thread stack; chunk spans running in worker threads take the
``run_trials`` span as their parent explicitly.

Spans stay in memory until :meth:`Tracer.write_spans`.  A span's self time
is its duration minus the union of its children's intervals, so children
running in parallel threads are not subtracted twice.  ``busy_s`` sums span
durations, i.e. thread-seconds when calls overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

import rangekit.beamform
import rangekit.cli
import rangekit.fileio
import rangekit.phase_center
import rangekit.rand
import rangekit.ranging

LAYERS = ("cli", "ranging", "rand", "waveform", "beamform", "antenna_metrics",
          "phase_center", "fileio")

WRITERS = ("fileio.write_displacement_csv", "fileio.write_bands_csv",
           "fileio.write_sweep_csv", "fileio.write_spectrum_csv", "fileio.dump_json")
READERS = ("fileio.load_farfield_cuts", "fileio.load_scenario")


# a note turns a call's bound arguments and result into counts for its span
def _file_bytes(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def _mc_note(arguments, result):
    return {"trials": arguments["trials"], "failures": result.failures}


def _gain_note(arguments, result):
    return {"trials": arguments["scenario"].trials}


# (module, attribute, note); the attribute is the name the caller looks up
TARGETS = (
    (rangekit.cli, "dispatch", None),
    (rangekit.cli, "build_parser", None),
    (rangekit.cli, "monte_carlo", _mc_note),
    (rangekit.cli, "crlb_result", None),
    (rangekit.cli, "load_touchstone", _file_bytes),
    (rangekit.cli, "find_bands", None),
    (rangekit.cli, "gain_beam_stats", None),
    (rangekit.cli, "displacement_series", None),
    (rangekit.cli, "displacement_stats", None),
    (rangekit.ranging, "synth_two_tone", None),
    (rangekit.ranging, "delay_signal", None),
    (rangekit.ranging, "mean_squared_bandwidth", None),
    (rangekit.rand, "trial_generator", None),
    (rangekit.beamform, "coherent_gain", None),
    (rangekit.beamform, "gain_fractions", _gain_note),
    (rangekit.phase_center, "fit_phase_center", None),
    (rangekit.fileio, "load_farfield_cuts", _file_bytes),
    (rangekit.fileio, "load_scenario", _file_bytes),
    (rangekit.fileio, "write_displacement_csv", _file_bytes),
    (rangekit.fileio, "write_bands_csv", _file_bytes),
    (rangekit.fileio, "write_sweep_csv", _file_bytes),
    (rangekit.fileio, "write_spectrum_csv", _file_bytes),
    (rangekit.fileio, "dump_json", _file_bytes),
    (rangekit.fileio, "write_manifest", None),
    (rangekit.fileio, "sha256_of", None),
)


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Records spans around rangekit's public functions while installed."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, raised)
        self.notes = {}  # span id -> dict of counts taken from arguments/results
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None, note=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        raised = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, raised))
        if note is not None:
            try:
                self.notes[sid] = note(args, kwargs, result)
            except (TypeError, KeyError, AttributeError, OSError):
                pass  # a note that no longer fits the function leaves its counts at 0
        return result

    def _wrap(self, fn, note):
        name = f"{_layer_of(fn)}.{fn.__name__}"
        take_note = None
        if note is not None:
            signature = inspect.signature(fn)

            def take_note(args, kwargs, result):
                return note(signature.bind(*args, **kwargs).arguments, result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, note=take_note)

        return traced

    def _wrap_run_trials(self, run_trials):
        tracer = self

        def body(chunk_fn, trials, workers):
            sid = tracer._stack()[-1]
            chunk_name = f"{_layer_of(chunk_fn)}.chunk"

            def chunk(trial_range):
                return tracer._call(chunk_name, chunk_fn, (trial_range,), {}, parent=sid)

            cpu = time.process_time()
            try:
                return run_trials(chunk, trials, workers)
            finally:
                tracer.notes[sid] = {"workers": workers, "cpu_s": time.process_time() - cpu}

        @functools.wraps(run_trials)
        def traced(chunk_fn, trials, workers=1):
            return tracer._call("rand.run_trials", body, (chunk_fn, trials, workers), {})

        return traced

    def install(self) -> None:
        for module, attr, note in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, note))
        run_trials = rangekit.rand.run_trials
        self._saved.append((rangekit.rand, "run_trials", run_trials))
        rangekit.rand.run_trials = self._wrap_run_trials(run_trials)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,raised\n")
            for sid, parent, name, start, end, raised in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{int(raised)}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times named ``<layer>.<function>.<kind>``."""
        child_intervals = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            child_intervals[parent].append((start, end))
        calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self, layer_errors = defaultdict(float), defaultdict(int)
        parent_name = {sid: name for sid, _, name, *_ in self.spans}
        unmanifested_write_s = 0.0
        for sid, parent, name, start, end, raised in self.spans:
            layer = name.split(".", 1)[0]
            self_s = (end - start) - _covered(child_intervals.get(sid, ()), start, end)
            calls[name] += 1
            busy[name] += end - start
            own[name] += self_s
            layer_self[layer] += self_s
            layer_errors[layer] += raised
            if name in WRITERS and parent_name.get(parent) != "fileio.write_manifest":
                unmanifested_write_s += end - start

        def noted(name, key):
            return sum(note.get(key, 0) for sid, note in self.notes.items()
                       if parent_name[sid] == name)

        def ratio(num, den):
            return num / den if den else 0.0

        mc_trials = noted("ranging.monte_carlo", "trials")
        bf_trials = noted("beamform.gain_fractions", "trials")
        parallel = [(end - start, self.notes[sid]["cpu_s"]) for sid, _, name, start, end, _ in self.spans
                    if name == "rand.run_trials" and self.notes[sid]["workers"] > 1]
        read_bytes = sum(noted(name, "bytes") for name in READERS)
        written = sum(noted(name, "bytes") for name in WRITERS)
        mib = 1024.0 * 1024.0
        metrics = {
            "cli.dispatch.calls": calls["cli.dispatch"],
            "cli.dispatch.self_s": own["cli.dispatch"],
            "cli.build_parser.busy_s": busy["cli.build_parser"],
            "ranging.monte_carlo.calls": calls["ranging.monte_carlo"],
            "ranging.monte_carlo.busy_s": busy["ranging.monte_carlo"],
            "ranging.monte_carlo.self_s": own["ranging.monte_carlo"],
            "ranging.chunk.busy_s": busy["ranging.chunk"],
            "ranging.self_us_per_trial": 1e6 * ratio(layer_self["ranging"], mc_trials),
            "ranging.failure_frac": ratio(noted("ranging.monte_carlo", "failures"), mc_trials),
            "rand.trial_generator.calls": calls["rand.trial_generator"],
            "rand.trial_generator.busy_s": busy["rand.trial_generator"],
            "rand.generators_per_trial": ratio(calls["rand.trial_generator"], mc_trials + bf_trials),
            "rand.run_trials.busy_s": busy["rand.run_trials"],
            "rand.run_trials.self_s": own["rand.run_trials"],
            "rand.run_trials.cpu_per_wall": ratio(sum(c for _, c in parallel), sum(w for w, _ in parallel)),
            "waveform.synth_two_tone.calls": calls["waveform.synth_two_tone"],
            "waveform.synth_two_tone.busy_s": busy["waveform.synth_two_tone"],
            "waveform.delay_signal.busy_s": busy["waveform.delay_signal"],
            "beamform.gain_fractions.busy_s": busy["beamform.gain_fractions"],
            "beamform.gain_fractions.self_s": own["beamform.gain_fractions"],
            "beamform.self_us_per_trial": 1e6 * ratio(layer_self["beamform"], bf_trials),
            "antenna_metrics.load_touchstone.busy_s": busy["antenna_metrics.load_touchstone"],
            "antenna_metrics.read_mb_per_s": ratio(
                noted("antenna_metrics.load_touchstone", "bytes") / mib,
                busy["antenna_metrics.load_touchstone"]),
            "antenna_metrics.find_bands.busy_s": busy["antenna_metrics.find_bands"],
            "antenna_metrics.gain_beam_stats.busy_s": busy["antenna_metrics.gain_beam_stats"],
            "phase_center.displacement_series.self_s": own["phase_center.displacement_series"],
            "phase_center.fit_phase_center.calls": calls["phase_center.fit_phase_center"],
            "phase_center.fit_phase_center.busy_s": busy["phase_center.fit_phase_center"],
            "phase_center.fits_per_set": ratio(calls["phase_center.fit_phase_center"],
                                               calls["phase_center.displacement_series"]),
            "fileio.load_farfield_cuts.busy_s": busy["fileio.load_farfield_cuts"],
            "fileio.load_scenario.busy_s": busy["fileio.load_scenario"],
            "fileio.read_mb_per_s": ratio(read_bytes / mib, sum(busy[n] for n in READERS)),
            "fileio.write.busy_s": unmanifested_write_s,
            "fileio.write_manifest.busy_s": busy["fileio.write_manifest"],
            "fileio.sha256_of.busy_s": busy["fileio.sha256_of"],
            "fileio.bytes_written": written,
            "fileio.write_mb_per_s": ratio(written / mib, sum(busy[n] for n in WRITERS)),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
            metrics[f"{layer}.errors"] = layer_errors[layer]
        return metrics
