"""The benchmark's four workloads: seeded inputs, the CLI job, output checks.

Inputs are written by this module's own formatting code (standard library
only), never by rangekit's writers, so a change to rangekit's file layer
cannot alter the bytes that two commits under comparison read.

A job is a list of phases.  A phase is a list of units run back to back by
one closed-loop caller; a unit is a list of CLI argument vectors handed to
``rangekit.cli.dispatch``.  The token ``{out}`` in an argument
stands for the phase's output directory.  ``ops`` is the number of
workload operations (trials, grid cells or antenna sets) the phase
completes, so ``ops / wall`` is its throughput.

Every check returns one verdict per CLI call: ``None`` when the call's
output is correct, otherwise a short reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0

# range-long: the paper's operating point, criterion 3's scenario
RANGE_LONG_TRIALS = 10_000
RANGE_WAVEFORM = {"separation_hz": 5e8, "duration_s": 1e-6, "sample_rate_hz": 4e9}
RANGE_SNR_DB = 25.0
RANGE_TRUE_DELAY_S = 0.6e-9  # 2.4 samples into the 2 ns ambiguity window

# range-sweep: the accuracy surface of ROADMAP's baseline table
SWEEP_DELTA_F = "1e8:1e8:6e8"
SWEEP_SNR = "0:3:30"
SWEEP_TRIALS = 200
SWEEP_CELLS = 6 * 11
SWEEP_CHECKED_SNR_DB = 15.0  # below this, ambiguity failures are expected

# coherence: acceptance criterion 7 (10 nodes, sigma_phi = 0.5 rad)
COHERENCE_TRIALS = 100_000
COHERENCE_NODES = 10
COHERENCE_F_ACTION_HZ = 1.88e9
COHERENCE_SIGMA_RANGE_M = 0.0127
COHERENCE_REL_TOL = 0.02

# antenna-files: one S11 sweep and two far-field cuts per antenna set
ANTENNA_SETS = 100
S11_START_HZ = 1e9
S11_STEP_HZ = 1e6
S11_POINTS = 10_001
DIP_CENTERS_HZ = ((1.70e9, 2.10e9), (4.50e9, 5.50e9), (9.20e9, 9.90e9))
CUT_FREQS_HZ = (1.88e9, 9.56e9)
CUT_THETA_STEP_DEG = 0.5
CUT_POINTS = 361  # -90 .. +90 degrees
BEAM_DEG = (-30.0, 30.0)  # rangekit's default beam and gain region
FBW_TOL = 2e-4
DISPLACEMENT_TOL_M = 1e-6  # 6-digit phase rounding moves window fits by < 0.1 um
GAIN_TOL_DB = 1e-9

FARFIELD_HEADER = "theta_deg,phi_deg,frequency_hz,magnitude_db,phase_deg"


def sampling_band(trials: int) -> tuple:
    """Acceptance band for a Monte Carlo ``crlb_ratio`` from ``trials`` trials.

    Criterion 3 gates the ratio at [1, 2].  A sample ratio scatters about its
    mean with relative standard error sqrt(2/N) (rmse^2 of near-Gaussian
    errors), and the benchmark's seed varies, so each edge is widened by four
    standard errors: about 1.4% at 10k trials and 10% at 200.
    """
    s = math.sqrt(2.0 / trials)
    return (1.0 - 4.0 * s, 2.0 + 4.0 * s)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _guarded(check, *args) -> str | None:
    """Run one output check; a missing or malformed output is a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_worker_pair(phase_dirs, rcs, read, judge) -> list:
    """Checks for a job of one call per phase, run with 1 (then 2) workers.

    ``read`` loads a phase's result and ``judge`` returns its verdict; a
    2-worker result must also equal the 1-worker one.
    """
    verdicts, results = [], []
    for out, (rc,) in zip(phase_dirs, rcs):
        result = None
        if rc != 0:
            verdict = f"exit code {rc}"
        else:
            try:
                result = read(out)
                verdict = judge(result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                verdict = f"unreadable output: {exc!r}"
        verdicts.append(verdict)
        results.append(result)
    if len(results) == 2 and verdicts[1] is None and results[0] is not None and results[1] != results[0]:
        verdicts[1] = "2-worker result differs from the 1-worker result"
    return [[v] for v in verdicts]


# ---------------------------------------------------------------------------
# range-long
# ---------------------------------------------------------------------------


def _range_long_inputs(seed: int, root: Path) -> dict:
    scenario = {
        "seed": seed,
        "waveform": RANGE_WAVEFORM,
        "ranging": {
            "snr_db": RANGE_SNR_DB,
            "true_delay_s": RANGE_TRUE_DELAY_S,
            "two_way": False,
            "trials": RANGE_LONG_TRIALS,
        },
    }
    path = root / "scenario.json"
    digest = _write(path, json.dumps(scenario, indent=2) + "\n")
    phases = []
    for workers in (1, 2):
        argv = ["range-sim", "--scenario", str(path), "--workers", str(workers),
                "--out", "{out}/report.json", "--quiet"]
        phases.append({"name": f"workers{workers}", "ops": RANGE_LONG_TRIALS, "units": [[argv]]})
    return {"phases": phases, "sha256": {str(path): digest},
            "truth": {"crlb_ratio_band": sampling_band(RANGE_LONG_TRIALS)}}


def _check_range_long(phase_dirs, rcs, truth) -> list:
    lo, hi = truth["crlb_ratio_band"]

    def read(out):
        doc = _load_json(out / "report.json")
        return {"crlb": doc["crlb"], "monte_carlo": doc["monte_carlo"]}

    def judge(result):
        mc = result["monte_carlo"]
        if mc["trials"] != RANGE_LONG_TRIALS:
            return f"ran {mc['trials']} trials"
        if mc["failures"] != 0:
            return f"{mc['failures']} ambiguity failures"
        if not (lo <= mc["crlb_ratio"] <= hi):
            return f"crlb_ratio {mc['crlb_ratio']:.4f} outside [{lo:.3f}, {hi:.3f}]"
        return None

    return _check_worker_pair(phase_dirs, rcs, read, judge)


# ---------------------------------------------------------------------------
# range-sweep
# ---------------------------------------------------------------------------


def _range_sweep_inputs(seed: int, root: Path) -> dict:
    argv = ["sweep", "--delta-f", SWEEP_DELTA_F, "--snr", SWEEP_SNR,
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--out", "{out}/sweep.csv", "--quiet"]
    phases = [{"name": "grid", "ops": SWEEP_CELLS, "units": [[argv]]}]
    return {"phases": phases, "sha256": {},
            "truth": {"crlb_ratio_band": sampling_band(SWEEP_TRIALS)}}


def _check_sweep_rows(rows, band) -> str | None:
    lo, hi = band
    if len(rows) != SWEEP_CELLS:
        return f"{len(rows)} grid rows, expected {SWEEP_CELLS}"
    for row in rows:
        values = [float(row[k]) for k in ("crlb_std_range_m", "mc_rmse_range_m", "crlb_ratio")]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite row {row}"
        if float(row["snr_db"]) >= SWEEP_CHECKED_SNR_DB:
            cell = f"cell ({row['delta_f_hz']} Hz, {row['snr_db']} dB)"
            if int(row["failures"]) != 0:
                return f"{cell}: {row['failures']} ambiguity failures"
            if not (lo <= values[2] <= hi):
                return f"{cell}: crlb_ratio {values[2]:.3f} outside [{lo:.2f}, {hi:.2f}]"
    return None


def _check_range_sweep(phase_dirs, rcs, truth) -> list:
    def read(out):
        with open(out / "sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    return _check_worker_pair(phase_dirs, rcs, read,
                              lambda rows: _check_sweep_rows(rows, truth["crlb_ratio_band"]))


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


def _coherence_inputs(seed: int, root: Path) -> dict:
    sigma_phi = 2.0 * math.pi * COHERENCE_F_ACTION_HZ * COHERENCE_SIGMA_RANGE_M / SPEED_OF_LIGHT
    closed_form = (1.0 + (COHERENCE_NODES - 1) * math.exp(-sigma_phi**2)) / COHERENCE_NODES
    phases = []
    for workers in (1, 2):
        argv = ["coherence", "--nodes", str(COHERENCE_NODES),
                "--f-action", repr(COHERENCE_F_ACTION_HZ),
                "--sigma-range", repr(COHERENCE_SIGMA_RANGE_M),
                "--trials", str(COHERENCE_TRIALS), "--seed", str(seed),
                "--workers", str(workers), "--out", "{out}/coherence.json", "--quiet"]
        phases.append({"name": f"workers{workers}", "ops": COHERENCE_TRIALS, "units": [[argv]]})
    return {"phases": phases, "sha256": {},
            "truth": {"sigma_phi_rad": sigma_phi, "closed_form_gain": closed_form}}


def _check_coherence(phase_dirs, rcs, truth) -> list:
    expected = truth["closed_form_gain"]

    def judge(rep):
        if not math.isclose(rep["analytic_gain_fraction"], expected, rel_tol=1e-9):
            return f"closed form {rep['analytic_gain_fraction']} != {expected}"
        if abs(rep["mean_gain_fraction"] / expected - 1.0) >= COHERENCE_REL_TOL:
            return f"mean gain {rep['mean_gain_fraction']:.4f} vs closed form {expected:.4f}"
        return None

    return _check_worker_pair(phase_dirs, rcs,
                              lambda out: _load_json(out / "coherence.json")["report"], judge)


# ---------------------------------------------------------------------------
# antenna-files
# ---------------------------------------------------------------------------


def _touchstone(rng: random.Random, grid: list) -> tuple:
    """One-port MA Touchstone text with three capped-parabola dips in dB.

    A dip with minimum ``s_min`` at ``fc`` and fractional bandwidth ``fbw``
    crosses -10 dB exactly at fc*(1 -/+ fbw/2), which fixes the truth.
    ``grid`` holds the (frequency, angle) text of each row, shared by all sets.
    """
    dips = []
    for lo, hi in DIP_CENTERS_HZ:
        fc = rng.uniform(lo, hi)
        s_min = rng.uniform(-30.0, -14.0)
        fbw = rng.uniform(0.015, 0.08)
        curvature = (-10.0 - s_min) / (fbw * fc / 2.0) ** 2
        dips.append({"fc_hz": fc, "s11_min_db": s_min, "fbw": fbw, "curvature": curvature})
    mags = ["1.0000000000e+00"] * S11_POINTS  # 0 dB outside the dips
    for d in dips:
        reach = d["fc_hz"] * d["fbw"] / 2.0 * math.sqrt(d["s11_min_db"] / (d["s11_min_db"] + 10.0))
        first = max(0, math.ceil((d["fc_hz"] - reach - S11_START_HZ) / S11_STEP_HZ))
        last = min(S11_POINTS - 1, math.floor((d["fc_hz"] + reach - S11_START_HZ) / S11_STEP_HZ))
        for k in range(first, last + 1):
            f = S11_START_HZ + k * S11_STEP_HZ
            s_db = min(0.0, d["s11_min_db"] + d["curvature"] * (f - d["fc_hz"]) ** 2)
            mags[k] = f"{10.0 ** (s_db / 20.0):.10e}"
    lines = ["! synthetic one-port reflection sweep, three matched bands", "# GHZ S MA R 50"]
    lines += [f"{freq} {mag} {angle}" for (freq, angle), mag in zip(grid, mags)]
    return "\n".join(lines) + "\n", dips


def _farfield_cut(rng: random.Random, frequency_hz: float) -> tuple:
    """Far-field CSV of a point source at (x0, z0) with a quadratic-in-dB beam."""
    x0 = rng.uniform(-2e-3, 2e-3)
    z0 = rng.uniform(5e-3, 20e-3)
    phi0 = rng.uniform(-math.pi, math.pi)
    peak_db = rng.uniform(3.0, 9.0)
    beamwidth_deg = rng.uniform(50.0, 80.0)
    k = 2.0 * math.pi * frequency_hz / SPEED_OF_LIGHT
    lines = [FARFIELD_HEADER]
    in_beam = []
    for i in range(CUT_POINTS):
        theta_deg = -90.0 + CUT_THETA_STEP_DEG * i
        theta = math.radians(theta_deg)
        mag = f"{max(peak_db - 12.0 * (theta_deg / beamwidth_deg) ** 2, peak_db - 40.0):.6f}"
        psi = math.degrees(phi0 + k * (x0 * math.sin(theta) + z0 * math.cos(theta)))
        phase = (psi + 180.0) % 360.0 - 180.0
        lines.append(f"{theta_deg:.1f},0.0,{frequency_hz:.1f},{mag},{phase:.6f}")
        if BEAM_DEG[0] <= theta_deg <= BEAM_DEG[1]:
            in_beam.append(float(mag))
    truth = {"x0_m": x0, "z0_m": z0, "frequency_hz": frequency_hz,
             "max_gain_db": max(in_beam), "mean_gain_db": sum(in_beam) / len(in_beam)}
    return "\n".join(lines) + "\n", truth


def _antenna_inputs(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    grid = [(f"{(S11_START_HZ + k * S11_STEP_HZ) / 1e9:.6f}", f"{(k * 0.37) % 360.0 - 180.0:.3f}")
            for k in range(S11_POINTS)]
    sha256, sets, units = {}, [], []
    for i in range(ANTENNA_SETS):
        s1p = root / f"set{i:03d}.s1p"
        text, dips = _touchstone(rng, grid)
        sha256[str(s1p)] = _write(s1p, text)
        cut_paths, cut_truth = [], []
        for band, freq in zip("ab", CUT_FREQS_HZ):
            path = root / f"set{i:03d}_{band}.csv"
            text, truth = _farfield_cut(rng, freq)
            sha256[str(path)] = _write(path, text)
            cut_paths.append(str(path))
            cut_truth.append(truth)
        sets.append({
            "bands": [{k: d[k] for k in ("fc_hz", "s11_min_db", "fbw")} for d in dips],
            "s11_min_tol_db": max(d["curvature"] for d in dips) * (S11_STEP_HZ / 2) ** 2 + 1e-6,
            "cuts": cut_truth,
            "dx_m": cut_truth[0]["x0_m"] - cut_truth[1]["x0_m"],
            "dz_m": cut_truth[0]["z0_m"] - cut_truth[1]["z0_m"],
        })
        units.append([
            ["s11-bands", "--in", str(s1p), "--out", f"{{out}}/set{i:03d}_bands.csv", "--quiet"],
            ["phase-center", "--cut", cut_paths[0], "--cut", cut_paths[1],
             "--out", f"{{out}}/set{i:03d}_pc.csv", "--quiet"],
            ["gain-stats", "--cut", cut_paths[0], "--out", f"{{out}}/set{i:03d}_gain.json", "--quiet"],
        ])
    phases = [{"name": "sets", "ops": ANTENNA_SETS, "units": units}]
    return {"phases": phases, "sha256": sha256, "truth": {"sets": sets}}


def _check_bands(path: Path, truth: dict) -> str | None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(truth["bands"]):
        return f"{len(rows)} bands, expected {len(truth['bands'])}"
    for row, band in zip(rows, truth["bands"]):
        if abs(float(row["fbw"]) - band["fbw"]) > FBW_TOL:
            return f"fbw {row['fbw']} vs truth {band['fbw']:.6f}"
        if abs(float(row["f_res_hz"]) - band["fc_hz"]) > S11_STEP_HZ:
            return f"resonance {row['f_res_hz']} Hz vs truth {band['fc_hz']:.0f} Hz"
        if abs(float(row["s11_min_db"]) - band["s11_min_db"]) > truth["s11_min_tol_db"]:
            return f"S11 minimum {row['s11_min_db']} dB vs truth {band['s11_min_db']:.4f} dB"
    return None


def _check_displacement(path: Path, truth: dict) -> str | None:
    stats = _load_json(path)["stats"]
    for key, want in (("mean_x0_m", truth["dx_m"]), ("mean_z0_m", truth["dz_m"])):
        if abs(stats[key] - want) > DISPLACEMENT_TOL_M:
            return f"{key} {stats[key]:.9f} m vs truth {want:.9f} m"
    return None


def _check_gain(path: Path, truth: dict) -> str | None:
    (stats,) = _load_json(path)["stats"]
    cut = truth["cuts"][0]
    for key in ("max_gain_db", "mean_gain_db"):
        if abs(stats[key] - cut[key]) > GAIN_TOL_DB:
            return f"{key} {stats[key]} vs truth {cut[key]}"
    return None


def _check_antenna(phase_dirs, rcs, truth) -> list:
    verdicts = []
    for out, phase_rcs in zip(phase_dirs, rcs):
        for i, (set_truth, set_rcs) in enumerate(zip(truth["sets"], _chunks(phase_rcs, 3))):
            for rc, name, check in zip(set_rcs, ("bands.csv", "pc.stats.json", "gain.json"),
                                       (_check_bands, _check_displacement, _check_gain)):
                if rc != 0:
                    verdicts.append(f"set {i}: exit code {rc}")
                else:
                    verdicts.append(_guarded(check, out / f"set{i:03d}_{name}", set_truth))
    return _chunks(verdicts, 3 * ANTENNA_SETS)


def _chunks(seq, n):
    return [seq[i : i + n] for i in range(0, len(seq), n)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "range-long": (_range_long_inputs, _check_range_long),
    "range-sweep": (_range_sweep_inputs, _check_range_sweep),
    "coherence": (_coherence_inputs, _check_coherence),
    "antenna-files": (_antenna_inputs, _check_antenna),
}


def make_inputs(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's inputs under ``root``; return its job and truth."""
    root.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload][0](seed, root)


def check_outputs(workload: str, phase_dirs, rcs, truth) -> list:
    """Per-phase lists of per-call verdicts for one run of the job.

    ``rcs`` holds each phase's exit codes in call order.
    """
    return WORKLOADS[workload][1](phase_dirs, rcs, truth)
