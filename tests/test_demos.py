"""Every script under demos/ runs cleanly against the package source, and
the paper table's rows are what the CLI reports for the same inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_array_equal

import rangekit
from helpers import three_dip_trace
from rangekit.antenna_metrics import write_touchstone
from rangekit.cli import dispatch
from rangekit.fileio import save_farfield_cuts
from rangekit.phase_center import wavelength_fraction

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip() != ""
    assert list(tmp_path.iterdir()) == []  # demos print; they write no files


def test_paper_table_rows_equal_cli_output(tmp_path, capsys):
    # the CLI reads the table's inputs back from files that hold them exactly,
    # so every row must equal the command's output bit for bit
    script = Path(__file__).resolve().parents[1] / "demos" / "paper_table.py"
    spec = importlib.util.spec_from_file_location("paper_table", script)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    demo_trace, shared_trace = table.three_dip_trace(), three_dip_trace()  # tests/helpers.DIP_SPECS
    assert_array_equal(demo_trace.frequency_hz, shared_trace.frequency_hz)
    assert_array_equal(demo_trace.s11_db, shared_trace.s11_db)

    def cli(*argv):
        assert dispatch([str(a) for a in argv]) == 0
        return json.loads(capsys.readouterr().out)

    write_touchstone(demo_trace, tmp_path / "sweep.s1p")
    bands = cli("s11-bands", "--in", tmp_path / "sweep.s1p")["bands"]
    paths = [tmp_path / "ranging.csv", tmp_path / "action.csv"]
    for cut, path in zip(table.phase_cuts(), paths):
        save_farfield_cuts(cut, path)
    pc = cli("phase-center", "--cut", paths[0], "--cut", paths[1])

    sc = table.ranging_scenario()
    scenario = {
        "seed": sc.seed,
        "waveform": {"duration_s": sc.duration, "sample_rate_hz": sc.sample_rate,
                     "separation_hz": sc.tones.separation},
        "ranging": {"snr_db": sc.snr_db, "true_delay_s": sc.true_delay, "two_way": sc.two_way,
                    "trials": table.RANGING_TRIALS},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rs = cli("range-sim", "--scenario", path)
    coherence = table.coherence_scenario(rs["mc_rmse_range_m"])
    scenario["beamform"] = {"n_nodes": coherence.n_nodes, "f_action_hz": coherence.f_action_hz,
                            "sigma_range_m": coherence.sigma_range_m, "trials": coherence.trials}
    path.write_text(json.dumps(scenario))
    gain = cli("coherence", "--scenario", path)["report"]

    stats = pc["stats"]
    expected = [(b[key], None) for b in bands
                for key in ("f_resonance_hz", "s11_min_db", "fractional_bw")]
    expected += [
        (stats["mean_x0_m"], stats["sd_x0_m"]),
        (stats["mean_z0_m"], stats["sd_z0_m"]),
        (wavelength_fraction(abs(stats["mean_z0_m"]), pc["frequency_b_hz"]), None),
        (rs["crlb"]["std_range"], None),
        (rs["mc_rmse_range_m"], None),
        (rs["monte_carlo"]["crlb_ratio"], None),
        (rs["monte_carlo"]["failures"], None),
        (gain["mean_gain_fraction"], gain["se_mean_gain_fraction"]),
        (gain["analytic_gain_fraction"], None),
    ]
    assert [(value, err) for _, _, value, err in table.rows()] == expected
