import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from viscodelay import certificate
from viscodelay.cli import ENERGY_HEADER, SWEEP_HEADER, ConfigError, main, parse_config
from viscodelay.cli import load_config

WORKED_KERNEL = {"terms": [{"a": 1.0, "b": 2.0}]}


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def certify_config(k: float, **extra) -> dict:
    doc = {"kernel": WORKED_KERNEL, "L": 1.0, "tau": 1.0, "theta": 2.0, "k": k}
    doc.update(extra)
    return doc


# -- certify -----------------------------------------------------------------------

def test_certify_worked_example_certified(tmp_path, capsys):
    cfg = write_config(tmp_path, certify_config(0.0005))
    code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert doc["certified"] is True
    assert doc["k_hat"] == pytest.approx(8.85e-4, abs=2e-6)
    assert doc["k0"] == doc["k_hat"]
    assert doc["gamma1"] == pytest.approx(495.0 / 8.0, rel=1e-12)
    assert doc["inputs"]["k"] == 0.0005
    assert "config" in doc
    txt = (tmp_path / "out" / "certificate.txt").read_text()
    assert "k_hat" in txt and "sigma_tilde" in txt


def test_certify_large_k_not_certified(tmp_path):
    cfg = write_config(tmp_path, certify_config(0.01))
    code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2


def test_certify_theta_one_with_delay_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, certify_config(0.0005, theta=1.0))
    code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "theta" in capsys.readouterr().err


def test_certify_takes_the_best_of_theta_values(tmp_path, capsys):
    # k0 is 8.84e-4 at theta = 2 and 9.97e-4 at theta = 1.5: certify judges
    # k as simulate and sweep do, at the best theta of theta_values
    doc = certify_config(0.00095, nx=40, T=2.0, theta_values=[1.5, 3.0])
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert ": certified" in capsys.readouterr().out
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["inputs"]["theta"] == 1.5
    assert cert["k0"] == pytest.approx(9.97e-4, rel=1e-3)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["certificate"]["k0"] == cert["k0"]
    assert report["certificate"]["inputs"]["theta"] == 1.5


def test_certify_reports_nodelay_threshold(tmp_path):
    cfg = write_config(tmp_path, certify_config(0.0))
    main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    expected = certificate.nodelay_threshold(1.0, 0.5, 2.0, 1.0 / math.pi ** 2)
    assert doc["nodelay_threshold"] == pytest.approx(expected, rel=1e-12)


# -- config validation ---------------------------------------------------------------

def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kernel": WORKED_KERNEL, "bogus": 1})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_bad_kernel_term_rejected_with_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"kernel": {"terms": [{"a": -1.0, "b": 2.0}]}, "tau": 1.0}
    )
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "kernel.terms" in err and "terms[0]" in err


def test_bad_mode_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kernel": WORKED_KERNEL, "mode": "sideways", "T": 1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "mode" in capsys.readouterr().err


def test_missing_horizon_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kernel": WORKED_KERNEL})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "T" in capsys.readouterr().err


def test_kernel_tail_past_the_search_limit_rejected():
    # admissible (mu_tilde = 0.1), but s_max ~ 1.8e300 lies past the 1e300 search limit
    doc = {"kernel": {"terms": [{"a": 1e-300, "b": 1e-299}]}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    message = str(err.value)
    assert "s = 1e300" in message and "tail_tol*mu_tilde = 1e-09" in message


def test_cfl_bound_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kernel": WORKED_KERNEL, "cfl": 0.9, "T": 1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "cfl" in capsys.readouterr().err


# -- simulate ---------------------------------------------------------------------

def simulate_config(**extra) -> dict:
    doc = {
        "kernel": WORKED_KERNEL, "L": 1.0, "nx": 60, "tau": 0.5, "k": 0.02,
        "theta": 2.0, "T": 15.0, "sample_every": 40,
        "init": {"shape": "sine", "m": 1, "history": "frozen"},
    }
    doc.update(extra)
    return doc


def test_simulate_worked_run_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config())
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    csv_lines = (out / "energy.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config ")
    assert csv_lines[1] == ENERGY_HEADER
    first = csv_lines[2].split(",")
    assert len(first) == 6
    assert float(first[0]) == 0.0

    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "decaying"
    assert report["aborted_step"] is None
    assert report["config"]["resolved"]["tau_snapped"] == pytest.approx(0.5, abs=1e-2)
    assert report["certificate"]["k0"] > 0.0

    svg = (out / "energy.svg").read_text()
    assert "<svg" in svg and "<polyline" in svg and "# config" not in svg
    assert "config" in svg  # embedded comment


def test_simulate_zero_initial_data(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config(init={"shape": "zero"}, T=2.0))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "energy.csv").read_text().splitlines()[2:]
    for line in lines:
        values = [float(x) for x in line.split(",")[1:]]
        assert values == [0.0] * 5
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "inconclusive"
    assert report["fit"] is None


def test_simulate_antidamping_growth(tmp_path):
    out = tmp_path / "out"
    doc = {
        "kernel": {"terms": []}, "nx": 60, "tau": 0.0, "k": -0.5, "T": 10.0,
        "sample_every": 30,
    }
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "growing"
    assert report["fit"]["sigma_emp"] == pytest.approx(-0.5, abs=0.05)
    assert report["certificate"] is None


def test_simulate_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, simulate_config(T=5.0))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        blobs.append(
            (out / "energy.csv").read_bytes() + (out / "energy.svg").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_simulate_certified_run_reports_envelope(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config(tau=1.0, k=0.0005, nx=100, T=30.0))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["certified"] is True
    assert report["theorem_bound"]["ok"] is True
    assert report["theorem_bound"]["sigma"] > 0.0
    assert report["classification"] == "decaying"
    svg = (out / "energy.svg").read_text()
    assert "certified envelope" in svg


def test_outputs_echo_resolved_discretization(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config(tau=0.47, T=2.0))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "energy.csv").read_text().splitlines()[0]
    echo = json.loads(header[len("# config "):])
    assert "dt" in echo["resolved"] and "tau_snapped" in echo["resolved"]
    # the snapped delay sits within half a step of the requested one
    assert abs(echo["resolved"]["tau_snapped"] - 0.47) <= echo["resolved"]["dt"] / 2
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["resolved"] == echo["resolved"]


def test_simulate_certifies_at_the_snapped_delay(tmp_path):
    # at nx=37 the delay 0.3 snaps to 46 steps of 0.25/38
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config(nx=37, tau=0.3, T=1.0))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    tau_snapped = report["config"]["resolved"]["tau_snapped"]
    assert tau_snapped == pytest.approx(46 * 0.25 / 38, rel=1e-15)
    assert report["certificate"]["inputs"]["tau"] == tau_snapped


def test_sweep_certifies_at_the_snapped_delay(tmp_path, monkeypatch):
    from viscodelay import cli

    taus = []
    inputs = cli._certificate_inputs

    def recorded(cfg, tau=None, **kwargs):
        taus.append(tau)
        return inputs(cfg, tau=tau, **kwargs)

    monkeypatch.setattr(cli, "_certificate_inputs", recorded)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, sweep_config(nx=37, tau=0.3, T=1.0,
                                              k_values=[0.0005, 0.02]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    tau_snapped = json.loads(header[len("# config "):])["resolved"]["tau_snapped"]
    assert tau_snapped == pytest.approx(46 * 0.25 / 38, rel=1e-15)
    assert taus == [tau_snapped] * 2


def test_simulate_auxiliary_reports_dissipation(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config(mode="auxiliary", T=10.0))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dissipation"]["passed"] is True


def test_simulate_snapshots_csv(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, simulate_config(T=1.0, snapshots=True))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert lines[1].startswith("t,u1,")
    assert len(lines[1].split(",")) == 61


def test_simulate_nonfinite_flushes_partial_csv(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {"kernel": {"terms": []}, "nx": 40, "tau": 0.0, "k": -1000.0, "T": 10.0,
           "sample_every": 20}
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "energy.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["aborted_step"] is not None
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("a, b", [(2500.0, 5000.0), (1500.0, 3000.0)])
def test_stiff_kernel_refused_before_stepping(tmp_path, capsys, command, a, b):
    # dt*b = 6.2 and 3.7 at nx=200, beyond RK4's real-axis limit of ~2.785
    doc = {"kernel": {"terms": [{"a": a, "b": b}]}, "nx": 200, "tau": 0.0,
           "mode": "auxiliary", "T": 1.0, "k_values": [0.0, 0.01]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "dt" in err and "2.785" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_stiff_eta_grid_transport_refused_before_stepping(tmp_path, capsys, command):
    # dt/min(s gap) = 21.3 at nx=200: the upwind eta transport goes non-finite
    doc = {"kernel": {"terms": [{"a": 2500.0, "b": 5000.0}]}, "nx": 200, "tau": 0.0,
           "mode": "auxiliary", "memory_realization": "eta_grid", "T": 1.0,
           "k_values": [0.0, 0.01]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "dt/min(s gap) = 21.27" in capsys.readouterr().err
    assert not out.exists()


# the velocity damping d, k itself where tau = 0 folds the delay onto v, and
# theta |k| e^tau in auxiliary mode: dt*d = 3.049 and 2.818 at nx = 40
STIFF_DAMPING = {
    "tau=0": {"kernel": {"terms": []}, "nx": 40, "tau": 0.0, "k": 500.0, "T": 10.0,
              "sample_every": 20, "k_values": [1.0, 100.0, 500.0, 1000.0]},
    "auxiliary": {"kernel": WORKED_KERNEL, "nx": 40, "tau": 1.0, "k": 85.0, "theta": 2.0,
                  "mode": "auxiliary", "T": 5.0, "sample_every": 10, "k_values": [85.0]},
}


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--jobs", "1"],
                                     ["sweep", "--jobs", "2"]])
@pytest.mark.parametrize("case, product", [("tau=0", "3.049"), ("auxiliary", "2.818")])
def test_stiff_damping_refused_before_stepping(tmp_path, capsys, case, product, command):
    # RK4 cannot resolve the -d v decay: stepped, it would blow up and read as growth
    cfg = write_config(tmp_path, STIFF_DAMPING[case])
    out = tmp_path / "out"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"dt*d(k={STIFF_DAMPING[case]['k']:g}) = {product}" in err and "2.785" in err
    assert not out.exists()


@pytest.mark.parametrize("case, sigma_emp", [("tau=0", 0.0394792), ("auxiliary", 0.0181052)])
def test_stiff_damping_resolved_on_a_finer_grid(tmp_path, case, sigma_emp):
    doc = {**STIFF_DAMPING[case], "nx": 200}
    del doc["k_values"]
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classification"] == "decaying"
    assert report["fit"]["sigma_emp"] == pytest.approx(sigma_emp, rel=1e-5)


def test_eta_grid_transport_below_limit_runs(tmp_path):
    # dt/min(s gap) = 1.19 at nx=100 decays
    doc = {"kernel": {"terms": [{"a": 70.5, "b": 141.0}]}, "nx": 100, "tau": 0.0,
           "mode": "auxiliary", "memory_realization": "eta_grid", "T": 1.0,
           "init": {"shape": "gaussian"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aborted_step"] is None
    assert report["classification"] == "decaying"


SLOW_KERNEL = {"terms": [{"a": 1e-8, "b": 1e-7}]}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unmappable_history_reported_as_error(tmp_path, capsys, command):
    # T = 1e12 takes more steps than n_hist, so the history keeps n_hist rows:
    # n_hist x nx x 8 bytes = 5.24 PiB, more than a 47-bit address space
    doc = {"kernel": SLOW_KERNEL, "nx": 1000, "tau": 0.0, "T": 1e12, "k_values": [0.0]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: ")
    assert not out.exists()
    assert re.search(r"n_hist=\d+ rows x nx=1000 = \d+ bytes", text)


def test_slow_kernel_runs_on_a_history_sized_to_its_steps(tmp_path):
    # n_hist would be 5.24 PiB; the 4004 steps of T = 1 keep a 32 MB history
    doc = {"kernel": SLOW_KERNEL, "nx": 1000, "tau": 0.0, "T": 1.0}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aborted_step"] is None
    energies = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=2)
    assert energies.shape[0] > 2 and np.isfinite(energies).all()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("doc, ratio", [
    # dt = 4.7e-322: s_max/dt, or tau/dt, overflows while the grid is built
    ({"kernel": {"terms": [{"a": 0.5, "b": 1.0}]}, "nx": 20, "cfl": 1e-320, "T": 1.0},
     "s_max/dt"),
    ({"nx": 20, "cfl": 1e-320, "tau": 1.0, "T": 1.0}, "tau/dt"),
    # T/dt = 2e313 overflows when the run's plan counts its steps
    ({"nx": 20, "cfl": 1e-12, "T": 1e300}, "T/dt"),
], ids=["s_max", "tau", "T"])
def test_overflowing_step_count_refused(tmp_path, capsys, command, doc, ratio):
    cfg = write_config(tmp_path, dict(doc, k_values=[0.0]))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: ")
    assert not out.exists()
    assert f"{ratio} = " in text and "overflows a double" in text


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unmappable_delay_line_reported_as_error(tmp_path, capsys, command):
    # (n_delay + 2) x nx x 8 bytes = 286 PiB, more than a 47-bit address space
    doc = {"nx": 200, "cfl": 1e-12, "tau": 1.0, "T": 1e-9, "k_values": [0.0]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: ")
    assert not out.exists()
    assert re.search(r"n_delay\+2=\d+ rows x nx=200 = \d+ bytes", text)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unallocatable_sample_table_refused(tmp_path, capsys, command):
    # 8.4e13 steps sampled every step: (2 + 8.4e13) rows x 8 terms x 8 bytes
    # = 4.77 PiB per row of k, refused before the first step
    doc = {"nx": 20, "T": 1e12, "sample_every": 1, "k_values": [0.1, 0.2]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: ") and "Traceback" not in text
    assert not out.exists()
    if command == "simulate":
        pattern = r"sample table needs (\d+) rows x 8 terms = (\d+) bytes"
    else:
        pattern = r"sample table needs (\d+) rows x 8 terms x 2 batch rows = (\d+) bytes"
    match = re.search(pattern, text)
    assert match and "cannot be allocated" in text
    n_rows, nbytes = map(int, match.groups())
    assert n_rows > 8e13
    assert nbytes == 8 * 8 * n_rows * (1 if command == "simulate" else 2)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unallocatable_grid_refused(tmp_path, capsys, command):
    # nx = 1e15 interior points x 8 bytes = 7.1 PiB, more than a 47-bit
    # address space: the allocation fails at once, touching no memory.  The
    # sweep's two batches run in worker processes, and a worker's refusal
    # reaches main as the run's own
    nx = 10 ** 15
    cfg = write_config(tmp_path, {"nx": nx, "T": 1e-12, "k_values": [0.1, 0.2]})
    out = tmp_path / "out"
    jobs = ["--jobs", "2"] if command == "sweep" else []
    assert main([command, "--config", cfg, "--out", str(out)] + jobs) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: ")
    assert not out.exists()
    # the grid is shared by a batch's rows, so no batch rows are named
    assert f"the grid needs nx={nx} points = {8 * nx} bytes" in text
    assert "cannot be allocated" in text and "batch rows" not in text


@pytest.mark.parametrize("count", [10 ** 18, 2 ** 63 - 1], ids=["1e18", "index-max"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unallocatable_k_count_refused(tmp_path, capsys, command, count):
    # 8e18 bytes cannot be allocated; at the largest count np.linspace fails
    # on its own with an IndexError
    doc = {"nx": 20, "T": 1.0, "k_min": 0.0, "k_max": 1.0, "count": count}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: count: the sweep needs count={count} values of k = "
                          f"{8 * count} bytes")
    assert err.endswith("which cannot be allocated; lower count\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "simulate", "sweep"])
def test_delay_with_overflowing_exponential_refused(tmp_path, capsys, command):
    # e^720 overflows a double; at nx=3 the delay snaps to 11520 steps exactly
    cfg = write_config(tmp_path, certify_config(0.0, nx=3, tau=720.0, T=1.0,
                                                k_values=[0.0]))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "709.783" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_delay_snapped_past_the_exponent_limit_refused(tmp_path, capsys, command):
    # 709.782 is below ln(max double) = 709.7827, but at nx=3 (dt = 1/16) it
    # snaps up to 11357 steps, 709.8125
    cfg = write_config(tmp_path, certify_config(0.0, nx=3, tau=709.782, T=1.0,
                                                k_values=[0.0]))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "709.8125" in err
    assert not out.exists()


# -- sweep -----------------------------------------------------------------------

def sweep_config(**extra) -> dict:
    doc = {
        "kernel": WORKED_KERNEL, "L": 1.0, "nx": 60, "tau": 1.0, "k": 0.0,
        "theta": 2.0, "T": 20.0, "sample_every": 40,
        "k_values": [0.02, -0.02, 0.0005],
    }
    doc.update(extra)
    return doc


def test_sweep_rows_sorted_and_classified(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, sweep_config())
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == SWEEP_HEADER
    rows = [line.split(",") for line in lines[2:]]
    ks = [float(r[0]) for r in rows]
    assert ks == sorted(ks)
    by_k = {float(r[0]): r for r in rows}
    for k, row in by_k.items():
        assert row[3] == "decaying"  # memory dominates at these magnitudes
    assert by_k[0.0005][4] == "true"       # certified
    assert by_k[0.02][4] == "false"
    assert by_k[0.0005][5] == "true"       # envelope verified


def test_simulate_and_one_row_sweep_agree(tmp_path):
    # original mode at a certified k, so both run the envelope check
    doc = sweep_config(k=0.0005, k_values=[0.0005])
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    (row,) = read_sweep_rows(tmp_path / "sweep")
    assert report["theorem_bound"] is not None
    assert float(row["sigma_emp"]) == report["fit"]["sigma_emp"]
    assert float(row["r_squared"]) == report["fit"]["r_squared"]
    assert row["classification"] == report["classification"]
    assert row["certified"] == json.dumps(report["certificate"]["certified"])
    assert row["theorem_bound_ok"] == json.dumps(report["theorem_bound"]["ok"])


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, sweep_config(k_values=[0.0, 0.01], T=5.0))
    outs = []
    for name, jobs in (("serial", "1"), ("parallel", "2")):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_range_form(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, sweep_config(
        k_values=None, k_min=-0.01, k_max=0.01, count=3, T=5.0))
    doc = json.loads(Path(cfg).read_text())
    del doc["k_values"]
    cfg = write_config(tmp_path, doc, name="range.json")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 3


def test_sweep_theta_scan_picks_best_sigma(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, sweep_config(
        k_values=[0.0005], T=5.0, theta_values=[1.5, 2.0, 4.0]))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[2].split(",")
    assert row[4] == "true"  # certified under the best theta
    # the scan must do at least as well as any single listed theta
    from viscodelay.certificate import CertificateInputs, compute_constants

    sigmas = [
        compute_constants(CertificateInputs(
            mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=1.0, theta=theta,
            c_poincare=1.0 / math.pi ** 2, k=0.0005)).sigma
        for theta in (1.5, 2.0, 4.0)
    ]
    assert max(sigmas) > 0.0


def test_sweep_bisects_k_hat_once_per_theta(tmp_path, monkeypatch):
    # k_hat does not read k: four k under two theta bisect twice, and every
    # certificate has the bytes of one formed on its own
    from viscodelay import cli

    thetas = []
    bisect = certificate.khat_fixed_point

    def counted(inputs):
        thetas.append(inputs.theta)
        return bisect(inputs)

    monkeypatch.setattr(certificate, "khat_fixed_point", counted)
    path = write_config(tmp_path, sweep_config(k_values=[0.02, -0.02, 0.0005, 0.0], T=1.0,
                                               theta_values=[1.5, 4.0]))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert thetas == [1.5, 4.0]
    cfg = load_config(path)
    tau = cfg.discretize().tau
    for k in cfg.k_values:
        report = cli._best_certificate(cfg, k, tau)
        alone = certificate.compute_constants(report.inputs)
        assert repr(report.as_flat_dict()) == repr(alone.as_flat_dict())
    assert sorted(cfg.k_hats) == [(tau, 1.5), (tau, 4.0)]


def test_sweep_empty_k_values_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config(k_values=[]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "k_values" in capsys.readouterr().err


def test_sweep_without_k_values_rejected(tmp_path, capsys):
    doc = sweep_config()
    del doc["k_values"]
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "k_values" in capsys.readouterr().err


def test_sweep_row_failure_recorded(tmp_path):
    # a blow-up row is recorded as growing, the sweep still completes
    out = tmp_path / "out"
    doc = {"kernel": {"terms": []}, "nx": 40, "tau": 0.0, "T": 10.0,
           "sample_every": 20, "k_values": [-1000.0, 0.0]}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    first_row = lines[2].split(",")
    assert first_row[0] == "-1000"
    assert first_row[3] == "growing"


def read_sweep_rows(out) -> list[dict]:
    lines = (out / "sweep.csv").read_text().splitlines()
    return list(csv.DictReader(lines[1:]))


def test_sweep_csv_keeps_row_error(tmp_path):
    out = tmp_path / "out"
    doc = {"kernel": {"terms": []}, "nx": 40, "tau": 0.0, "T": 10.0,
           "sample_every": 20, "k_values": [-1000.0, 0.0]}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    blown_up, healthy = read_sweep_rows(out)
    assert blown_up["classification"] == "growing"
    assert re.fullmatch(r"non-finite at step \d+", blown_up["error"])
    assert healthy["error"] == ""


def spectral_rate(k: float, nx: int) -> float:
    """-2 max Re s over the modes s^2 + k s + |Lambda_j| = 0 of the Dirichlet
    Laplacian on nx interior points of (0, 1): the energy's exact decay rate
    with no kernel and tau = 0."""
    dx = 1.0 / (nx + 1)
    lams = 4.0 * np.sin(np.arange(1, nx + 1) * np.pi / (2 * (nx + 1))) ** 2 / dx ** 2
    return -2.0 * max(np.roots([1.0, k, lam]).real.max() for lam in lams)


def test_verdicts_follow_the_spectrum_and_an_abort_reads_growing(tmp_path):
    # k = -1000 has modal abscissa +999.99: it really grows, and outruns the
    # float range at step 149; both commands must read that run as growing
    doc = {"kernel": {"terms": []}, "nx": 40, "tau": 0.0, "T": 10.0, "sample_every": 20,
           "k_values": [-1000.0, -0.5, 0.5, 1.0, 100.0]}
    assert main(["sweep", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "sweep")]) == 0
    rows = read_sweep_rows(tmp_path / "sweep")
    for k, row in zip(doc["k_values"], rows, strict=True):
        sigma_spec = spectral_rate(k, doc["nx"])
        assert row["classification"] == ("decaying" if sigma_spec > 0.0 else "growing")
        out = tmp_path / f"simulate{k:g}"
        run_doc = {**doc, "k": k}
        del run_doc["k_values"]
        code = main(["simulate", "--config", write_config(tmp_path, run_doc, f"{k:g}.json"),
                     "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["classification"] == row["classification"]
        if k == -1000.0:
            assert code == 1 and report["aborted_step"] == 149 and report["fit"] is None
            assert row["error"] == "non-finite at step 149" and row["sigma_emp"] == "nan"
            continue
        assert code == 0 and report["fit"]["sigma_emp"] == float(row["sigma_emp"])
        rel = 1e-9 if k == 100.0 else 1e-2
        assert float(row["sigma_emp"]) == pytest.approx(sigma_spec, rel=rel)


def test_sweep_csv_quotes_error_text(tmp_path, monkeypatch):
    from viscodelay import analysis, cli, solver

    def refuse(*args, **kwargs):
        raise ValueError('no run, "k" rejected')

    out = tmp_path / "out"
    cfg = write_config(tmp_path, sweep_config(k_values=[0.0, 0.01]))
    # an exception from the run leaves main as it is, for sweep as for simulate
    with monkeypatch.context() as patch:
        patch.setattr(solver, "run", refuse)
        for command in ("simulate", "sweep"):
            with pytest.raises(ValueError, match='no run, "k" rejected'):
                main([command, "--config", cfg, "--out", str(out)])
    assert not out.exists()

    monkeypatch.setattr(cli, "_sweep_row", lambda cfg, trace, k: analysis.SweepRow(
        k=k, sigma_emp=math.nan, r_squared=math.nan, classification="growing",
        certified=None, theorem_bound_ok=None, error='no run, "k" rejected'))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert '"no run, ""k"" rejected"' in (out / "sweep.csv").read_text()
    rows = read_sweep_rows(out)
    assert [row["error"] for row in rows] == ['no run, "k" rejected'] * 2


# -- selfcheck ---------------------------------------------------------------------

def test_selfcheck_passes_and_is_deterministic(capsys):
    assert main(["selfcheck"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 3
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out == first


def test_selfcheck_catches_tampered_constant(monkeypatch, capsys):
    # mutation test: a corrupted C1 formula must trip the pinned identities
    import viscodelay.certificate as cert

    original = cert.c1_constant
    monkeypatch.setattr(cert, "c1_constant",
                        lambda *args: original(*args) * 1.001)
    assert main(["selfcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out


# -- inputs at the edge of the float range ---------------------------------------------

@pytest.mark.parametrize("command, extra, limit", [
    ("certify", {"theta": 1e308}, "theta * e^tau must be at most 1.79769e+308"),
    ("certify", {"tau": 709.5}, "theta * e^tau must be at most 1.79769e+308"),
    ("certify", {"c_poincare": 1e308}, "C e theta e^tau must be at most 1.79769e+308"),
    ("certify", {"L": 1e300}, "interval length must be at most 4.21219e+154"),
    ("certify", {"kernel": {"terms": [{"a": 1e-300, "b": 2.0}]}},
     "mu_tilde must be at least 1.49167e-154"),
    ("simulate", {"nx": 20, "T": 0.1, "init": {"history": "modulated", "omega": 1e308}},
     "omega must be at most 1.34078e+154"),
])
def test_inputs_past_the_float_range_refused(tmp_path, capsys, command, extra, limit):
    cfg = write_config(tmp_path, certify_config(0.0, **extra))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err
    assert "Traceback" not in err


@pytest.mark.parametrize("length, refused", [(1e-153, True), (3e-153, True), (1e-152, False)])
def test_grid_spacing_whose_step_overflows_refused(tmp_path, capsys, length, refused):
    # dx = L/21: below sqrt(6/DBL_MAX) = 1.83e-154 a step's 6/dx^2 overflows,
    # and the pure wave aborts at step 1 and reads as growing; 1/dx^2 alone
    # is still finite at L = 3e-153
    cfg = write_config(tmp_path, {"L": length, "nx": 20, "T": length})
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    if refused:
        assert code == 1 and not out.exists()
        assert err.startswith(f"error: dx = {length / 21:.6g} is below 1.82691e-154")
    else:
        assert code == 0
        assert json.loads((out / "report.json").read_text())["aborted_step"] is None


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--jobs", "2"]])
def test_unallocatable_s_grid_refused(tmp_path, capsys, command):
    # ns = 1e15 s-nodes x 8 bytes = 7.1 PiB: refused while the grid is built
    ns = 10 ** 15
    doc = {"kernel": WORKED_KERNEL, "nx": 20, "ns": ns, "T": 0.1, "k_values": [0.0, 0.1]}
    out = tmp_path / "out"
    assert main(command + ["--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the s-grid needs ns={ns} nodes = {8 * ns} bytes")
    assert "cannot be allocated; lower ns" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, sweep_config())
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exit_info.value.code == 2
    assert f"must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"nx": 20, "T": 1e12, "sample_every": 1},
    {"nx": 200, "cfl": 1e-12, "tau": 1.0, "T": 1e-9},
], ids=["sample-table", "delay-line"])
def test_one_row_sweep_refusal_names_no_batch_rows(tmp_path, capsys, doc):
    # a batch of one row is worded as a solo run: "x 1 batch rows" says nothing
    cfg = write_config(tmp_path, {**doc, "k_values": [0.1]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: ")
    assert not out.exists()
    assert "cannot be allocated" in text and "batch rows" not in text
    assert re.search(r"rows x (8 terms|nx=200) = \d+ bytes", text)


def test_certificate_json_keys(tmp_path):
    cfg = write_config(tmp_path, certify_config(0.0005))
    main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert set(doc) == {
        "c0", "c1", "c2", "c_star", "c_big", "sigma_tilde", "sigma",
        "k_bar", "k_hat", "k0", "k0_explicit_lb", "gamma1", "gamma2",
        "epsilon_star", "delta_star", "certified", "inputs", "config",
        "nodelay_threshold",
    }
    assert set(doc["inputs"]) == {"mu0", "mu_tilde", "alpha", "tau", "theta",
                                  "c_poincare", "k"}


@pytest.mark.parametrize("doc, message", [
    ({"L": 0}, 'L: must be > 0.0'),
    ({"L": "1"}, "L: expected a number, got '1'"),
    ({"nx": 2}, 'nx: must be >= 3'),
    ({"nx": 3.0}, 'nx: expected an integer, got 3.0'),
    ({"cfl": 0.0}, 'cfl: must be > 0.0'),
    ({"cfl": 0.6}, 'cfl: must be <= 0.5 (explicit scheme stability)'),
    ({"ns": 1}, 'ns: must be >= 2'),
    ({"tail_tol": 0}, 'tail_tol: must be > 0.0'),
    ({"tau": -1}, 'tau: must be >= 0.0'),
    ({"k": float("inf")}, 'k: must be finite'),
    ({"k": True}, 'k: expected a number, got True'),
    ({"theta": 0}, 'theta: must be > 0.0'),
    ({"mode": "x"}, "mode: must be one of ['auxiliary', 'original']"),
    ({"mode": [1]}, "mode: must be one of ['auxiliary', 'original']"),
    ({"delay_realization": "x"},
     "delay_realization: must be one of ['rho_grid', 'ring_buffer']"),
    ({"memory_realization": "x"},
     "memory_realization: must be one of ['eta_grid', 'prony_modes']"),
    ({"T": -1}, 'T: must be >= 0.0'),
    ({"sample_every": -1}, 'sample_every: must be >= 0'),
    ({"c_poincare": 0}, 'c_poincare: must be > 0.0'),
    ({"snapshots": 1}, 'snapshots: expected true or false'),
    ({"init": []}, 'init: expected an object'),
    ({"init": {"q": 1}}, "init: unknown keys ['q']"),
    ({"init": {"shape": "box"}},
     "init.shape: must be one of ['gaussian', 'sine', 'zero']"),
    ({"init": {"shape": {}}},
     "init.shape: must be one of ['gaussian', 'sine', 'zero']"),
    ({"init": {"m": 0}}, 'init.m: must be >= 1'),
    ({"init": {"width": 0}}, 'init.width: must be > 0.0'),
    ({"init": {"history": "x"}}, "init.history: must be one of ['frozen', 'modulated']"),
    ({"init": {"center": "a"}}, "init.center: expected a number, got 'a'"),
    ({"init": {"omega": 1e200}}, "init: omega must be at most 1.34078e+154 in magnitude, "
                                 "where omega^2 overflows, got 1e+200"),
    ({"kernel": {"terms": [{"a": 1}]}}, "kernel.terms[0]: needs both 'a' and 'b'"),
    ({"k_min": 0}, 'k_max: k_min, k_max and count go together'),
    ({"k_min": 0, "k_max": 1, "count": 1}, 'count: must be >= 2'),
    ({"k_min": 1, "k_max": 0, "count": 3}, 'k_max: must exceed k_min'),
    ({"k_values": []}, 'k_values: expected a non-empty list of numbers'),
    ({"theta_values": [1.0]}, 'theta_values[0]: expected a number > 1'),
    ({"foo": 1}, "config: unknown keys ['foo']"),
    ({"k_values": [0.01, float("inf")]}, 'k_values[1]: must be finite'),
    ({"k_values": [float("nan")]}, 'k_values[0]: must be finite'),
    ({"theta_values": [2.0, float("inf")]}, 'theta_values[1]: must be finite'),
])
def test_config_error_messages(doc, message):
    # each key's check, as the one table of keys drives it; a choice that is
    # not hashable is refused like any other
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == message


# -- refusals before stepping and the written records ----------------------------

def test_history_offsets_past_the_index_range_refused(tmp_path, capsys):
    # s_max/dt = 1.55e19 steps: an intp history offset would wrap
    out = tmp_path / "out"
    doc = {"kernel": {"terms": [{"a": 1e-17, "b": 1e-16}]}, "nx": 20, "T": 0.5,
           "sample_every": 10, "mode": "auxiliary", "init": {"history": "modulated"}}
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "s_max/dt = 1.547" in err and str(np.iinfo(np.intp).max) in err
    assert not (out / "energy.csv").exists()


def test_certify_validates_the_kernel_at_the_configs_tail_tol(tmp_path):
    # at the default tail_tol the tail search stops at s = 1e300; at 0.5 it ends
    out = tmp_path / "out"
    doc = {"kernel": {"terms": [{"a": 1e-300, "b": 1e-299}]}, "tail_tol": 0.5,
           "tau": 1.0, "k": 0.0, "theta": 2.0}
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "certificate.json").read_text())["certified"] is True


def test_tail_tol_of_one_or_more_refused():
    with pytest.raises(ConfigError) as err:
        parse_config({"tail_tol": 1.0})
    assert str(err.value) == "tail_tol: must be < 1.0"


def test_sweep_header_and_report_sub_keys_are_pinned(tmp_path):
    assert SWEEP_HEADER == "k,sigma_emp,r_squared,classification,certified,theorem_bound_ok,error"
    reports = []
    for name, extra in (("original", dict(tau=1.0, k=0.0005, nx=30, T=3.0)),
                        ("auxiliary", dict(mode="auxiliary", nx=30, T=3.0))):
        out = tmp_path / name
        cfg = write_config(tmp_path, simulate_config(sample_every=10, **extra), f"{name}.json")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    original, auxiliary = reports
    assert set(original["fit"]) == {"sigma_emp", "r_squared", "window", "n_samples"}
    assert set(original["theorem_bound"]) == {"ok", "worst_margin", "first_violation_t",
                                              "sigma"}
    assert set(auxiliary["dissipation"]) == {"passed", "max_increment", "max_violation",
                                             "increment_tol", "violation_tol"}


# -- the pre-flight: refusals before the first step --------------------------------

# theta e^tau overflows, so no certificate can be formed at any k
UNCERTIFIABLE = {"kernel": WORKED_KERNEL, "nx": 40, "tau": 1.0, "k": 0.001, "theta": 1e308,
                 "T": 5.0, "sample_every": 10, "k_values": [0.001, 0.002, 0.5]}


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--jobs", "1"],
                                     ["sweep", "--jobs", "2"]])
def test_uncertifiable_config_refused_before_stepping(tmp_path, capsys, monkeypatch, command):
    from viscodelay import solver

    steps = []
    original = solver.step
    monkeypatch.setattr(solver, "step", lambda *args: steps.append(1) or original(*args))
    cfg = write_config(tmp_path, UNCERTIFIABLE)
    out = tmp_path / "out"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta * e^tau must be at most 1.79769e+308" in err
    assert not out.exists()
    assert steps == []


def test_simulate_forms_its_certificate_once(tmp_path, monkeypatch):
    from viscodelay import cli

    calls = []
    inputs = cli._certificate_inputs
    monkeypatch.setattr(cli, "_certificate_inputs",
                        lambda cfg, **kwargs: calls.append(kwargs) or inputs(cfg, **kwargs))
    cfg = write_config(tmp_path, simulate_config(T=1.0, theta_values=[1.5, 3.0]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert [call["theta"] for call in calls] == [1.5, 3.0]


def test_non_finite_k_value_refused_before_any_row(tmp_path, capsys):
    # JSON's Infinity reaches the parser as a float
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sweep_config(k_values=[0.01, math.inf])))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: k_values[1]: must be finite\n"
    assert not out.exists()


# a JSON integer literal stays a Python int however long: 401 digits are past
# the double range, and 10**30 past numpy's index range
HUGE = 10 ** 400


@pytest.mark.parametrize("extra, message", [
    ({"k": HUGE}, "k: must be at most 1.79769e+308 in magnitude"),
    ({"k_values": [0.02, HUGE]}, "k_values[1]: must be at most 1.79769e+308 in magnitude"),
    ({"nx": HUGE}, "nx: must be at most 9223372036854775807"),
    ({"ns": 10 ** 30}, "ns: must be at most 9223372036854775807"),
    ({"kernel": {"terms": [{"a": 1.0, "b": HUGE}]}},
     "kernel.terms[0].b: must be at most 1.79769e+308 in magnitude"),
    ({"theta_values": [HUGE]}, "theta_values[0]: must be at most 1.79769e+308 in magnitude"),
], ids=["k", "k_values", "nx", "ns", "kernel-rate", "theta_values"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_integer_too_large_to_use_refused(tmp_path, capsys, command, extra, message):
    cfg = write_config(tmp_path, sweep_config(**extra))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unreadable_config_refused(tmp_path):
    with pytest.raises(ConfigError, match="config: cannot read"):
        load_config(tmp_path / "missing.json")
    with pytest.raises(ConfigError, match="config: cannot read"):
        load_config(tmp_path)  # a directory


def test_invalid_json_config_refused(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"nx": 20,')
    with pytest.raises(ConfigError, match="config: invalid JSON in"):
        load_config(path)


def test_certify_without_a_kernel_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, certify_config(0.0, kernel={"terms": []}))
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert "kernel.terms: certification needs a non-empty memory kernel" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_without_horizon_refused(tmp_path, capsys):
    doc = sweep_config()
    del doc["T"]
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: T: sweep needs a horizon\n"
    assert not out.exists()
