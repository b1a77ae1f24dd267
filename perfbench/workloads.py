"""Workload inputs, the timed operation of each workload, and its output gate.

Each workload has ``N_VARIANTS`` input variants; a seed picks
``seed % N_VARIANTS``.  Variants change values (k, initial data), never
sizes, so every seed costs the same and timings from different seeds are
comparable.  ``references.json`` holds the verdicts of every variant as
the code computed them when the benchmark was defined.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import sys
from pathlib import Path

WORKLOADS = ("aux_long", "sweep_k", "long_memory")
N_VARIANTS = 8
SWEEP_JOBS = 2  # = nproc of the machine the benchmark was defined on

# sigma_emp must agree with its reference to this relative tolerance.  A
# rewrite of the same scheme moves the energies by ~1e-10 relative and
# sigma_emp by less; a change of scheme moves it by the truncation error,
# O(dt^2) ~ 1e-6 or more at these grids.
SIGMA_RTOL = 1e-8
SIGMA_FLOOR = 1e-3  # scale used for sigma_emp values near zero

REFERENCES = Path(__file__).with_name("references.json")
ROOT = Path(__file__).resolve().parent.parent  # the checkout the benchmark lives in
SOURCE = ROOT / "src" / "viscodelay"


def import_program():
    """Import viscodelay from this checkout's ``src/``, never from elsewhere."""
    if not (SOURCE / "__init__.py").is_file():
        raise FileNotFoundError(f"no viscodelay sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE.parent))
    module = importlib.import_module("viscodelay")
    if Path(module.__file__).resolve().parent != SOURCE.resolve():
        raise ImportError(f"viscodelay imported from {module.__file__}, not {SOURCE}")
    return module


_AUX_K = (0.018, 0.0185, 0.019, 0.0195, 0.0205, 0.021, 0.0215, 0.022)
_SWEEP_KMAX = (0.0012, 0.0014, 0.0016, 0.0018, 0.002, 0.0022, 0.0024, 0.0026)
_LONG_CENTER = (0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7)


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The JSON run configuration the program sees for ``seed``.

    ``tiny`` shrinks grid and horizon for the benchmark's self-tests.
    """
    v = seed % N_VARIANTS
    if workload == "aux_long":
        cfg = {
            "kernel": {"terms": [{"a": 1.0, "b": 2.0}]},
            "nx": 200, "ns": 64, "tau": 1.0, "k": _AUX_K[v], "theta": 2.0,
            "mode": "auxiliary",
            "init": {"shape": "sine", "m": 1, "history": "frozen"},
            "T": 10.0, "sample_every": 400,
        }
        if tiny:
            cfg.update(nx=24, ns=16, T=4.0, sample_every=10)
    elif workload == "sweep_k":
        kmax = _SWEEP_KMAX[v]
        cfg = {
            "kernel": {"terms": [{"a": 1.0, "b": 2.0}]},
            "nx": 100, "tau": 1.0, "theta": 2.0, "mode": "original",
            "init": {"shape": "sine", "m": 1, "history": "frozen"},
            "T": 1.0,
            "k_values": [round(kmax * (2.0 * i / 15.0 - 1.0), 12) for i in range(16)],
            "theta_values": [1.5, 2.0, 3.0],
        }
        if tiny:
            cfg.update(nx=20, ns=16, T=1.0, k_values=cfg["k_values"][::5])
    elif workload == "long_memory":
        cfg = {
            "kernel": {"terms": [{"a": 2.0, "b": 8.0}, {"a": 0.02, "b": 0.05}]},
            "nx": 200, "ns": 64, "tau": 0.5, "k": 0.05, "theta": 2.0,
            "mode": "auxiliary",
            "init": {"shape": "gaussian", "center": _LONG_CENTER[v], "width": 0.1,
                     "history": "modulated", "omega": 1.0 + 0.5 * (v % 3)},
            "T": 2.0, "sample_every": 4, "snapshots": True,
        }
        if tiny:
            cfg.update(nx=24, ns=16, T=1.0, sample_every=2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cfg


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


class Operation:
    """One closed-loop operation: the program from config to verdict and outputs."""

    def __init__(self, workload: str, config_path: Path, out_dir: Path,
                 jobs: int = SWEEP_JOBS):
        self.workload = workload
        self.config_path = Path(config_path)
        self.out_dir = Path(out_dir)
        self.jobs = jobs
        self._library_result = None

    @property
    def processes(self) -> int:
        """How many processes compute at once during the operation."""
        return self.jobs if self.workload == "sweep_k" else 1

    def execute(self) -> int:
        """The timed part.  Returns the exit code of the command it runs."""
        cli = importlib.import_module("viscodelay.cli")
        if self.workload == "long_memory":
            self._library_result = _verify_pipeline(self.config_path)
            return 0
        if self.workload == "aux_long":
            argv = ["simulate"]
        else:
            argv = ["sweep", "--jobs", str(self.jobs)]
        argv += ["--config", str(self.config_path), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outcome(self) -> dict:
        """What the operation produced, read back after the timer stopped."""
        if self.workload == "long_memory":
            result, self._library_result = self._library_result, None
            return result
        if self.workload == "aux_long":
            return _read_simulate_outputs(self.out_dir)
        return _read_sweep_outputs(self.out_dir)


def _verify_pipeline(config_path: Path) -> dict:
    """The library "Verify" pipeline on a snapshot run."""
    # by module path: the package namespace binds `energy` to a function
    cli = importlib.import_module("viscodelay.cli")
    solver = importlib.import_module("viscodelay.solver")
    energy = importlib.import_module("viscodelay.energy")
    analysis = importlib.import_module("viscodelay.analysis")
    certificate = importlib.import_module("viscodelay.certificate")
    kernel = importlib.import_module("viscodelay.kernel")

    cfg = cli.load_config(config_path)
    params = cfg.params()
    disc = cfg.discretize()
    trace = solver.run(params, cfg.init, disc, cfg.horizon,
                       sample_every=cfg.sample_every, snapshots=cfg.snapshots)
    dissipation = energy.check_dissipation(trace, params)
    identity = analysis.check_memory_identity(trace, 0.0, cfg.horizon)
    fit = analysis.fit_decay_rate(trace)
    report = kernel.validate_kernel(cfg.kernel, cfg.tail_tol)
    cert = certificate.compute_constants(certificate.CertificateInputs(
        mu0=report.mu0, mu_tilde=report.mu_tilde, alpha=report.alpha,
        tau=cfg.tau, theta=cfg.theta, c_poincare=cfg.poincare(), k=cfg.k,
    ))
    f0 = float(trace.total[0])
    return {
        "aborted_step": trace.aborted_step,
        "energies": [float(x) for x in trace.total],
        "classification": analysis.classify(fit),
        "certified": bool(cert.certified),
        "sigma_emp": fit.sigma_emp,
        # known seed failures: reported, never gated
        "seed_failures": {
            "dissipation_passed": dissipation.passed,
            "dissipation_increment_rel": dissipation.max_increment / f0,
            "identity_residual": float(identity.residual),
        },
    }


def _read_simulate_outputs(out_dir: Path) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "energy.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    energies = [float(r[1]) for r in rows[1:]]
    fit = report["fit"]
    return {
        "aborted_step": report["aborted_step"],
        "energies": energies,
        "classification": report["classification"],
        "certified": None if report["certificate"] is None
        else report["certificate"]["certified"],
        "sigma_emp": None if fit is None else fit["sigma_emp"],
        "dissipation_passed": None if report["dissipation"] is None
        else report["dissipation"]["passed"],
        "svg_written": (out_dir / "energy.svg").stat().st_size > 0,
    }


def _read_sweep_outputs(out_dir: Path) -> dict:
    with open(out_dir / "sweep.csv", newline="") as fh:
        lines = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = lines[0], lines[1:]
    rows = []
    for cells in body:
        row = dict(zip(header, cells))
        rows.append({
            "k": float(row["k"]),
            "sigma_emp": float(row["sigma_emp"]),
            "r_squared": float(row["r_squared"]),
            "classification": row["classification"],
            "certified": _cell(row["certified"]),
            "theorem_bound_ok": _cell(row["theorem_bound_ok"]),
        })
    return {"rows": rows}


def _cell(text: str):
    return {"": None, "true": True, "false": False}[text]


def reference(workload: str, outcome: dict) -> dict:
    """The part of an outcome that later runs must reproduce."""
    if workload == "sweep_k":
        return {"rows": [
            {key: row[key] for key in
             ("k", "sigma_emp", "classification", "certified", "theorem_bound_ok")}
            for row in outcome["rows"]
        ]}
    ref = {key: outcome[key] for key in ("classification", "certified", "sigma_emp")}
    if workload == "long_memory":
        ref["seed_failures"] = outcome["seed_failures"]
    return ref


def _sigma_matches(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= SIGMA_RTOL * max(abs(want), SIGMA_FLOOR)


def _check_energies(energies: list, problems: list) -> None:
    if len(energies) < 2:
        problems.append(f"only {len(energies)} energy samples")
    bad = [e for e in energies if not (math.isfinite(e) and e > 0.0)]
    if bad:
        problems.append(f"{len(bad)} energies not finite and positive, first {bad[0]!r}")


def check(workload: str, exit_code: int, outcome: dict, ref: dict) -> list[str]:
    """Every way the operation's outputs differ from what is required."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if workload == "sweep_k":
        rows, want_rows = outcome["rows"], ref["rows"]
        if len(rows) != len(want_rows):
            return problems + [f"{len(rows)} sweep rows, expected {len(want_rows)}"]
        for row, want in zip(rows, want_rows):
            tag = f"row k={want['k']!r}"
            if not (math.isfinite(row["sigma_emp"]) and math.isfinite(row["r_squared"])):
                problems.append(f"{tag}: non-finite fit")
            for key in ("k", "classification", "certified", "theorem_bound_ok"):
                if row[key] != want[key]:
                    problems.append(f"{tag}: {key} {row[key]!r} != {want[key]!r}")
            if not _sigma_matches(row["sigma_emp"], want["sigma_emp"]):
                problems.append(
                    f"{tag}: sigma_emp {row['sigma_emp']!r} != {want['sigma_emp']!r}")
        return problems

    if outcome["aborted_step"] is not None:
        problems.append(f"aborted at step {outcome['aborted_step']}")
    _check_energies(outcome["energies"], problems)
    for key in ("classification", "certified"):
        if outcome[key] != ref[key]:
            problems.append(f"{key} {outcome[key]!r} != {ref[key]!r}")
    if not _sigma_matches(outcome["sigma_emp"], ref["sigma_emp"]):
        problems.append(f"sigma_emp {outcome['sigma_emp']!r} != {ref['sigma_emp']!r}")
    if workload == "aux_long":
        if outcome["dissipation_passed"] is not True:
            problems.append("dissipation check failed")
        if not outcome["svg_written"]:
            problems.append("energy.svg is empty")
    return problems
