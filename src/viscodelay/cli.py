"""Command line front end: certify / simulate / sweep / selfcheck.

The run configuration is a single JSON document; every output file embeds
the fully resolved configuration (including the snapped delay and the
derived time step) so results are reproducible from the artifact alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property, partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analysis, certificate, solver, svgplot
from .energy import check_dissipation
from .kernel import KernelInvalid, KernelReport, MemoryKernel, validate_kernel

__all__ = ["main", "ConfigError", "RunConfig", "load_config"]

CSV_FLOAT = "%.17g"
ENERGY_HEADER = "t,total,kinetic,elastic,memory,delay"
SWEEP_HEADER = ",".join(f.name for f in fields(analysis.SweepRow))
# the most k values a sweep advances as one batch; a worker runs one batch at
# a time, and each row of it has its own history, a slot per step up to n_hist
# plus the delay line (about 0.65 MB at nx = 100, T = 1, so 8 rows ~ 5 MB)
SWEEP_BATCH = 8


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# -- config ingestion -----------------------------------------------------------

@dataclass
class RunConfig:
    kernel: MemoryKernel = MemoryKernel()
    length: float = 1.0
    nx: int = 200
    cfl: float = 0.25
    ns: int = 64
    tail_tol: float = 1e-8
    tau: float = 0.0
    k: float = 0.0
    theta: float = 2.0
    mode: str = "original"
    delay_realization: str = "ring_buffer"
    memory_realization: str = "prony_modes"
    init: solver.InitialData = field(default_factory=solver.InitialData)
    horizon: float | None = None
    sample_every: int = 0
    snapshots: bool = False
    c_poincare: float | None = None
    k_values: list[float] | None = None
    theta_values: list[float] | None = None

    def params(self) -> solver.ModelParams:
        return solver.ModelParams(
            length=self.length, tau=self.tau, k=self.k, theta=self.theta,
            kernel=self.kernel, mode=self.mode,
            delay_realization=self.delay_realization,
            memory_realization=self.memory_realization,
        )

    def discretize(self) -> solver.Discretization:
        return solver.discretize(
            self.params(), nx=self.nx, cfl=self.cfl, ns=self.ns,
            tail_tol=self.tail_tol,
        )

    @cached_property
    def kernel_report(self) -> KernelReport:
        """The kernel validated at this config's own ``tail_tol``, once."""
        return validate_kernel(self.kernel, self.tail_tol)

    @cached_property
    def certificates(self) -> dict:
        """The certificate ``_best_certificate`` formed at each (k, tau), kept
        with the config, so a pickled config carries them to its worker."""
        return {}

    @cached_property
    def k_hats(self) -> dict:
        """k_hat at each (tau, theta), kept like ``certificates``: it does not
        depend on k, so ``_best_certificate`` bisects for it once."""
        return {}

    def poincare(self) -> float:
        if self.c_poincare is not None:
            return self.c_poincare
        return certificate.poincare_constant_interval(self.length)


# the largest integer the parser accepts: a count that sizes an array must
# be a numpy index
INDEX_MAX = int(np.iinfo(np.intp).max)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _as_float(value: int | float, where: str) -> float:
    """``float(value)``; an integer literal past the double range is refused
    (JSON's 1e400 parses as inf, but a 400-digit integer stays an int)."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(where, f"must be at most {sys.float_info.max:g} in magnitude") from None


def _get(doc: dict, key: str, path: str, kind, bound=None):
    """``doc[key]`` checked as ``kind``: "number" (a finite float), "integer",
    "bool", a tuple of choices, or a parser called with the value and its
    path; ``bound`` is (">" or ">=", lower bound) or None."""
    value = doc[key]
    where = f"{path}{key}"
    if callable(kind):
        return kind(value, where)
    if isinstance(kind, tuple):
        _require(value in kind, where, f"must be one of {sorted(kind)}")
    elif kind == "bool":
        _require(isinstance(value, bool), where, "expected true or false")
    elif kind == "integer":
        _require(isinstance(value, int) and not isinstance(value, bool),
                 where, f"expected an integer, got {value!r}")
        _require(value <= INDEX_MAX, where, f"must be at most {INDEX_MAX}")
    else:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 where, f"expected a number, got {value!r}")
        value = _as_float(value, where)
        _require(math.isfinite(value), where, "must be finite")
    if bound is not None:
        op, lo = bound
        _require(value > lo if op == ">" else value >= lo, where, f"must be {op} {lo}")
    return value


def _get_number_list(doc: dict, key: str, above: float | None = None) -> list[float]:
    values = doc[key]
    _require(isinstance(values, list) and values, key,
             "expected a non-empty list of numbers")
    message = "expected a number" if above is None else f"expected a number > {above:g}"
    parsed = []
    for i, v in enumerate(values):
        where = f"{key}[{i}]"
        _require(isinstance(v, (int, float)) and not isinstance(v, bool), where, message)
        v = _as_float(v, where)
        _require(above is None or v > above, where, message)
        _require(math.isfinite(v), where, "must be finite")
        parsed.append(v)
    return parsed


def _parse_kernel(doc, path: str) -> MemoryKernel:
    _require(isinstance(doc, dict), path, "expected an object with a 'terms' list")
    unknown = set(doc) - {"terms"}
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")
    terms = doc.get("terms", [])
    _require(isinstance(terms, list), f"{path}.terms", "expected a list")
    pairs = []
    for i, item in enumerate(terms):
        tpath = f"{path}.terms[{i}]"
        _require(isinstance(item, dict), tpath, "expected an object {a, b}")
        unknown = set(item) - {"a", "b"}
        _require(not unknown, tpath, f"unknown keys {sorted(unknown)}")
        _require("a" in item and "b" in item, tpath, "needs both 'a' and 'b'")
        a = item["a"]
        b = item["b"]
        _require(isinstance(a, (int, float)) and not isinstance(a, bool),
                 f"{tpath}.a", "expected a number")
        _require(isinstance(b, (int, float)) and not isinstance(b, bool),
                 f"{tpath}.b", "expected a number")
        pairs.append((_as_float(a, f"{tpath}.a"), _as_float(b, f"{tpath}.b")))
    return MemoryKernel.from_terms(pairs)


# (JSON key, InitialData field, kind, lower bound), as ``_get`` reads them
_INIT_KEYS = (
    ("shape", "shape", ("sine", "gaussian", "zero"), None),
    ("history", "history", ("frozen", "modulated"), None),
    ("m", "mode_index", "integer", (">=", 1)),
    ("center", "center", "number", None),
    ("width", "width", "number", (">", 0.0)),
    ("omega", "omega", "number", None),
)


def _parse_keys(doc: dict, path: str, keys) -> dict:
    """The fields of ``keys`` present in ``doc``, parsed, by field name;
    the dataclass defaults stand for the rest."""
    return {name: _get(doc, key, path, kind, bound)
            for key, name, kind, bound in keys if key in doc}


def _parse_init(doc, path: str) -> solver.InitialData:
    _require(isinstance(doc, dict), path, "expected an object")
    unknown = set(doc) - {key for key, *_ in _INIT_KEYS}
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")
    fields = _parse_keys(doc, f"{path}.", _INIT_KEYS)
    try:
        return solver.InitialData(**fields)
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


# (JSON key, RunConfig field, kind, lower bound), as ``_get`` reads them
_RUN_KEYS = (
    ("kernel", "kernel", _parse_kernel, None),
    ("L", "length", "number", (">", 0.0)),
    ("nx", "nx", "integer", (">=", 3)),
    ("cfl", "cfl", "number", (">", 0.0)),
    ("ns", "ns", "integer", (">=", 2)),
    ("tail_tol", "tail_tol", "number", (">", 0.0)),
    ("tau", "tau", "number", (">=", 0.0)),
    ("k", "k", "number", None),
    ("theta", "theta", "number", (">", 0.0)),
    ("mode", "mode", solver.MODES, None),
    ("delay_realization", "delay_realization", solver.DELAY_REALIZATIONS, None),
    ("memory_realization", "memory_realization", solver.MEMORY_REALIZATIONS, None),
    ("init", "init", _parse_init, None),
    ("T", "horizon", "number", (">=", 0.0)),
    ("sample_every", "sample_every", "integer", (">=", 0)),
    ("c_poincare", "c_poincare", "number", (">", 0.0)),
    ("snapshots", "snapshots", "bool", None),
)
_SWEEP_KEYS = ("k_values", "k_min", "k_max", "count", "theta_values")


def parse_config(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config", "top level must be a JSON object")
    unknown = set(doc) - {key for key, *_ in _RUN_KEYS} - set(_SWEEP_KEYS)
    _require(not unknown, "config", f"unknown keys {sorted(unknown)}")
    cfg = RunConfig(**_parse_keys(doc, "", _RUN_KEYS))
    _require(cfg.cfl <= 0.5, "cfl", "must be <= 0.5 (explicit scheme stability)")
    _require(cfg.tail_tol < 1.0, "tail_tol", "must be < 1.0")
    try:
        cfg.kernel_report
    except KernelInvalid as err:
        raise ConfigError("kernel.terms", str(err)) from err

    if "k_values" in doc:
        cfg.k_values = _get_number_list(doc, "k_values")
        for key in ("k_min", "k_max", "count"):
            _require(key not in doc, key, "mutually exclusive with k_values")
    elif any(key in doc for key in ("k_min", "k_max", "count")):
        for key in ("k_min", "k_max", "count"):
            _require(key in doc, key, "k_min, k_max and count go together")
        k_min = _get(doc, "k_min", "", "number")
        k_max = _get(doc, "k_max", "", "number")
        count = _get(doc, "count", "", "integer", (">=", 2))
        _require(k_max > k_min, "k_max", "must exceed k_min")
        # np.empty is the probe: np.linspace fails with an IndexError near INDEX_MAX
        solver._reserve(lambda: np.empty(count), (count,), (), "the sweep",
                        f"count={count} values of k", "lower count", partial(ConfigError, "count"))
        cfg.k_values = [float(v) for v in np.linspace(k_min, k_max, count)]
    if "theta_values" in doc:
        cfg.theta_values = _get_number_list(doc, "theta_values", above=1.0)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON in {path}: {err}") from err
    return parse_config(doc)


def resolved_config(cfg: RunConfig, disc: solver.Discretization | None,
                    seed: int) -> dict:
    out = {key: getattr(cfg, name) for key, name, *_ in _RUN_KEYS}
    out.update(
        kernel={"terms": [{"a": a, "b": b} for a, b in cfg.kernel.terms]},
        init={key: getattr(cfg.init, name) for key, name, *_ in _INIT_KEYS},
        c_poincare=cfg.poincare(),
        seed=seed,
    )
    if cfg.k_values is not None:
        out["k_values"] = cfg.k_values
    if cfg.theta_values is not None:
        out["theta_values"] = cfg.theta_values
    if disc is not None:
        out["resolved"] = {
            "dx": disc.dx,
            "dt": disc.dt,
            "tau_snapped": disc.tau,
            "n_delay": disc.n_delay,
            "s_max": disc.s_max,
            "ns": disc.ns,
        }
    return out


def _config_comment(resolved: dict) -> str:
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


# -- certify ---------------------------------------------------------------------

def _certificate_inputs(cfg: RunConfig, tau: float | None = None,
                        theta: float | None = None,
                        k: float | None = None) -> certificate.CertificateInputs:
    if cfg.kernel.is_empty:
        raise ConfigError("kernel.terms",
                          "certification needs a non-empty memory kernel")
    report = cfg.kernel_report
    return certificate.CertificateInputs(
        mu0=report.mu0,
        mu_tilde=report.mu_tilde,
        alpha=report.alpha,
        tau=cfg.tau if tau is None else tau,
        theta=cfg.theta if theta is None else theta,
        c_poincare=cfg.poincare(),
        k=cfg.k if k is None else k,
    )


def cmd_certify(cfg: RunConfig, out_dir: Path, seed: int) -> int:
    """The certificate at the config's k and tau: at its theta, or the best
    over ``theta_values`` when given, as ``simulate`` and ``sweep`` form it."""
    inputs = _certificate_inputs(cfg)
    report = (certificate.compute_constants(inputs) if cfg.theta_values is None
              else _best_certificate(cfg, cfg.k, cfg.tau))
    inputs = report.inputs
    flat = report.as_flat_dict()
    flat["nodelay_threshold"] = certificate.nodelay_threshold(
        inputs.mu0, inputs.mu_tilde, inputs.alpha, inputs.c_poincare
    )
    resolved = resolved_config(cfg, None, seed)
    doc = {"config": resolved, **flat}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "certificate.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )
    lines = [f"config = {_config_comment(resolved)}"]
    for name in sorted(flat):
        if name == "inputs":
            for iname in sorted(flat["inputs"]):
                lines.append(f"inputs.{iname} = {flat['inputs'][iname]!r}")
        else:
            lines.append(f"{name} = {flat[name]!r}")
    (out_dir / "certificate.txt").write_text("\n".join(lines) + "\n")
    certified = flat["certified"]
    print(f"k = {inputs.k:g}, k0 = {report.k0:.6g}: "
          f"{'certified' if certified else 'NOT certified'}")
    return 0 if certified else 2


# -- simulate --------------------------------------------------------------------

def _write_table(path: Path, header: str, rows: np.ndarray, resolved: dict) -> None:
    np.savetxt(path, rows, fmt=CSV_FLOAT, delimiter=",", comments="",
               header=f"# config {_config_comment(resolved)}\n{header}")


def _best_certificate(cfg: RunConfig, k: float, tau: float):
    """Certificate report at |k| and delay ``tau``, best sigma over theta_values
    (the first best); None without a kernel or a theta above 1.  Formed once
    per (k, tau) and kept in ``cfg.certificates``, from the k_hat of each
    (tau, theta) kept in ``cfg.k_hats``."""
    if cfg.kernel.is_empty:
        return None
    if (k, tau) not in cfg.certificates:
        thetas = [theta for theta in cfg.theta_values or [cfg.theta] if theta > 1.0]
        reports = []
        for theta in thetas:
            report = certificate.compute_constants(
                _certificate_inputs(cfg, tau=tau, theta=theta, k=k), cfg.k_hats.get((tau, theta)))
            cfg.k_hats[tau, theta] = report.k_hat
            reports.append(report)
        cfg.certificates[k, tau] = max(reports, key=lambda report: report.sigma, default=None)
    return cfg.certificates[k, tau]


def _preflight(cfg: RunConfig, command: str, ks: list[float]) -> solver.Discretization:
    """The grid ``command`` runs ``ks`` on, after the refusals that need
    neither a step nor an allocation: no horizon, a grid ``discretize``
    refuses, damping too stiff for any k (so no batch of a sweep refuses
    it after another has stepped), a certificate that cannot be formed.  A
    step count the run's plan cannot count and an array it cannot allocate
    are ``solver.run``'s to refuse, before its first step.

    The certificate is formed at ``ks[0]`` only: its inputs depend on k
    through its finiteness alone, which the parser has checked, so the
    other rows' certificates form too.  It is kept on ``cfg`` for
    ``_judge``, with the k_hat of each theta, so no row's certificate, in
    this process or a sweep's worker, bisects again.  Nothing is stepped or
    written.
    """
    if cfg.horizon is None:
        raise ConfigError("T", f"{command} needs a horizon")
    disc = cfg.discretize()
    solver.refuse_stiff_damping(cfg.params(), disc, ks)
    _best_certificate(cfg, ks[0], disc.tau)
    return disc


def _judge(cfg: RunConfig, trace: solver.Trace, k: float):
    """(fit, classification, certificate, envelope check) of a finished run at ``k``.

    An aborted run is ``growing``, with no fit and no envelope check: with
    stiff rates refused, only real growth outruns the float range.  Else
    the fit is None when too few samples survive.  The certificate (best
    over theta at |k| and the snapped delay, as ``_preflight`` formed it
    for the first k) is None without a kernel, and the envelope is checked
    only in original mode with a certified |k| and a positive certified
    rate.  Nothing here raises once ``_preflight`` has passed.
    """
    cert = _best_certificate(cfg, k, trace.disc.tau)
    if trace.aborted_step is not None:
        return None, "growing", cert, None
    try:
        fit = analysis.fit_decay_rate(trace)
        classification = analysis.classify(fit)
    except analysis.InsufficientData:
        fit, classification = None, "inconclusive"
    theorem = None
    if cert is not None and cfg.mode == "original" and cert.sigma > 0.0 and cert.certified:
        theorem = analysis.check_theorem_bound(trace, cert.sigma)
    return fit, classification, cert, theorem


def cmd_simulate(cfg: RunConfig, out_dir: Path, seed: int) -> int:
    """Run ``cfg`` once and write energy.csv, report.json, energy.svg (and
    snapshots.csv); a refusal by ``_preflight`` or by the run's set-up
    writes nothing."""
    disc = _preflight(cfg, "simulate", [cfg.k])
    params = cfg.params()
    resolved = resolved_config(cfg, disc, seed)
    trace = solver.run(params, cfg.init, disc, cfg.horizon,
                       sample_every=cfg.sample_every, snapshots=cfg.snapshots)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "energy.csv", ENERGY_HEADER, np.column_stack((
        trace.times, trace.total, trace.kinetic, trace.elastic, trace.memory, trace.delay,
    )), resolved)
    if cfg.snapshots:
        header = "t," + ",".join(f"u{i}" for i in range(1, disc.nx + 1))
        _write_table(out_dir / "snapshots.csv", header, np.column_stack((
            [snap.t for snap in trace.snapshots], [snap.u for snap in trace.snapshots],
        )), resolved)

    fit, classification, cert, theorem = _judge(cfg, trace, cfg.k)
    dissipation = None
    if cfg.mode == "auxiliary" and trace.aborted_step is None:
        dissipation = check_dissipation(trace, params)

    report_doc = {
        "config": resolved,
        "aborted_step": trace.aborted_step,
        "classification": classification,
        "fit": None if fit is None else asdict(fit),
        "certificate": None if cert is None else cert.as_flat_dict(),
        "theorem_bound": None if theorem is None else asdict(theorem),
        "dissipation": None if dissipation is None else {
            name: value for name, value in asdict(dissipation).items() if name != "n_pairs"},
    }
    (out_dir / "report.json").write_text(
        json.dumps(report_doc, sort_keys=True, indent=2) + "\n"
    )

    series = [(trace.times, trace.total, "F(t)")]
    if cert is not None and cert.sigma > 0.0 and trace.total[0] > 0.0:
        envelope = trace.total[0] * np.exp(1.0 - cert.sigma * trace.times)
        series.append((trace.times, envelope, "certified envelope"))
    svg = svgplot.render_log_plot(
        series, title="energy decay", comment=f"config {_config_comment(resolved)}"
    )
    (out_dir / "energy.svg").write_text(svg + "\n")

    if trace.aborted_step is not None:
        print(f"aborted: non-finite state at step {trace.aborted_step}", file=sys.stderr)
        return 1
    print(f"classification: {classification}"
          + (f", sigma_emp = {fit.sigma_emp:.6g}" if fit is not None else ""))
    return 0


# -- sweep -----------------------------------------------------------------------

def _sweep_row(cfg: RunConfig, trace: solver.Trace, k: float) -> analysis.SweepRow:
    """One row's verdict from its trace, as ``_judge`` gives it; an aborted
    row keeps its abort step as error text."""
    fit, classification, cert, theorem = _judge(cfg, trace, k)
    return analysis.SweepRow(
        k=k,
        sigma_emp=math.nan if fit is None else fit.sigma_emp,
        r_squared=math.nan if fit is None else fit.r_squared,
        classification=classification,
        certified=None if cert is None else cert.certified,
        theorem_bound_ok=None if theorem is None else theorem.ok,
        error=(None if trace.aborted_step is None
               else f"non-finite at step {trace.aborted_step}"),
    )


def _sweep_batch(cfg: RunConfig, disc: solver.Discretization,
                 ks: list[float]) -> list[analysis.SweepRow]:
    """The rows of ``ks``, advanced as one batch.  A refusal by the run
    propagates, so the sweep fails as ``simulate`` does."""
    traces = solver.run(cfg.params(), cfg.init, disc, cfg.horizon,
                        sample_every=cfg.sample_every, ks=ks)
    return [_sweep_row(cfg, trace, k) for trace, k in zip(traces, ks)]


def _cell(value) -> str:
    """One sweep.csv cell: a float to full precision, a flag as true or
    false, None empty, text as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return CSV_FLOAT % value if isinstance(value, float) else value


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported only when a sweep forks: the
    import loads multiprocessing, a sizeable share of a command's start-up."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _sweep_batches(ks: list[float], jobs: int) -> list[list[float]]:
    """``ks`` in order, cut into contiguous batches of at most SWEEP_BATCH
    rows and at least one per job (while rows last), their sizes within one
    of each other, the larger first: a worker pays a step's and a sample's
    fixed cost once per batch, so fewer, fuller batches cost less."""
    n = len(ks)
    count = max(-(-n // SWEEP_BATCH), min(jobs, n))
    size, larger = divmod(n, count or 1)
    edges = [i * size + min(i, larger) for i in range(count + 1)]
    return [ks[a:b] for a, b in zip(edges, edges[1:])]


def cmd_sweep(cfg: RunConfig, out_dir: Path, seed: int, jobs: int) -> int:
    """Run every k of ``cfg`` on the one grid ``_preflight`` builds (it does
    not depend on k) and write sweep.csv, a row per k; a refusal by
    ``_preflight`` or by a batch's run refuses the whole sweep and writes
    nothing, as ``simulate`` does."""
    if cfg.k_values is None:
        raise ConfigError("k_values", "sweep needs k_values or (k_min, k_max, count)")
    ks = sorted(cfg.k_values)
    disc = _preflight(cfg, "sweep", ks)
    resolved = resolved_config(cfg, disc, seed)
    batches = _sweep_batches(ks, jobs)
    workers = min(jobs, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_batch, repeat(cfg), repeat(disc), batches))
    else:
        done = [_sweep_batch(cfg, disc, batch) for batch in batches]
    rows = [row for batch in done for row in batch]

    text = io.StringIO()
    text.write(f"# config {_config_comment(resolved)}\n{SWEEP_HEADER}\n")
    # the csv module quotes error text that holds commas or quotes
    csv.writer(text, lineterminator="\n").writerows(map(_cell, astuple(row)) for row in rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text(text.getvalue())
    n_err = sum(1 for row in rows if row.error is not None)
    print(f"sweep: {len(rows)} rows, {n_err} failures")
    return 0


# -- selfcheck -------------------------------------------------------------------

def _check_worked_constants() -> tuple[str, list[str]]:
    """Pinned rational identities of the worked kernel mu(t) = e^{-2t}, theta = 2."""
    problems = []
    c_p = 1.0 / math.pi ** 2
    inputs = certificate.CertificateInputs(
        mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=1.0, theta=2.0, c_poincare=c_p, k=0.0
    )
    report = certificate.compute_constants(inputs)
    expected = {
        "c0": 2.0,
        "c1": 8.0 + 8.0 * c_p,
        "c2": 20.0 + 20.0 * c_p,
        "c_star": 68.0 + 68.0 * c_p,
        "c_big": 69.5 + 68.0 * c_p,
        "gamma1": 495.0 / 8.0,
        "gamma2": 45.0 + 73.0 * c_p,
        "k0_explicit_lb": 8.0 * math.exp(-2.0) / (1231.0 + 1168.0 * c_p),
    }
    rel_errors = {}
    for name, want in expected.items():
        got = getattr(report, name)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"{name}: got {got!r}, expected {want!r}")
        rel_errors[name] = abs(got - want) / abs(want)
    worst = max(rel_errors, key=rel_errors.get)
    return f"worst relative error {rel_errors[worst]:.3e} ({worst}), limit 1e-12", problems


def _check_wave_convergence() -> tuple[str, list[str]]:
    """Pure-wave order check: max error must drop by >= 3.5x per dx halving."""
    horizon = 1.7
    errors = []
    for nx in (24, 49):
        params = solver.ModelParams()
        disc = solver.discretize(params, nx=nx, cfl=0.25)
        init = solver.InitialData(shape="sine", mode_index=1, history="frozen")
        state = solver.run(params, init, disc, horizon).final_state
        x = disc.x_interior()
        exact = np.sin(np.pi * x) * math.cos(math.pi * state.t)
        errors.append(float(np.abs(state.u - exact).max()))
    ratio = errors[0] / errors[1]
    detail = (f"max errors {errors[0]:.4e} (nx=24), {errors[1]:.4e} (nx=49), "
              f"ratio {ratio:.3f}, minimum 3.5")
    return detail, [] if ratio >= 3.5 else [f"convergence ratio {ratio:.2f} < 3.5"]


def _check_dissipativity(seed: int) -> tuple[str, list[str]]:
    kernel = MemoryKernel.from_terms([(1.0, 2.0)])
    params = solver.ModelParams(tau=1.0, k=0.0, theta=2.0, kernel=kernel)
    disc = solver.discretize(params, nx=40, ns=24)
    report = solver.dissipativity_spot_check(params, disc, trials=8,
                                             c_shift=1e-8, seed=seed)
    detail = f"max quotient {report.max_quotient:.4e} over {report.trials} trials, limit 1e-8"
    return detail, [] if report.passed else ["max quotient exceeds 1e-8"]


def cmd_selfcheck(seed: int) -> int:
    """Run each check and print the numbers it compared, one line per check."""
    checks = [
        ("worked-example constants", _check_worked_constants),
        ("pure-wave convergence", _check_wave_convergence),
        ("dissipativity spot check", lambda: _check_dissipativity(seed)),
    ]
    failed = 0
    for name, fn in checks:
        detail, problems = fn()
        if problems:
            failed += 1
            print(f"FAIL {name}: " + "; ".join(problems) + f" ({detail})")
        else:
            print(f"PASS {name}: {detail}")
    return 0 if failed == 0 else 1


# -- entry point -----------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscodelay",
        description="Simulate and certify the viscoelastic wave equation "
                    "with delayed velocity feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("certify", True), ("simulate", True),
                               ("sweep", True), ("selfcheck", False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
            p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if name == "sweep":
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="worker processes (default 1: run in this process)")
    args = parser.parse_args(argv)

    try:
        if args.command == "selfcheck":
            return cmd_selfcheck(args.seed)
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir, args.seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.seed)
        return cmd_sweep(cfg, out_dir, args.seed, args.jobs)
    except (ConfigError, KernelInvalid, certificate.InvalidInputs,
            solver.SolverError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
