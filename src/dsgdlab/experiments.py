"""Batch experiment campaigns: config parsing, seeded Monte-Carlo runs of the
consensus, critical-point and saddle-avoidance claims (one runner driven by the
`SEED_CAMPAIGNS` table), drift diagnostics near saddle points, and
consolidated manifold verification. `RUNNERS` maps every kind to its runner.

Configs are flat INI files (one section per concern); identical configs
produce byte-identical result records. Seeds run vectorized in chunks
dispatched to a bounded worker pool (DSGDLAB_WORKERS), and records are
assembled sorted by seed, so scheduling never changes output.
"""

from __future__ import annotations

import configparser
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .engine import NoiseModel, run_batch
from .errors import ConfigError, DsgdLabError
from .graphs import (
    complete_graph,
    consensus_penalty,
    constraint_rotation,
    laplacian,
    load_graph,
    path_graph,
    penalty_from_matrix,
    ring_graph,
    star_graph,
)
from .losses import (
    check_coercivity,
    l1_regularized,
    monomial_loss,
    quadratic_saddle,
    separable_polynomial,
    shifted_quadratic,
    sum_loss,
    zero_loss,
)
from .manifold import ManifoldModel, PicardOptions, evolution_operator, saddle_context
from .records import config_hash
from .rectify import (
    autonomous_restriction,
    compare_flattening_limit,
    dt_phi_decay_probe,
    rectified_field_spectrum,
    repulsion_check,
)
from .schedules import ConstantGamma, Schedule, interpolate_gamma, validate

DEFAULT_SEED_CHUNK = 64


def worker_count():
    raw = os.environ.get("DSGDLAB_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return min(2, os.cpu_count() or 1)


# -- config ------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    kind: str
    name: str
    sections: dict
    path: str = ""

    @property
    def hash(self):
        return config_hash(self.sections)

    def get(self, section, key, default=None, cast=str):
        try:
            raw = self.sections[section][key]
        except KeyError:
            if default is None:
                raise ConfigError(f"missing config key [{section}] {key}")
            return default
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    def has(self, section, key):
        return section in self.sections and key in self.sections[section]


def load_config(path):
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    if "experiment" not in sections or "kind" not in sections["experiment"]:
        raise ConfigError("config needs [experiment] kind = ...")
    kind = sections["experiment"]["kind"]
    if kind not in KNOWN_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {KNOWN_KINDS}")
    name = sections["experiment"].get("name", kind)
    return ExperimentConfig(kind, name, sections, str(path))


def parse_seeds(spec):
    """Distinct non-negative seeds from `lo:hi` or a comma/space list."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad seed list {spec!r}; use lo:hi or a comma list") from exc
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be non-negative: {spec!r}")
    if not seeds:
        raise ConfigError(f"seed list {spec!r} is empty")
    if len(set(seeds)) < len(seeds):
        repeated = next(s for i, s in enumerate(seeds) if s in seeds[:i])
        raise ConfigError(f"seed {repeated} is listed more than once")
    return seeds


def parse_steps(config):
    steps = config.get("run", "steps", cast=int)
    if steps < 0:
        raise ConfigError(f"[run] steps must be >= 0, got {steps}")
    return steps


def parse_vector(spec):
    try:
        return np.array([float(v) for v in spec.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"bad vector {spec!r}; use numbers separated by spaces "
                          "or commas") from exc


def parse_vectors(spec):
    return [parse_vector(part) for part in spec.split(";") if part.strip()]


def build_graph(spec):
    kind, _, arg = spec.partition(":")
    if kind == "file":
        try:
            return load_graph(arg)
        except OSError as exc:
            raise ConfigError(f"cannot read graph file {arg}: {exc}") from exc
    builders = {"path": path_graph, "complete": complete_graph,
                "star": star_graph, "ring": ring_graph}
    if kind not in builders:
        raise ConfigError(f"unknown graph spec {spec!r}")
    try:
        return builders[kind](int(arg))
    except ValueError as exc:
        raise ConfigError(f"bad graph spec {spec!r}: {exc}") from exc


def build_schedule(config):
    sched = Schedule(config.get("schedule", "alpha_scale", cast=float),
                     config.get("schedule", "tau_alpha", cast=float),
                     config.get("schedule", "gamma_scale", cast=float),
                     config.get("schedule", "tau_gamma", cast=float))
    try:
        validate(sched)
    except DsgdLabError as exc:
        raise ConfigError(str(exc)) from exc
    return sched


def build_noise(config):
    return NoiseModel(config.get("noise", "kind", "none"),
                      config.get("noise", "scale", 0.0, float), 0,
                      config.get("noise", "restrict_to_constraint", False, bool))


def saddle_quartic_component(n_agents):
    # (y1^2 - y2^2)/2 + y2^4/4 split evenly across agents
    s = 1.0 / n_agents
    return separable_polynomial({0: {2: 0.5 * s}, 1: {2: -0.5 * s, 4: 0.25 * s}}, dim=2)


def saddle_quadratic_component(n_agents):
    # per-agent curvature +-1 (not split by N): the steeper unstable direction
    # keeps the conditional drift statistically detectable at desk scale
    del n_agents
    return separable_polynomial({0: {2: 0.5}, 1: {2: -0.5}}, dim=2)


@dataclass
class Problem:
    losses: object            # SumLoss
    q: object
    graph: object
    n_agents: int
    agent_dim: int
    known: dict = field(default_factory=dict)

    @property
    def assembled(self):
        return self.losses.assembled


def build_problem(config):
    key = config.get("problem", "loss")
    graph = build_graph(config.get("problem", "graph"))
    if not graph.is_connected():
        raise ConfigError("communication graph must be connected")

    if key == "zero":
        d = config.get("problem", "agent_dim", cast=int)
        comps = [zero_loss(d) for _ in range(graph.vertex_count)]
        losses = sum_loss(comps)
        known = {}
    elif key in ("quadratic_wells", "l1_wells"):
        anchors = parse_vectors(config.get("problem", "anchors"))
        if len(anchors) != graph.vertex_count:
            raise ConfigError("anchors must give one vector per agent")
        d = len(anchors[0])
        comps = [shifted_quadratic(a) for a in anchors]
        minimizer = np.mean(anchors, axis=0)
        if key == "l1_wells":
            w = config.get("problem", "l1_weight", cast=float)
            comps = [l1_regularized(c, w) for c in comps]
            minimizer = np.sign(minimizer) * np.maximum(np.abs(minimizer) - w, 0.0)
        losses = sum_loss(comps)
        known = {"minimizer": minimizer}
    elif key in ("saddle_quartic", "saddle_quadratic"):
        n = graph.vertex_count
        comp = saddle_quartic_component(n) if key == "saddle_quartic" \
            else saddle_quadratic_component(n)
        losses = sum_loss([comp] * n)
        d = 2
        known = {"saddle": np.zeros(2)}
        if key == "saddle_quartic":
            known["minima"] = [np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    else:
        raise ConfigError(f"unknown loss key {key!r}")

    q = consensus_penalty(laplacian(graph), d)
    return Problem(losses, q, graph, graph.vertex_count, d, known)


def initial_states(config, problem, seeds):
    """Per-seed initial stacked states, deterministic in the seed list."""
    mode = config.get("init", "mode", "consensual")
    m = problem.n_agents * problem.agent_dim
    if mode == "consensual":
        y = parse_vector(config.get("init", "value"))
        if len(y) != problem.agent_dim:
            raise ConfigError("init value must have the agent dimension")
        return np.tile(np.tile(y, problem.n_agents), (len(seeds), 1))
    if mode == "stacked":
        x = parse_vector(config.get("init", "value"))
        if len(x) != m:
            raise ConfigError("stacked init value must have the full dimension")
        return np.tile(x, (len(seeds), 1))
    if mode == "gaussian":
        scale = config.get("init", "scale", 1.0, float)
        out = np.empty((len(seeds), m))
        for i, s in enumerate(seeds):
            gen = np.random.default_rng(np.random.SeedSequence([int(s), 0xD5]))
            out[i] = scale * gen.standard_normal(m)
        return out
    raise ConfigError(f"unknown init mode {mode!r}")


# -- campaign plumbing ---------------------------------------------------------


@dataclass
class CampaignResult:
    kind: str
    name: str
    config_hash: str
    fields: list
    records: list
    aggregates: dict
    summarize: object  # records -> aggregates, the function that produced them
    version: str = __version__

    def recompute_aggregates(self):
        """Aggregates must be a pure function of the per-seed records."""
        return self.summarize(self.records)


def _run_seed_chunks(fn, seeds, chunk=DEFAULT_SEED_CHUNK):
    """Dispatch seed chunks to the bounded pool; reassemble sorted by seed."""
    ordered = sorted(seeds)
    chunks = [ordered[i:i + chunk] for i in range(0, len(ordered), chunk)]
    if len(chunks) == 1 or worker_count() == 1:
        parts = [fn(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            parts = list(pool.map(fn, chunks))
    records = [rec for part in parts for rec in part]
    return sorted(records, key=lambda r: r["seed"])


def aggregate(kind, records):
    """Aggregates of a seed campaign: a pure function of its per-seed records."""
    if not records:
        return {}
    return {**SEED_CAMPAIGNS[kind].summarize(records),
            "diverged": int(sum(r["diverged_at"] >= 0 for r in records))}


def campaign_setup(config, known):
    """Problem, schedule, noise and sorted seeds of a seeded campaign; the
    problem must have the `known` point the campaign measures against."""
    problem = build_problem(config)
    if known is not None and known not in problem.known:
        raise ConfigError(f"{config.kind} experiments need a loss with a known {known}")
    return (problem, build_schedule(config), build_noise(config),
            sorted(parse_seeds(config.get("run", "seeds"))))


# -- seed campaigns --------------------------------------------------------------


def _terminal_mean(batch, row, problem):
    return batch.final_states[row].reshape(problem.n_agents,
                                           problem.agent_dim).mean(axis=0)


def _consensus_record(batch, row, problem, tol):
    cons = batch.consensus_error[row]
    below = np.flatnonzero(cons < tol)
    return {"terminal_consensus": float(cons[-1]),
            "first_passage_step": int(batch.steps[below[0]]) if len(below) else -1,
            "below_tol": bool(cons[-1] < tol)}


def _spread(records, key, flag):
    """Max and median of column `key`, and the fraction of rows with `flag`."""
    vals = np.array([r[key] for r in records])
    return {f"max_{key}": float(vals.max()), f"median_{key}": float(np.median(vals)),
            f"fraction_{flag}": float(np.mean([r[flag] for r in records]))}


def _critical_point_record(batch, row, problem, tol):
    mean = _terminal_mean(batch, row, problem)
    dist = float(np.linalg.norm(mean - problem.known["minimizer"]))
    return {"distance": dist,
            "grad_norm": float(batch.grad_norm[row, -1]),
            "terminal_consensus": float(batch.consensus_error[row, -1]),
            "within_tol": bool(dist < tol)}


def _critical_point_summary(records):
    return {**_spread(records, "distance", "within_tol"),
            "max_grad_norm": float(max(r["grad_norm"] for r in records))}


def classify_terminal(mean, known, radius):
    if np.linalg.norm(mean - known["saddle"]) <= radius:
        return "saddle"
    for m in known.get("minima", []):
        if np.linalg.norm(mean - m) <= radius:
            return "minimum"
    return "other"


def _saddle_record(batch, row, problem, radius):
    mean = _terminal_mean(batch, row, problem)
    return {"class": classify_terminal(mean, problem.known, radius),
            "mean_y1": float(mean[0]),
            "mean_y2": float(mean[1]),
            "terminal_consensus": float(batch.consensus_error[row, -1])}


def _saddle_summary(records):
    classes = [r["class"] for r in records]
    return {f"fraction_{c}": classes.count(c) / len(classes)
            for c in ("saddle", "minimum", "other")}


@dataclass(frozen=True)
class SeedCampaign:
    """A seeded Monte-Carlo claim: the columns between `seed` and
    `diverged_at`, computed per row of each finished batch."""
    known: object             # point the loss must have, or None
    tol_key: str              # [tolerances] key passed to `record` as tol
    tol_default: float
    fields: tuple
    record: object            # (batch, row, problem, tol) -> {field: value}
    summarize: object         # records -> aggregates other than `diverged`
    coercive: bool = False    # refuse losses failing the sampled coercivity check


SEED_CAMPAIGNS = {
    "consensus": SeedCampaign(
        None, "consensus_tol", 1e-3,
        ("terminal_consensus", "first_passage_step", "below_tol"),
        _consensus_record,
        lambda records: _spread(records, "terminal_consensus", "below_tol")),
    "critical-point": SeedCampaign(
        "minimizer", "distance_tol", 1e-2,
        ("distance", "grad_norm", "terminal_consensus", "within_tol"),
        _critical_point_record, _critical_point_summary, coercive=True),
    "saddle-avoidance": SeedCampaign(
        "saddle", "classification_radius", 0.1,
        ("class", "mean_y1", "mean_y2", "terminal_consensus"),
        _saddle_record, _saddle_summary),
}


def run_seed_campaign(config):
    """Run every seed of a SEED_CAMPAIGNS kind for `steps` steps from its
    initial state; one record per seed."""
    spec = SEED_CAMPAIGNS[config.kind]
    problem, schedule, noise, seeds = campaign_setup(config, spec.known)
    steps = parse_steps(config)
    tol = config.get("tolerances", spec.tol_key, spec.tol_default, float)
    if spec.coercive:
        radius = config.get("tolerances", "coercivity_radius", 10.0, float)
        if not check_coercivity(problem.assembled, radius, 500, seed=0).passed:
            raise ConfigError("loss fails the sampled coercivity check")
    rotation = constraint_rotation(problem.q)
    inits = initial_states(config, problem, seeds)
    row_of = {seed: row for row, seed in enumerate(seeds)}

    def run_chunk(chunk_seeds):
        batch = run_batch(inits[[row_of[s] for s in chunk_seeds]], steps,
                          problem.assembled, problem.q, schedule, noise, chunk_seeds,
                          rotation=rotation, n_agents=problem.n_agents)
        return [{"seed": int(seed), **spec.record(batch, row, problem, tol),
                 "diverged_at": int(batch.diverged_at[row])}
                for row, seed in enumerate(chunk_seeds)]

    records = _run_seed_chunks(run_chunk, seeds)
    summarize = partial(aggregate, config.kind)
    return CampaignResult(config.kind, config.name, config.hash,
                          ["seed", *spec.fields, "diverged_at"], records,
                          summarize(records), summarize)


# -- drift statistics ------------------------------------------------------------


def build_saddle_model(config, problem, schedule):
    gamma = interpolate_gamma(schedule)
    saddle = np.tile(problem.known["saddle"], problem.n_agents)
    ctx = saddle_context(problem.assembled, problem.q, gamma, saddle)
    t_start = config.get("drift", "t_start", 4.0, float)
    t_end = config.get("drift", "t_end", 10.0, float)
    radius = config.get("drift", "validity_radius", 0.3, float)
    return ManifoldModel(ctx, t_start, t_end, radius=radius)


def _restart_series(problem, schedule, noise, model, seeds, k0, window_factor):
    """S_k = eta(z(k), zeta_k) per seed over the window [k0, window_factor k0],
    restarting on the manifold (at the saddle) at index k0. Rows are censored
    once the state leaves the validity ball."""
    steps = int((window_factor - 1) * k0)
    saddle = model.context.saddle
    n_seeds = len(seeds)
    s_series = np.full((n_seeds, steps), np.nan)
    censor = np.full(n_seeds, -1, dtype=int)
    n_u = model.context.n_u

    def callback(kk, zeta, x, active):
        z = model.coordinate_change(x, float(zeta))
        inside = np.linalg.norm(z, axis=1) <= model.radius
        newly_out = (censor < 0) & ~inside & active
        censor[newly_out] = kk
        if model.psi_is_zero:
            s_val = np.linalg.norm(z[:, :n_u], axis=1)
        else:
            ok = inside & active
            s_val = np.full(len(z), np.nan)
            if np.any(ok):
                psi = model.psi(float(zeta), z[ok, n_u:])
                s_val[ok] = np.linalg.norm(z[ok, :n_u] - psi, axis=1)
        s_series[:, kk - k0] = np.where((censor < 0) | (kk <= censor), s_val, np.nan)

    run_batch(np.tile(saddle, (n_seeds, 1)), steps, problem.assembled, problem.q,
              schedule, noise, seeds, k_start=k0, step_callback=callback,
              record=max(steps, 1))
    return s_series, censor


def drift_aggregate(records, band_lo, band_hi, tau_alpha, k0_grid):
    """Pure function of the per-seed records (band edges included as inputs)."""
    k0_grid = sorted(k0_grid)
    med = [float(np.median([r["sup_s"] for r in records if r["k0"] == k0]))
           for k0 in k0_grid]
    if len(k0_grid) > 1 and all(m > 0 for m in med):
        slope = float(np.polyfit(np.log(k0_grid), np.log(med), 1)[0])
    else:
        slope = float("nan")
    def band_mean(prefix):
        sums = np.array([r[f"sum_x_{prefix}"] for r in records])
        counts = np.array([r[f"count_{prefix}"] for r in records])
        total = counts.sum()
        return float(sums.sum() / total) if total else float("nan")

    sums = np.array([r["sum_x_mid"] for r in records])
    counts = np.array([r["count_mid"] for r in records])
    total = counts.sum()
    rng = np.random.default_rng(12345)
    boots = []
    if total:
        for _ in range(500):
            idx = rng.integers(0, len(records), len(records))
            c = counts[idx].sum()
            if c:
                boots.append(sums[idx].sum() / c)
    ci_lo, ci_hi = (float(np.percentile(boots, 2.5)),
                    float(np.percentile(boots, 97.5))) if boots else (np.nan, np.nan)
    crossed = [r for r in records if r["crossed"]]
    returned = [r for r in crossed if r["returned"]]
    out = {
        "band_lo": band_lo,
        "band_hi": band_hi,
        "low_band_mean_drift": band_mean("lo"),
        "mid_band_mean_drift": band_mean("mid"),
        "high_band_mean_drift": band_mean("hi"),
        "mid_band_ci_lo": ci_lo,
        "mid_band_ci_hi": ci_hi,
        "excursion_slope": slope,
        "expected_slope": 0.5 - tau_alpha,
        "excursion_frequency": len(crossed) / max(len(records), 1),
        "return_frequency": len(returned) / max(len(crossed), 1) if crossed else 0.0,
        "censored": int(sum(r["censored_at"] >= 0 for r in records)),
    }
    for k0, m in zip(k0_grid, med):
        out[f"median_sup_s_k0_{k0}"] = m
    return out


def run_drift_stats(config):
    problem, schedule, noise, seeds = campaign_setup(config, "saddle")
    k0_grid = [int(v) for v in config.get("drift", "k0_grid", "250 500 1000 2000").split()]
    window_factor = config.get("drift", "window_factor", 4.0, float)
    model = build_saddle_model(config, problem, schedule)

    all_series = {k0: _restart_series(problem, schedule, noise, model, seeds, k0,
                                      window_factor) for k0 in k0_grid}

    # mid-band edges from the pooled distance values: above the noise-fold
    # core near zero, below the excursion tail
    lo_q = config.get("drift", "band_lo_q", 0.5, float)
    hi_q = config.get("drift", "band_hi_q", 0.95, float)
    pooled = np.concatenate([s[np.isfinite(s)] for s, _ in all_series.values()])
    band_lo = float(np.quantile(pooled[pooled > 0], lo_q)) if np.any(pooled > 0) else 0.0
    band_hi = float(np.quantile(pooled[pooled > 0], hi_q)) if np.any(pooled > 0) else 0.0

    tau_alpha = schedule.tau_alpha
    c_fit = float(np.median([np.median(np.nanmax(
        np.where(np.isfinite(s), s, model.radius), axis=1))
        / k0 ** (0.5 - tau_alpha) for k0, (s, _) in all_series.items()]))

    records = []
    for k0, (series, censor) in all_series.items():
        thresh = c_fit * k0 ** (0.5 - tau_alpha)
        for row, seed in enumerate(seeds):
            s_row = series[row]
            finite = np.isfinite(s_row)
            sup_s = float(np.nanmax(s_row)) if finite.any() else model.radius
            if censor[row] >= 0:
                sup_s = max(sup_s, model.radius)  # ball exit is a large excursion
            x_incr = np.diff(s_row)
            pair_ok = finite[:-1] & finite[1:]
            low = pair_ok & (s_row[:-1] < band_lo)
            mid = pair_ok & (s_row[:-1] >= band_lo) & (s_row[:-1] <= band_hi)
            high = pair_ok & (s_row[:-1] > band_hi)
            crossing = np.flatnonzero(finite & (s_row > thresh))
            crossed = len(crossing) > 0
            returned = False
            if crossed:
                after = s_row[crossing[0]:]
                returned = bool(np.any(np.isfinite(after) & (after < 0.5 * thresh)))
            records.append({"seed": int(seed), "k0": int(k0),
                            "sup_s": sup_s,
                            "sum_x_lo": float(np.sum(x_incr[low])) if low.any() else 0.0,
                            "count_lo": int(low.sum()),
                            "sum_x_mid": float(np.sum(x_incr[mid])) if mid.any() else 0.0,
                            "count_mid": int(mid.sum()),
                            "sum_x_hi": float(np.sum(x_incr[high])) if high.any() else 0.0,
                            "count_hi": int(high.sum()),
                            "crossed": bool(crossed),
                            "returned": bool(returned),
                            "censored_at": int(censor[row])})

    def summarize(recs):
        return {**drift_aggregate(recs, band_lo, band_hi, tau_alpha, k0_grid),
                "threshold_coefficient": c_fit}

    fields = ["seed", "k0", "sup_s", "sum_x_lo", "count_lo", "sum_x_mid",
              "count_mid", "sum_x_hi", "count_hi", "crossed", "returned",
              "censored_at"]
    return CampaignResult("drift-stats", config.name, config.hash, fields, records,
                          summarize(records), summarize)


# -- manifold verification -------------------------------------------------------


MANIFOLD_BATTERIES = ("quadratic", "quadratic-penalized", "cross-cubic", "shifted")


def build_manifold_battery(config):
    battery = config.get("problem", "battery")
    if battery not in MANIFOLD_BATTERIES:
        raise ConfigError(f"unknown manifold battery {battery!r}")
    coef = config.get("problem", "cubic_coef", 0.1, float)
    if battery == "quadratic":
        loss = quadratic_saddle([1.0, -1.0])
        q = penalty_from_matrix(np.zeros((2, 2)))
        gamma = ConstantGamma(1.0)
        span = (1.0, 40.0)
        opts = PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10)
    elif battery == "quadratic-penalized":
        loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5}, 2: {2: 0.5}}, dim=3)
        q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
        gamma = interpolate_gamma(build_schedule(config))
        span = (4.0, 60.0)
        opts = PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10)
    elif battery == "cross-cubic":
        loss = monomial_loss(2, {(2, 0): 0.5, (0, 2): -0.5, (2, 1): coef})
        q = penalty_from_matrix(np.zeros((2, 2)))
        gamma = ConstantGamma(1.0)
        span = (1.0, 40.0)
        opts = PicardOptions(horizon=10.0, dt=0.005, tail=5.0, tol=1e-10)
    else:
        loss = monomial_loss(3, {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 2): 0.5,
                                 (0, 0, 1): 0.2, (0, 1, 1): 0.3})
        q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
        gamma = interpolate_gamma(build_schedule(config))
        span = (4.0, 80.0)
        opts = PicardOptions(horizon=8.0, dt=0.01, tail=8.0, tol=1e-10)
    ctx = saddle_context(loss, q, gamma, np.zeros(loss.dim))
    return battery, ManifoldModel(ctx, span[0], span[1], opts)


def _fit_evolution_constants(model, t0, seed=0):
    frame = model.frame(t0)
    rng = np.random.default_rng(seed)
    span = min(model.picard.horizon, frame.times[-1] - frame.t0)
    pairs = np.sort(frame.t0 + span * rng.random((60, 2)), axis=1)
    gaps = pairs[:, 1] - pairs[:, 0]
    keep = gaps > 0.05 * span
    s_norm = np.array([np.linalg.norm(evolution_operator(frame, t1, t2, "stable"), 2)
                       for t1, t2 in pairs[keep]])
    slope_s, icpt_s = np.polyfit(gaps[keep], np.log(s_norm), 1)
    if model.context.n_u:
        u_norm = np.array([np.linalg.norm(evolution_operator(frame, t2, t1, "unstable"), 2)
                           for t1, t2 in pairs[keep]])
        slope_u = np.polyfit(-gaps[keep], np.log(u_norm), 1)[0]
    else:
        slope_u = float("nan")
    sigma = float(slope_u)
    nu = float(-slope_s - sigma) if np.isfinite(sigma) else float(-slope_s)
    return float(np.exp(icpt_s)) * 1.05, sigma, nu


def run_manifold_verification(config):
    battery, model = build_manifold_battery(config)
    t0 = model.t_start + 0.25 * (model.t_end - model.t_start - model.picard.horizon
                                 - model.picard.tail)
    t0 = max(model.t_start + 1.0, t0)
    report = {"battery": {"name": battery, "n_u": model.context.n_u,
                          "psi_is_zero": model.psi_is_zero}}
    checks = {}

    def guarded(section, fn):
        try:
            out = fn()
            checks[section] = bool(out.pop("passed"))
            report[section] = {"passed": checks[section], **out}
        except DsgdLabError as exc:
            checks[section] = False
            report[section] = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}

    def picard_check():
        a_scale = 0.3 * model.radius / 3.0
        a_s = np.array([[a_scale] + [0.0] * (model.context.n_s - 1)])
        sol = model.picard_solve(t0, a_s) if not model.psi_is_zero else None
        out = {}
        if model.psi_is_zero:
            zero_sol = model.picard_solve(t0, np.zeros((1, model.context.n_s)))
            out.update(iterations=zero_sol.iterations,
                       residual=zero_sol.residual,
                       max_u=float(np.max(np.abs(zero_sol.u))),
                       passed=zero_sol.iterations <= 1 and zero_sol.residual == 0.0)
            return out
        ratios = sol.contraction_ratios()
        sizes = np.geomspace(0.1 * a_scale, a_scale, 5)
        stacked = np.zeros((5, model.context.n_s))
        stacked[:, 0] = sizes
        psis = np.linalg.norm(model.psi(t0, stacked), axis=1)
        good = psis > 1e-13
        slope = float(np.polyfit(np.log(sizes[good]), np.log(psis[good]), 1)[0]) \
            if np.sum(good) >= 3 else 0.0
        tangent_ok = abs(slope - 2.0) <= 0.2 if np.sum(good) >= 3 else True
        out.update(iterations=sol.iterations,
                   residual=sol.residual,
                   max_contraction_ratio=float(np.max(ratios)) if len(ratios) else 0.0,
                   tangency_slope=slope,
                   passed=sol.residual < 1e-6
                   and (len(ratios) == 0 or np.max(ratios) < 0.5) and tangent_ok)
        return out

    def repulsion():
        rep = repulsion_check(model, sample_ball=0.05,
                              epsilon_grid=[1e-3, 3e-3, 1e-2],
                              t_grid=np.linspace(t0, t0 + 9.0, 10),
                              n_samples=config.get("manifold", "n_samples", 500, int),
                              seed=0)
        out = {"c2_hat": rep.c2_hat, "c3_hat": rep.c3_hat,
               "violations": len(rep.violations), "censored": rep.n_censored,
               "pairs": rep.n_pairs}
        ok = rep.fit_valid
        if model.psi_is_zero:
            ok = ok and abs(rep.c2_hat - 1.0) <= 0.05 and rep.c3_hat < 1e-6
        out["passed"] = ok
        return out

    def spectrum():
        ts = np.linspace(t0, min(t0 + 10.0, model.t_end - model.picard.horizon
                                 - model.picard.tail - 1.0), 6)
        rep = rectified_field_spectrum(model, ts)
        out = {"min_positive_tail": rep.min_positive_tail,
               "max_imag": rep.max_imag,
               "n_positive_stable": bool(np.all(rep.n_positive == model.context.n_u))}
        out["passed"] = out["n_positive_stable"] and rep.min_positive_tail > 0.0
        return out

    def comparison():
        auto = autonomous_restriction(model.context, picard=model.picard)
        ts = np.linspace(t0, model.t_end - model.picard.horizon
                         - model.picard.tail - 1.0, 4)
        comp = compare_flattening_limit(model, auto, ts, n_samples=16,
                                        sample_ball=0.04)
        probe = dt_phi_decay_probe(model, ts)
        out = {"gap_initial": float(comp.gaps[0]), "gap_final": float(comp.gaps[-1]),
               "dt_phi_final": float(probe.dt_phi_norm[-1])}
        out["passed"] = bool(comp.gaps[-1] <= comp.gaps[0] + 1e-12)
        return out

    guarded("picard", picard_check)
    guarded("repulsion", repulsion)
    guarded("spectrum", spectrum)
    guarded("comparison", comparison)

    k_fit, sigma, nu = _fit_evolution_constants(model, t0)
    alpha_fit = _fit_decay_rate(model, t0)
    report["constants"] = {"k_envelope": k_fit, "sigma": sigma, "nu": nu,
                           "alpha": alpha_fit}
    if "c2_hat" in report.get("repulsion", {}):
        report["constants"]["c2"] = report["repulsion"]["c2_hat"]
        report["constants"]["c3"] = report["repulsion"]["c3_hat"]

    # graph-map samples and eigenvalue tracks round out the summary
    a_scale = 0.3 * model.radius / 3.0
    sizes = np.linspace(-a_scale, a_scale, 5)
    stacked = np.zeros((5, model.context.n_s))
    stacked[:, 0] = sizes
    psis = model.psi(t0, stacked)
    report["psi_samples"] = {
        "z_values": " ".join("%.6g" % z for z in sizes),
        "psi_norms": " ".join("%.6g" % np.linalg.norm(p) for p in psis),
    }
    track_ts = np.linspace(t0, t0 + model.picard.horizon, 5)
    tracks = {"t_values": " ".join("%.6g" % t for t in track_ts)}
    frame = model.frame(t0)
    for j in range(model.context.dim):
        lam_j = np.interp(track_ts, frame.times, frame.lambdas[:, j])
        tracks[f"lambda_{j}"] = " ".join("%.6g" % v for v in lam_j)
    report["eigenvalue_tracks"] = tracks

    report["overall"] = {"passed": all(checks.values())}
    report["config_hash"] = config.hash
    return report


def _fit_decay_rate(model, t0):
    """Fitted exponential decay rate of the integral-equation solution."""
    a_s = np.zeros((1, model.context.n_s))
    a_s[0, 0] = 0.3 * model.radius / 3.0
    sol = model.picard_solve(t0, a_s)
    norms = np.linalg.norm(sol.u[0], axis=1)
    mask = (sol.times > sol.times[0] + 1.0) & (norms > 1e-14)
    if int(mask.sum()) < 3:
        return float("nan")
    slope = np.polyfit(sol.times[mask], np.log(norms[mask]), 1)[0]
    return float(-slope)


RUNNERS = {**dict.fromkeys(SEED_CAMPAIGNS, run_seed_campaign),
           "drift-stats": run_drift_stats,
           "manifold-verify": run_manifold_verification}
KNOWN_KINDS = tuple(RUNNERS)


def run_experiment(config):
    return RUNNERS[config.kind](config)
