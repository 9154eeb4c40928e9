"""Batch experiment campaigns: config parsing, seeded Monte-Carlo runs of the
consensus, critical-point and saddle-avoidance claims (one setup driven by the
`SEED_CAMPAIGNS` table), drift diagnostics near saddle points, and
consolidated manifold verification. `RUNNERS` maps every kind to its setup,
which reads and checks every key the kind uses and returns the experiment.

Configs are flat INI files (one section per concern); identical configs
produce byte-identical result records. A seed campaign runs its seeds as
one vectorized batch (split only past DEFAULT_SEED_CHUNK rows), and records
are assembled sorted by seed.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .engine import DIVERGENCE_CEILING, NoiseModel, row_norms, run_batch
from .errors import ConfigError, DsgdLabError, allocation
from .graphs import (
    complete_graph,
    consensus_penalty,
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
from .schedules import ConstantGamma, Schedule, elapsed_times, interpolate_gamma, validate

DEFAULT_SEED_CHUNK = 1024  # rows per batch: a memory cap, not a unit of parallel work
INDEX_MAX = 2**63 - 1      # the largest seed, step count, k0 or sample count: int64's


# Campaigns run in this process; the benchmark harness still imports this.
def worker_count():
    return 1


# -- config ------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """The sections of an INI config; `get` is the one place a key is read."""
    kind: str
    name: str
    sections: dict
    read: dict = field(default_factory=dict)  # (section, key) -> (text, defaulted)
    experiment: object = None                 # the callable `prepare` built

    @property
    def hash(self):
        return config_hash(self.sections)

    def get(self, section, key, default=None, parse=str):
        """`parse` of the key's text, or of `str(default)` when the key is
        absent (a key without a default is required); records the key."""
        raw = self.sections.get(section, {}).get(key)
        defaulted = raw is None
        if defaulted:
            if default is None:
                raise ConfigError(f"missing config key [{section}] {key}")
            raw = str(default)
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
        self.read[section, key] = (raw, defaulted)
        return value


def load_config(path):
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        sections = {s: dict(parser.items(s)) for s in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if "experiment" not in sections or "kind" not in sections["experiment"]:
        raise ConfigError("config needs [experiment] kind = ...")
    kind = sections["experiment"]["kind"]
    if kind not in KNOWN_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {KNOWN_KINDS}")
    name = sections["experiment"].get("name", kind)
    return ExperimentConfig(kind, name, sections)


def ranged(cast, low, high=math.inf, strict=False):
    """Parser of `cast(text)`, finite and within [low, high], or (low, high]
    when strict."""
    def parse(raw):
        value = cast(raw)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if not ((low < value) if strict else (low <= value)) or not value <= high:
            raise ValueError(f"must be {'>' if strict else '>='} {low:g}"
                             + (f" and <= {high:g}" if high < math.inf else ""))
        return value
    return parse


positive = ranged(float, 0.0, strict=True)
real = ranged(float, -math.inf)   # any finite float


def parse_seeds(spec):
    """Distinct sorted seeds, 0 <= seed < 2**63, from `lo:hi` or a comma/space
    list. A range is checked at its ends and never listed, so its size costs
    nothing here."""
    lo, colon, hi = spec.partition(":")
    seeds = range(int(lo), int(hi)) if colon else \
        sorted(int(s) for s in spec.replace(",", " ").split())
    if not seeds:
        raise ValueError("the seed list is empty")
    if not 0 <= seeds[0] or not seeds[-1] <= INDEX_MAX:
        raise ValueError("seeds must be non-negative and below 2**63")
    # a range has no repeats, and a sorted list holds its repeats side by side
    repeated = [] if colon else [a for a, b in zip(seeds, seeds[1:]) if a == b]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} is listed more than once")
    return seeds


def parse_vector(spec):
    return np.array([real(v) for v in spec.replace(",", " ").split()])


def parse_vectors(spec):
    """Semicolon-separated vectors, all of one length."""
    vectors = [parse_vector(part) for part in spec.split(";") if part.strip()]
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("the vectors differ in length")
    return vectors


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
        raise ValueError("use path:N, complete:N, star:N, ring:N or file:PATH")
    return builders[kind](int(arg))


def build_schedule(config):
    sched = Schedule(*(config.get("schedule", key, parse=real)
                       for key in ("alpha_scale", "tau_alpha", "gamma_scale", "tau_gamma")))
    try:
        validate(sched)
    except DsgdLabError as exc:
        raise ConfigError(str(exc)) from exc
    return sched


def build_noise(config):
    scale = config.get("noise", "scale", 0.0, ranged(float, 0.0))
    # NoiseModel refuses an unknown kind, and a zero scale for a noisy kind
    return config.get("noise", "kind", "none", lambda kind: NoiseModel(kind, scale))


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
    n_agents: int
    agent_dim: int
    known: dict = field(default_factory=dict)

    @property
    def assembled(self):
        return self.losses.assembled


def build_problem(config):
    key = config.get("problem", "loss")
    graph = config.get("problem", "graph", parse=build_graph)

    if key == "zero":
        d = config.get("problem", "agent_dim", parse=ranged(int, 1, INDEX_MAX))
        losses = sum_loss([zero_loss(d)] * graph.vertex_count)
        known = {}
    elif key in ("quadratic_wells", "l1_wells"):
        anchors = config.get("problem", "anchors", parse=parse_vectors)
        if len(anchors) != graph.vertex_count:
            raise ConfigError("anchors must give one vector per agent")
        d = len(anchors[0])
        comps = [shifted_quadratic(a) for a in anchors]
        stacked = shifted_quadratic(np.concatenate(anchors))
        minimizer = np.mean(anchors, axis=0)
        if key == "l1_wells":
            w = config.get("problem", "l1_weight", parse=positive)
            comps = [l1_regularized(c, w) for c in comps]
            stacked = l1_regularized(stacked, w)
            minimizer = np.sign(minimizer) * np.maximum(np.abs(minimizer) - w, 0.0)
        losses = sum_loss(comps, stacked)
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
    # nullspace(L kron I_d) has dimension d for each connected component
    if q.rotation.constraint_dim != d:
        raise ConfigError("communication graph must be connected")
    return Problem(losses, q, graph.vertex_count, d, known)


def per_seed(seeds, width, fill):
    """A (len(seeds), width) array of fill; a size past numpy's or len()'s
    range is a MemoryError (`allocation`)."""
    with allocation(f"{width} values for each seed in {seeds}"):
        return np.full((len(seeds), width), fill)


def initial_states(config, problem, seeds):
    """Per-seed initial stacked states, deterministic in the seed list; a
    start past the divergence ceiling is refused."""
    mode = config.get("init", "mode", "consensual")
    m = problem.n_agents * problem.agent_dim
    if mode in ("consensual", "stacked"):
        # one agent's value, replicated, or the whole stacked state
        width = problem.agent_dim if mode == "consensual" else m
        value = config.get("init", "value", parse=parse_vector)
        if len(value) != width:
            raise ConfigError(f"{mode} init value must have {width} entries")
        out = per_seed(seeds, m, np.tile(value, m // width))
    elif mode == "gaussian":
        scale = config.get("init", "scale", 1.0,
                           parse=ranged(float, -DIVERGENCE_CEILING, DIVERGENCE_CEILING))
        out = per_seed(seeds, m, 0.0)
        for i, s in enumerate(seeds):
            gen = np.random.default_rng(np.random.SeedSequence([int(s), 0xD5]))
            out[i] = scale * gen.standard_normal(m)
    else:
        raise ConfigError(f"unknown init mode {mode!r}")
    # the largest |x_i| first: it bounds the norm from below, and the norms
    # of rows below the ceiling cannot overflow
    past = np.max(np.abs(out), axis=1) > DIVERGENCE_CEILING
    past = past if past.any() else row_norms(out) > DIVERGENCE_CEILING
    if past.any():
        raise ConfigError(f"[init] the start of seed {seeds[int(np.argmax(past))]} lies past "
                          f"the divergence ceiling {DIVERGENCE_CEILING:g}")
    return out


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
        """Aggregates must be a pure function of the per-seed records.

        Test-only: the check that a result's aggregates follow from its records.
        """
        return self.summarize(self.records)


def _run_seed_chunks(fn, seeds, chunk=DEFAULT_SEED_CHUNK):
    """Records of `fn` over the sorted seeds, in seed order. The seeds run in
    the fewest chunks of at most `chunk` rows, in order; the chunks differ in
    size by at most one, so with chunk >= 3 no campaign of two or more seeds
    runs a one-row batch (whose BLAS path, and so whose last bits, differ)."""
    ordered = sorted(seeds)
    n_chunks = -(-len(ordered) // chunk)
    ends = [len(ordered) * i // n_chunks for i in range(n_chunks + 1)]
    return [rec for lo, hi in zip(ends, ends[1:]) for rec in fn(ordered[lo:hi])]


def aggregate(kind, records):
    """Aggregates of a seed campaign: a pure function of its per-seed records."""
    return {**SEED_CAMPAIGNS[kind].summarize(records),
            "diverged": int(sum(r["diverged_at"] >= 0 for r in records))}


def campaign_setup(config, known):
    """Problem, schedule, noise and sorted seeds of a seeded campaign; the
    problem must have the `known` point the campaign measures against."""
    problem = build_problem(config)
    if known is not None and known not in problem.known:
        raise ConfigError(f"{config.kind} experiments need a loss with a known {known}")
    return (problem, build_schedule(config), build_noise(config),
            config.get("run", "seeds", parse=parse_seeds))


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


def setup_seed_campaign(config):
    """Setup of a SEED_CAMPAIGNS kind; its experiment runs every seed for
    `steps` steps from its initial state, one record per seed."""
    spec = SEED_CAMPAIGNS[config.kind]
    problem, schedule, noise, seeds = campaign_setup(config, spec.known)
    steps = config.get("run", "steps", parse=ranged(int, 0, INDEX_MAX))
    tol = config.get("tolerances", spec.tol_key, spec.tol_default, positive)
    if spec.coercive:
        # sampled out to 10 radii, which stay finite below the ceiling
        radius = config.get("tolerances", "coercivity_radius", 10.0,
                            ranged(float, 0.0, DIVERGENCE_CEILING, strict=True))
        if not check_coercivity(problem.assembled, radius, 500, seed=0).passed:
            raise ConfigError("loss fails the sampled coercivity check")
    inits = initial_states(config, problem, seeds)
    row_of = {seed: row for row, seed in enumerate(seeds)}

    def run_chunk(chunk_seeds):
        batch = run_batch(inits[[row_of[s] for s in chunk_seeds]], steps,
                          problem.assembled, problem.q, schedule, noise, chunk_seeds,
                          n_agents=problem.n_agents)
        return [{"seed": int(seed), **spec.record(batch, row, problem, tol),
                 "diverged_at": int(batch.diverged_at[row])}
                for row, seed in enumerate(chunk_seeds)]

    def experiment():
        records = _run_seed_chunks(run_chunk, seeds)
        summarize = partial(aggregate, config.kind)
        return CampaignResult(config.kind, config.name, config.hash,
                              ["seed", *spec.fields, "diverged_at"], records,
                              summarize(records), summarize)
    return experiment


# -- drift statistics ------------------------------------------------------------


def _restart_series(problem, schedule, noise, model, seeds, k0, window_factor):
    """S_k = eta(z(k), zeta_k) per seed over the window [k0, window_factor k0],
    restarting on the manifold (at the saddle) at index k0. A row is censored
    at its first step outside the model's certified region or past the
    divergence ceiling, whichever comes first; S is NaN from that step on."""
    steps = int((window_factor - 1) * k0)
    s_series = per_seed(seeds, steps, np.nan)
    censor = np.full(len(s_series), -1, dtype=int)
    zeta = elapsed_times(schedule, k0 + steps - 1)
    z_buf = None

    def observer(k_first, states, active):
        nonlocal z_buf
        span = len(states)
        zetas = zeta[k_first:k_first + span]
        if z_buf is None or len(z_buf) < span:
            # one buffer for every chunk: a fresh one per chunk would be
            # paged in anew each time
            z_buf = np.empty(states.shape)
        z = model.coordinate_change(states, zetas, out=z_buf[:span])
        # each live row is censored at its first uncertified step; S is
        # recorded only for live rows before that step, so a row's censoring
        # step records NaN whichever way psi is found
        live = (censor < 0) & active
        left = ~model.certified(z) & live
        hit = left.any(axis=0)
        first = np.where(hit, np.argmax(left, axis=0), span)
        censor[hit] = k_first + first[hit]
        ok = live & (np.arange(span)[:, None] < first)
        cols = s_series[:, k_first - k0:k_first - k0 + span]
        if model.psi_is_zero:
            cols[...] = np.where(ok, row_norms(z[:, :, :model.context.n_u]), np.nan).T
        else:
            for j in np.flatnonzero(ok.any(axis=1)):
                cols[ok[j], j] = model.distance(z[j, ok[j]], float(zetas[j]))

    # every row restarts at the saddle
    batch = run_batch(model.context.saddle, steps, problem.assembled, problem.q, schedule,
                      noise, seeds, k_start=k0, observer=observer, record=max(steps, 1))
    return s_series, np.where(censor < 0, batch.diverged_at, censor)


def drift_aggregate(records, band_lo, band_hi, tau_alpha, k0_grid):
    """Pure function of the per-seed records (band edges included as inputs)."""
    k0_grid = sorted(k0_grid)
    med = [float(np.median([r["sup_s"] for r in records if r["k0"] == k0]))
           for k0 in k0_grid]
    if len(k0_grid) > 1 and all(m > 0 for m in med):
        slope = float(np.polyfit(np.log(k0_grid), np.log(med), 1)[0])
    else:
        slope = float("nan")

    def band(prefix):
        """The band's per-record sums and counts, their total and its mean drift."""
        sums = np.array([r[f"sum_x_{prefix}"] for r in records])
        counts = np.array([r[f"count_{prefix}"] for r in records])
        total = counts.sum()
        return sums, counts, total, float(sums.sum() / total) if total else float("nan")

    lo, mid, hi = (band(prefix) for prefix in ("lo", "mid", "hi"))
    sums, counts, total, _ = mid
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
        "low_band_mean_drift": lo[-1],
        "mid_band_mean_drift": mid[-1],
        "high_band_mean_drift": hi[-1],
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


def _drift_records(seeds, k0, series, censor, thresh, band_lo, band_hi, sup_s):
    """Each seed's excursion and band drift sums after the restart at k0, from
    the window's (seeds, steps) S series and its per-seed sup S."""
    finite = np.isfinite(series)
    x_incr = np.diff(series, axis=1)
    pair_ok = finite[:, :-1] & finite[:, 1:]
    before = series[:, :-1]
    bands = {"lo": pair_ok & (before < band_lo),
             "mid": pair_ok & (before >= band_lo) & (before <= band_hi),
             "hi": pair_ok & (before > band_hi)}
    columns = {"seed": [int(seed) for seed in seeds], "k0": [int(k0)] * len(seeds),
               "sup_s": sup_s.tolist()}
    for band, mask in bands.items():
        counts = mask.sum(axis=1)
        # np.sum over each row's own compressed increments: one reduction
        # over the whole block would add them in another order
        flat, ends = x_incr[mask], np.cumsum(counts).tolist()
        columns[f"sum_x_{band}"] = [float(np.sum(flat[lo:hi]))
                                    for lo, hi in zip([0, *ends], ends)]
        columns[f"count_{band}"] = counts.tolist()
    above = finite & (series > thresh)
    crossed = above.any(axis=1)
    first = np.where(crossed, np.argmax(above, axis=1), series.shape[1])
    after = np.arange(series.shape[1]) >= first[:, None]
    returned = (after & finite & (series < 0.5 * thresh)).any(axis=1)
    columns.update(crossed=crossed.tolist(), returned=returned.tolist(),
                   censored_at=censor.tolist())
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _band_edges(all_series, lo_q, hi_q):
    """Mid-band edges from the pooled positive distance values of every
    window: above the noise-fold core near zero, below the excursion tail."""
    series = [s for s, _ in all_series.values()]
    masks = [(s > 0) & (s < np.inf) for s in series]
    ends = np.cumsum([0] + [np.count_nonzero(m) for m in masks]).tolist()
    if not ends[-1]:
        return 0.0, 0.0
    # filled window by window and partitioned in place, so that one copy of
    # the pooled values is alive at a time
    pooled = np.empty(ends[-1])
    for s, mask, lo, hi in zip(series, masks, ends, ends[1:]):
        pooled[lo:hi] = s[mask]
    band_lo, band_hi = np.quantile(pooled, [lo_q, hi_q], overwrite_input=True).tolist()
    return band_lo, band_hi


def setup_drift_stats(config):
    problem, schedule, noise, seeds = campaign_setup(config, "saddle")

    def restarts(raw):
        grid = [int(v) for v in raw.split()]
        if not grid or min(grid) < 1 or max(grid) > INDEX_MAX:
            raise ValueError("need one or more integers from 1 to 2**63 - 1")
        if len(set(grid)) < len(grid):
            repeated = next(k0 for i, k0 in enumerate(grid) if k0 in grid[:i])
            raise ValueError(f"k0 = {repeated} is listed more than once")
        return grid

    k0_grid = config.get("drift", "k0_grid", "250 500 1000 2000", restarts)

    def window_factor(raw):
        factor = float(raw)
        if not 1 <= (factor - 1) * min(k0_grid) < math.inf:
            raise ValueError(f"the window of k0 = {min(k0_grid)} has no step")
        return factor

    factor = config.get("drift", "window_factor", 4.0, window_factor)
    lo_q = config.get("drift", "band_lo_q", 0.5, ranged(float, 0.0, 1.0))
    hi_q = config.get("drift", "band_hi_q", 0.95, ranged(float, lo_q, 1.0, strict=True))
    ctx = saddle_context(problem.assembled, problem.q, interpolate_gamma(schedule),
                         np.tile(problem.known["saddle"], problem.n_agents))
    t_start = config.get("drift", "t_start", 4.0, positive)
    t_end = config.get("drift", "t_end", 10.0, ranged(float, t_start, strict=True))
    model = ManifoldModel(ctx, t_start, t_end,
                          radius=config.get("drift", "validity_radius", 0.3, positive))
    if not model.psi_is_zero:
        # psi is solved on a frame starting at each step's time of each window
        reach = model.picard.horizon + model.picard.tail
        ends = {k0: k0 + int((factor - 1) * k0) - 1 for k0 in k0_grid}
        zeta = elapsed_times(schedule, max(ends.values()))
        for k0, end in ends.items():
            if zeta[k0] < t_start:
                raise ConfigError(
                    f"[drift] k0_grid: the restart at k0 = {k0} is at time "
                    f"{zeta[k0]:g}, before t_start = {t_start:g}")
            if zeta[end] + reach > t_end:
                raise ConfigError(
                    f"[drift] k0_grid: the window of k0 = {k0} ends at time "
                    f"{zeta[end]:g}, and its manifold frames reach {reach:g} further, "
                    f"past t_end = {t_end:g}")
    tau_alpha = schedule.tau_alpha

    def experiment():
        all_series = {k0: _restart_series(problem, schedule, noise, model, seeds, k0,
                                          factor) for k0 in k0_grid}
        band_lo, band_hi = _band_edges(all_series, lo_q, hi_q)
        # each seed's sup S, np.nanmax's own reduction; a censored row (only
        # it has NaN) left the region or diverged: at least the radius
        sups = {k0: np.fmax(np.fmax.reduce(s, axis=1), np.where(c >= 0, model.radius, -np.inf))
                for k0, (s, c) in all_series.items()}
        c_fit = float(np.median([np.median(sups[k0]) / k0 ** (0.5 - tau_alpha) for k0 in sups]))
        records = [rec for k0, (series, censor) in all_series.items()
                   for rec in _drift_records(seeds, k0, series, censor,
                                             c_fit * k0 ** (0.5 - tau_alpha),
                                             band_lo, band_hi, sups[k0])]

        def summarize(recs):
            return {**drift_aggregate(recs, band_lo, band_hi, tau_alpha, k0_grid),
                    "threshold_coefficient": c_fit}

        fields = ["seed", "k0", "sup_s", "sum_x_lo", "count_lo", "sum_x_mid",
                  "count_mid", "sum_x_hi", "count_hi", "crossed", "returned",
                  "censored_at"]
        return CampaignResult("drift-stats", config.name, config.hash, fields, records,
                              summarize(records), summarize)
    return experiment


# -- manifold verification -------------------------------------------------------


def setup_manifold_verification(config):
    """Setup of a manifold-verify battery; its experiment returns the report."""
    schedule = build_schedule(config)
    battery = config.get("problem", "battery")
    if battery == "quadratic":
        loss = quadratic_saddle([1.0, -1.0])
        q = penalty_from_matrix(np.zeros((2, 2)))
        gamma = ConstantGamma(1.0)
        span = (1.0, 40.0)
        opts = PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10)
    elif battery == "quadratic-penalized":
        loss = separable_polynomial({0: {2: 0.5}, 1: {2: -0.5}, 2: {2: 0.5}}, dim=3)
        q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
        gamma = interpolate_gamma(schedule)
        span = (4.0, 60.0)
        opts = PicardOptions(horizon=8.0, dt=0.01, tail=4.0, tol=1e-10)
    elif battery == "cross-cubic":
        coef = config.get("problem", "cubic_coef", 0.1, real)
        loss = monomial_loss(2, {(2, 0): 0.5, (0, 2): -0.5, (2, 1): coef})
        q = penalty_from_matrix(np.zeros((2, 2)))
        gamma = ConstantGamma(1.0)
        span = (1.0, 40.0)
        opts = PicardOptions(horizon=10.0, dt=0.005, tail=5.0, tol=1e-10)
    elif battery == "shifted":
        loss = monomial_loss(3, {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 2): 0.5,
                                 (0, 0, 1): 0.2, (0, 1, 1): 0.3})
        q = penalty_from_matrix(np.diag([0.0, 0.0, 2.0]))
        gamma = interpolate_gamma(schedule)
        span = (4.0, 80.0)
        opts = PicardOptions(horizon=8.0, dt=0.01, tail=8.0, tol=1e-10)
    else:
        raise ConfigError(f"unknown manifold battery {battery!r}")
    ctx = saddle_context(loss, q, gamma, np.zeros(loss.dim))
    model = ManifoldModel(ctx, span[0], span[1], opts)
    n_samples = config.get("manifold", "n_samples", 500, ranged(int, 1, INDEX_MAX))
    t0 = model.t_start + 0.25 * (model.t_end - model.t_start - model.picard.horizon
                                 - model.picard.tail)
    t0 = max(model.t_start + 1.0, t0)
    # the last start time whose frame grid, plus a unit margin, fits the span
    t_last = model.t_end - model.picard.horizon - model.picard.tail - 1.0
    # size of the sampled stable offsets: 0.3 of the contraction radius r/3
    a_scale = 0.1 * model.radius

    def experiment():
        report = {"battery": {"name": battery, "n_u": model.context.n_u,
                              "psi_is_zero": model.psi_is_zero}}

        # the picard check of a solved psi and the decay-rate fit share this
        # solve; the fit needs it, so a failed solve ends the run here
        decay = model.picard_solve(t0, a_scale * np.eye(1, model.context.n_s))

        def picard_check():
            if model.psi_is_zero:
                sol = model.picard_solve(t0, np.zeros((1, model.context.n_s)))
                return {"iterations": sol.iterations, "residual": sol.residual,
                        "max_u": float(np.max(np.abs(sol.u))),
                        "passed": sol.iterations <= 1 and sol.residual == 0.0}
            ratios = decay.contraction_ratios()
            sizes = np.geomspace(0.1 * a_scale, a_scale, 5)
            # z_s = 0, then the sizes along e_1, in one solve
            stacked = np.zeros((6, model.context.n_s))
            stacked[1:, 0] = sizes
            psis = model.psi(t0, stacked)
            # measured from the graph over z_s = 0, which a moving saddle path offsets
            psis = np.linalg.norm(psis[1:] - psis[0], axis=1)
            good = psis > 1e-13
            fit = np.sum(good) >= 3
            slope = float(np.polyfit(np.log(sizes[good]), np.log(psis[good]), 1)[0]) \
                if fit else 0.0
            return {"iterations": decay.iterations, "residual": decay.residual,
                    "max_contraction_ratio": float(np.max(ratios)) if len(ratios) else 0.0,
                    "tangency_slope": slope,
                    "passed": decay.residual < 1e-6
                    and (len(ratios) == 0 or np.max(ratios) < 0.5)
                    and (not fit or abs(slope - 2.0) <= 0.2)}

        def repulsion():
            rep = repulsion_check(model, sample_ball=0.05,
                                  epsilon_grid=[1e-3, 3e-3, 1e-2],
                                  t_grid=np.linspace(t0, t0 + 9.0, 10),
                                  n_samples=n_samples, seed=0)
            out = {"c2_hat": rep.c2_hat, "c3_hat": rep.c3_hat,
                   "violations": len(rep.violations), "censored": rep.n_censored,
                   "pairs": rep.n_pairs}
            ok = rep.fit_valid
            if model.psi_is_zero:
                ok = ok and abs(rep.c2_hat - 1.0) <= 0.05 and rep.c3_hat < 1e-6
            out["passed"] = ok
            return out

        def spectrum():
            ts = np.linspace(t0, min(t0 + 10.0, t_last), 6)
            rep = rectified_field_spectrum(model, ts)
            out = {"min_positive_tail": rep.min_positive_tail,
                   "max_imag": rep.max_imag,
                   "n_positive_stable": bool(np.all(rep.n_positive == model.context.n_u))}
            out["passed"] = out["n_positive_stable"] and rep.min_positive_tail > 0.0
            return out

        def comparison():
            auto = autonomous_restriction(model.context, model.picard)
            gaps = compare_flattening_limit(model, auto, [t0, t_last], n_samples=16,
                                            sample_ball=0.04)
            out = {"gap_initial": float(gaps[0]), "gap_final": float(gaps[-1]),
                   "dt_phi_final": float(dt_phi_decay_probe(model, [t_last])[0])}
            out["passed"] = bool(gaps[-1] <= gaps[0] + 1e-12)
            return out

        checks = (("picard", picard_check), ("repulsion", repulsion),
                  ("spectrum", spectrum), ("comparison", comparison))
        for section, check in checks:
            try:
                out = check()
                report[section] = {"passed": bool(out.pop("passed")), **out}
            except DsgdLabError as exc:
                report[section] = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}

        frame = model.frame(t0)
        k_fit, sigma, nu = _fit_evolution_constants(frame, model.picard.horizon)
        alpha_fit = _fit_decay_rate(decay)
        report["constants"] = {"k_envelope": k_fit, "sigma": sigma, "nu": nu,
                               "alpha": alpha_fit}
        if "c2_hat" in report.get("repulsion", {}):
            report["constants"]["c2"] = report["repulsion"]["c2_hat"]
            report["constants"]["c3"] = report["repulsion"]["c3_hat"]

        # graph-map samples and eigenvalue tracks round out the summary
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
        for j in range(model.context.dim):
            lam_j = np.interp(track_ts, frame.times, frame.lambdas[:, j])
            tracks[f"lambda_{j}"] = " ".join("%.6g" % v for v in lam_j)
        report["eigenvalue_tracks"] = tracks

        report["overall"] = {"passed": all(report[s]["passed"] for s, _ in checks)}
        report["config_hash"] = config.hash
        return report
    return experiment


def _fit_evolution_constants(frame, horizon):
    rng = np.random.default_rng(0)
    span = min(horizon, frame.times[-1] - frame.t0)
    pairs = np.sort(frame.t0 + span * rng.random((60, 2)), axis=1)
    gaps = pairs[:, 1] - pairs[:, 0]
    keep = gaps > 0.05 * span
    s_norm = np.array([np.linalg.norm(evolution_operator(frame, t1, t2, "stable"), 2)
                       for t1, t2 in pairs[keep]])
    slope_s, icpt_s = np.polyfit(gaps[keep], np.log(s_norm), 1)
    if frame.n_u:
        u_norm = np.array([np.linalg.norm(evolution_operator(frame, t2, t1, "unstable"), 2)
                           for t1, t2 in pairs[keep]])
        slope_u = np.polyfit(-gaps[keep], np.log(u_norm), 1)[0]
    else:
        slope_u = float("nan")
    sigma = float(slope_u)
    nu = float(-slope_s - sigma) if np.isfinite(sigma) else float(-slope_s)
    return float(np.exp(icpt_s)) * 1.05, sigma, nu


def _fit_decay_rate(sol):
    """Fitted exponential decay rate of the first row of an integral-equation
    solution."""
    norms = np.linalg.norm(sol.u[0], axis=1)
    mask = (sol.times > sol.times[0] + 1.0) & (norms > 1e-14)
    if int(mask.sum()) < 3:
        return float("nan")
    slope = np.polyfit(sol.times[mask], np.log(norms[mask]), 1)[0]
    return float(-slope)


RUNNERS = {**dict.fromkeys(SEED_CAMPAIGNS, setup_seed_campaign),
           "drift-stats": setup_drift_stats,
           "manifold-verify": setup_manifold_verification}
KNOWN_KINDS = tuple(RUNNERS)


def prepare(config):
    """The config's experiment as a zero-argument callable, built once by its
    kind's setup (which reads every key the kind uses and builds everything
    before any work) and kept on the config. Refuses keys the setup never read."""
    if config.experiment is None:
        config.read.clear()
        experiment = RUNNERS[config.kind](config)
        used = config.read.keys() | {("experiment", "kind"), ("experiment", "name"),
                                     ("output", "dir")}
        unread = [f"[{section}] {key}" for section, keys in config.sections.items()
                  for key in keys if (section, key) not in used]
        if unread:
            raise ConfigError(f"{config.kind} experiments do not use {', '.join(unread)}")
        config.experiment = experiment
    return config.experiment


def run_experiment(config):
    return prepare(config)()
