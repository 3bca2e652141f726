"""Single-server FIFO queue-occupancy benchmark generator.

Each system is a randomly parameterized G/G/1 queue. Every replication draws
its inter-arrival and service times from its own counter-based (Philox) RNG
stream, keyed by (master seed, system index, replication index), so output is
independent of scheduling. A system's R replications are then stacked into
(R, N) arrays: the arrival-time and Lindley departure recursions loop over the
N arrivals with vector ops across the R replications, and the across-
replication empirical occupancy histogram at every grid instant becomes one
distribution-valued time step.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidValue
from .simplex import SimplexSeries

UTILIZATION_BAND = (0.26, 0.6)

HOMOGENEOUS_FAMILIES = (
    "gamma",
    "erlang",
    "lognormal",
    "two_normal_mixture",
    "hyperexponential",
    "uniform",
    "weibull",
)
NONHOMOGENEOUS_FAMILIES = tuple(f for f in HOMOGENEOUS_FAMILIES if f != "weibull")


@dataclass(frozen=True)
class ServiceTimeFamily:
    """A positive-duration distribution family with explicit parameters."""

    name: str
    params: dict

    def __post_init__(self):
        if self.name not in HOMOGENEOUS_FAMILIES:
            raise InvalidValue(f"unknown family {self.name!r}")

    def mean(self) -> float:
        p = self.params
        if self.name in ("gamma", "erlang"):
            return p["shape"] * p["scale"]
        if self.name == "lognormal":
            return math.exp(p["mu"] + 0.5 * p["sigma"] ** 2)
        if self.name == "two_normal_mixture":
            return p["w"] * p["mu1"] + (1 - p["w"]) * p["mu2"]
        if self.name == "hyperexponential":
            return p["w"] / p["rate1"] + (1 - p["w"]) / p["rate2"]
        if self.name == "uniform":
            return 0.5 * (p["low"] + p["high"])
        if self.name == "weibull":
            return p["scale"] * math.gamma(1.0 + 1.0 / p["shape"])
        raise AssertionError(self.name)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Strictly positive samples; nonpositive normal-mixture draws are
        redrawn from the same stream."""
        p = self.params
        if self.name in ("gamma", "erlang"):
            return rng.gamma(p["shape"], p["scale"], size)
        if self.name == "lognormal":
            return rng.lognormal(p["mu"], p["sigma"], size)
        if self.name == "two_normal_mixture":
            pick = rng.random(size) < p["w"]
            out = np.where(
                pick,
                rng.normal(p["mu1"], p["sigma1"], size),
                rng.normal(p["mu2"], p["sigma2"], size),
            )
            bad = out <= 0
            while bad.any():
                n_bad = int(bad.sum())
                pick = rng.random(n_bad) < p["w"]
                redraw = np.where(
                    pick,
                    rng.normal(p["mu1"], p["sigma1"], n_bad),
                    rng.normal(p["mu2"], p["sigma2"], n_bad),
                )
                out[bad] = redraw
                bad = out <= 0
            return out
        if self.name == "hyperexponential":
            pick = rng.random(size) < p["w"]
            rates = np.where(pick, p["rate1"], p["rate2"])
            return rng.exponential(1.0, size) / rates
        if self.name == "uniform":
            if p["low"] == p["high"]:
                return np.full(size, float(p["low"]))
            return rng.uniform(p["low"], p["high"], size)
        if self.name == "weibull":
            return p["scale"] * rng.weibull(p["shape"], size)
        raise AssertionError(self.name)


@dataclass(frozen=True)
class Modulation:
    """Sinusoidal scaling of the inter-arrival mean: the mean at cumulative
    time t is mean / (1 + amplitude * sin(2 pi t / period + phase))."""

    amplitude: float
    period: float
    phase: float

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 1.0):
            raise InvalidValue("amplitude must be in [0, 1)")
        if self.period <= 0:
            raise InvalidValue("period must be positive")


@dataclass(frozen=True)
class QueueConfig:
    arrival: ServiceTimeFamily
    service: ServiceTimeFamily
    modulation: Modulation | None = None
    n_arrivals: int = 500
    n_replications: int = 200
    dt: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_arrivals < 1:
            raise InvalidValue(f"number of arrivals must be >= 1, got {self.n_arrivals}")
        if self.n_replications < 1:
            raise InvalidValue(
                f"number of replications must be >= 1, got {self.n_replications}"
            )
        if not self.dt > 0:
            raise InvalidValue(f"grid step dt must be positive, got {self.dt}")

    @property
    def utilization(self) -> float:
        return self.service.mean() / self.arrival.mean()

    def check_utilization(self) -> None:
        lo, hi = UTILIZATION_BAND
        u = self.utilization
        if not (lo <= u <= hi):
            raise InvalidValue(f"utilization {u:.4f} outside [{lo}, {hi}]")


def _replication_rng(master_seed: int, system_index: int, replication: int):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([master_seed, system_index, replication]))
    )


def lindley_departures(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Departure times of single-server FIFO queues over the last axis:
    d_i = max(a_i, d_{i-1}) + s_i. Leading axes are independent queues."""
    out = np.empty_like(arrivals)
    prev = np.full(arrivals.shape[:-1], -np.inf)
    for i in range(arrivals.shape[-1]):
        prev = np.maximum(arrivals[..., i], prev) + services[..., i]
        out[..., i] = prev
    return out


def _arrival_times(base: np.ndarray, modulation: Modulation | None) -> np.ndarray:
    """Cumulative arrival times over the last axis from unit-scale i.i.d.
    draws; for modulated configs the next gap's mean is scaled by the rate at
    the current time."""
    if modulation is None:
        return np.cumsum(base, axis=-1)
    a, period, phase = modulation.amplitude, modulation.period, modulation.phase
    times = np.empty_like(base)
    t = np.zeros(base.shape[:-1])
    for i in range(base.shape[-1]):
        scale = 1.0 / (1.0 + a * np.sin(2.0 * math.pi * t / period + phase))
        t = t + base[..., i] * scale
        times[..., i] = t
    return times


def _draw(config: QueueConfig, system_index: int, replication: int):
    """One replication's (inter-arrival draws, service times), from its own
    RNG stream."""
    rng = _replication_rng(config.seed, system_index, replication)
    gaps = config.arrival.sample(rng, config.n_arrivals)
    services = config.service.sample(rng, config.n_arrivals)
    return gaps, services


def simulate_replication(config: QueueConfig, system_index: int, replication: int):
    """One replication's (arrival_times, departure_times)."""
    gaps, services = _draw(config, system_index, replication)
    arrivals = _arrival_times(gaps, config.modulation)
    return arrivals, lindley_departures(arrivals, services)


def occupancy_on_grid(arrivals, departures, grid) -> np.ndarray:
    """Number in system at each grid instant: arrivals so far minus
    departures so far."""
    return np.searchsorted(arrivals, grid, side="right") - np.searchsorted(
        departures, grid, side="right"
    )


def simulate_system(
    config: QueueConfig,
    system_index: int = 0,
    check_utilization: bool = True,
) -> SimplexSeries:
    """Average per-grid-instant occupancy indicator histograms across
    replications, simulated together as (R, N) arrays. The grid runs from 0
    to the earliest replication's last departure so every grid point
    aggregates all replications."""
    if check_utilization:
        config.check_utilization()
    shape = (config.n_replications, config.n_arrivals)
    gaps, services = np.empty(shape), np.empty(shape)
    for r in range(config.n_replications):
        gaps[r], services[r] = _draw(config, system_index, r)
    arrivals = _arrival_times(gaps, config.modulation)
    departures = lindley_departures(arrivals, services)
    del gaps, services  # free the draws before the occupancy arrays: peak memory
    horizon = departures[:, -1].min()
    n_grid = int(math.floor(horizon / config.dt)) + 1
    grid = np.arange(n_grid) * config.dt
    occ = np.array([occupancy_on_grid(a, d, grid) for a, d in zip(arrivals, departures)])
    d = max(int(occ.max()) + 1, 2)
    counts = np.bincount((np.arange(n_grid) * d + occ).ravel(), minlength=n_grid * d)
    steps = counts.reshape(n_grid, d) / config.n_replications
    return SimplexSeries(f"system{system_index:05d}", True, steps)


def sample_config(
    section: str,
    rng: np.random.Generator,
    n_arrivals: int = 500,
    n_replications: int = 200,
    seed: int = 0,
    max_attempts: int = 10_000,
) -> QueueConfig:
    """Draw a random family pair and parameters, rejection-sampling until the
    expected utilization lands in the accepted band."""
    if section == "homogeneous":
        families = HOMOGENEOUS_FAMILIES
        modulated = False
    elif section == "nonhomogeneous":
        families = NONHOMOGENEOUS_FAMILIES
        modulated = True
    else:
        raise InvalidValue(f"unknown section {section!r}")
    lo, hi = UTILIZATION_BAND
    for _ in range(max_attempts):
        arrival_mean = rng.uniform(0.5, 1.2)
        service_mean = arrival_mean * rng.uniform(lo, hi)
        arrival = _draw_family(rng.choice(families), arrival_mean, rng)
        service = _draw_family(rng.choice(families), service_mean, rng)
        modulation = None
        if modulated:
            modulation = Modulation(
                amplitude=float(rng.uniform(0.15, 0.35)),
                period=float(rng.uniform(25.0, 100.0)),
                phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        config = QueueConfig(
            arrival=arrival,
            service=service,
            modulation=modulation,
            n_arrivals=n_arrivals,
            n_replications=n_replications,
            seed=seed,
        )
        if lo <= config.utilization <= hi:
            return config
    raise InvalidValue(f"no config accepted in {max_attempts} attempts")


PARAM_PRIORS = {
    "gamma": "shape ~ U(0.5, 4), scale = mean/shape",
    "erlang": "shape ~ UniformInt(1, 5), scale = mean/shape",
    "lognormal": "sigma ~ U(0.2, 0.8), mu = ln(mean) - sigma^2/2",
    "two_normal_mixture": "w ~ U(0.3, 0.7), mu1 = mean*U(0.6, 0.9), sigma_i = 0.15*mu_i",
    "hyperexponential": "w ~ U(0.3, 0.7), rate1 = 1/(mean*U(0.5, 0.9))",
    "uniform": "half-width ~ U(0.1, 0.9)*mean",
    "weibull": "shape ~ U(0.8, 2.5), scale = mean/Gamma(1+1/shape)",
    "arrival_mean": "U(0.5, 1.2)",
    "utilization": "U(0.26, 0.6) before family-specific rejection",
}


def _draw_family(name: str, mean: float, rng: np.random.Generator) -> ServiceTimeFamily:
    """Family parameters drawn so the distribution has the requested mean."""
    name = str(name)
    if name == "gamma":
        shape = float(rng.uniform(0.5, 4.0))
        return ServiceTimeFamily("gamma", {"shape": shape, "scale": mean / shape})
    if name == "erlang":
        shape = int(rng.integers(1, 6))
        return ServiceTimeFamily("erlang", {"shape": shape, "scale": mean / shape})
    if name == "lognormal":
        sigma = float(rng.uniform(0.2, 0.8))
        return ServiceTimeFamily(
            "lognormal", {"mu": math.log(mean) - 0.5 * sigma**2, "sigma": sigma}
        )
    if name == "two_normal_mixture":
        w = float(rng.uniform(0.3, 0.7))
        mu1 = mean * float(rng.uniform(0.6, 0.9))
        mu2 = (mean - w * mu1) / (1.0 - w)
        return ServiceTimeFamily(
            "two_normal_mixture",
            {"w": w, "mu1": mu1, "sigma1": 0.15 * mu1, "mu2": mu2, "sigma2": 0.15 * mu2},
        )
    if name == "hyperexponential":
        w = float(rng.uniform(0.3, 0.7))
        u1 = float(rng.uniform(0.5, 0.9))
        rate1 = 1.0 / (mean * u1)
        rate2 = (1.0 - w) / (mean * (1.0 - w * u1))
        return ServiceTimeFamily(
            "hyperexponential", {"w": w, "rate1": rate1, "rate2": rate2}
        )
    if name == "uniform":
        half = mean * float(rng.uniform(0.1, 0.9))
        return ServiceTimeFamily("uniform", {"low": mean - half, "high": mean + half})
    if name == "weibull":
        shape = float(rng.uniform(0.8, 2.5))
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return ServiceTimeFamily("weibull", {"shape": shape, "scale": scale})
    raise InvalidValue(f"unknown family {name!r}")


def pad_to_section_dim(series_list: list[SimplexSeries]) -> tuple[list[SimplexSeries], int]:
    """Zero-pad every system's distributions to the section-wide bin count
    (the max occupancy observed across the section, plus one)."""
    d = max(s.steps.shape[1] for s in series_list)
    out = []
    for s in series_list:
        steps = s.steps
        if steps.shape[1] < d:
            steps = np.hstack([steps, np.zeros((len(steps), d - steps.shape[1]))])
        out.append(SimplexSeries(s.id, s.ordered, steps, s.loss_mask))
    return out, d


@dataclass
class QueueSection:
    section: str
    systems: list
    configs: list
    dim: int
    master_seed: int

    def manifest(self, split_assignments: dict | None = None) -> dict:
        return {
            "section": self.section,
            "master_seed": self.master_seed,
            "dim": self.dim,
            "n_systems": len(self.systems),
            "param_priors": PARAM_PRIORS,
            "utilization": {
                "min": min(c.utilization for c in self.configs),
                "max": max(c.utilization for c in self.configs),
            },
            "systems": [
                {
                    "system_id": s.id,
                    "config": asdict(c),
                    "split": None
                    if split_assignments is None
                    else split_assignments.get(s.id),
                }
                for s, c in zip(self.systems, self.configs)
            ],
        }


def generate_section(
    section: str,
    n_systems: int,
    master_seed: int,
    n_arrivals: int = 500,
    n_replications: int = 200,
) -> QueueSection:
    if n_systems < 1:
        raise InvalidValue(f"number of systems must be >= 1, got {n_systems}")
    rng = np.random.default_rng(master_seed)
    configs, systems = [], []
    for i in range(n_systems):
        config = sample_config(
            section, rng, n_arrivals=n_arrivals, n_replications=n_replications,
            seed=master_seed,
        )
        configs.append(config)
        systems.append(simulate_system(config, system_index=i))
    systems, dim = pad_to_section_dim(systems)
    return QueueSection(section, systems, configs, dim, master_seed)


# ------------------------------------------------------------------- split


def support_width(series: SimplexSeries) -> int:
    """Highest occupancy bin carrying any mass across the series."""
    nz = np.flatnonzero(series.steps.sum(axis=0) > 0)
    return int(nz[-1]) if len(nz) else 0


def split_systems(
    systems: list,
    fractions: tuple = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> dict:
    """Whole-system split stratified by support width: systems are ordered by
    width (ties shuffled) and streamed to the split with the largest deficit
    against its target fraction, which keeps every width decile and the global
    counts within one system of proportional. Returns system id -> "train",
    "val" or "test"."""
    if len(systems) < 10:
        raise InvalidValue(f"need >= 10 systems, got {len(systems)}")
    if not np.isclose(sum(fractions), 1.0):
        raise InvalidValue("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    widths = np.array([support_width(s) for s in systems])
    jitter = rng.permutation(len(systems))
    order = np.lexsort((jitter, widths))
    names = ("train", "val", "test")
    counts = np.zeros(3)
    assignments = {}
    for n_done, idx in enumerate(order):
        deficits = np.array(fractions) * (n_done + 1) - counts
        pick = int(np.argmax(deficits))
        counts[pick] += 1
        assignments[systems[idx].id] = names[pick]
    return assignments
