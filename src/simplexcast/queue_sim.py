"""Single-server FIFO queue-occupancy benchmark generator.

Each system is a randomly parameterized G/G/1 queue. Every replication draws
its inter-arrival and service times from its own counter-based (Philox) RNG
stream, keyed by (master seed, system index, replication index), so output is
independent of scheduling. A system derives its R stream keys in one
vectorised pass of numpy's SeedSequence mixing and draws every replication
from one reused generator. The draws are stacked into (N, R) arrays, one row
per arrival: the arrival-time and Lindley departure recursions loop over the
N rows in place, and the occupancy of every replication at every grid
instant comes from one count per side, so the across-replication empirical
occupancy histogram at each grid instant becomes one distribution-valued
time step.
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


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _replication_rng(master_seed: int, system_index: int, replication: int):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([master_seed, system_index, replication]))
    )


def _uint32_words(n: int) -> list[int]:
    """n split as SeedSequence splits an int: little-endian uint32 words,
    [0] for 0."""
    if n < 0:
        raise InvalidValue(f"expected non-negative integer, got {n}")
    words = []
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words or [0]


def _replication_keys(master_seed: int, system_index: int, n: int) -> np.ndarray:
    """Philox keys of replications 0..n-1 of one system, shape (n, 2): row r
    equals SeedSequence([master_seed, system_index, r]).generate_state(2,
    np.uint64), by numpy's published mixing run on all n entropy vectors at
    once. Only the last entropy word, r, differs between rows."""
    entropy = [
        np.full(n, w, np.uint32)
        for w in _uint32_words(master_seed) + _uint32_words(system_index)
    ]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        out ^= out >> 16
        return out

    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four uint32 words, read little-endian
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word *= np.uint32(hash_const)
        word ^= word >> 16
        state.append(word.astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _by_rows(x: np.ndarray) -> np.ndarray:
    """x as (rows, queues), a view for a 1-D, 2-D or contiguous x; a 1-D x
    is one queue."""
    return x.reshape(len(x), -1)


def lindley_departures(arrivals: np.ndarray, services: np.ndarray, out=None) -> np.ndarray:
    """Departure times of single-server FIFO queues over the first axis:
    d_i = max(a_i, d_{i-1}) + s_i. Trailing axes are independent queues.
    `out` may be `services`: each row is read before it is written."""
    if out is None:
        out = np.empty_like(arrivals)
    a, s, d = _by_rows(arrivals), _by_rows(services), _by_rows(out)
    prev = np.full(a.shape[1:], -np.inf)
    top = np.empty(a.shape[1:])
    for i in range(len(a)):
        np.maximum(a[i], prev, out=top)
        prev = np.add(top, s[i], out=d[i])
    return out


def _arrival_times(base: np.ndarray, modulation: Modulation | None, out=None) -> np.ndarray:
    """Cumulative arrival times over the first axis from unit-scale i.i.d.
    draws; for modulated configs the next gap's mean is scaled by the rate at
    the current time. `out` may be `base`."""
    if out is None:
        out = np.empty_like(base)
    if modulation is None:
        return np.cumsum(base, axis=0, out=out)
    a, period, phase = modulation.amplitude, modulation.period, modulation.phase
    gaps, times = _by_rows(base), _by_rows(out)
    t = np.zeros(gaps.shape[1:])
    scale = np.empty(gaps.shape[1:])
    for i in range(len(gaps)):
        # scale = 1 / (1 + a sin(2 pi t / period + phase)), one op at a time
        np.multiply(2.0 * math.pi, t, out=scale)
        scale /= period
        scale += phase
        np.sin(scale, out=scale)
        scale *= a
        scale += 1.0
        np.divide(1.0, scale, out=scale)
        np.multiply(gaps[i], scale, out=times[i])
        t = np.add(t, times[i], out=times[i])
    return out


def _draw(config: QueueConfig, system_index: int, replication: int):
    """One replication's (inter-arrival draws, service times), from its own
    RNG stream: the reference that `simulate_system`'s reused generator
    matches."""
    rng = _replication_rng(config.seed, system_index, replication)
    gaps = config.arrival.sample(rng, config.n_arrivals)
    services = config.service.sample(rng, config.n_arrivals)
    return gaps, services


def simulate_replication(config: QueueConfig, system_index: int, replication: int):
    """One replication's (arrival_times, departure_times)."""
    gaps, services = _draw(config, system_index, replication)
    arrivals = _arrival_times(gaps, config.modulation)
    return arrivals, lindley_departures(arrivals, services)


_BLOCK = 8192  # times per block of occupancy_on_grid: 64 KB per scratch array


def occupancy_on_grid(arrivals, departures, n_grid: int, dt: float) -> np.ndarray:
    """Number in system at the grid instants k*dt, k < n_grid, as (R, n_grid)
    from (N, R) arrival and departure times: arrivals so far minus departures
    so far. A time t first counts at the grid index k = ceil(t/dt), corrected
    against k*dt so that k is the first with k*dt >= t for any dt. Each
    arrival adds 1 and each departure -1 at (replication, k), with k = n_grid
    past the grid, and a cumulative sum over the grid gives the counts. The
    rows go through in blocks of about `_BLOCK` times, so the scratch stays
    small whatever N and R are."""
    n, n_reps = arrivals.shape
    width = n_grid + 1
    offsets = np.arange(n_reps) * width
    rows = max(1, _BLOCK // n_reps)
    k, k_dt = np.empty((2, rows, n_reps))
    index = np.empty((rows, n_reps), np.int64)
    occ = np.zeros(n_reps * width, np.int64)
    for times, step in ((arrivals, 1), (departures, -1)):
        for lo in range(0, n, rows):
            t = times[lo : lo + rows]
            kb, kb_dt, ib = k[: len(t)], k_dt[: len(t)], index[: len(t)]
            np.divide(t, dt, out=kb)
            np.ceil(kb, out=kb)
            np.multiply(kb, dt, out=kb_dt)
            np.add(kb, kb_dt < t, out=kb)
            np.subtract(kb, 1.0, out=kb_dt)
            np.multiply(kb_dt, dt, out=kb_dt)
            np.subtract(kb, kb_dt >= t, out=kb)
            np.minimum(kb, n_grid, out=kb)
            np.add(kb, offsets, out=ib, casting="unsafe")
            np.add.at(occ, ib.ravel(), step)
    occ = occ.reshape(n_reps, width)
    np.cumsum(occ, axis=1, out=occ)
    return occ[:, :n_grid]


def simulate_system(
    config: QueueConfig,
    system_index: int = 0,
    check_utilization: bool = True,
    work=None,
) -> SimplexSeries:
    """Average per-grid-instant occupancy indicator histograms across
    replications. Replication r's draws come from one reused Philox
    generator whose state is set to (key r, counter 0, empty buffer), the
    stream `_draw` builds from its own SeedSequence, into column r of (N, R)
    arrays; both recursions then run over the N rows in place, and
    `occupancy_on_grid` counts all replications at once. The grid runs from
    0 to the earliest replication's last departure so every grid point
    aggregates all replications. `work`, a float array of shape (2, N, R),
    holds the draws and is overwritten; one is made when it is None.
    `generate_section` passes one to every system, so the systems of a
    section reuse its memory."""
    if check_utilization:
        config.check_utilization()
    n, n_reps = config.n_arrivals, config.n_replications
    if work is None:
        work = np.empty((2, n, n_reps))
    gaps, services = work
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffer; the key is set per replication
    for r, key in enumerate(_replication_keys(config.seed, system_index, n_reps)):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gaps[:, r] = config.arrival.sample(rng, n)
        services[:, r] = config.service.sample(rng, n)
    arrivals = _arrival_times(gaps, config.modulation, out=gaps)
    departures = lindley_departures(arrivals, services, out=services)
    n_grid = int(math.floor(departures[-1].min() / config.dt)) + 1
    occ = occupancy_on_grid(arrivals, departures, n_grid, config.dt)
    d = max(int(occ.max()) + 1, 2)
    counts = np.bincount((np.arange(n_grid) * d + occ).ravel(), minlength=n_grid * d)
    steps = counts.reshape(n_grid, d) / n_reps
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
    configs = [
        sample_config(
            section, rng, n_arrivals=n_arrivals, n_replications=n_replications,
            seed=master_seed,
        )
        for _ in range(n_systems)
    ]
    work = np.empty((2, n_arrivals, n_replications))  # sizes checked by the configs
    systems = [simulate_system(c, system_index=i, work=work) for i, c in enumerate(configs)]
    systems, dim = pad_to_section_dim(systems)
    return QueueSection(section, systems, configs, dim, master_seed)


# ------------------------------------------------------------------- split


def support_width(series: SimplexSeries) -> int:
    """Highest occupancy bin carrying any mass across the series."""
    nz = np.flatnonzero(series.steps.sum(axis=0) > 0)
    return int(nz[-1]) if len(nz) else 0


def check_split_size(n_systems: int) -> None:
    """A split needs at least 10 systems."""
    if n_systems < 10:
        raise InvalidValue(f"need >= 10 systems, got {n_systems}")


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
    check_split_size(len(systems))
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
