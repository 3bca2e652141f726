import hashlib
import heapq
import math
from collections import deque
from dataclasses import asdict, fields

import numpy as np
import pytest

from simplexcast import queue_sim
from simplexcast.cli import cli_dispatch
from simplexcast.errors import InvalidValue
from simplexcast.queue_sim import (
    HOMOGENEOUS_FAMILIES,
    Modulation,
    NONHOMOGENEOUS_FAMILIES,
    QueueConfig,
    ServiceTimeFamily,
    UTILIZATION_BAND,
    _arrival_times,
    _draw_family,
    _replication_keys,
    _replication_rng,
    generate_section,
    lindley_departures,
    occupancy_on_grid,
    pad_to_section_dim,
    sample_config,
    simulate_replication,
    simulate_system,
    split_systems,
    support_width,
)
from simplexcast.simplex import SimplexSeries


def event_calendar_departures(arrivals, services):
    """Independent discrete-event oracle: explicit event heap, FIFO queue,
    one server."""
    events = [(a, 0, i) for i, a in enumerate(arrivals)]
    heapq.heapify(events)
    waiting = deque()
    busy = False
    departures = [0.0] * len(arrivals)
    while events:
        t, kind, i = heapq.heappop(events)
        if kind == 0:
            waiting.append(i)
        else:
            departures[i] = t
            busy = False
        if not busy and waiting:
            j = waiting.popleft()
            heapq.heappush(events, (t + services[j], 1, j))
            busy = True
    return np.array(departures)


def det_family(value):
    return ServiceTimeFamily("uniform", {"low": value, "high": value})


def expo_family(mean):
    return ServiceTimeFamily("gamma", {"shape": 1.0, "scale": mean})


# ----------------------------------------------------------------- lindley


def test_lindley_matches_event_calendar_on_tiny_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        gaps = rng.exponential(1.0, n)
        arrivals = np.cumsum(gaps)
        services = rng.exponential(0.6, n)
        assert np.allclose(
            lindley_departures(arrivals, services),
            event_calendar_departures(arrivals, services),
            rtol=0,
            atol=1e-12,
        )


def test_deterministic_queue_hand_oracle():
    # inter-arrival 2, service 1: job i arrives at 2(i+1), departs at 2(i+1)+1
    config = QueueConfig(
        arrival=det_family(2.0),
        service=det_family(1.0),
        n_arrivals=5,
        n_replications=1,
        seed=0,
    )
    arr, dep = simulate_replication(config, 0, 0)
    assert np.allclose(arr, [2, 4, 6, 8, 10])
    assert np.allclose(dep, [3, 5, 7, 9, 11])
    series = simulate_system(config)
    # occupancy on grid 0..11: one job in system exactly at even t >= 2
    expected_occ = [1 if (t >= 2 and t % 2 == 0) else 0 for t in range(12)]
    assert series.steps.shape == (12, 2)
    assert np.allclose(series.steps[np.arange(12), expected_occ], 1.0)


def test_tiny_service_concentrates_low_occupancy():
    config = QueueConfig(
        arrival=expo_family(1.0),
        service=det_family(1e-6),
        n_arrivals=200,
        n_replications=20,
        seed=3,
    )
    series = simulate_system(config, check_utilization=False)
    mass_low = series.steps[:, : min(2, series.steps.shape[1])].sum(axis=1)
    assert np.all(mass_low > 0.999)


def test_occupancy_never_negative_and_dists_sum_to_one():
    config = QueueConfig(
        arrival=expo_family(1.0),
        service=expo_family(0.5),
        n_arrivals=100,
        n_replications=30,
        seed=11,
    )
    series = simulate_system(config)
    assert np.all(series.steps >= 0)
    assert np.allclose(series.steps.sum(axis=1), 1.0)


@pytest.mark.slow
def test_mm1_matches_geometric_stationary_law():
    util = 0.5
    config = QueueConfig(
        arrival=expo_family(2.0),
        service=expo_family(1.0),
        n_arrivals=500,
        n_replications=2000,
        seed=42,
    )
    series = simulate_system(config)
    late = series.steps[-250:-50].mean(axis=0)
    k = np.arange(len(late))
    geometric = (1 - util) * util**k
    geometric[-1] += 1 - geometric.sum()  # fold the tail into the last bin
    tv = 0.5 * np.abs(late - geometric).sum()
    assert tv < 0.02


# ---------------------------------------------------------------- families


@pytest.mark.parametrize("name", HOMOGENEOUS_FAMILIES)
def test_family_sample_mean_and_positivity(name):
    rng = np.random.default_rng(5)
    fam = _draw_family(name, 1.7, rng)
    assert np.isclose(fam.mean(), 1.7, rtol=1e-12)
    x = fam.sample(np.random.default_rng(8), 20000)
    assert np.all(x > 0)
    assert np.isclose(x.mean(), 1.7, rtol=0.05)


# ------------------------------------------------------------------ config


def test_utilization_band_enforced():
    config = QueueConfig(arrival=det_family(1.0), service=det_family(0.9))
    with pytest.raises(InvalidValue, match=r"^utilization 0\.9000 outside \[0\.26, 0\.6\]$"):
        config.check_utilization()
    with pytest.raises(InvalidValue, match=r"^utilization 0\.9000 outside \[0\.26, 0\.6\]$"):
        simulate_system(config)


def test_sampled_configs_in_band_and_families():
    rng = np.random.default_rng(0)
    lo, hi = UTILIZATION_BAND
    for _ in range(300):
        c = sample_config("homogeneous", rng)
        assert lo <= c.utilization <= hi
        assert c.modulation is None
    for _ in range(300):
        c = sample_config("nonhomogeneous", rng)
        assert lo <= c.utilization <= hi
        assert c.arrival.name != "weibull"
        assert c.service.name != "weibull"
        assert c.modulation is not None
    assert "weibull" not in NONHOMOGENEOUS_FAMILIES


def test_sample_config_deterministic():
    a = [sample_config("homogeneous", np.random.default_rng(9)) for _ in range(20)]
    b = [sample_config("homogeneous", np.random.default_rng(9)) for _ in range(20)]
    assert a == b


def test_config_json_names_every_field():
    # the section manifest records each system's config as dataclasses.asdict
    rng = np.random.default_rng(2)
    c = sample_config("nonhomogeneous", rng, n_arrivals=50, n_replications=5, seed=77)
    obj = asdict(c)
    assert set(obj) == {f.name for f in fields(QueueConfig)}
    assert set(obj["arrival"]) == set(obj["service"]) == {f.name for f in fields(ServiceTimeFamily)}
    assert set(obj["modulation"]) == {f.name for f in fields(Modulation)}
    assert [obj["n_arrivals"], obj["n_replications"], obj["seed"]] == [50, 5, 77]


# -------------------------------------------------------------- modulation


def test_modulated_arrivals_show_configured_period():
    period = 50.0
    mod = Modulation(amplitude=0.8, period=period, phase=0.0)
    rng = np.random.default_rng(1)
    counts = np.zeros(1800)
    for _ in range(50):
        base = rng.exponential(1.0, 2000)
        times = _arrival_times(base, mod)
        counts += np.bincount(times[times < 1800].astype(int), minlength=1800)
    x = counts - counts.mean()
    ac = np.correlate(x, x, mode="full")[len(x) - 1 :]
    peak = 10 + int(np.argmax(ac[10:100]))
    assert abs(peak - period) <= 5


def test_modulation_validation():
    with pytest.raises(ValueError):
        Modulation(amplitude=1.0, period=10.0, phase=0.0)
    with pytest.raises(ValueError):
        Modulation(amplitude=0.2, period=0.0, phase=0.0)


# ------------------------------------------- (N, R) layout vs one replication


def scalar_arrival_times(base, modulation):
    """Per-arrival scalar loop with math.sin, in the recursion's operand order."""
    times = np.empty(len(base))
    t = 0.0
    a, period, phase = modulation.amplitude, modulation.period, modulation.phase
    for i in range(len(base)):
        scale = 1.0 / (1.0 + a * math.sin(2.0 * math.pi * t / period + phase))
        t = t + base[i] * scale
        times[i] = t
    return times


def scalar_lindley(arrivals, services):
    out = np.empty(len(arrivals))
    prev = -np.inf
    for i in range(len(arrivals)):
        prev = max(arrivals[i], prev) + services[i]
        out[i] = prev
    return out


def searchsorted_occupancy(arrivals, departures, grid):
    """One replication's number in system at each grid instant, by binary
    search: arrivals so far minus departures so far."""
    return np.searchsorted(arrivals, grid, side="right") - np.searchsorted(
        departures, grid, side="right"
    )


def reference_steps(config, system_index=0):
    """One simulate_replication per replication (its own SeedSequence and
    generator), its occupancy by binary search into the grid, then the
    per-cell np.add.at histogram."""
    reps = [
        simulate_replication(config, system_index, r)
        for r in range(config.n_replications)
    ]
    horizon = min(dep[-1] for _, dep in reps)
    n_grid = int(math.floor(horizon / config.dt)) + 1
    grid = np.arange(n_grid) * config.dt
    occ = np.array([searchsorted_occupancy(arr, dep, grid) for arr, dep in reps])
    d = max(int(occ.max()) + 1, 2)
    hist = np.zeros((n_grid, d))
    rows = np.broadcast_to(np.arange(n_grid), occ.shape)
    np.add.at(hist, (rows.ravel(), occ.ravel()), 1.0)
    return hist / config.n_replications


MOD = Modulation(amplitude=0.3, period=20.0, phase=1.1)


@pytest.mark.parametrize("modulation", [None, MOD], ids=["plain", "modulated"])
@pytest.mark.parametrize("name", HOMOGENEOUS_FAMILIES)
def test_system_equals_stacked_replications(name, modulation):
    rng = np.random.default_rng(HOMOGENEOUS_FAMILIES.index(name))
    family = _draw_family(name, 1.0, rng)
    other = _draw_family("gamma", 0.45, rng)
    pairs = [(family, other), (_draw_family("lognormal", 2.2, rng), family)]
    for k, (arrival, service) in enumerate(pairs):
        config = QueueConfig(
            arrival=arrival, service=service, modulation=modulation,
            n_arrivals=60, n_replications=12, dt=0.7, seed=31,
        )
        got = simulate_system(config, system_index=k, check_utilization=False)
        assert np.array_equal(got.steps, reference_steps(config, k))


def test_system_equals_stacked_replications_on_redraws_and_constants():
    mixture = ServiceTimeFamily(
        "two_normal_mixture",
        {"w": 0.5, "mu1": 0.3, "sigma1": 0.4, "mu2": 1.7, "sigma2": 0.9},
    )
    seed, n = 5, 40
    # the first pass of some replication's arrival draws is nonpositive, so
    # the redraw loop runs
    first_pass_bad = False
    for r in range(8):
        g = _replication_rng(seed, 0, r)
        pick = g.random(n) < 0.5
        first = np.where(pick, g.normal(0.3, 0.4, n), g.normal(1.7, 0.9, n))
        first_pass_bad |= bool((first <= 0).any())
    assert first_pass_bad
    for modulation in (None, MOD):
        for arrival, service in (
            (mixture, det_family(0.4)),
            (det_family(1.5), mixture),
            (det_family(2.0), det_family(1.0)),
        ):
            config = QueueConfig(
                arrival=arrival, service=service, modulation=modulation,
                n_arrivals=n, n_replications=8, seed=seed,
            )
            got = simulate_system(config, check_utilization=False)
            assert np.array_equal(got.steps, reference_steps(config))


def two_pass_mixture(rng, p, size):
    """The two-normal mixture sampler written as a first pass over every
    entry, then a loop that redraws the nonpositive ones from the same
    stream."""
    pick = rng.random(size) < p["w"]
    out = np.where(pick, rng.normal(p["mu1"], p["sigma1"], size),
                   rng.normal(p["mu2"], p["sigma2"], size))
    bad = out <= 0
    while bad.any():
        n_bad = int(bad.sum())
        pick = rng.random(n_bad) < p["w"]
        out[bad] = np.where(pick, rng.normal(p["mu1"], p["sigma1"], n_bad),
                            rng.normal(p["mu2"], p["sigma2"], n_bad))
        bad = out <= 0
    return out


@pytest.mark.parametrize("size", [0, 1, 7, 40, 500])
def test_mixture_stream_equals_two_pass_sampler(size):
    # sigma 0.4 on mu 0.3 puts over a fifth of one component's draws at or
    # below zero, so about one entry in eight is redrawn
    params = {"w": 0.5, "mu1": 0.3, "sigma1": 0.4, "mu2": 1.7, "sigma2": 0.9}
    mixture = ServiceTimeFamily("two_normal_mixture", params)
    redrawn = 0
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mixture.sample(rng, size)
        assert got.tobytes() == two_pass_mixture(ref, params, size).tobytes()
        # both leave the stream at the same place
        assert rng.random() == ref.random()
        first = np.random.default_rng(seed)
        pick = first.random(size) < 0.5
        redrawn += bool((np.where(pick, first.normal(0.3, 0.4, size),
                                  first.normal(1.7, 0.9, size)) <= 0).any())
    if size:
        assert redrawn >= 5  # the loop redraws on some seeds


@pytest.mark.parametrize("modulation", [None, MOD], ids=["plain", "modulated"])
def test_recursion_rows_equal_one_dimensional_calls(modulation):
    rng = np.random.default_rng(17)
    base = rng.exponential(1.0, (300, 6))
    services = rng.gamma(2.0, 0.4, (300, 6))
    arrivals = _arrival_times(base, modulation)
    departures = lindley_departures(arrivals, services)
    assert arrivals.shape == departures.shape == (300, 6)
    for r in range(6):
        column = np.ascontiguousarray(base[:, r])
        assert np.array_equal(arrivals[:, r], _arrival_times(column, modulation))
        a, s = np.ascontiguousarray(arrivals[:, r]), np.ascontiguousarray(services[:, r])
        assert np.array_equal(departures[:, r], lindley_departures(a, s))
        assert np.array_equal(departures[:, r], scalar_lindley(a, s))
    # in place, as simulate_system runs them: the same bytes
    work_a, work_s = base.copy(), services.copy()
    assert _arrival_times(work_a, modulation, out=work_a) is work_a
    assert lindley_departures(work_a, work_s, out=work_s) is work_s
    assert np.array_equal(work_a, arrivals) and np.array_equal(work_s, departures)


def test_modulated_arrivals_equal_scalar_math_sin_loop():
    rng = np.random.default_rng(23)
    for _ in range(5):
        mod = Modulation(
            amplitude=float(rng.uniform(0.0, 0.9)),
            period=float(rng.uniform(5.0, 100.0)),
            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        base = rng.exponential(1.0, (400, 4))
        got = _arrival_times(base, mod)
        for r in range(4):
            assert np.array_equal(got[:, r], scalar_arrival_times(base[:, r], mod))


# Recorded by running this exact command on the parent commit, before the
# generator worked on (R, N) arrays; the outputs must stay byte-identical.
GOLDEN_SHA256 = {
    "homogeneous.jsonl": "ae2f8cf21652442bc3df8c61f5dea42d1ca6b55bfb3bbd43a829a3e1a83cffec",
    "homogeneous_manifest.json": "f9c9c020b1e3bff77e2e9b9f83c89ce0e7598196856e1afbe0a5f8e04d2ebf67",
    "nonhomogeneous.jsonl": "68d6cbb664d7b721960ac37c969bacff4e1dbaa1df8e4493321fc935703fae8f",
    "nonhomogeneous_manifest.json": "cbbce13ed922b4585c0fe2168c9b496d32279e8afe7331efbdb10eafafadceb7",
}


# Recorded the same way at --seed 4294967296 = 2**32, whose SeedSequence
# entropy splits into two uint32 words, on the commit before the stream keys
# were derived in one vectorised pass.
GOLDEN_SHA256_SEED_2_32 = {
    "homogeneous.jsonl": "e2c53dd2cfea7c7ecbc401759d97be82310fa97b5195fbb181840c34dcbfc126",
    "homogeneous_manifest.json": "4ebd637f3914916e418451cd41863c857a9a693a06341edf54f4b14c307fae77",
    "nonhomogeneous.jsonl": "11962fa6408034cad8e25a5c5b76de9ffb0f0a3340adb081c83972085f14abbb",
    "nonhomogeneous_manifest.json": "f822773a3a3a01b47226dad53d706bddaab66583668a3e31b291cdbefb12b588",
}


@pytest.mark.parametrize("section,seed,golden", [
    pytest.param("homogeneous", 7, GOLDEN_SHA256, id="homogeneous"),
    pytest.param("nonhomogeneous", 7, GOLDEN_SHA256, id="nonhomogeneous"),
    pytest.param("homogeneous", 2**32, GOLDEN_SHA256_SEED_2_32, id="homogeneous-seed2**32"),
    pytest.param("nonhomogeneous", 2**32, GOLDEN_SHA256_SEED_2_32,
                 id="nonhomogeneous-seed2**32"),
])
def test_simulate_queues_golden_hashes(section, seed, golden, tmp_path):
    code = cli_dispatch([
        "simulate-queues", "--section", section, "--systems", "10",
        "--arrivals", "100", "--replications", "20", "--seed", str(seed), "--split",
        "--out", str(tmp_path),
    ])
    assert code == 0
    for name in (f"{section}.jsonl", f"{section}_manifest.json"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == golden[name], name


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
def test_queue_config_rejects_bad_grid_step(dt):
    # the size fields are checked through the CLI flags in test_cli_io.py
    with pytest.raises(ValueError, match="grid step"):
        QueueConfig(arrival=det_family(2.0), service=det_family(1.0), dt=dt)


# ------------------------------------------------------------ section/split


def test_generate_section_deterministic():
    a = generate_section("homogeneous", 3, master_seed=5, n_arrivals=40, n_replications=8)
    b = generate_section("homogeneous", 3, master_seed=5, n_arrivals=40, n_replications=8)
    assert a.dim == b.dim
    for s1, s2 in zip(a.systems, b.systems):
        assert s1.id == s2.id
        assert np.array_equal(s1.steps, s2.steps)
    assert a.manifest() == b.manifest()


def test_pad_to_section_dim():
    s1 = SimplexSeries("a", True, np.array([[1.0, 0.0]]))
    s2 = SimplexSeries("b", True, np.array([[0.2, 0.3, 0.5]]))
    padded, d = pad_to_section_dim([s1, s2])
    assert d == 3
    assert padded[0].steps.shape == (1, 3)
    assert np.allclose(padded[0].steps, [[1, 0, 0]])


def _fake_system(i, width):
    steps = np.zeros((1, width + 1))
    steps[0, width] = 1.0
    return SimplexSeries(f"sys{i:05d}", True, steps)


def test_split_10000_systems_exact_counts():
    rng = np.random.default_rng(4)
    systems = [_fake_system(i, int(rng.integers(1, 40))) for i in range(10000)]
    manifest = split_systems(systems, seed=1)
    counts = {s: 0 for s in ("train", "val", "test")}
    for v in manifest.values():
        counts[v] += 1
    assert counts == {"train": 7000, "val": 1000, "test": 2000}
    assert len(manifest) == 10000


def test_split_is_partition_and_stratified():
    rng = np.random.default_rng(6)
    systems = [_fake_system(i, int(rng.integers(1, 30))) for i in range(400)]
    manifest = split_systems(systems, seed=2)
    assert set(manifest) == {s.id for s in systems}
    # per width-rank decile, train fraction within one system of 70%
    widths = {s.id: support_width(s) for s in systems}
    ordered = sorted(systems, key=lambda s: widths[s.id])
    for d in range(10):
        block = ordered[d * 40 : (d + 1) * 40]
        n_train = sum(manifest[s.id] == "train" for s in block)
        assert abs(n_train - 28) <= 2  # streaming allocation, small slack
    with pytest.raises(InvalidValue, match="^need >= 10 systems, got 5$"):
        split_systems(systems[:5])


def test_occupancy_on_grid_counts():
    # one replication per column; grid instants 0, 0.5, ..., 3.5
    arrivals = np.array([[1.0, 0.2], [2.0, 0.3], [3.0, 9.0]])
    departures = np.array([[2.5, 0.6], [4.0, 1.2], [6.0, 9.5]])
    occ = occupancy_on_grid(arrivals, departures, 8, 0.5)
    assert np.array_equal(occ, [[0, 0, 1, 1, 2, 1, 2, 2], [0, 2, 1, 0, 0, 0, 0, 0]])


@pytest.mark.parametrize("block", [None, 12, 1], ids=["one-block", "blocks", "row-blocks"])
@pytest.mark.parametrize("dt", [0.1, 0.3, 0.7, 1.0, 1 / 3])
def test_occupancy_on_grid_exact_at_grid_points(dt, block, monkeypatch):
    # times on a grid instant k*dt, or one ulp either side of it, are where
    # ceil(t/dt) alone can miss by one; a small block splits the 240 rows
    # into blocks of 2 rows or of 1
    if block is not None:
        monkeypatch.setattr(queue_sim, "_BLOCK", block)
    rng = np.random.default_rng(int(dt * 1000))
    n_grid = 200
    grid = np.arange(n_grid) * dt
    on = grid[rng.integers(0, n_grid, (60, 5))]
    times = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                            rng.uniform(0.0, 1.1 * grid[-1], (60, 5))])
    arrivals = np.sort(times, axis=0)
    departures = np.sort(arrivals + rng.exponential(2.0, arrivals.shape), axis=0)
    occ = occupancy_on_grid(arrivals, departures, n_grid, dt)
    for r in range(arrivals.shape[1]):
        assert np.array_equal(
            occ[r], searchsorted_occupancy(arrivals[:, r], departures[:, r], grid)
        )


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("system_index", [0, 2**33])
def test_replication_keys_equal_seed_sequence_keys(seed, system_index):
    keys = _replication_keys(seed, system_index, 40)
    assert keys.shape == (40, 2) and keys.dtype == np.uint64
    for r in range(40):
        want = np.random.SeedSequence([seed, system_index, r]).generate_state(2, np.uint64)
        assert np.array_equal(keys[r], want), r


def test_replication_keys_reject_negative_entropy():
    with pytest.raises(InvalidValue, match="expected non-negative integer"):
        _replication_keys(-1, 0, 3)


@pytest.mark.parametrize("dt", [0.1, 0.3])
@pytest.mark.parametrize("n_arrivals,n_replications", [(50, 1), (1, 9)])
@pytest.mark.parametrize("modulation", [None, MOD], ids=["plain", "modulated"])
def test_system_equals_reference_at_edge_sizes(dt, n_arrivals, n_replications, modulation):
    config = QueueConfig(
        arrival=expo_family(1.0), service=expo_family(0.45), modulation=modulation,
        n_arrivals=n_arrivals, n_replications=n_replications, dt=dt, seed=2**32,
    )
    got = simulate_system(config, system_index=3, check_utilization=False)
    assert np.array_equal(got.steps, reference_steps(config, 3))
