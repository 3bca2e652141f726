"""Executable checks of the identifiability theory, plus the synthetic
aliasing experiment, whose seeds train and summarise through `evaluate`.

The aliasing construction: several regimes share the same current state p*
but have different radius-1 local-transport successors u_z. Any forecaster
that only sees p* is limited by the weighted Jensen-Shannon radius of
{u_z}; an anchor-only forecaster is limited by the L1 gap between u_z and
the anchor hull (via Pinsker); the anchored-transport forecaster can
represent every u_z exactly.

A scenario is only its K regimes: p*, rho, the weights (K,) and the
radius-1 kernels (K, D, 3) in the layout that `transport.cast_step` takes;
whoever asks passes the budget. Its successors are one `transport.shift_mass`
over all regimes, arithmetic of their own, while `check_budget_feasible` and
`cast_oracle` read one `cast_step` over all regimes, so both check the
operator that the model trains, its budget gate included.

`theory_check` builds the report of `theory-check`. It checks the
anchor-only bound on the one-point class that the aliasing construction
gives the forecaster: without transport, and with p* as the only state it
can anchor to, every prediction is p* itself. The bound then has a
closed form, sum_z pi_z KL(u_z || p*) against gaps ||u_z - p*||_1, so
this module needs numpy alone. The paper's general statement, over the
hull of any anchor set, is checked in the tests against a reference LP
and constrained-KL solver (tests/hull_reference.py), which also confirms
the closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import evaluate, transport
from .errors import InvalidValue
from .metrics import DEFAULT_EPS, jsd, js_weighted, kl, l1
from .simplex import SimplexSeries, as_dist, smooth
from .transport import BudgetParams, cast_step


@dataclass(frozen=True)
class AliasingScenario:
    """K regimes that share the state p*. Regime z has weight pis[z] and
    the transport kernel kernels[z], one row (left, stay, right) of offset
    probabilities per bin, and its successor is
    u_z = (1 - rho) p* + rho T_z p*. This is the one place that checks a
    kernel: the block must be (K, D, 3) with D = p*'s size, and each row
    finite, nonnegative and summing to 1."""

    p_star: np.ndarray
    rho: float
    pis: np.ndarray  # (K,)
    kernels: np.ndarray  # (K, D, 3)

    def __post_init__(self):
        p = as_dist(self.p_star)
        pis = np.asarray(self.pis, dtype=np.float64)
        kernels = np.asarray(self.kernels, dtype=np.float64)
        for name, value in (("p_star", p), ("pis", pis), ("kernels", kernels)):
            object.__setattr__(self, name, value)
        if pis.ndim != 1 or not np.isclose(pis.sum(), 1.0, atol=1e-9) or np.any(pis < 0):
            raise InvalidValue("regime weights must be a distribution")
        expected = (pis.size, p.size, 3)
        if kernels.shape != expected:
            raise InvalidValue(f"kernels must have shape (K, D, 3) = {expected}, "
                               f"got {kernels.shape}")
        # written so that NaN fails
        if not (np.all(kernels >= 0) and np.all(np.abs(kernels.sum(axis=-1) - 1.0) <= 1e-9)):
            raise InvalidValue("kernel rows must be nonnegative and sum to 1")
        if not (0.0 < self.rho <= 1.0):
            raise InvalidValue("rho must be in (0, 1]")

    @property
    def k(self) -> int:
        return self.pis.size

    @property
    def dim(self) -> int:
        return self.p_star.size

    def _transported(self) -> np.ndarray:
        """T_z p* for every regime, (K, D)."""
        m = self.p_star[:, None] * self.kernels
        # looked up on its module, where perfbench/tracing.py counts its calls
        return transport.shift_mass(m[..., 0], m[..., 1], m[..., 2])

    def successors(self) -> np.ndarray:
        return (1.0 - self.rho) * self.p_star + self.rho * self._transported()

    def _oracle_step(self, budget: BudgetParams) -> dict:
        """The parts of the regime-aware step (lambda = 1, rho, T_z) from p*.
        Each regime is a batch of one, (K, 1, D, 3), so its mean shift is a
        dot product as in a one-kernel step, to the last ulp of the gate."""
        return cast_step(self.p_star, self.p_star, 1.0, self.kernels[:, None], self.rho, budget)

    def check_budget_feasible(self, budget: BudgetParams) -> None:
        """Raises InvalidValue for the first regime whose transport the gate
        scales down (rho_eff < rho, as |mean shift| + epsilon exceeds the
        budget): its successor is then outside the gated transport class."""
        parts = self._oracle_step(budget)
        rho_eff = parts["rho_eff"][:, 0]
        if np.any(rho_eff < self.rho):
            z = int(np.argmax(rho_eff < self.rho))
            raise InvalidValue(
                f"regime {z}: the gate scales its transport by {rho_eff[z] / self.rho:.10g}, as "
                f"mean shift {abs(parts['delta_mu'][z, 0]):.6g} + epsilon {budget.epsilon:g} "
                f"exceeds budget {parts['budget']:.6g}")


def default_scenario() -> AliasingScenario:
    """D=21 double-peak p* with interior support and two pure unit-shift
    regimes. The peaks sit far apart so the support spread keeps the model's
    default budget above the unit shift; the scenario checks the gate is open."""
    d = 21
    centers = (2, 18)  # zero-based bins 2 and 18
    sigma = 0.6
    p = np.zeros(d)
    for c in centers:
        k = np.arange(d)
        cluster = np.exp(-((k - c) ** 2) / (2.0 * sigma**2))
        cluster[np.abs(k - c) > 1] = 0.0  # interior support: bins c-1..c+1
        p += 0.5 * cluster / cluster.sum()
    kernels = np.zeros((2, d, 3))
    kernels[0, :, 2] = 1.0  # every bin sends its mass one bin right
    kernels[1, :, 0] = 1.0  # and one bin left
    scenario = AliasingScenario(p_star=p, rho=0.2, pis=np.array([0.5, 0.5]), kernels=kernels)
    scenario.check_budget_feasible(BudgetParams())
    return scenario


def random_scenario(rng: np.random.Generator, d: int, k: int) -> AliasingScenario:
    p = rng.dirichlet(np.ones(d) * 1.5)
    pis = rng.dirichlet(np.ones(k))
    kernels = rng.dirichlet(np.ones(3), size=(k, d))
    return AliasingScenario(p_star=p, rho=float(rng.uniform(0.05, 0.2)), pis=pis, kernels=kernels)


# ------------------------------------------------------- fixed-summary


def fixed_summary_optimum(scenario: AliasingScenario) -> tuple[np.ndarray, float]:
    """The best regime-blind prediction is the mixture of successors; its
    excess risk is the weighted Jensen-Shannon radius."""
    us = scenario.successors()
    pis = scenario.pis
    return pis @ us, js_weighted(us, pis)


def numeric_fixed_summary_minimum(
    scenario: AliasingScenario, n_starts: int = 20, seed: int = 0
) -> float:
    """Minimizes sum_z pi_z KL(u_z || q) over the simplex, all random starts
    as one batch. Up to a constant this is minus the concave log-likelihood
    sum_i mix_i log qs_i, mix and qs the `smooth`ed mixture and q. The step
    is the EM update for mixture proportions, q <- q * mix / qs normalized
    (Dempster, Laird & Rubin, 1977): it raises that likelihood monotonically,
    has no step size, and its fixed point is the mixture pis @ us itself."""
    us, pis = scenario.successors(), scenario.pis
    rng = np.random.default_rng(seed)
    eps = DEFAULT_EPS
    mix = smooth(pis @ us, eps)
    q = rng.dirichlet(np.ones(us.shape[1]), size=n_starts)
    for _ in range(200):  # at most 200 EM steps; a fixed point stops it early
        qs = smooth(q, eps)
        q_new = q * (mix[None, :] / qs)
        q_new /= q_new.sum(axis=1, keepdims=True)
        if np.abs(q_new - q).max() < 1e-15:
            q = q_new
            break
        q = q_new
    # the builtin sum adds the (n_starts,) rows of weighted KLs regime by regime
    objs = sum(pis[:, None] * kl(us[:, None, :], q))
    return float(objs.min())


FIXED_SUMMARY_TOL = 1e-8


def fixed_summary_gap(scenario: AliasingScenario, n_starts: int = 20) -> float:
    """How far the numeric minimum from n_starts random starts lies from the
    analytic excess of `fixed_summary_optimum`; the fixed-summary identity
    holds when the gap is within FIXED_SUMMARY_TOL."""
    _, excess = fixed_summary_optimum(scenario)
    return abs(numeric_fixed_summary_minimum(scenario, n_starts=n_starts) - excess)


def fixed_summary_identity(scenario: AliasingScenario) -> bool:
    """The verdict on the fixed-summary identity at 20 random starts."""
    return bool(fixed_summary_gap(scenario) <= FIXED_SUMMARY_TOL)


# --------------------------------------------------------- anchor-only


def pinsker_separation(scenario: AliasingScenario, deltas: np.ndarray) -> float:
    return 0.5 * float(scenario.pis @ np.asarray(deltas) ** 2)


def anchor_only_optimum(scenario: AliasingScenario) -> tuple[float, np.ndarray]:
    """Best per-regime prediction confined to the no-transport anchor class
    of p* alone, {lambda p* + (1 - lambda) r : r in hull({p*})} = {p*}: the
    prediction is p* itself, its excess risk sum_z pi_z KL(u_z || p*), and
    each regime's gap delta_z = ||u_z - p*||_1. Returns (excess, deltas);
    `theory-check` compares the excess with `pinsker_separation`."""
    us = scenario.successors()
    excess = float(scenario.pis @ kl(us, scenario.p_star))
    return excess, l1(us, scenario.p_star)


# --------------------------------------------------------- oracle


def cast_oracle(scenario: AliasingScenario, budget: BudgetParams) -> np.ndarray:
    """Regime-aware anchored transport under `budget`: plug (lambda=1, rho,
    T_z) into the transition, one step for all regimes. It reproduces each
    successor exactly where `scenario.check_budget_feasible(budget)` passes,
    and is that check's own `cast_step`."""
    return scenario._oracle_step(budget)["p_hat"][:, 0]


# ------------------------------------------------------- dataset


def regime_markers(d: int, k: int) -> np.ndarray:
    """One-hot marker distributions, one per regime, spread over the bins."""
    out = np.zeros((k, d))
    for z in range(k):
        out[z, round(z * (d - 1) / max(k - 1, 1))] = 1.0
    return out


def build_aliasing_dataset(
    scenario: AliasingScenario,
    n_sequences: int,
    seed: int = 0,
) -> list:
    """Sequences [c1_z, c2_z, p*, u_z]: a two-step mixture ramp whose marker
    component reveals the regime, then the aliased state, then the regime's
    successor. Only the final transition is scored."""
    if n_sequences < 2:
        raise InvalidValue("need at least two sequences")
    rng = np.random.default_rng(seed)
    d, k = scenario.dim, scenario.k
    markers = regime_markers(d, k)
    us = scenario.successors()
    mask = np.array([False, False, True])
    out = []
    zs = rng.choice(k, size=n_sequences, p=scenario.pis)
    for i, z in enumerate(zs):
        c1 = 0.5 * scenario.p_star + 0.5 * markers[z]
        c2 = 0.8 * scenario.p_star + 0.2 * markers[z]
        steps = np.vstack([c1, c2, scenario.p_star, us[z]])
        out.append(SimplexSeries(f"alias{i:05d}_z{z}", True, steps, mask.copy()))
    return out


# ------------------------------------------- synthetic experiment


# One entry per trained row: (name, feature_mode, variant, iters, lr,
# tail_average). The full model must drive its gate logits much further to
# reach its near-zero optimum, so it takes a larger step and no tail average;
# the anchor-only row stops at its plateau. Every row trains with batch 8,
# warmup min(50, iters), no weight decay and validation every 100 steps.
# The longest training comes first, so that a pool does not start it last.
TRAINED_ROWS = (
    ("cast_trained", "full", "full", 600, 0.8, 0.0),
    ("current_only_trained", "current_only", "full", 1000, 0.02, 0.3),
    ("anchor_only_trained", "full", "anchor_only", 500, 0.02, 0.3),
)


def _row(method: str, per_seed: list) -> dict:
    """A table row: the `evaluate.seed_summary` mean and sd of kl, jsd and l1
    over the per-seed metric dicts."""
    summary = evaluate.seed_summary(per_seed)
    return {"method": method, **{f"{name}_{stat}": summary[stat][name]
                                 for name in ("kl", "jsd", "l1") for stat in ("mean", "sd")}}


def _train_and_score(scenario: AliasingScenario, n_sequences: int, task: tuple) -> dict:
    """Task (cfg, tc, seed) of one trained row: `evaluate.train_and_score`
    on n_sequences training, max(n // 4, 2) validation and max(n // 2, 2)
    held-out sequences, scored on their final transitions."""
    seed = task[2]
    splits = (build_aliasing_dataset(scenario, n_sequences, seed=seed),
              build_aliasing_dataset(scenario, max(n_sequences // 4, 2), seed=seed + 10_000),
              build_aliasing_dataset(scenario, max(n_sequences // 2, 2), seed=seed + 20_000))
    return evaluate.train_and_score(splits, task)


def run_synthetic_experiment(
    scenario: AliasingScenario,
    seeds,
    n_sequences: int = 240,
    iters: int | None = None,
) -> dict:
    """The five-row experiment table: analytic fixed-summary optimum, trained
    current-only forecaster, trained anchor-only, regime-aware oracle, and
    trained full model. Each trained row reports the mean +- sample sd over
    seeds of its `_train_and_score` tasks, which `evaluate._pool_map` runs
    in parallel. `iters`, when given, replaces every trained row's iteration
    count."""
    from .model import ModelConfig, TrainConfig

    budget = BudgetParams()  # the model's default: the oracle's and every trained row's
    pis = scenario.pis
    us = scenario.successors()
    q_star, excess = fixed_summary_optimum(scenario)
    # the analytic rows: weighted metrics of the mixture and of the oracle
    oracle = cast_oracle(scenario, budget)
    rows = {
        name: _row(name, [{f.__name__: float(sum(pis * f(us, q))) for f in (kl, jsd, l1)}])
        for name, q in (("fixed_summary_optimum", q_star), ("cast_oracle", oracle))
    }

    tasks = []
    for _, feature_mode, variant, row_iters, lr, tail_average in TRAINED_ROWS:
        cfg = ModelConfig(
            dim=scenario.dim,
            ordered=True,
            feature_mode=feature_mode,
            variant=variant,
            budget=budget,
        )
        n_iters = row_iters if iters is None else iters
        tc = TrainConfig(
            iters=n_iters, batch_size=8, lr=lr, warmup=min(50, n_iters),
            weight_decay=0.0, eval_every=100, tail_average=tail_average,
        )
        tasks += [(cfg, tc, seed) for seed in seeds]
    results = evaluate._pool_map(partial(_train_and_score, scenario, n_sequences), tasks)
    for k, (name, *_) in enumerate(TRAINED_ROWS):
        rows[name] = _row(name, results[k * len(seeds):(k + 1) * len(seeds)])

    _, deltas = anchor_only_optimum(scenario)
    order = ("fixed_summary_optimum", "current_only_trained", "anchor_only_trained",
             "cast_oracle", "cast_trained")
    return {
        "rows": [rows[name] for name in order],
        "delta_positive": bool(np.all(np.asarray(deltas) > 1e-6)),
        "checks": {
            "fixed_summary_identity": fixed_summary_identity(scenario),
            "current_only_within_1pct": abs(
                rows["current_only_trained"]["kl_mean"] - excess
            ) <= 0.01 * excess,
            "anchor_only_geq_fixed": rows["anchor_only_trained"]["kl_mean"]
            >= excess - 1e-9,
            "cast_near_zero": rows["cast_trained"]["kl_mean"] < 1e-5,
            "oracle_exact": rows["cast_oracle"]["kl_mean"] < 1e-12,
        },
    }


# --------------------------------------- retrieval consistency


def retrieval_consistency_check(
    d: int = 8,
    densities=(50, 100, 200, 400),
    n_queries: int = 1000,
    noise_l1: float = 0.02,
    seed: int = 0,
) -> dict:
    """Synthetic Lipschitz successor map: m(h) = base + V h with V's columns
    summing to zero, so m maps the simplex into itself and is L-Lipschitz in
    L1 with L = max column absolute sum. Checks the 1-NN retrieval error
    bound error <= L * d_t + ||xi||_1 at every query and density, every
    distance a `metrics.l1`. Returns `lipschitz` (L), the count of
    `violations`, and per density the largest nearest-neighbor distance
    (`max_nn_distance`) and error (`max_error`)."""
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(d))
    v = 0.05 * rng.standard_normal((d, d))
    v -= v.mean(axis=0, keepdims=True)  # columns sum to zero
    # keep outputs inside the simplex: shrink until base + V h >= 0 on vertices
    while np.any(base[:, None] + v < 0):
        v *= 0.5
    lip = float(np.abs(v).sum(axis=0).max())

    def successor(h):
        return base + v @ h

    max_d, max_err, violations = [], [], 0
    for n in densities:
        bank_h = rng.dirichlet(np.ones(d), size=n)
        xi = rng.dirichlet(np.ones(d), size=n)
        bank_succ = np.array([successor(h) for h in bank_h])
        noisy = (1.0 - noise_l1 / 2.0) * bank_succ + (noise_l1 / 2.0) * xi
        xi_l1 = l1(noisy, bank_succ)
        worst_d = worst_e = 0.0
        queries = rng.dirichlet(np.ones(d), size=n_queries)
        for h in queries:
            dists = l1(bank_h, h)
            j = int(np.argmin(dists))
            err = float(l1(noisy[j], successor(h)))
            bound = lip * dists[j] + xi_l1[j]
            if err > bound + 1e-9:
                violations += 1
            worst_d = max(worst_d, float(dists[j]))
            worst_e = max(worst_e, err)
        max_d.append(worst_d)
        max_err.append(worst_e)
    return {"lipschitz": lip, "violations": violations, "max_nn_distance": max_d,
            "max_error": max_err}


# ------------------------------------------------------- theory-check


def theory_check(seed: int, n_scenarios: int) -> dict:
    """The `theory-check` report: the fixed-summary identity on n_scenarios
    random scenarios, the Pinsker separation of the anchor-only excess on
    the default scenario and n_scenarios more, the default scenario's
    ordering fixed-summary <= anchor-only with positive gaps, and the
    retrieval bound. Each check has a `pass`, and so does the whole."""
    rng = np.random.default_rng(seed)
    checks = {}

    max_gap = max(
        fixed_summary_gap(
            random_scenario(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5))), n_starts=10
        )
        for _ in range(n_scenarios)
    )
    checks["fixed_summary_identity"] = {
        "max_gap": float(max_gap),
        "pass": bool(max_gap <= FIXED_SUMMARY_TOL),
    }

    scen = default_scenario()
    scenarios = [scen] + [
        random_scenario(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        for _ in range(n_scenarios)
    ]
    bounds = [anchor_only_optimum(s) for s in scenarios]
    violations = sum(
        int(excess < pinsker_separation(s, deltas) - 1e-9)
        for s, (excess, deltas) in zip(scenarios, bounds)
    )
    checks["pinsker_separation"] = {
        "violations": violations,
        "pass": violations == 0,
    }

    _, fixed = fixed_summary_optimum(scen)
    anchor_excess, deltas = bounds[0]
    delta_positive = bool(np.all(deltas > 1e-6))
    checks["default_scenario"] = {
        "fixed_summary_excess": fixed,
        "anchor_only_excess": anchor_excess,
        "delta_positive": delta_positive,
        "pass": bool(
            fixed_summary_identity(scen)
            and anchor_excess >= fixed
            and delta_positive
        ),
    }

    report = retrieval_consistency_check(seed=seed)
    checks["retrieval_consistency"] = {
        "violations": report["violations"],
        "lipschitz": report["lipschitz"],
        "pass": report["violations"] == 0,
    }

    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}
