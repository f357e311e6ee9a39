"""The three workloads: seeded parameter draws and each workload's fixed
list of operations.

An operation is one ``squeeze-dyn`` CLI command (its argument list) or
one memory-kernel solver call with its CSV write. The list, and the size
of every operation in it, is the same for every seed; the seed only
draws the physical parameters from the ranges below, so the program sees
nothing but the generated inputs. The ranges keep every operation valid:
the Lorentzian reservoirs stay in the strong-coupling regime (except the
deliberately weak one), the twisting angles stay near the optimum, and
the solver grids meet the solver's step guard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 20121
WORKLOADS = ("curves", "revivals", "verify")

CHANNELS = ("dephasing", "depolarizing", "damping")
DEFINITIONS = ("xi", "xi-prime")
FORMS = ("reference", "exact")

# curves: the paper's figures, N = 10 at the optimal angle and one large N
CURVE_N = 10
CURVE_T_MAX = 150.0
CURVE_DT = 0.1
LARGE_N_RANGE = (2000, 20000)
#: optimal OAT angle is ~1.17 N^(-2/3) for N >= 10^3; offsets scale it
LARGE_ALPHA_SCALE = 1.17
ALPHA_OFFSET = 0.1
SCAN_N = (100, 100_000)

# revivals: death-time reports and the memory-kernel solver
DEATH_N = 10
#: centre of the N = 10 angle draws (the optimizer gives 0.2005)
DEATH_ALPHA = 0.2
DEATH_HORIZON = 200.0
STRONG_GRID = (100.0, 0.005)  # (t_end, step): 20,001 nodes
WEAK_GRID = (1000.0, 0.05)  # 20,001 nodes
TABULATED_DT = 0.05

GAMMA_RANGE = (0.008, 0.012)
ETA0_RANGE = (8.0, 12.0)
WEAK_ETA0_SHARE = (0.05, 0.3)  # eta0 / gamma; weak coupling needs < 1/2
RATE_RANGE = (0.004, 0.006)

# verify: closed forms against explicit states, up to N = 8
VERIFY_MAX_N = (8, 6, 4)
TOLERANCE_EXP_RANGE = (-9.0, -8.0)


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``argv`` is the CLI argument list; a solver operation has
    ``argv = None`` and a ``solver`` spec instead. ``output`` is the file
    name the operation writes, relative to the run's work directory.
    """

    name: str
    output: str
    argv: tuple[str, ...] | None = None
    solver: dict | None = None


@dataclass(frozen=True)
class Plan:
    """A workload's drawn parameters and its operations, in order."""

    params: dict
    ops: list[Op]


def _fmt(x: float) -> str:
    return repr(float(x))


def _curves(rng: random.Random, work: str) -> Plan:
    gamma = rng.uniform(*GAMMA_RANGE)
    eta0 = rng.uniform(*ETA0_RANGE)
    rate = rng.uniform(*RATE_RANGE)
    n_large = rng.randint(*LARGE_N_RANGE)
    params = {"gamma": gamma, "eta0": eta0, "rate": rate, "n_large": n_large}
    kappa = ["--kappa", "lorentzian", "--gamma", _fmt(gamma), "--eta0", _fmt(eta0)]
    common = [
        "--t-max", _fmt(CURVE_T_MAX), "--dt", _fmt(CURVE_DT),
        "--compare-markovian", _fmt(rate), "--reproducible",
    ]
    ops = []
    for form in FORMS:
        for definition in DEFINITIONS:
            for channel in CHANNELS:
                for n in (CURVE_N, n_large):
                    # N = 10 takes the optimizer's angle; the large N a drawn one
                    if n == CURVE_N:
                        alpha, fmt = [], "csv"
                    else:
                        a = LARGE_ALPHA_SCALE * n ** (-2.0 / 3.0)
                        a *= 1.0 + rng.uniform(-ALPHA_OFFSET, ALPHA_OFFSET)
                        alpha, fmt = ["--alpha", _fmt(a)], "json"
                    name = f"evolve-{form}-{definition}-{channel}-n{n}"
                    out = f"{name}.{fmt}"
                    argv = [
                        "evolve", "--n", str(n), "--channel", channel,
                        "--definition", definition, "--form", form,
                        "--format", fmt, "-o", f"{work}/{out}",
                    ]
                    ops.append(Op(name, out, tuple(argv + alpha + kappa + common)))
    scan = [
        "alpha-scan", "--n-min", str(SCAN_N[0]), "--n-max", str(SCAN_N[1]), "--points", "25",
        "--format", "json", "--reproducible", "-o", f"{work}/alpha-scan.json",
    ]
    ops.append(Op("alpha-scan", "alpha-scan.json", tuple(scan)))
    return Plan(params, ops)


def _revivals(rng: random.Random, work: str) -> Plan:
    gamma = rng.uniform(*GAMMA_RANGE)
    eta0 = rng.uniform(*ETA0_RANGE)
    rate = rng.uniform(*RATE_RANGE)
    weak_gamma = rng.uniform(*GAMMA_RANGE)
    weak_eta0 = weak_gamma * rng.uniform(*WEAK_ETA0_SHARE)
    params = {
        "gamma": gamma, "eta0": eta0, "rate": rate,
        "weak_gamma": weak_gamma, "weak_eta0": weak_eta0,
    }
    strong = {"gamma": gamma, "eta0": eta0, "t_end": STRONG_GRID[0], "step": STRONG_GRID[1]}
    weak = {"gamma": weak_gamma, "eta0": weak_eta0, "t_end": WEAK_GRID[0], "step": WEAK_GRID[1]}
    ops = [
        Op("solve-strong-exponential", "kappa-strong.csv",
           solver=dict(strong, kernel="exponential")),
        Op("solve-strong-callable", "kappa-strong-callable.csv",
           solver=dict(strong, kernel="callable")),
        Op("solve-weak-exponential", "kappa-weak.csv",
           solver=dict(weak, kernel="exponential")),
    ]
    lorentzian = [
        "--kappa", "lorentzian", "--gamma", _fmt(gamma), "--eta0", _fmt(eta0),
        "--t-max", _fmt(DEATH_HORIZON), "--compare-markovian", _fmt(rate),
        "--reproducible",
    ]
    cases = [(c, d, "reference") for d in DEFINITIONS for c in CHANNELS]
    # the EXACT damping xi' threshold map is the one that is not monotone
    cases.append(("damping", "xi-prime", "exact"))
    for channel, definition, form in cases:
        alpha = DEATH_ALPHA * (1.0 + rng.uniform(-ALPHA_OFFSET, ALPHA_OFFSET))
        name = f"death-{form}-{definition}-{channel}"
        argv = [
            "death-times", "--n", str(DEATH_N), "--alpha", _fmt(alpha),
            "--channel", channel, "--definition", definition, "--form", form,
            "-o", f"{work}/{name}.json",
        ]
        ops.append(Op(name, f"{name}.json", tuple(argv + lorentzian)))
    tab = ["--kappa", "tabulated", "--kappa-file", f"{work}/kappa-strong.csv",
           "--t-max", _fmt(STRONG_GRID[0]), "--reproducible"]
    ops.append(Op(
        "death-tabulated", "death-tabulated.json",
        ("death-times", "--n", str(DEATH_N), "--channel", "depolarizing",
         "--definition", "xi", "-o", f"{work}/death-tabulated.json", *tab),
    ))
    ops.append(Op(
        "evolve-tabulated", "evolve-tabulated.csv",
        ("evolve", "--n", str(DEATH_N), "--channel", "dephasing", "--definition", "xi",
         "--dt", _fmt(TABULATED_DT), "-o", f"{work}/evolve-tabulated.csv", *tab),
    ))
    return Plan(params, ops)


def _verify(rng: random.Random, work: str) -> Plan:
    tolerance = 10.0 ** rng.uniform(*TOLERANCE_EXP_RANGE)
    ops = []
    for max_n in VERIFY_MAX_N:
        name = f"verify-n{max_n}"
        argv = ("verify", "--max-n", str(max_n), "--tolerance", _fmt(tolerance),
                "-o", f"{work}/{name}.json")
        ops.append(Op(name, f"{name}.json", argv))
    return Plan({"tolerance": tolerance}, ops)


def build_plan(workload: str, seed: int, work: str) -> Plan:
    """The workload's operations for ``seed``, writing under ``work``."""
    make = {"curves": _curves, "revivals": _revivals, "verify": _verify}
    # string seeding is stable across runs and platforms
    return make[workload](random.Random(f"{workload}:{seed}"), work)
