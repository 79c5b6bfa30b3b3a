"""The three workloads: seeded request rounds and the verdict each must get.

A workload is a list of rounds.  Every round holds the same request kinds
and configurations in a seeded order, so a run that completes whole rounds
measures the same mix whatever its seed; the seed changes the generated
data, the suite seeds and the order.

Expected verdicts come from how an input was built (``inputs``) or from an
independent oracle (the identity/equivalence theorems the suites check, the
sphere/torus index formulas).  A few request kinds hit a defect documented
in ROADMAP.md; for those one further outcome is recognised as that defect
(``KnownDefect``) instead of being counted as an unexplained failure.  Such
requests still count as wrong verdicts in ``correct_verdict_ratio``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import inputs
from inputs import PASS, Expected

ROUNDS = 8  # distinct rounds generated per run; the timed loop cycles through them

# A run repeats whole rounds, so the latencies of one configuration form a
# group and p50/p90 each fall inside some group.  The rounds are sized so
# that both land in the middle of a cluster of configurations of similar
# cost, not on the edge of a lone group next to a wide gap, where a few slow
# or fast samples would move them a long way.


@dataclass(frozen=True)
class KnownDefect:
    name: str
    exit_code: int
    stderr: str = ""                 # exit 2: message that names the defect
    failing: tuple[str, ...] = ()    # exit 1: exactly these checks fail ...
    failing_prefix: str = ""         # ... or only checks with this prefix fail
    max_value: float = 0.0           # ... each by at most this much


# ROADMAP item 4: a generic float coefficient loses an exact zero in the x1/x2 basis.
FLOAT_LITERAL = KnownDefect("float-literal-exact-zero", 1, failing=(inputs.FLAT_RESIDUAL,))
# ROADMAP item 3: fourth-order differences on a non-uniform conformal factor.
CURVED_GAUGE = KnownDefect("curved-gauge-fd4", 1, failing_prefix="residual block ", max_value=1e-2)
# ROADMAP item 5: monomial Gram matrices past condition 1e14 at large sphere cutoffs.
SPHERE_GRAM = KnownDefect("sphere-ill-conditioned-gram", 2, stderr="ill-conditioned Gram matrix")


@dataclass
class Request:
    kind: str
    argv: list[str]
    config: dict
    expected: Expected = PASS
    defect: KnownDefect | None = None
    seed: int | None = None


def judge(req: Request, code, failing: dict[str, object], stderr: str) -> tuple[str, str]:
    """('expected' | 'known_defect' | 'wrong', reason)."""
    exp = req.expected
    if code == exp.exit_code and set(exp.failing) <= set(failing):
        return "expected", ""
    d = req.defect
    if d is not None and code == d.exit_code:
        if code == 2 and d.stderr in stderr:
            return "known_defect", d.name
        if code == 1 and failing and (
            set(failing) == set(d.failing)
            or d.failing_prefix
            and all(
                n.startswith(d.failing_prefix) and isinstance(v, float) and abs(v) <= d.max_value
                for n, v in failing.items()
            )
        ):
            return "known_defect", d.name
    got = f"exit {code}" + (f", failing {sorted(failing)}" if failing else "")
    if stderr:
        got += f", stderr {stderr.strip()[-200:]!r}"
    return "wrong", f"expected exit {exp.exit_code} failing {list(exp.failing)}; got {got}"


def _shuffled(rng, reqs: list[Request]) -> list[Request]:
    return [reqs[i] for i in rng.permutation(len(reqs))]


# -- algebra -------------------------------------------------------------------

# (n, L, degree, coefficients, holomorphic) for the literal files of one round
LITERALS = [
    (1, 2, 2, "gauss", True), (2, 2, 5, "gauss", True), (1, 4, 3, "gauss", True),
    (2, 4, 6, "gauss", True), (1, 2, 6, "gauss", True),
    (1, 2, 1, "float", True), (1, 2, 3, "float", True), (2, 2, 4, "float", True),
    (1, 4, 5, "float", True), (2, 2, 6, "float", True), (1, 4, 2, "float", True),
    (1, 2, 6, "float", True), (2, 4, 3, "float", True),
    (1, 2, 4, "gauss", False), (2, 4, 2, "gauss", False), (1, 4, 6, "gauss", False),
    (1, 2, 3, "float", False), (2, 2, 5, "float", False), (1, 4, 1, "float", False),
    (1, 2, 2, "float", True), (2, 2, 3, "gauss", True), (1, 4, 4, "float", True),
    (1, 2, 4, "float", False), (2, 2, 1, "gauss", False),
]
FLAT_TRIALS = (10, 25, 50)
IDENTITY_TRIALS = ((5, 2), (10, 4), (3, 10))  # (identity tensors, energy maps)


def algebra(seed: int, in_dir: str) -> list[list[Request]]:
    rng = np.random.default_rng([seed, 1])
    rounds = []
    for r in range(ROUNDS):
        reqs = []
        for trials in FLAT_TRIALS:
            s = int(rng.integers(1 << 30))
            reqs.append(Request(
                "flat", ["flat", "--seed", str(s), "--trials", str(trials)],
                {"trials": trials}, seed=s,
            ))
        for trials, energy in IDENTITY_TRIALS:
            s = int(rng.integers(1 << 30))
            reqs.append(Request(
                "identities",
                ["identities", "--seed", str(s), "--trials", str(trials), "--energy-trials", str(energy)],
                {"trials": trials, "energy_trials": energy}, seed=s,
            ))
        for k, (n, L, degree, coeffs, holo) in enumerate(LITERALS):
            path = os.path.join(in_dir, f"map-r{r}-{k}.json")
            expected = inputs.write_flat_map(path, rng, L, n, coeffs, degree, holo)
            kind = f"verify-flat/{coeffs}/{'holomorphic' if holo else 'perturbed'}"
            defect = FLOAT_LITERAL if coeffs == "float" and holo else None
            reqs.append(Request(
                kind, ["verify-flat", path],
                {"n": n, "L": L, "degree": degree, "file": os.path.basename(path)},
                expected, defect,
            ))
        rounds.append(_shuffled(rng, reqs))
    return rounds


# -- fields --------------------------------------------------------------------

# (model, M, L, curved conformal factor, perturbed) for the bundles of a run
BUNDLES = [
    ("flat", 16, 2, False, False), ("flat", 32, 4, False, False), ("flat", 64, 4, False, False),
    ("flat", 64, 2, False, True), ("flat", 16, 4, False, True),
    ("hsc+4", 32, 2, False, False), ("hsc+4", 16, 4, False, True), ("hsc+4", 16, 2, False, False),
    ("hsc-4", 32, 4, False, False), ("hsc-4", 16, 2, False, True), ("hsc-4", 16, 4, False, False),
    ("fs-cp1", 16, 2, False, False), ("fs-cp1", 64, 2, False, False), ("fs-cp1", 32, 4, False, True),
    ("fs-cp1", 16, 4, False, False),
    ("flat", 32, 2, True, False), ("hsc+4", 16, 4, True, False), ("fs-cp1", 16, 2, True, False),
    ("hsc-4", 32, 2, True, True), ("flat", 16, 2, True, True),
    ("flat", 16, 2, False, False), ("flat", 16, 4, False, False), ("hsc+4", 16, 2, False, True),
    ("hsc-4", 16, 2, False, False), ("fs-cp1", 16, 2, False, True), ("fs-cp1", 16, 2, False, False),
    ("flat", 16, 2, False, True), ("hsc+4", 16, 2, True, True), ("flat", 16, 2, True, False),
    ("hsc-4", 16, 2, True, False), ("flat", 16, 2, False, False),
    ("fs-cp1", 64, 2, False, True), ("fs-cp1", 64, 2, True, False),
    ("flat", 16, 2, False, True), ("hsc+4", 16, 2, True, False), ("fs-cp1", 16, 2, True, True),
    ("flat", 16, 4, False, False),
]
LINEARIZE = (("flat", 16), ("constant-hsc", 16), ("flat", 32), ("constant-hsc", 32))


def fields(seed: int, in_dir: str) -> list[list[Request]]:
    rng = np.random.default_rng([seed, 2])
    bundle_reqs = []
    for k, (model, M, L, curved, perturbed) in enumerate(BUNDLES):
        b = inputs.solution_bundle(rng, model, M, L)
        if curved:
            inputs.weyl_rescale(rng, b)
        if perturbed:
            inputs.perturb(rng, b)
        path = os.path.join(in_dir, f"bundle-{k}.txt")
        expected = inputs.write_bundle(path, b)
        gauge = "curved" if curved else "unit"
        kind = f"verify-components/{gauge}/{'perturbed' if perturbed else 'solution'}"
        bundle_reqs.append(Request(
            kind, ["verify-components", path],
            {"model": model, "M": M, "L": L, "gauge": gauge, "broken": b.broken,
             "file": os.path.basename(path)},
            expected, CURVED_GAUGE if curved and not perturbed else None,
        ))
    rounds = []
    for _ in range(ROUNDS):
        reqs = list(bundle_reqs)
        for model, M in LINEARIZE:
            s = int(rng.integers(1 << 30))
            reqs.append(Request(
                "linearize", ["linearize", "--grid", str(M), "--model", model, "--seed", str(s)],
                {"model": model, "M": M}, seed=s,
            ))
        rounds.append(_shuffled(rng, reqs))
    return rounds


# -- index ---------------------------------------------------------------------

SPHERE = [  # (degree, cutoff)
    (-2, 8), (-1, 16), (0, 12), (0, 20), (1, 8), (1, 16), (2, 8), (2, 12), (3, 8),
    (4, 8), (5, 8), (-2, 20), (-1, 8), (0, 8), (1, 12), (-2, 12), (0, 16), (-1, 12), (1, 10), (-2, 10), (0, 10), (-1, 10),
    (1, 24), (-1, 28), (3, 24), (-2, 26),
]
TORUS = [(1, 6), (1, 8), (1, 10), (1, 12), (1, 14), (2, 6), (2, 8)]  # (rank, cutoff)
BOCHNER = (10, 12, 14, 16)
# Largest monomial cutoff a sphere request builds: the holomorphic Dirac half
# of degree d >= 1 is assembled at cutoff + 2d.  From 22 on, the Gram
# matrices reach the conditioning limit.
SPHERE_GRAM_CUTOFF = 22


def index(seed: int, in_dir: str) -> list[list[Request]]:
    rng = np.random.default_rng([seed, 3])
    fixed = []
    for degree, cutoff in SPHERE:
        basis_cutoff = cutoff + 2 * max(degree, 0)
        fixed.append(Request(
            "index/sphere" + ("/large-cutoff" if basis_cutoff >= SPHERE_GRAM_CUTOFF else ""),
            ["index", "--surface", "sphere", "--degree", str(degree), "--cutoff", str(cutoff)],
            {"degree": degree, "cutoff": cutoff},
            defect=SPHERE_GRAM if basis_cutoff >= SPHERE_GRAM_CUTOFF else None,
        ))
    for rank, cutoff in TORUS:
        fixed.append(Request(
            "index/torus",
            ["index", "--surface", "torus", "--target-rank", str(rank), "--cutoff", str(cutoff)],
            {"rank": rank, "cutoff": cutoff},
        ))
    rounds = []
    for _ in range(ROUNDS):
        reqs = list(fixed)
        for cutoff in BOCHNER:
            s = int(rng.integers(1 << 30))
            reqs.append(Request(
                "bochner", ["bochner", "--cutoff", str(cutoff), "--seed", str(s)],
                {"cutoff": cutoff}, seed=s,
            ))
        rounds.append(_shuffled(rng, reqs))
    return rounds


WORKLOADS = {"algebra": algebra, "fields": fields, "index": index}
