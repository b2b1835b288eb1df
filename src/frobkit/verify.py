"""Seeded verification suites and deterministic reports.

Every suite draws randomness from a stream derived from (seed, suite, cell),
so a fixed seed reproduces the identical corpus and the identical report,
byte for byte. Failures carry a fully serialized counterexample that can be
re-checked from the report alone. Wall-clock timings live on the in-memory
results but stay out of the canonical rendering.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass

from .canonical import (
    FrobeniusForm,
    _commutator_solve,
    centralizer_dim_from_chain,
    frobenius_form,
    smith_invariant_factors,
    transpose_conjugator,
    centralizer_dimension,
)
from .errors import ConfigError
from .fields import GF, QQ, Field
from .formats import dumps_canonical, matrix_to_json, triple_to_json, SCHEMA
from .matrix import (
    Mat,
    charpoly,
    inverse,
    minimal_polynomial,
    poly_at_matrix,
    rank,
)
from .poly import Poly, RationalFunction, poly_gcd
from .rankone import faddeev_chain, update_report
from .triples import (
    GroupElement,
    Triple,
    act,
    commutator_range,
    equivalence_report,
    filtration_union_check,
    moment_vanishing,
    rank_one_shift,
    twist,
)

SUITE_ORDER = (
    "update",
    "equivalence",
    "commutator",
    "filtration",
    "canonical",
    "cayley-hamilton",
    "census",
    "equivariance",
)

MUTATIONS = ("ck_update",)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    fields: tuple = ((3, 1), (5, 1), (3, 2), (5, 2))
    n_max: int = 8
    trials: int = 100
    equivalence_samples: int = 2000
    equivariance_samples: int = 1000
    rational_matrices: int = 200
    rational_lambda_bound: int = 8
    exhaustive_bound: int = 6561
    suites: tuple = SUITE_ORDER
    mutation: str | None = None

    def validate(self) -> None:
        if self.trials < 1 or self.n_max < 1:
            raise ConfigError("trials and n_max must be positive")
        if self.exhaustive_bound < 0:
            raise ConfigError("exhaustive bound must be >= 0")
        for name in self.suites:
            if name not in SUITE_ORDER:
                raise ConfigError(f"unknown suite {name!r}")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ConfigError(f"unknown mutation {self.mutation!r}")
        for pk in self.fields:
            if len(pk) != 2 or pk[0] < 2 or pk[1] < 1:
                raise ConfigError(f"bad field entry {pk!r}")

    def field_objects(self) -> list[Field]:
        return [GF(p) if k == 1 else GF(p, k) for p, k in self.fields]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "fields": [list(pk) for pk in self.fields],
            "n_max": self.n_max,
            "trials": self.trials,
            "equivalence_samples": self.equivalence_samples,
            "equivariance_samples": self.equivariance_samples,
            "rational_matrices": self.rational_matrices,
            "rational_lambda_bound": self.rational_lambda_bound,
            "exhaustive_bound": self.exhaustive_bound,
            "suites": list(self.suites),
            "mutation": self.mutation,
        }


@dataclass
class SuiteResult:
    name: str
    passed: bool
    instances: int
    counterexample: dict | None
    seconds: float


@dataclass
class Report:
    seed: int
    config: dict
    suites: list
    all_passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "verify-report",
            "seed": self.seed,
            "config": self.config,
            "suites": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "instances": s.instances,
                    "counterexample": s.counterexample,
                }
                for s in self.suites
            ],
            "all_passed": self.all_passed,
        }


def _derive_rng(seed: int, *labels) -> random.Random:
    key = f"{seed}|" + "|".join(str(x) for x in labels)
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


# -- random object generators -----------------------------------------------------


def random_matrix(F: Field, n: int, rng: random.Random) -> Mat:
    return Mat.from_raw(F, n, n, [F.random(rng) for _ in range(n * n)])


def random_col(F: Field, n: int, rng: random.Random) -> Mat:
    return Mat.from_raw(F, n, 1, [F.random(rng) for _ in range(n)])


def random_row(F: Field, n: int, rng: random.Random) -> Mat:
    return Mat.from_raw(F, 1, n, [F.random(rng) for _ in range(n)])


def random_triple(F: Field, n: int, rng: random.Random) -> Triple:
    return Triple(random_matrix(F, n, rng), random_col(F, n, rng), random_row(F, n, rng))


def random_invertible(F: Field, n: int, rng: random.Random) -> Mat:
    if n == 0:
        return Mat.identity(F, 0)
    while True:
        m = random_matrix(F, n, rng)
        if rank(m) == n:
            return m


def random_coprime_function(
    F: Field, chi: Poly, rng: random.Random, max_degree: int = 2
) -> RationalFunction:
    """A rational function with numerator and denominator coprime to chi."""

    def draw() -> Poly:
        while True:
            deg = rng.randint(0, max_degree)
            p = Poly(F, [F.random(rng) for _ in range(deg + 1)])
            if not p.is_zero and poly_gcd(p, chi).degree <= 0:
                return p

    num = draw()
    den = draw() if rng.random() < 0.5 else Poly.one(F)
    return RationalFunction(num, den)


# -- suites ------------------------------------------------------------------------


def _suite_update(cfg: VerifyConfig):
    """Coefficient update vs direct recomputation by both charpoly algorithms."""
    corrupt = cfg.mutation == "ck_update"
    count = 0
    for (p, k), F in zip(cfg.fields, cfg.field_objects()):
        for n in range(1, cfg.n_max + 1):
            rng = _derive_rng(cfg.seed, "update", p, k, n)
            for trial in range(cfg.trials):
                t = random_triple(F, n, rng)
                lam = F.random(rng)
                rep = update_report(t.a, t.v, t.phi, lam)
                c_new, d_h, d_b = rep.c_of_perturbed, rep.direct_hessenberg, rep.direct_berkowitz
                if corrupt:
                    c_new = c_new[:-1] + (F.add(c_new[-1], F.one),)
                count += 1
                if not (c_new == d_h == d_b):
                    return False, count, {
                        "suite": "update",
                        "cell": {"q": F.order, "n": n},
                        "trial": trial,
                        "triple": triple_to_json(t),
                        "lambda": F.to_str(lam),
                        "updated_coefficients": [F.to_str(c) for c in c_new],
                        "direct_hessenberg": [F.to_str(c) for c in d_h],
                        "direct_berkowitz": [F.to_str(c) for c in d_b],
                    }
    return True, count, None


def _small_odd_cells(cfg: VerifyConfig, n_top: int):
    """(p, k, n, F) for the odd fields of order <= 9 and 1 <= n <= min(n_top, n_max)."""
    cells = []
    for (p, k), F in zip(cfg.fields, cfg.field_objects()):
        if F.is_finite and F.characteristic != 2 and F.order <= 9:
            for n in range(1, min(n_top, cfg.n_max) + 1):
                cells.append((p, k, n, F))
    return cells


def _exhaustive_triples(F: Field, n: int):
    elems = list(F.elements())
    for ac in itertools.product(elems, repeat=n * n):
        a = Mat.from_raw(F, n, n, list(ac))
        for vc in itertools.product(elems, repeat=n):
            v = Mat.from_raw(F, n, 1, list(vc))
            for pc in itertools.product(elems, repeat=n):
                yield Triple(a, v, Mat.from_raw(F, 1, n, list(pc)))


def _suite_equivalence(cfg: VerifyConfig):
    """Moment vanishing <=> charpoly stability, exhaustive (n=2, q=3) + random."""
    count = 0
    for t in _exhaustive_triples(GF(3), 2):
        rep = equivalence_report(t, cfg.rational_lambda_bound)
        count += 1
        if not rep.consistent:
            return False, count, _equivalence_counterexample("exhaustive", t, rep)
    cells = _small_odd_cells(cfg, 5)
    per_cell = max(1, math.ceil(cfg.equivalence_samples / max(1, len(cells))))
    for p, k, n, F in cells:
        rng = _derive_rng(cfg.seed, "equivalence", p, k, n)
        for _ in range(per_cell):
            t = random_triple(F, n, rng)
            rep = equivalence_report(t, cfg.rational_lambda_bound)
            count += 1
            if not rep.consistent:
                return False, count, _equivalence_counterexample(f"q{F.order}-n{n}", t, rep)
    return True, count, None


def _equivalence_counterexample(cell: str, t: Triple, rep) -> dict:
    F = t.field
    return {
        "suite": "equivalence",
        "cell": cell,
        "triple": triple_to_json(t),
        "all_moments_vanish": rep.all_vanish,
        "charpoly_stable_for_all_lambda": rep.stable_all,
        "charpoly_stable_for_some_lambda": rep.stable_some,
        "mismatch_lambda": None if rep.mismatch_lambda is None else F.to_str(rep.mismatch_lambda),
    }


def _suite_commutator(cfg: VerifyConfig):
    """Every commutator-range certificate implies moment vanishing, and
    membership agrees with trace duality against a centralizer basis."""
    count = 0
    a = None
    for t in _exhaustive_triples(GF(3), 2):
        count += 1
        if t.a is not a:  # the exhaustive corpus runs through each A in turn
            a, form = t.a, frobenius_form(t.a)
            basis, bad_basis = _centralizer_basis(a, form)
        bad = bad_basis or _commutator_violation(t, form, basis)
        if bad:
            return False, count, bad
    cells = _small_odd_cells(cfg, 5)
    per_cell = max(1, math.ceil(cfg.equivalence_samples / max(1, len(cells))))
    for p, k, n, F in cells:
        rng = _derive_rng(cfg.seed, "commutator", p, k, n)
        for _ in range(per_cell):
            t = random_triple(F, n, rng)
            count += 1
            form = frobenius_form(t.a)
            basis, bad = _centralizer_basis(t.a, form)
            bad = bad or _commutator_violation(t, form, basis)
            if bad:
                return False, count, bad
    return True, count, None


def _centralizer_basis(a: Mat, form: FrobeniusForm) -> tuple[list, dict | None]:
    """A basis of C(A) from the homogeneous solve, and a counterexample if
    some element fails AC = CA."""
    basis = _commutator_solve(form, None, basis=True).kernel
    for c in basis:
        if a @ c != c @ a:
            return basis, {
                "suite": "commutator",
                "failure": "centralizer basis element does not commute with A",
                "matrix": matrix_to_json(a),
                "element": matrix_to_json(c),
            }
    return basis, None


def _commutator_violation(t: Triple, form: FrobeniusForm, basis: list) -> dict | None:
    """ad_A is skew for the trace form, so v (x) phi lies in [A, gl] exactly
    when phi C v = 0 for every C in the centralizer of A; and a member must
    be moment-null. A member carries a checked witness, and a C with
    phi C v != 0 proves a non-member, so agreement certifies both answers."""
    cr = commutator_range(t, form)
    dual = next((c for c in basis if not (t.phi @ c @ t.v).is_zero), None)
    if cr.member != (dual is None):
        return {
            "suite": "commutator",
            "failure": "membership disagrees with trace duality",
            "triple": triple_to_json(t),
            "member": cr.member,
            "witness": None if cr.witness is None else matrix_to_json(cr.witness),
            "element": None if dual is None else matrix_to_json(dual),
        }
    if not cr.member:
        return None
    mv = moment_vanishing(t)
    if mv.vanishes:
        return None
    return {
        "suite": "commutator",
        "triple": triple_to_json(t),
        "witness": matrix_to_json(cr.witness),
        "nonzero_moment_index": mv.witness_index,
        "moments": [t.field.to_str(x) for x in mv.moments],
    }


def _suite_filtration(cfg: VerifyConfig):
    """Exhaustive union-of-subspaces structure of the moment-null pairs."""
    f3, f5 = GF(3), GF(5)
    x3, x5 = Poly.x(f3), Poly.x(f5)
    cases = [
        (x3, 1),
        (x3, 2),
        (x3 + Poly.one(f3), 2),
        (x3 * x3 + Poly.one(f3), 1),
        (x3 * x3 + Poly.one(f3), 2),
        (x5, 2),
    ]
    count = 0
    for f, s in cases:
        res = filtration_union_check(f, s, pair_bound=cfg.exhaustive_bound)
        count += res.pairs_checked
        if not res.ok:
            vt, pt, mnull, union = res.counterexample
            F = f.field
            return False, count, {
                "suite": "filtration",
                "f": f.pretty(),
                "s": s,
                "v": [F.to_str(c) for c in vt],
                "phi": [F.to_str(c) for c in pt],
                "moments_vanish": mnull,
                "in_union": union,
            }
    return True, count, None


def _suite_canonical(cfg: VerifyConfig):
    """Frobenius round trip, divisibility, minpoly, transpose conjugation."""
    count = 0
    for p, k, n, F in _small_odd_cells(cfg, 6):
        rng = _derive_rng(cfg.seed, "canonical", p, k, n)
        for trial in range(cfg.trials):
            a = random_matrix(F, n, rng)
            count += 1
            try:
                ff = frobenius_form(a)
                if ff.transform @ ff.basis != Mat.identity(F, n):
                    raise AssertionError("transform is not the inverse of basis")
                if ff.transform @ a @ ff.basis != ff.block_matrix():
                    raise AssertionError("round trip mismatch")
                prod = Poly.one(F)
                prev = None
                for fct in ff.invariant_factors:
                    prod = prod * fct
                    if prev is not None and not (fct % prev).is_zero:
                        raise AssertionError("divisibility chain broken")
                    prev = fct
                if prod != charpoly(a):
                    raise AssertionError("product of invariant factors != charpoly")
                if minimal_polynomial(a) != ff.minimal_polynomial():
                    raise AssertionError("minimal polynomial != last invariant factor")
                g2 = transpose_conjugator(a, form=ff)
                if g2 @ a.transpose() != a @ g2:
                    raise AssertionError("transpose conjugation failed")
                if trial % 20 == 0 and smith_invariant_factors(a) != ff.invariant_factors:
                    raise AssertionError("Smith-form oracle disagrees")
            except AssertionError as exc:
                return False, count, {
                    "suite": "canonical",
                    "cell": {"q": F.order, "n": n},
                    "trial": trial,
                    "matrix": matrix_to_json(a),
                    "failure": str(exc),
                }
    return True, count, None


def _suite_cayley_hamilton(cfg: VerifyConfig):
    """C_(n+1) = 0 in the coefficient chain and P_A(A) = 0, exactly."""
    count = 0
    for p, k, n, F in _small_odd_cells(cfg, 6):
        rng = _derive_rng(cfg.seed, "cayley-hamilton", p, k, n)
        for trial in range(cfg.trials):
            a = random_matrix(F, n, rng)
            count += 1
            bad = _ch_violation(a)
            if bad is not None:
                bad.update({"cell": {"q": F.order, "n": n}, "trial": trial})
                return False, count, bad
    rng = _derive_rng(cfg.seed, "cayley-hamilton", "rationals")
    for trial in range(cfg.rational_matrices):
        n = 1 + trial % 5
        a = random_matrix(QQ, n, rng)
        count += 1
        bad = _ch_violation(a)
        if bad is not None:
            bad.update({"cell": {"q": "Q", "n": n}, "trial": trial})
            return False, count, bad
    return True, count, None


def _ch_violation(a: Mat) -> dict | None:
    chain = faddeev_chain(a)
    if not chain[-1].is_zero:
        return {
            "suite": "cayley-hamilton",
            "matrix": matrix_to_json(a),
            "failure": "last chain element is nonzero",
            "last_element": matrix_to_json(chain[-1]),
        }
    value = poly_at_matrix(charpoly(a), a)
    if not value.is_zero:
        return {
            "suite": "cayley-hamilton",
            "matrix": matrix_to_json(a),
            "failure": "P_A(A) is nonzero",
            "value": matrix_to_json(value),
        }
    return None


def _suite_census(cfg: VerifyConfig):
    """Exhaustive n=2 over GF(3): orbit-stabilizer and the dimension formula."""
    F = GF(3)
    n = 2
    elems = list(F.elements())
    all_mats = [
        Mat.from_raw(F, n, n, list(cells))
        for cells in itertools.product(elems, repeat=n * n)
    ]
    gl = [(g, inverse(g)) for g in all_mats if rank(g) == n]
    orbits_seen: dict[frozenset, int] = {}
    fiber_totals: dict[tuple, int] = {}
    fiber_orbit_sums: dict[tuple, int] = {}
    count = 0
    for a in all_mats:
        count += 1
        chi = charpoly(a).coeffs
        fiber_totals[chi] = fiber_totals.get(chi, 0) + 1
        cent = sum(1 for g, _ in gl if g @ a == a @ g)
        orbit = frozenset((g @ a @ gi).cells for g, gi in gl)
        if len(orbit) * cent != len(gl):
            return False, count, {
                "suite": "census",
                "matrix": matrix_to_json(a),
                "failure": "orbit-stabilizer mismatch",
                "orbit_size": len(orbit),
                "centralizer_order": cent,
                "group_order": len(gl),
            }
        if orbit not in orbits_seen:
            orbits_seen[orbit] = len(orbit)
            fiber_orbit_sums[chi] = fiber_orbit_sums.get(chi, 0) + len(orbit)
        kdim = centralizer_dimension(a)
        fdim = centralizer_dim_from_chain(smith_invariant_factors(a))
        if kdim != fdim:
            return False, count, {
                "suite": "census",
                "matrix": matrix_to_json(a),
                "failure": "centralizer dimension mismatch",
                "kernel_dim": kdim,
                "formula_dim": fdim,
            }
    for chi, total in fiber_totals.items():
        if fiber_orbit_sums.get(chi, 0) != total:
            return False, count, {
                "suite": "census",
                "failure": "class sizes do not partition the fiber",
                "charpoly": [F.to_str(c) for c in chi],
                "fiber_size": total,
                "orbit_sum": fiber_orbit_sums.get(chi, 0),
            }
    return True, count, None


def _suite_equivariance(cfg: VerifyConfig):
    """Group action commutes with rank-one shifts and coprime twists."""
    cells = []
    for (p, k), F in zip(cfg.fields, cfg.field_objects()):
        for n in range(1, min(4, cfg.n_max) + 1):
            cells.append((p, k, n, F))
    per_cell = max(1, math.ceil(cfg.equivariance_samples / max(1, len(cells))))
    count = 0
    for p, k, n, F in cells:
        rng = _derive_rng(cfg.seed, "equivariance", p, k, n)
        for trial in range(per_cell):
            t = random_triple(F, n, rng)
            e = GroupElement(random_invertible(F, n, rng), rng.choice((1, -1)))
            lam = F.random(rng)
            left = act(e, rank_one_shift(t, lam))
            right = rank_one_shift(act(e, t), lam)
            count += 1
            if left != right:
                return False, count, {
                    "suite": "equivariance",
                    "map": "rank-one-shift",
                    "cell": {"q": F.order, "n": n},
                    "trial": trial,
                    "triple": triple_to_json(t),
                    "sign": e.sign,
                    "g": matrix_to_json(e.g),
                    "lambda": F.to_str(lam),
                }
            chi = charpoly(t.a)
            f = random_coprime_function(F, chi, rng)
            left = act(e, twist(t, f))
            right = twist(act(e, t), f)
            count += 1
            if left != right:
                return False, count, {
                    "suite": "equivariance",
                    "map": "twist",
                    "cell": {"q": F.order, "n": n},
                    "trial": trial,
                    "triple": triple_to_json(t),
                    "sign": e.sign,
                    "g": matrix_to_json(e.g),
                    "num": [F.to_str(c) for c in f.num.coeffs],
                    "den": [F.to_str(c) for c in f.den.coeffs],
                }
    return True, count, None


_SUITES = {
    "update": _suite_update,
    "equivalence": _suite_equivalence,
    "commutator": _suite_commutator,
    "filtration": _suite_filtration,
    "canonical": _suite_canonical,
    "cayley-hamilton": _suite_cayley_hamilton,
    "census": _suite_census,
    "equivariance": _suite_equivariance,
}


def run_verify(cfg: VerifyConfig) -> Report:
    cfg.validate()
    results = []
    for name in SUITE_ORDER:
        if name not in cfg.suites:
            continue
        started = time.perf_counter()
        passed, instances, counterexample = _SUITES[name](cfg)
        results.append(
            SuiteResult(name, passed, instances, counterexample, time.perf_counter() - started)
        )
    return Report(
        seed=cfg.seed,
        config=cfg.as_dict(),
        suites=results,
        all_passed=all(r.passed for r in results),
    )


def render_report(report: Report, as_json: bool = False) -> str:
    """Canonical rendering; deterministic for a fixed seed (no timings)."""
    if as_json:
        return dumps_canonical(report.to_dict())
    lines = [f"frobkit verify report (schema {SCHEMA}, seed {report.seed})"]
    for s in report.suites:
        status = "PASS" if s.passed else "FAIL"
        lines.append(f"[{status}] {s.name}: {s.instances} instances")
        if s.counterexample is not None:
            lines.append("  counterexample: " + dumps_canonical(s.counterexample).strip())
    verdict = "PASS" if report.all_passed else "FAIL"
    lines.append(f"result: {verdict} ({sum(r.passed for r in report.suites)}/{len(report.suites)} suites)")
    return "\n".join(lines) + "\n"


def render_timings(report: Report) -> str:
    lines = [f"{s.name}: {s.seconds:.2f}s" for s in report.suites]
    lines.append(f"total: {sum(s.seconds for s in report.suites):.2f}s")
    return "\n".join(lines) + "\n"
