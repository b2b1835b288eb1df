"""The four workloads: inputs made from a seed, the timed operation, its check.

A workload is a fixed list of slices (field, size, kind of input, repeat
count). One round runs every slice once in that order; the timed loop runs
whole rounds, so every run has the same mix whatever its length. Inputs come
from `random.Random(seed)` drawn round by round, and each output is checked
with the arithmetic in `oracle.py`, never against stored program output.

frobkit is imported as a module and its functions are looked up at call time,
so the wrappers that the traced and counting runs install are the ones called.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import frobkit as fk

import oracle as O
import tracing
from oracle import CheckFailed


@dataclass
class Task:
    slice: str
    own: object          # the benchmark's field
    prog: object         # frobkit's field
    a: list              # rows, in frobkit's raw encoding
    v: list = dc_field(default_factory=list)
    phi: list = dc_field(default_factory=list)
    lam: object = None
    planted: list | None = None   # planted invariant factors (orbit-stats: the charpoly)
    member: bool = False          # planted commutator-range member
    inputs: tuple = ()            # the same input as frobkit objects
    args: list = dc_field(default_factory=list)   # cli arguments
    kind: str = ""                # cli command kind


def fail(task: Task, what: str):
    raise CheckFailed(f"{task.slice}: {what}")


def own_field(F, cache: dict):
    """The benchmark's twin of a frobkit field; the modulus is derived here."""
    key = ("Q",) if not F.is_finite else (F.characteristic, F.order)
    if key not in cache:
        if not F.is_finite:
            cache[key] = O.Rationals()
        elif F.order == F.characteristic:
            cache[key] = O.ModP(F.characteristic)
        else:
            p, k = F.characteristic, 0
            while p**k < F.order:
                k += 1
            modulus = O.least_irreducible(p, k)
            if tuple(F.modulus) != modulus:
                raise CheckFailed(f"GF({F.order}) modulus {F.modulus} is not {modulus}")
            cache[key] = O.ModPoly(p, modulus)
    return cache[key]


def to_mat(F, rows):
    n, m = len(rows), len(rows[0]) if rows else 0
    return fk.Mat.from_raw(F, n, m, [x for r in rows for x in r])


# -- input generation ----------------------------------------------------------------


def small_coeff(F, rng):
    return Fraction(rng.randint(-3, 3)) if not F.finite else F.random(rng)


def random_monic(F, d: int, rng) -> list:
    return [small_coeff(F, rng) for _ in range(d)] + [F.one]


def divisibility_chain(F, n: int, rng) -> list:
    """f_1 | ... | f_r with r >= 2 and degrees summing to n (n >= 2)."""
    r = rng.randint(2, min(3, n))
    d1 = rng.randint(1, n // r)
    chain = [random_monic(F, d1, rng)]
    left = n - r * d1
    for i in range(2, r + 1):
        weight = r - i + 1  # f_i's multiplier also divides every later factor
        e = left if i == r else rng.randint(0, left // weight)
        left -= e * weight
        chain.append(O.pmul(F, chain[-1], random_monic(F, e, rng)))
    return chain


def random_invertible(F, n: int, rng):
    """g and g^-1; over Q, g = L U with unit triangular {-1, 0, 1} factors."""
    while True:
        if F.finite:
            g = [[F.random(rng) for _ in range(n)] for _ in range(n)]
        else:
            lo = [[Fraction(rng.randint(-1, 1)) if j < i else Fraction(int(i == j))
                   for j in range(n)] for i in range(n)]
            up = [[Fraction(rng.randint(-1, 1)) if j > i else Fraction(int(i == j))
                   for j in range(n)] for i in range(n)]
            g = O.matmul(F, lo, up)
        gi = O.inverse(F, g)
        if gi is not None:
            return g, gi


def conjugate(F, g, b, gi):
    return O.matmul(F, O.matmul(F, g, b), gi)


def random_rows(F, n, m, rng):
    return [[F.random(rng) for _ in range(m)] for _ in range(n)]


def triple_task(slice_, prog, F, n, rng, planted_chain: bool) -> Task:
    """A random triple; with planted_chain, A = g blockdiag(companions) g^-1."""
    planted = None
    if planted_chain:
        planted = divisibility_chain(F, n, rng)
        g, gi = random_invertible(F, n, rng)
        a = conjugate(F, g, O.block_diag(F, [O.companion_rows(F, f) for f in planted]), gi)
    else:
        a = random_rows(F, n, n, rng)
    v = [F.random(rng) for _ in range(n)]
    phi = [F.random(rng) for _ in range(n)]
    lam = F.random(rng) if F.finite else Fraction(rng.randint(-3, 3))
    return Task(slice_, F, prog, a, v, phi, lam, planted)


def member_task(slice_, prog, F, n, rng) -> Task:
    """A = g blockdiag(C(f1), C(f2)) g^-1 with gcd(f1, f2) = 1, v in block 1,
    phi zero on block 1: v (x) phi lies in [A, gl] by trace duality."""
    d1 = rng.randint(1, n - 1)
    while True:
        f1, f2 = random_monic(F, d1, rng), random_monic(F, n - d1, rng)
        if len(O.pgcd(F, f1, f2)) == 1:
            break
    g, gi = random_invertible(F, n, rng)
    a = conjugate(F, g, O.block_diag(F, [O.companion_rows(F, f1), O.companion_rows(F, f2)]), gi)
    while True:
        v1 = [F.random(rng) for _ in range(d1)]
        phi2 = [F.random(rng) for _ in range(n - d1)]
        if any(v1) and any(phi2):
            break
    v = [row[0] for row in O.matmul(F, g, [[x] for x in v1 + [F.zero] * (n - d1)])]
    phi = O.matmul(F, [[F.zero] * d1 + phi2], gi)[0]
    return Task(slice_, F, prog, a, v, phi, member=True)


# -- shared checks -------------------------------------------------------------------


def check_frobenius(t: Task, factors: list, g: list):
    """f_1 | ... | f_r monic and g A g^-1 = blockdiag(companions): by uniqueness
    of the rational canonical form this proves the factors."""
    F, a = t.own, t.a
    for f in factors:
        if len(f) < 2 or f[-1] != F.one:
            fail(t, f"invariant factor {f} is not monic of positive degree")
    for f1, f2 in zip(factors, factors[1:]):
        if O.pdivmod(F, f2, f1)[1]:
            fail(t, f"invariant factors {f1} and {f2} break the divisibility chain")
    if O.inverse(F, g) is None:
        fail(t, "Frobenius transform is singular")
    block = O.block_diag(F, [O.companion_rows(F, f) for f in factors])
    if len(block) != len(a) or O.matmul(F, g, a) != O.matmul(F, block, g):
        fail(t, "g A g^-1 is not the companion block matrix of the invariant factors")
    if t.planted is not None and factors != t.planted:
        fail(t, f"invariant factors {factors} differ from the planted {t.planted}")


def check_elementary(t: Task, blocks: list, transform: list, irreducible: dict,
                     factors: list | None = None):
    """Irreducible primes, T A T^-1 = blockdiag(companion(p^e)), and, when the
    invariant factors are known, the blocks regroup into them."""
    F, a = t.own, t.a
    powers = []
    for prime, e in blocks:
        key = (F.order, tuple(prime))
        if key not in irreducible:
            irreducible[key] = O.is_irreducible(F, prime)
        if not irreducible[key] or e < 1:
            fail(t, f"elementary divisor {prime}^{e} is not an irreducible power")
        f = [F.one]
        for _ in range(e):
            f = O.pmul(F, f, prime)
        powers.append(f)
    if O.inverse(F, transform) is None:
        fail(t, "elementary-divisor transform is singular")
    block = O.block_diag(F, [O.companion_rows(F, f) for f in powers])
    if len(block) != len(a) or O.matmul(F, transform, a) != O.matmul(F, block, transform):
        fail(t, "T A T^-1 is not the companion block matrix of the elementary divisors")
    if factors is not None and O.invariant_factors_from_blocks(F, blocks) != factors:
        fail(t, "elementary divisors do not regroup into the invariant factors")


def check_transpose_conjugator(t: Task, g: list):
    F, a = t.own, t.a
    if O.inverse(F, g) is None:
        fail(t, "transpose conjugator is singular")
    if O.matmul(F, g, O.transpose(a)) != O.matmul(F, a, g):
        fail(t, "g A^t differs from A g")


def check_witness(t: Task, b: list):
    F, a = t.own, t.a
    ab, ba = O.matmul(F, a, b), O.matmul(F, b, a)
    target = [[F.mul(x, y) for y in t.phi] for x in t.v]
    if [[F.sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)] != target:
        fail(t, "commutator witness: AB - BA differs from v (x) phi")


def check_membership(t: Task, member: bool, rng):
    """Trace duality: v (x) phi is in [A, gl] iff phi C v = 0 for every C that
    commutes with A; for cyclic A those C are the powers of A."""
    F, a = t.own, t.a
    if t.member and not member:
        fail(t, "planted commutator-range member reported as a non-member")
    n = len(a)
    if O.is_cyclic(F, a, rng):
        expect = not any(O.moments(F, a, t.v, t.phi, n))
    else:
        expect = all(  # phi C v, the second moment of (C, v, phi)
            F.zero == O.moments(F, c, t.v, t.phi, 2)[1] for c in O.centralizer_basis(F, a)
        )
    if member != expect:
        fail(t, f"commutator-range membership {member}, trace duality says {expect}")


def perturbed(t: Task) -> list:
    F = t.own
    return [[F.add(x, F.mul(t.lam, F.mul(vi, pj))) for x, pj in zip(row, t.phi)]
            for row, vi in zip(t.a, t.v)]


def rows(m) -> list:
    return O.rows_of(m.cells, m.nrows, m.ncols)


# -- in-process workloads ------------------------------------------------------------


class InProcess:
    """A workload that calls frobkit's functions in this process."""

    spawns = False   # operations are timed against in-process arithmetic

    def __init__(self, name: str, tags: tuple):
        self.name = name
        self.tags = tags
        # set-up: a fresh interpreter imports frobkit and builds the fields
        self.setup_code = "import frobkit\n" + "".join(
            f"frobkit.formats.field_from_tag({t!r})\n" for t in tags)
        self._own: dict = {}

    def build(self):
        self.fields = [fk.formats.field_from_tag(t) for t in self.tags]
        self.owns = [own_field(F, self._own) for F in self.fields]


class CanonicalWorkload(InProcess):
    """update_report, frobenius_form, transpose_conjugator, smith_invariant_factors
    and (finite fields only) elementary_divisor_form on one input per operation."""

    def __init__(self, name, sizes: dict, elementary):
        super().__init__(name, tuple(sizes))
        self.sizes = sizes   # per field tag: (n, repeat) per round
        self.elementary = elementary
        self._irreducible: dict = {}

    def round(self, rng) -> list:
        tasks = []
        for tag, F, own in zip(self.tags, self.fields, self.owns):
            for n, repeat in self.sizes[tag]:
                for _ in range(repeat):
                    tasks.append(triple_task(f"{F} n={n} random", F, own, n, rng, False))
                    if n >= 2:  # a planted chain has at least two factors
                        tasks.append(triple_task(f"{F} n={n} planted", F, own, n, rng, True))
        for t in tasks:
            t.inputs = (to_mat(t.prog, t.a), to_mat(t.prog, [t.v]).transpose(),
                        to_mat(t.prog, [t.phi]))
        return tasks

    def run(self, t: Task):
        a, v, phi = t.inputs
        return (
            fk.update_report(a, v, phi, t.lam),
            fk.frobenius_form(a),
            fk.transpose_conjugator(a),
            fk.smith_invariant_factors(a),
            fk.elementary_divisor_form(a) if self.elementary else None,
        )

    def check(self, t: Task, out, rng):
        F = t.own
        rep, ff, g, smith, ed = out
        if list(rep.c_of_a) != O.minor_sums(F, O.charpoly(F, t.a)):
            fail(t, "update_report: c(A) differs from det(xI - A)")
        if list(rep.c_of_perturbed) != O.minor_sums(F, O.charpoly(F, perturbed(t))):
            fail(t, "update_report: updated coefficients differ from det(xI - A - lam v phi)")
        if rep.matched_direct is not True:
            fail(t, "update_report: matched_direct is not True")
        factors = [list(f.coeffs) for f in ff.invariant_factors]
        check_frobenius(t, factors, rows(ff.transform))
        check_transpose_conjugator(t, rows(g))
        if [list(f.coeffs) for f in smith] != factors:
            fail(t, f"Smith invariant factors differ from {factors}")
        if ed is not None:
            check_elementary(t, [(list(p.coeffs), e) for p, e in ed.blocks],
                             rows(ed.transform), self._irreducible, factors)


class CommutatorWorkload(InProcess):
    """commutator_range and centralizer_dimension on one triple per operation."""

    def __init__(self, sizes: dict):
        super().__init__("commutator", tuple(sizes))
        self.sizes = sizes   # per field tag: (n, repeat) per round

    def round(self, rng) -> list:
        tasks = []
        for tag, F, own in zip(self.tags, self.fields, self.owns):
            for n, repeat in self.sizes[tag]:
                for _ in range(repeat):
                    tasks.append(member_task(f"{F} n={n} member", F, own, n, rng))
                    tasks.append(triple_task(f"{F} n={n} random", F, own, n, rng, False))
        for t in tasks:
            t.inputs = (fk.Triple(to_mat(t.prog, t.a), to_mat(t.prog, [t.v]).transpose(),
                                  to_mat(t.prog, [t.phi])),)
        return tasks

    def run(self, t: Task):
        (triple,) = t.inputs
        return fk.commutator_range(triple), fk.centralizer_dimension(triple.a)

    def check(self, t: Task, out, rng):
        cert, cdim = out
        if cert.member:
            check_witness(t, rows(cert.witness))
        check_membership(t, cert.member, rng)
        F = t.own
        # planted members are cyclic (coprime blocks): one invariant factor of degree n
        expect = len(t.a) if t.member or O.is_cyclic(F, t.a, rng) else O.centralizer_dim(F, t.a)
        if cdim != expect:
            fail(t, f"centralizer dimension {cdim}, expected {expect}")


# -- the command line ----------------------------------------------------------------


def render_matrix(tag: str, rows_: list) -> str:
    lines = [f"{tag} {len(rows_)} {len(rows_[0]) if rows_ else 0}"]
    lines += [" ".join(str(x) for x in r) for r in rows_]
    return "\n".join(lines) + "\n"


def parse_value(F, s: str):
    return Fraction(s) if not F.finite else int(s)


def parse_pretty(F, text: str) -> list:
    """Coefficients, low to high, of a polynomial printed as 'x^2+(3)x+1'."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and i > start:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    coeffs: dict = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        c, x, e = term.partition("x")
        power = (int(e[1:]) if e else 1) if x else 0
        value = parse_value(F, c.strip("()")) if c else F.one
        coeffs[power] = F.neg(value) if sign < 0 else value
    return [coeffs.get(i, F.zero) for i in range(max(coeffs) + 1)]


class CliWorkload:
    """Fresh `python -m frobkit` processes, one at a time."""

    name = "cli"
    spawns = True       # operations are timed against a fresh reference interpreter
    setup_code = None   # set-up is a fresh `python -m frobkit --version`

    # (command, field tag, n) per round; orbit-stats gives (field, n) of the charpoly
    COMMANDS = (
        ("charpoly", "5", 6), ("charpoly", "25", 5), ("charpoly", "625", 3), ("charpoly", "Q", 5),
        ("rcf", "5", 6), ("rcf", "25", 5), ("rcf", "625", 3), ("rcf", "Q", 4),
        ("elementary", "5", 6), ("elementary", "25", 5), ("elementary", "625", 3),
        ("classify", "5", 4), ("classify", "25", 3), ("classify", "Q", 3),
        ("charpoly", "243", 4), ("rcf", "243", 4), ("elementary", "243", 3),
        ("classify", "243", 3),
        ("orbit", "3", 2), ("orbit", "3", 3), ("orbit", "9", 2),
        ("verify", "5,25", 3),
    )

    def __init__(self, root: str, out_dir: str):
        self.root = root
        self.dir = os.path.join(out_dir, "cli")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.recorder = None   # tracing.Spans or tracing.Counts while a traced run lasts
        self._own: dict = {}
        self._irreducible: dict = {}
        self._counts: dict = {}

    def build(self):
        os.makedirs(self.dir, exist_ok=True)
        self.fields = {t: fk.formats.field_from_tag(t)
                       for t in ("3", "5", "9", "25", "243", "625", "Q")}

    def _file(self, i: int, text: str) -> str:
        path = os.path.join(self.dir, f"in{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def round(self, rng) -> list:
        tasks = []
        for i, (cmd, tag, n) in enumerate(self.COMMANDS):
            slice_ = f"{cmd} {tag} n={n}"
            if cmd == "verify":
                args = ["verify", "--json", "--quiet-timings", "--seed", str(rng.randrange(10**6)),
                        "--fields", tag, "--n-max", str(n), "--trials", "2",
                        "--suites", "update,canonical,cayley-hamilton,equivariance",
                        "--equivariance-samples", "10", "--rational-matrices", "4"]
                tasks.append(Task(slice_, None, None, [], args=args, kind=cmd))
                continue
            prog = self.fields[tag]
            F = own_field(prog, self._own)
            if cmd == "orbit":
                chi = random_monic(F, n, rng)
                args = ["orbit-stats", "--json", "--field", tag, ",".join(map(str, chi))]
                tasks.append(Task(slice_, F, prog, [], planted=chi, args=args, kind=cmd))
                continue
            t = triple_task(slice_, prog, F, n, rng, planted_chain=False)
            t.kind = cmd
            if cmd == "classify":
                text = "\n".join([render_matrix(tag, t.a), render_matrix(tag, [[x] for x in t.v]),
                                  render_matrix(tag, [t.phi])])
                t.args = ["classify-triple", self._file(i, text)]
            else:
                path = self._file(i, render_matrix(tag, t.a))
                t.args = {"charpoly": ["charpoly", "--json", path], "rcf": ["rcf", path],
                          "elementary": ["rcf", "--elementary", path]}[cmd]
            tasks.append(t)
        return tasks

    def run(self, t: Task):
        if self.recorder is None:
            r = subprocess.run([sys.executable, "-m", "frobkit"] + t.args, env=self.env, cwd=self.root,
                               capture_output=True, text=True, timeout=150)
            return r.returncode, r.stdout, r.stderr
        dump = os.path.join(self.dir, "child.json")
        boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_boot.py")
        mode = "span" if isinstance(self.recorder, tracing.Spans) else "count"
        if os.path.exists(dump):  # a child that writes no dump must not reuse the last one
            os.remove(dump)
        env = dict(self.env, BENCH_SPAWNED=repr(time.perf_counter()))
        r = subprocess.run([sys.executable, boot, mode, dump, "--"] + t.args, env=env,
                           cwd=self.root, capture_output=True, text=True, timeout=150)
        with open(dump, encoding="utf-8") as fh:  # missing: the operation fails
            self.recorder.merge(json.load(fh))
        return r.returncode, r.stdout, r.stderr

    def check(self, t: Task, out, rng):
        code, stdout, stderr = out
        if code != 0:
            fail(t, f"exit code {code}: {stderr.strip()[-200:]}")
        try:
            doc = json.loads(stdout)
        except ValueError:
            fail(t, "output is not JSON")
        getattr(self, "_check_" + t.kind)(t, doc, rng)

    def _matrix(self, t, doc) -> list:
        return [[parse_value(t.own, s) for s in r] for r in doc["entries"]]

    def _check_charpoly(self, t, doc, rng):
        F = t.own
        if [parse_value(F, s) for s in doc["coeffs"]] != O.charpoly(F, t.a):
            fail(t, "charpoly differs from det(xI - A)")
        if doc.get("algorithms_agree") is not True:
            fail(t, "algorithms_agree is not true")

    def _check_rcf(self, t, doc, rng):
        F = t.own
        factors = [[parse_value(F, s) for s in f] for f in doc["invariant_factors"]]
        check_frobenius(t, factors, self._matrix(t, doc["transform"]))
        if doc.get("verified") is not True:
            fail(t, "verified is not true")

    def _check_elementary(self, t, doc, rng):
        F = t.own
        blocks = [([parse_value(F, s) for s in b["irreducible"]], b["exponent"])
                  for b in doc["blocks"]]
        check_elementary(t, blocks, self._matrix(t, doc["transform"]), self._irreducible)

    def _check_classify(self, t, doc, rng):
        F, n = t.own, len(t.a)
        ms = O.moments(F, t.a, t.v, t.phi, 2 * n)
        if [parse_value(F, s) for s in doc["moments"]] != ms:
            fail(t, "moments differ from phi A^j v")
        vanish = not any(ms[:n])
        first = next((j for j, m in enumerate(ms[:n]) if m != F.zero), None)
        mv = doc["moment_vanishing"]
        if mv["vanishes"] != vanish or mv["witness_index"] != first:
            fail(t, "moment vanishing report is wrong")
        cr = doc["commutator_range"]
        if cr["member"]:
            check_witness(t, self._matrix(t, cr["witness"]))
        check_membership(t, cr["member"], rng)
        if parse_pretty(F, doc["charpoly"]) != O.charpoly(F, t.a):
            fail(t, "charpoly differs from det(xI - A)")
        eq = doc["equivalence"]
        if not (eq["consistent"] and eq["all_moments_vanish"] == vanish):
            fail(t, "equivalence flags are wrong")

    def _check_orbit(self, t, doc, rng):
        F, chi = t.own, t.planted
        n = len(chi) - 1
        if (F.order, n) not in self._counts:
            counts: dict = {}
            cells = list(F.elements())
            for code in range(F.order ** (n * n)):
                a = [[cells[code // F.order ** (i * n + j) % F.order] for j in range(n)]
                     for i in range(n)]
                key = tuple(O.charpoly(F, a))
                counts[key] = counts.get(key, 0) + 1
            self._counts[(F.order, n)] = counts
        expect = self._counts[(F.order, n)].get(tuple(chi), 0)
        if not doc["counted"]:
            fail(t, "class sizes were not counted")
        total = 0
        for c in doc["classes"]:
            degs = [len(parse_pretty(F, f)) - 1 for f in c["invariant_factors"]]
            cdim = sum(min(d1, d2) for d1 in degs for d2 in degs)
            if sum(degs) != n or c["centralizer_dim"] != cdim or c["orbit_dim"] != n * n - cdim:
                fail(t, f"class {c['invariant_factors']}: wrong degrees or dimensions")
            total += c["class_size"]
        if total != expect:
            fail(t, f"class sizes add up to {total}, not the {expect} matrices with this charpoly")

    def _check_verify(self, t, doc, rng):
        if doc.get("kind") != "verify-report" or doc.get("all_passed") is not True:
            fail(t, "verify report did not pass")
        if not all(s["passed"] and s["instances"] > 0 for s in doc["suites"]):
            fail(t, "a verify suite failed or ran no instances")


def make(name: str, root: str, out_dir: str):
    # Repeat counts put p90 in the middle, by rank, of one kind of operation.
    # On finite that is n = 10 over the tabled extension fields GF(9) and GF(25),
    # whose latencies overlap: 16 of 104 operations per round, p90 the 11th
    # slowest. Prime fields get one pair at n = 10, whose latencies would
    # otherwise crowd the band just below p90. On rational it is n = 8.
    if name == "finite":
        upto9 = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 3), (7, 1), (8, 1), (9, 1)]
        return CanonicalWorkload("finite", {
            "3": upto9 + [(10, 1)], "5": upto9 + [(10, 1)],
            "9": upto9 + [(10, 4)], "25": upto9 + [(10, 4)],
        }, elementary=True)
    if name == "rational":
        return CanonicalWorkload("rational", {
            "Q": [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 1), (7, 1), (8, 3)],
        }, elementary=False)
    if name == "commutator":
        return CommutatorWorkload({
            "5": [(6, 6), (8, 1), (10, 1), (12, 1)],
            "25": [(6, 8), (8, 1), (10, 2)],
        })
    if name == "cli":
        return CliWorkload(root, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("finite", "rational", "commutator", "cli")
