"""The three benchmark workloads: spin-cli, gb-families and quotient-queries.

Each workload turns a seed into a pool of jobs at set-up.  The run cycles
through the pool, one job at a time.  ``run`` is the timed part of a job;
``answer`` renders its output as text for digests, and ``check`` tests the
output against facts that hold for every seed.  Both run outside the timed
region.  Only grading-free answers (reduced bases, total quotient
dimensions, normal forms, membership) are recorded on rings that are not
graded by their weights.
"""

from __future__ import annotations

import hashlib
import io
import json
import operator
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

from spinring import cli, spindomain
from spinring.groebner import Ideal, buchberger, is_member, s_polynomial
from spinring.parser import RingFile, parse_polynomial, parse_ring_file
from spinring.poly import RingContext, monomial_divides
from spinring.quotient import (
    PointNormalization,
    build_quotient,
    hilbert_function,
    integrate,
    multiplication_matrix,
    pairing_matrix,
    rank,
)

# the command list of the package README, run in text and in JSON
README_COMMANDS = (
    ("verify", "--component", "all"),
    ("gb", "--builtin", "even"),
    ("hilbert", "--builtin", "odd"),
    ("nf", "--builtin", "even", "--expr", "a0^2*b1"),
    ("member", "--builtin", "even", "--expr", "a0^2*b0"),
    ("integrate", "--builtin", "even", "--expr", "a0^3"),
    ("lefschetz", "--builtin", "odd", "--class", "a0 + a1 + b0", "--from-degree", "1"),
    ("strata", "--graph", "G7", "--component", "odd"),
)


@dataclass
class Job:
    key: str  # names every input, so equal keys must give equal answers
    kind: str
    data: dict = field(default_factory=dict)


def clear_caches() -> None:
    """Empty the lru caches of ``spindomain`` so the next call starts cold."""
    for value in vars(spindomain).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def spread(groups: list[list[Job]]) -> list[Job]:
    """Merge job lists so that every prefix holds each list in proportion."""
    placed = [
        ((i + 0.5) / len(group), g, job)
        for g, group in enumerate(groups)
        for i, job in enumerate(group)
    ]
    return [job for _, _, job in sorted(placed, key=lambda item: item[:2])]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Arith:
    """Polynomial ``+ * **`` through the tracer, counting result terms."""

    def __init__(self, tracer):
        self.tracer = tracer

    def _op(self, fn, a, b):
        result = self.tracer.call("poly.arith", fn, a, b)
        self.tracer.count("poly.terms", len(result))
        return result

    def add(self, a, b):
        return self._op(operator.add, a, b)

    def mul(self, a, b):
        return self._op(operator.mul, a, b)

    def pow(self, a, n):
        return self._op(operator.pow, a, n)

    def total(self, items, ctx):
        result = ctx.zero()
        for item in items:
            result = self.add(result, item)
        return result

    def linear(self, ctx, coeffs):
        return self.total((c * ctx.variable(v) for c, v in zip(coeffs, ctx.variables)), ctx)

    def product(self, factors, ctx):
        result = ctx.one()
        for f in factors:
            result = self.mul(result, f)
        return result


def nonzero_coeffs(rng: random.Random, n: int, bound: int = 3) -> list[int]:
    return [rng.choice([c for c in range(-bound, bound + 1) if c]) for _ in range(n)]


def parse(tracer, text: str, ctx):
    tracer.count("parser.bytes", len(text.encode()))
    return tracer.call("parser.parse", parse_polynomial, text, ctx)


def parse_ring(tracer, text: str):
    tracer.count("parser.bytes", len(text.encode()))
    return tracer.call("parser.parse", parse_ring_file, text)


def groebner(tracer, ideal):
    basis = tracer.call("groebner.buchberger", buchberger, ideal)
    tracer.count("groebner.basis_elems", len(basis))
    tracer.count("groebner.basis_terms", sum(len(g) for g in basis))
    return basis


def quotient(tracer, basis):
    ring = tracer.call("quotient.build", build_quotient, basis)
    tracer.count("quotient.dim", sum(len(layer) for layer in ring.standard_monomials))
    return ring


def is_artinian(basis) -> bool:
    leads = basis.leading_monomials()
    n = basis.context.nvars
    return all(any(m[i] and sum(m) == m[i] for m in leads) for i in range(n))


def basis_problems(basis, generators) -> list[str]:
    """Structural checks on a reduced Groebner basis that need no reference."""
    problems = []
    elements = list(basis)
    leads = [g.leading_monomial() for g in elements]
    for g in generators:
        if not basis.normal_form(g).is_zero:
            problems.append(f"generator {g} does not reduce to 0")
    for i, g in enumerate(elements):
        if g.leading_coefficient() != 1:
            problems.append(f"basis element {g} is not monic")
        for j, lead in enumerate(leads):
            if j != i and any(monomial_divides(lead, m) for m in g.monomials()):
                problems.append(f"basis element {g} is not reduced")
                break
        for h in elements[i + 1 :]:
            if not basis.normal_form(s_polynomial(g, h)).is_zero:
                problems.append(f"S-pair of {g} and {h} does not reduce to 0")
    return problems


def top_normalization(ring) -> PointNormalization:
    top = ring.standard_monomials[ring.top_degree][0]
    return PointNormalization(witness=ring.context.monomial(1, top), value=Fraction(1))


def import_seconds(env: dict, root: str) -> float:
    """Time ``import spinring.cli`` inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import spinring.cli; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


class Workload:
    name = ""

    def __init__(self, seed: int, env: dict, root: str):
        self.seed = seed
        self.env = env
        self.root = root
        self.pool: list[Job] = []

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def run(self, job: Job, tracer):
        raise NotImplementedError

    def answer(self, job: Job, output) -> str:
        raise NotImplementedError

    def check(self, job: Job, output) -> list[str]:
        return []

    def shadow(self, job: Job, tracer) -> None:
        """Replay a job in-process, traced per layer; only subprocess jobs need it."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- spin-cli ----------------------------------------------------------------


class SpinCli(Workload):
    """The paper's own traffic: one fresh ``python -m spinring.cli`` per job."""

    name = "spin-cli"

    def setup(self, tracer) -> None:
        rng = self.rng()
        arith = Arith(tracer)
        commands = [("verify", "--component", "all")]
        self.expected_exit = {}
        for component in spindomain.COMPONENTS:
            presentation = tracer.call("spindomain.builtin", spindomain.builtin, component)
            ctx = presentation.context
            source = ("--builtin", component)

            def linear():
                return arith.linear(ctx, nonzero_coeffs(rng, ctx.nvars))

            nf_class = arith.product([linear(), linear()], ctx)
            inside = rng.random() < 0.5
            member_class = arith.mul(linear(), rng.choice(presentation.generators))
            if not inside:
                member_class = arith.add(member_class, ctx.one())
            top_class = arith.product([linear(), linear(), linear()], ctx)
            degree = rng.randrange(3)
            member = ("member", *source, "--expr", str(member_class))
            self.expected_exit[member] = 0 if inside else 1
            commands += [
                ("gb", *source),
                ("hilbert", *source),
                ("nf", *source, "--expr", str(nf_class)),
                member,
                ("integrate", *source, "--expr", str(top_class)),
                ("lefschetz", *source, "--class", str(linear()), "--from-degree", str(degree)),
            ]
        commands.append(("strata", "--graph", "G7", "--component", "odd"))
        text = [Job(" ".join(c), "cli", {"argv": list(c)}) for c in commands]
        json_ = [Job(" ".join(c) + " --format json", "cli", {"argv": [*c, "--format", "json"]}) for c in commands]
        self.pool = spread([text, json_])

    def run(self, job: Job, tracer):
        done = subprocess.run(
            [sys.executable, "-m", "spinring.cli", *job.data["argv"]],
            env=self.env,
            cwd=self.root,
            capture_output=True,
            timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def answer(self, job: Job, output) -> str:
        code, stdout, _ = output
        return f"exit {code}\n" + stdout.decode()

    def check(self, job: Job, output) -> list[str]:
        code, stdout, stderr = output
        argv = job.data["argv"]
        command = tuple(a for a in argv if a not in ("--format", "json"))
        problems = []
        expected = self.expected_exit.get(command, 0)
        if code != expected:
            problems.append(f"exit {code}, expected {expected}")
        if stderr:
            problems.append(f"stderr: {stderr.decode().strip()}")
        text = stdout.decode()
        if "json" in argv:
            try:
                document = json.loads(text)
            except ValueError:
                return problems + ["stdout is not JSON"]
            if argv[0] == "verify" and not document.get("pass"):
                problems.append("verify did not pass")
            if argv[0] == "hilbert":
                text = " ".join(map(str, document["dimensions"]))
        elif argv[0] == "verify" and "result: PASS (44 checks)" not in text:
            problems.append("verify did not pass")
        if argv[0] == "hilbert":
            wanted = " ".join(map(str, spindomain.builtin(argv[2]).expected_hilbert))
            if text.strip() != wanted:
                problems.append(f"hilbert {text.strip()}, expected {wanted}")
        return problems

    def shadow(self, job: Job, tracer) -> None:
        argv = job.data["argv"]
        opts = dict(zip(argv[1::2], argv[2::2]))
        clear_caches()
        if argv[0] == "verify":
            tracer.call("spindomain.verify", spindomain.verify, opts["--component"])
            return
        if argv[0] == "strata":
            tracer.call("spindomain.strata", spindomain.strata, opts["--graph"], opts["--component"])
            return
        presentation = tracer.call("spindomain.builtin", spindomain.builtin, opts["--builtin"])
        ctx = presentation.context
        if argv[0] == "member":
            f = parse(tracer, opts["--expr"], ctx)
            tracer.call("groebner.is_member", is_member, f, presentation.ideal)
            return
        basis = groebner(tracer, presentation.ideal)
        if argv[0] == "nf":
            tracer.call("groebner.normal_form", basis.normal_form, parse(tracer, opts["--expr"], ctx))
        elif argv[0] in ("hilbert", "integrate", "lefschetz"):
            ring = quotient(tracer, basis)
            if argv[0] == "hilbert":
                tracer.call("quotient.hilbert", hilbert_function, ring)
            elif argv[0] == "integrate":
                f = parse(tracer, opts["--expr"], ctx)
                tracer.call("quotient.integrate", integrate, ring, f, presentation.point_normalization)
            else:
                f = parse(tracer, opts["--class"], ctx)
                matrix = tracer.call("quotient.matrix", multiplication_matrix, ring, f, int(opts["--from-degree"]))
                tracer.call("quotient.rank", rank, matrix)

    def peak_rss_kb(self) -> int:
        # the largest child; the benchmark process itself runs no job
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# -- gb-families ---------------------------------------------------------------


def katsura(ctx, arith, n):
    u = [ctx.variable(v) for v in ctx.variables]

    def at(i):
        return u[abs(i)] if abs(i) <= n else None

    generators = [arith.add(arith.total((at(i) for i in range(-n, n + 1)), ctx), ctx.constant(-1))]
    for m in range(n):
        terms = [arith.mul(at(i), at(m - i)) for i in range(-n, n + 1) if at(i) is not None and at(m - i) is not None]
        generators.append(arith.add(arith.total(terms, ctx), -u[m]))
    return generators


def cyclic(ctx, arith, n):
    x = [ctx.variable(v) for v in ctx.variables]
    generators = []
    for d in range(1, n):
        generators.append(arith.total((arith.product([x[(i + k) % n] for k in range(d)], ctx) for i in range(n)), ctx))
    generators.append(arith.add(arith.product(x, ctx), ctx.constant(-1)))
    return generators


def linear_products(ctx, arith, forms):
    return [arith.product([arith.linear(ctx, c) for c in factors], ctx) for factors in forms]


class GbFamilies(Workload):
    """Buchberger-bound jobs: render, parse, complete, test membership, build."""

    name = "gb-families"
    WEIGHTS = (1, 2, 1, 3)

    def setup(self, tracer) -> None:
        rng = self.rng()
        specs = [
            ("katsura-4", 5, (), "grevlex", ("katsura", 4), 16),
            ("katsura-3", 4, self.WEIGHTS, "grevlex", ("katsura", 3), 8),
            ("cyclic-4", 4, (), "grevlex", ("cyclic", 4), None),
            ("katsura-3", 4, (), "grevlex", ("katsura", 3), 8),
            ("katsura-3", 4, self.WEIGHTS, "grevlex", ("katsura", 3), 8),
            ("cyclic-4", 4, (), "lex", ("cyclic", 4), None),
            ("cyclic-4", 4, self.WEIGHTS, "grevlex", ("cyclic", 4), None),
        ]
        # (variables, degree, order, weights, copies); coefficients up to 20
        # keep the instances generic, so every seed gets the same basis shape
        # and nearly the same cost
        random_kinds = [
            (3, 2, "grevlex", (), 4),
            (3, 2, "lex", (), 4),
            (3, 2, "grevlex", self.WEIGHTS[:3], 4),
            (3, 3, "grevlex", (), 2),
            (4, 2, "grevlex", (), 2),
        ]
        randoms = []
        for n, d, order, weights, copies in random_kinds:
            for _ in range(copies):
                forms = [[nonzero_coeffs(rng, n, 20) for _ in range(d)] for _ in range(n)]
                randoms.append((f"random-{n}v-deg{d}", n, weights, order, ("products", forms), d**n))
        # the fixed families get fixed queries too, so their answers are
        # checked against the recorded digests on every seed
        fixed = random.Random(f"{self.name}:fixed")
        jobs = []
        for index, (name, nvars, weights, order, family, dim) in enumerate(specs + randoms):
            source = fixed if index < len(specs) else rng
            data = {
                "name": name,
                "vars": tuple(f"x{i}" for i in range(nvars)),
                "weights": weights,
                "order": order,
                "family": family,
                "dim": dim,
                "graded": family[0] == "products" and not weights,
                "inside": source.random() < 0.5,
                "multipliers": [nonzero_coeffs(source, nvars) for _ in range(nvars)],
                "nf_forms": [nonzero_coeffs(source, nvars) for _ in range(3)],
            }
            key = digest(repr(sorted(data.items())))
            jobs.append(Job(f"{name} {order} {weights or ''} {key}", "gb", data))
        self.pool = spread([jobs[:len(specs)], jobs[len(specs):]])

    def run(self, job: Job, tracer):
        data = job.data
        arith = Arith(tracer)
        ctx = RingContext(data["vars"], data["weights"], data["order"])
        family, arg = data["family"]
        if family == "katsura":
            generators = katsura(ctx, arith, arg)
        elif family == "cyclic":
            generators = cyclic(ctx, arith, arg)
        else:
            generators = linear_products(ctx, arith, arg)
        text = tracer.call("parser.render", RingFile(data["name"], ctx, Ideal(ctx, tuple(generators))).render)
        ring = parse_ring(tracer, text)
        ctx = ring.context
        basis = groebner(tracer, ring.ideal)
        multiples = [arith.mul(arith.linear(ctx, c), g) for c, g in zip(data["multipliers"], ring.ideal.generators)]
        candidate = arith.total(multiples, ctx)
        if not data["inside"]:
            candidate = arith.add(candidate, ctx.one())
        member = tracer.call("groebner.is_member", is_member, candidate, ring.ideal)
        first, second, shift = (arith.linear(ctx, c) for c in data["nf_forms"])
        target = arith.add(arith.mul(first, second), shift)
        reduced = tracer.call("groebner.normal_form", basis.normal_form, target)
        output = {"ring": ring, "basis": basis, "member": member, "target": target, "nf": reduced}
        if is_artinian(basis):
            output["quotient"] = ring_q = quotient(tracer, basis)
            if data["graded"]:
                form = arith.linear(ctx, data["nf_forms"][0])
                top_class = arith.pow(form, ring_q.top_degree)
                output["integral"] = tracer.call("quotient.integrate", integrate, ring_q, top_class, top_normalization(ring_q))
                matrix = tracer.call("quotient.matrix", multiplication_matrix, ring_q, form, 1)
                output["rank"] = tracer.call("quotient.rank", rank, matrix)
        return output

    def answer(self, job: Job, output) -> str:
        lines = [str(g) for g in output["basis"]]
        lines.append(f"member {output['member']}")
        lines.append(f"nf {output['nf']}")
        if "quotient" in output:
            lines.append(f"dim {sum(len(layer) for layer in output['quotient'].standard_monomials)}")
        if "integral" in output:
            lines.append(f"integral {output['integral']} rank {output['rank']}")
        return "\n".join(lines)

    def check(self, job: Job, output) -> list[str]:
        data = job.data
        basis = output["basis"]
        problems = basis_problems(basis, output["ring"].ideal.generators)
        if output["member"] != data["inside"]:
            problems.append(f"is_member said {output['member']}, expected {data['inside']}")
        leads = basis.leading_monomials()
        reduced = output["nf"]
        if any(monomial_divides(m, e) for m in leads for e in reduced.monomials()):
            problems.append("normal form has a reducible term")
        if not basis.contains(output["target"] - reduced):
            problems.append("normal form differs from its input by a non-member")
        if "quotient" in output:
            dim = sum(len(layer) for layer in output["quotient"].standard_monomials)
            if dim != data["dim"]:
                problems.append(f"quotient dimension {dim}, expected {data['dim']}")
        elif data["family"][0] != "products" and data["dim"] is not None:
            problems.append("quotient expected to be Artinian")
        return problems


# -- quotient-queries ----------------------------------------------------------

TOY = "ring toy\nvars x y\nideal\n  x^2 - y\n  x*y - 1\nend\n"
STAIRCASE = "ring staircase\nvars x y z\nideal\n  x^60\n  y^60\n  z^60\n  x*y*z\n  x^2*y^2\n  y^3*z^3\nend\n"
BOX = "ring box\nvars x y z\nideal\n  x^12\n  y^12\n  z^12\nend\n"
MONOMIAL_RINGS = ("box", "staircase")


class QuotientQueries(Workload):
    """Build once at set-up, then query normal forms, integrals and matrices."""

    name = "quotient-queries"

    def setup(self, tracer) -> None:
        rng = self.rng()
        arith = Arith(tracer)
        self.rings = {}
        for component in spindomain.COMPONENTS:
            presentation = tracer.call("spindomain.builtin", spindomain.builtin, component)
            ring = quotient(tracer, groebner(tracer, presentation.ideal))
            self.rings[component] = (ring, presentation.ideal, presentation.point_normalization)
        for text in (TOY, STAIRCASE, BOX):
            parsed = parse_ring(tracer, text)
            ring = quotient(tracer, groebner(tracer, parsed.ideal))
            self.rings[parsed.name] = (ring, parsed.ideal, top_normalization(ring))
        graded = ("even", "odd", "box", "staircase")

        def job(kind, ring_name, **data):
            data["ring"] = ring_name
            shown = " ".join(f"{k}={v}" for k, v in sorted(data.items()) if k not in ("coeffs", "text"))
            return Job(f"{kind} {shown} {digest(repr(sorted(data.items())))}", kind, data)

        def coeffs(name, n):
            return nonzero_coeffs(rng, self.rings[name][0].context.nvars * n)

        # sixteen powers, one from each stratum of width 125 in [500, 2500),
        # in bit-reversed stratum order so any prefix spans the whole range
        strata = sorted(range(16), key=lambda s: int(f"{s:04b}"[::-1], 2))
        powers = [job("power", "toy", n=500 + 125 * s + rng.randrange(125)) for s in strata]
        matrices = [
            job("matrix", name, degree=d, coeffs=coeffs(name, 1))
            for name in graded
            for d in range(self.rings[name][0].top_degree)
        ]
        integrals = [job("integrate", name, copy=c, coeffs=coeffs(name, 3)) for c in range(3) for name in graded]
        pairings = [
            job("pairing", name, degree=d)
            for name in graded[:3]
            for d in range(min(self.rings[name][0].top_degree, 5) + 1)
        ]
        classes = []
        for name in graded:
            ring = self.rings[name][0]
            ctx = ring.context
            for degree in sorted({1, ring.top_degree // 2, ring.top_degree - 1}):
                monomials = [rng.choice(ring.standard_monomials[degree])]
                monomials += [self.random_monomial(rng, ctx.nvars, degree) for _ in range(5)]
                terms = [ctx.monomial(rng.randint(-9, 9) or 1, m) for m in monomials]
                classes.append(job("coordinates", name, degree=degree, text=str(arith.total(terms, ctx))))
        members = [
            job("member", name, inside=inside, which=rng.randrange(len(self.rings[name][1].generators)), coeffs=coeffs(name, 1))
            for name in ("toy", "box", "staircase")
            for inside in (True, False)
        ]
        # a run ends part-way through its second pass; a fixed shuffle of each
        # kind makes any prefix a fair sample of rings and degrees
        order = random.Random(f"{self.name}:order")
        for group in (matrices, integrals, pairings, classes, members):
            order.shuffle(group)
        self.pool = spread([powers, matrices, integrals, pairings, classes, members])

    @staticmethod
    def random_monomial(rng, nvars, degree):
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))

    def run(self, job: Job, tracer):
        data = job.data
        ring, ideal, normalization = self.rings[data["ring"]]
        ctx = ring.context
        arith = Arith(tracer)
        if job.kind == "power":
            power = ctx.monomial(1, (data["n"], 0))
            return tracer.call("groebner.normal_form", ring.basis.normal_form, power)
        if job.kind == "matrix":
            form = arith.linear(ctx, data["coeffs"])
            matrix = tracer.call("quotient.matrix", multiplication_matrix, ring, form, data["degree"])
            return matrix, tracer.call("quotient.rank", rank, matrix)
        if job.kind == "pairing":
            matrix = tracer.call("quotient.matrix", pairing_matrix, ring, normalization, data["degree"])
            return matrix, tracer.call("quotient.rank", rank, matrix)
        if job.kind == "integrate":
            n = ctx.nvars
            forms = [arith.linear(ctx, data["coeffs"][i * n : (i + 1) * n]) for i in range(3)]
            # a top monomial with degree 3 taken off, times three linear forms
            shift, need = [], 3
            for e in ring.standard_monomials[ring.top_degree][0]:
                shift.append(e - min(e, need))
                need -= min(e, need)
            product = arith.mul(ctx.monomial(1, tuple(shift)), arith.product(forms, ctx))
            return product, tracer.call("quotient.integrate", integrate, ring, product, normalization)
        if job.kind == "coordinates":
            f = parse(tracer, data["text"], ctx)
            return f, tracer.call("quotient.coordinates", ring.coordinates, f, data["degree"])
        generator = ideal.generators[data["which"]]
        f = arith.mul(arith.linear(ctx, data["coeffs"]), generator)
        if not data["inside"]:
            f = arith.add(f, ctx.one())
        return tracer.call("groebner.is_member", is_member, f, ideal)

    def answer(self, job: Job, output) -> str:
        if job.kind in ("matrix", "pairing"):
            matrix, matrix_rank = output
            return "\n".join(" ".join(map(str, row)) for row in matrix) + f"\nrank {matrix_rank}"
        if job.kind in ("integrate", "coordinates"):
            return " ".join(map(str, output[1])) if job.kind == "coordinates" else str(output[1])
        return str(output)

    def check(self, job: Job, output) -> list[str]:
        data = job.data
        ring, _, normalization = self.rings[data["ring"]]
        name = data["ring"]
        if job.kind == "power":
            wanted = ("1", "x", "y")[data["n"] % 3]  # x^3 = x*y = 1 in the toy ring
            return [] if str(output) == wanted else [f"x^{data['n']} reduced to {output}, expected {wanted}"]
        if job.kind == "member":
            return [] if output == data["inside"] else [f"is_member said {output}, expected {data['inside']}"]
        # the two monomial rings need no division to check: a monomial is
        # either standard or zero in the quotient
        if job.kind == "integrate":
            product, value = output
            if name in MONOMIAL_RINGS and value != product.coefficient(ring.standard_monomials[ring.top_degree][0]):
                return [f"integral {value} is not the top coefficient"]
            return []
        if job.kind == "coordinates":
            f, coords = output
            if name in MONOMIAL_RINGS and coords != [f.coefficient(m) for m in ring.standard_monomials[data["degree"]]]:
                return ["coordinates are not the standard coefficients"]
            return []
        matrix, matrix_rank = output
        degree = data["degree"]
        if job.kind == "pairing":
            if name not in MONOMIAL_RINGS:
                # the product is commutative, so the complementary pairing is the transpose
                other = pairing_matrix(ring, normalization, ring.top_degree - degree)
                return [] if [list(col) for col in zip(*other)] == matrix else ["pairing matrix is not symmetric"]
            top = ring.standard_monomials[ring.top_degree][0]
            wanted = [
                [Fraction(int(tuple(a + b for a, b in zip(r, c)) == top)) for c in ring.standard_monomials[ring.top_degree - degree]]
                for r in ring.standard_monomials[degree]
            ]
            return [] if matrix == wanted else ["pairing matrix differs from the monomial pairing"]
        if matrix_rank > min(ring.dimension(degree), ring.dimension(degree + 1)):
            return [f"rank {matrix_rank} exceeds the matrix size"]
        if name in MONOMIAL_RINGS:
            target = {m: r for r, m in enumerate(ring.standard_monomials[degree + 1])}
            wanted = [[Fraction(0)] * ring.dimension(degree) for _ in target]
            for col, m in enumerate(ring.standard_monomials[degree]):
                for v, c in enumerate(data["coeffs"]):
                    image = tuple(e + (i == v) for i, e in enumerate(m))
                    if image in target:
                        wanted[target[image]][col] = Fraction(c)
            if matrix != wanted:
                return ["multiplication matrix differs from the monomial shift"]
        return []


WORKLOADS = {w.name: w for w in (SpinCli, GbFamilies, QuotientQueries)}


def reference_pass(tracer, env: dict, root: str) -> dict[str, float]:
    """Fixed probes of the layers under the CLI, identical on every workload.

    Returns the two interpreter medians in ms; the rest are traced spans.
    """
    tracer.job = "reference"
    bare = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True, timeout=120)
        bare.append(time.perf_counter() - start)
    imports = [import_seconds(env, root) for _ in range(5)]
    clear_caches()
    for component in spindomain.COMPONENTS:
        tracer.call("spindomain.builtin", spindomain.builtin, component)
    clear_caches()
    tracer.call("spindomain.verify", spindomain.verify, spindomain.ALL)
    for argv in README_COMMANDS:
        clear_caches()
        with redirect_stdout(io.StringIO()):
            tracer.call("cli.main", cli.main, list(argv))
    clear_caches()
    return {"cli.interpreter_ms": sorted(bare)[2] * 1e3, "cli.import_ms": sorted(imports)[2] * 1e3}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
