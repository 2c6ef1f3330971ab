import copy
import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from commonsys import certify
from commonsys.certify import (
    LEMMA_SUITE_NAMES,
    derive_all,
    derive_c0,
    derive_c1,
    derive_c2_c3_C4,
    pair_product_trivariate,
    prevalence_value_poly,
    verify_lemma_suite,
)
from commonsys.errors import VerificationFailed
from commonsys.exactpoly import (
    Certificate,
    SparsePoly,
    subdivision_positive_on_box,
    verify_certificate,
)
from commonsys.qsqrt2 import (
    AlgebraicNumber,
    an_sign,
    format_algebraic,
    parse_algebraic,
    parse_rational,
    sqrt_lower,
)

F = Fraction


@pytest.fixture(scope="module")
def ledger():
    return derive_all()


class TestLemmaSuite:
    def test_seven_certificates_all_verified(self):
        certs = verify_lemma_suite()
        assert len(certs) == len(LEMMA_SUITE_NAMES) == 7
        assert all(c.verified for c in certs)

    def test_flipped_sign_self_test(self, monkeypatch):
        flipped = -certify.low_mean_correction_poly()
        monkeypatch.setattr(certify, "low_mean_correction_poly", lambda: flipped)
        with pytest.raises(VerificationFailed) as err:
            verify_lemma_suite()
        assert "low-mean" in str(err.value)

    def test_factorization_identity_is_exact(self):
        # spot check the identity at rational points
        rng = np.random.default_rng(2)
        for _ in range(20):
            t4 = F(int(rng.integers(-20, 21)), 64)
            t5 = F(int(rng.integers(-20, 21)), 64)
            h = F(1, 2)
            lhs = (h**9 + h**5 * t4 + h**4 * t5 + t4 * t5) * (
                h**9 + h**5 * t4 - h**4 * t5 - t4 * t5
            )
            rhs = (h**4 + t4) ** 2 * (h**10 - t5**2)
            assert lhs == rhs


class TestC0:
    def test_positive_and_below_exact_value(self):
        c0, cert = derive_c0()
        assert c0 > 0 and cert.verified
        value = prevalence_value_poly().eval(F(9, 20))
        assert an_sign(value - AlgebraicNumber(c0, 0)) > 0
        # the exact value is about 5.7176e-05
        assert F(5717, 10**8) < c0 < F(5718, 10**8)

    def test_full_value_not_capped_by_mean_power(self):
        # c0 is the full polynomial value; no relation to (9/20)^9 required
        c0, _ = derive_c0()
        assert c0 < F(9, 20) ** 9  # it happens to be smaller, and that is fine


class TestC1:
    def test_below_root_and_box_certified(self):
        c1, certs = derive_c1()
        assert c1 > 0
        assert all(c.verified for c in certs.values())
        slice_poly = certify.spectral_radius_margin_poly()
        assert an_sign(slice_poly.eval(c1)) > 0  # still left of the root

    def test_root_bisection_is_replayed(self):
        _, certs = derive_c1()
        root = certs["root"]
        assert verify_certificate(root) and len(root.witness["bisection"]) == 24
        broken = copy.deepcopy(root)
        broken.witness["bisection"] = [["7", 1]]
        broken.witness["bracket_signs"] = [5, 5]
        assert verify_certificate(broken) is False
        broken = copy.deepcopy(root)
        step = broken.witness["bisection"][5]
        step[1] = -step[1]
        assert verify_certificate(broken) is False

    def test_larger_radius_fails_with_witness(self):
        c1, _ = derive_c1()
        ok, cert = subdivision_positive_on_box(
            certify.local_margin_poly2(),
            (F(1, 3), F(2, 3), F(0), c1 + F(1, 10)),
            max_depth=20,
        )
        assert not ok and cert.verified

    def test_smaller_radius_also_certifies(self):
        c1, _ = derive_c1()
        ok, _ = subdivision_positive_on_box(
            certify.local_margin_poly2(), (F(1, 3), F(2, 3), F(0), c1 / 2), max_depth=34
        )
        assert ok


class TestC2C3C4:
    def test_window_is_largest_dyadic(self):
        c2, c3, C4, certs = derive_c2_c3_C4()
        assert all(c.verified for c in certs.values())
        assert c2.denominator <= 1024
        assert (F(1, 2) + c2) ** 4 / 2 <= F(7, 100)
        assert (F(1, 2) + c2 + F(1, 1024)) ** 4 / 2 > F(7, 100)

    def test_constants_positive_and_finite(self):
        c2, c3, C4, _ = derive_c2_c3_C4()
        assert 0 < c2 <= F(1, 6)
        assert c3 > 0
        assert C4 > 0

    def test_derivative_bound_dominates_sampling(self):
        c2, c3, C4, _ = derive_c2_c3_C4()
        c2f = float(c2)
        t4max = (0.5 + c2f) ** 4 / 2
        t5max = ((0.5 + c2f) / np.sqrt(2) + 2 * c2f) * t4max

        def derivative(a, t4, t5):
            u = a**9 + a**5 * t4 + a**4 * t5 + t4 * t5
            v = (1 - a) ** 9 + (1 - a) ** 5 * t4 - (1 - a) ** 4 * t5 - t4 * t5
            du = 9 * a**8 + 5 * a**4 * t4 + 4 * a**3 * t5
            dv = -9 * (1 - a) ** 8 - 5 * (1 - a) ** 4 * t4 + 4 * (1 - a) ** 3 * t5
            return du * v + u * dv

        worst = max(
            abs(derivative(a, t4, t5))
            for a in np.linspace(0.5 - c2f, 0.5 + c2f, 41)
            for t4 in np.linspace(0, t4max, 21)
            for t5 in np.linspace(-t5max, t5max, 21)
        )
        assert worst <= float(C4)

    def test_balanced_slice_identity(self):
        # at mean exactly 1/2 the product collapses to the factorized form
        product = pair_product_trivariate()
        rng = np.random.default_rng(3)
        for _ in range(10):
            t4 = F(int(rng.integers(0, 30)), 512)
            t5 = F(int(rng.integers(-20, 21)), 512)
            value = AlgebraicNumber(0, 0)
            for (i, j, k), coeff in product.terms.items():
                value = value + coeff * AlgebraicNumber(
                    F(1, 2) ** i * t4**j * t5**k, 0
                )
            want = (F(1, 16) + t4) ** 2 * (F(1, 1024) - t5**2)
            assert value == AlgebraicNumber(want, 0)

    def test_collapsed_window_still_finite(self):
        # radius-zero strip: the centered bound stays finite
        derivative = pair_product_trivariate().diff(0)
        shifted = derivative.shift(0, F(1, 2))
        bound = shifted.monomial_abs_bound(
            [AlgebraicNumber(0, 0), AlgebraicNumber(F(1, 32), 0), AlgebraicNumber(F(1, 90), 0)]
        )
        assert an_sign(bound) >= 0
        assert bound.approx() < 1.0


class TestL0:
    def test_ledger_values(self, ledger):
        assert ledger.c0 > 0 and ledger.c1 > 0 and ledger.c3 > 0
        assert 0 < ledger.c2 <= F(1, 6)
        assert ledger.c5 > 0 and ledger.c6 > 0
        assert ledger.C4 > 0
        assert 1 <= ledger.l0 <= 10**7

    def test_conditions_replay_at_multiples(self, ledger):
        for l in (ledger.l0, 2 * ledger.l0, 10 * ledger.l0):
            rows = ledger.replay(l)
            assert all(r["satisfied"] for r in rows), (l, rows)

    def test_l0_is_threshold(self, ledger):
        rows = ledger.replay(ledger.l0 - 1)
        assert not all(r["satisfied"] for r in rows)

    def test_every_certificate_reverifies(self, ledger):
        assert all(verify_certificate(c) for c in ledger.certificates.values())
        assert len(ledger.certificates) >= 10

    def test_tampered_ledger_detected(self, ledger):
        import copy

        broken = copy.deepcopy(ledger)
        cert = broken.certificates["prevalence_floor_c0"]
        cert.witness["steps"][1]["op"] = ">"
        assert not all(verify_certificate(c) for c in broken.certificates.values())

    def test_derivation_is_deterministic(self, ledger):
        again = derive_all()
        assert again.to_dict() == ledger.to_dict()

    def test_certified_outputs_are_pinned(self, ledger):
        # SHA-256 of the canonical JSON of the ledger and of the lemma suite:
        # any change to a certified number or a witness byte shows here
        def digest(obj):
            return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

        assert digest(ledger.to_dict()) == (
            "2f6f38874ca15d2fc9306e67d0ae4ec7ffeb8956565f53d12bbd9cad8a065dbc"
        )
        assert digest([c.to_dict() for c in verify_lemma_suite()]) == (
            "69f5f0c038b345a6bc4e13db29e006aa776909111e4209ba55d8b220408baa9d"
        )

    def test_window_condition_covers_case_split(self, ledger):
        # c5/sqrt(l0) <= 1/6 keeps the balanced regimes inside [1/3, 2/3]
        assert ledger.c5 <= F(1, 6) * sqrt_lower(F(ledger.l0), bits=40)

    def test_small_l_fails_growth(self, ledger):
        rows = {r["condition"]: r for r in ledger.replay(100)}
        assert not rows["growth"]["satisfied"]

    def test_exact_free_variable_defect_at_l0(self, ledger):
        # end-to-end: the certified threshold really makes the extended
        # system common at this colouring, in exact rational arithmetic
        from commonsys import counting, harmonic, linsys

        exact = (F(3, 4), F(1, 4), F(1, 2))
        f = harmonic.GroupFunction(
            3, 1, np.array([float(v) for v in exact]), exact
        )
        rep = counting.defect(
            linsys.preset("phi"), f, "alon", l=ledger.l0, method="brute"
        )
        assert rep.value >= 0

    def test_summary_renders(self, ledger):
        text = ledger.summary()
        assert "l0" in text and "ok " in text and "FAIL" not in text


class TestCertifiedValues:
    """The certified numbers themselves, apart from the witness bytes the
    digests pin: a change of format moves a digest but none of these."""

    def test_ledger_constants(self, ledger):
        names = ("c0", "c1", "c2", "c3", "C4", "c5", "c6", "l0")
        assert {name: getattr(ledger, name) for name in names} == {
            "c0": F(142941, 2500000000),
            "c1": F(551, 4096),
            "c2": F(57, 512),
            "c3": F(29451, 800000000),
            "C4": F(1077227, 1000000000),
            "c5": F(37, 10000),
            "c6": F(24101, 7812500000),
            "l0": 441563,
        }

    def test_lemma_suite_statements(self):
        def rationals(items):
            return [F(v) for v in items]

        def identity_sides(cert):
            step = next(s for s in cert.witness["steps"] if s["kind"] == "poly_identity")
            return SparsePoly.from_list(step["lhs"]), SparsePoly.from_list(step["rhs"])

        floor, drop, low_mean, prevalence, box, margin, factorization = verify_lemma_suite()
        # (i) the square factor (x - 1/2)^2 on [0, 1]
        assert rationals(floor.witness["interval"]) == [0, 1]
        assert F(floor.witness["square_factor"]["center"]) == F(1, 2)
        assert floor.witness["verdict"] == "StrictlyPositive"
        # (ii) both sides are a^4
        assert identity_sides(drop) == (SparsePoly(1, {(4,): 1}),) * 2
        # (iii) and (vi): the Sturm intervals and signs
        assert rationals(low_mean.witness["interval"]) == [0, F(1, 2)]
        assert low_mean.witness["verdict"] == "StrictlyNegative"
        assert rationals(margin.witness["interval"]) == [0, F(7, 100)]
        assert margin.witness["verdict"] == "StrictlyPositive"
        # (iv) the evaluation point
        assert [F(s["point"]) for s in prevalence.witness["steps"] if s["kind"] == "poly_eval"] == [
            F(9, 20)
        ]
        # (v) the box up to c1
        assert rationals(box.witness["box"]) == [F(1, 3), F(2, 3), 0, F(551, 4096)]
        assert box.witness["result"] is True
        # (vii) both sides are (2^-4 + T4)^2 (2^-10 - T5^2)
        t4, t5 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
        product = (t4 + F(1, 16)) ** 2 * (1 - t5**2 * 1024) * F(1, 1024)
        assert identity_sides(factorization) == (product, product)


def _tamper(cert):
    """Apply one targeted corruption; returns False if nothing tamperable."""
    if cert.method == "sturm":
        flip = {
            "StrictlyPositive": "StrictlyNegative",
            "StrictlyNegative": "StrictlyPositive",
            "HasRoot": "StrictlyPositive",
        }
        cert.witness["verdict"] = flip[cert.witness["verdict"]]
        return True
    if cert.method == "subdivision":
        terms = cert.witness["poly2"]
        i, j, coeff = terms[0]
        terms[0] = [i, j, "-1000000 + 0*sqrt2"]
        return True
    for step in cert.witness.get("steps", []):
        kind = step.get("kind")
        if kind == "cmp":
            step["op"] = {"<": ">", "<=": ">", "==": ">", ">=": "<", ">": "<"}[step["op"]]
            return True
        if kind == "poly_eval":
            step["value"] = "12345 + 0*sqrt2"
            return True
        if kind in ("sqrt_lower", "even_binomial_value"):
            step["value"] = str(Fraction(step["value"]) + 1)
            return True
        if kind == "monomial_abs_bound":
            step["bound"] = "0 + 0*sqrt2"
            return True
        if kind == "poly_identity":
            step["lhs"] = step["lhs"][1:]
            return True
        if kind == "lemma" and step.get("premises"):
            premise = step["premises"][0]
            premise["op"] = {"<": ">", "<=": ">", "==": ">", ">=": "<", ">": "<"}[
                premise["op"]
            ]
            return True
    return False


class TestCheckerSoundness:
    def test_every_emitted_certificate_rejects_tampering(self, ledger):
        import copy

        from commonsys.exactpoly import verify_certificate

        pool = dict(ledger.certificates)
        for i, cert in enumerate(verify_lemma_suite()):
            pool[f"suite_{i}"] = cert
        tampered = 0
        for name, cert in pool.items():
            assert verify_certificate(cert), name
            broken = copy.deepcopy(cert)
            if _tamper(broken):
                assert not verify_certificate(broken), f"tamper not caught: {name}"
                tampered += 1
        assert tampered >= len(pool) - 2  # nearly every certificate is tamperable

    def test_accepted_node_bound_is_recomputed(self, ledger):
        cert = copy.deepcopy(ledger.certificates["spectral_radius_c1_box"])
        accepted = []

        def walk(node):
            if node["status"] == "accepted":
                accepted.append(node)
            for child in node.get("children", []):
                walk(child)

        walk(cert.witness["tree"])
        assert accepted and verify_certificate(cert)
        accepted[-1]["bound_lo"] = "-12345"
        assert verify_certificate(cert) is False

    def test_lemma_premise_must_be_a_comparison(self, ledger):
        checked = 0
        for name, cert in ledger.certificates.items():
            for i, step in enumerate(cert.witness.get("steps", [])):
                if step["kind"] == "lemma" and step["premises"]:
                    broken = copy.deepcopy(cert)
                    broken.witness["steps"][i]["premises"][0]["kind"] = "lemma"
                    assert verify_certificate(broken) is False, name
                    checked += 1
        assert checked


# witness keys the checker leaves unread, all free text; the list is exact,
# so a key that starts or stops being read must be named here
UNREAD_WITNESS_KEYS = {"note"}


class _ReadTracker(dict):
    """A witness object that records which of its keys are never read."""

    def __init__(self, data: dict, trackers: list):
        super().__init__((k, _tracked(v, trackers)) for k, v in data.items())
        self.unread = set(data)
        trackers.append(self)

    def __getitem__(self, key):
        self.unread.discard(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.unread.discard(key)
        return super().get(key, default)


def _tracked(value, trackers: list):
    if isinstance(value, dict):
        return _ReadTracker(value, trackers)
    if isinstance(value, (list, tuple)):
        return [_tracked(v, trackers) for v in value]
    return value


class TestWitnessKeysAreRead:
    def test_checker_reads_every_key_but_free_text(self, ledger):
        certs = [*verify_lemma_suite(), *ledger.certificates.values()]
        assert len(certs) == 22
        unread = set()
        for cert in certs:
            trackers = []
            tracked = Certificate(cert.claim, cert.method, _tracked(cert.witness, trackers))
            assert verify_certificate(tracked), cert.claim
            for tracker in trackers:
                unread |= tracker.unread
        assert unread == UNREAD_WITNESS_KEYS


# Mutations of the emitted certificates that still verify, counted by step
# kind (or certificate method) and field; "deleted" counts chains that
# verify with one step removed.  The sweep perturbs every numeric leaf two
# ways, x -> x + 1 and x -> -x - 1, and deletes each chain step.  The counts
# are exact, so closing a gap, or opening one, must be named here.
SURVIVING_MUTATIONS = {
    # harmless: a Sturm chain entry is checked up to a positive factor, so
    # the last, constant entry moved by +1 keeps its sign and is the chain
    ("sturm", "chain"): 4,
    # the gap: a chain checks each step as true on its own, and its claim is
    # free text, so no step is tied to the number the claim states
    ("cmp", "lhs"): 17,
    ("cmp", "rhs"): 16,
    ("lemma", "premises.lhs"): 6,
    ("lemma", "premises.rhs"): 8,
    ("sqrt_lower", "x"): 3,
    ("monomial_abs_bound", "poly"): 24,
    ("monomial_abs_bound", "radii"): 4,
    ("monomial_abs_bound", "bound"): 8,
    ("deleted", "cmp"): 18,
    ("deleted", "lemma"): 8,
    ("deleted", "sqrt_lower"): 3,
    ("deleted", "monomial_abs_bound"): 8,
    ("deleted", "poly_eval"): 2,
    ("deleted", "poly_identity"): 1,
    ("deleted", "even_binomial_value"): 1,
}
# a field with more leaves than this (the C4 strip polynomials, 8 x 81
# terms) is sampled at 20 evenly spaced leaves
SWEEP_FULL_FIELD = 100


def _perturbed(value) -> list:
    """x + 1 and -x - 1, written in the value's own form: an int, a
    str(Fraction) rational, or an ``a/b + c/d*sqrt2`` literal."""
    if isinstance(value, int):
        return [value + 1, -value - 1]
    try:
        x = parse_rational(value)
        return [str(x + 1), str(-x - 1)]
    except ValueError:
        x = parse_algebraic(value)
        return [format_algebraic(x + 1), format_algebraic(-x - 1)]


def _numeric_leaves(node, field: str, out: list) -> list:
    """(field, container, key) of every int or Q(sqrt(2)) literal under
    `node`; list positions are not part of the field."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        sub = field if isinstance(key, int) else f"{field}.{key}".lstrip(".")
        if isinstance(value, int) and not isinstance(value, bool):
            out.append((sub, node, key))
        elif isinstance(value, str):
            try:
                parse_algebraic(value)
                out.append((sub, node, key))
            except ValueError:
                pass
        else:
            _numeric_leaves(value, sub, out)
    return out


def _leaf_groups(cert: Certificate) -> dict:
    """The numeric leaves of a certificate by (step kind or method, field)."""
    parts = cert.witness["steps"] if cert.method == "rational_chain" else [cert.witness]
    groups = {}
    for part in parts:
        label = part["kind"] if cert.method == "rational_chain" else cert.method
        for field, node, key in _numeric_leaves(part, "", []):
            groups.setdefault((label, field), []).append((node, key))
    for leaves in groups.values():
        if len(leaves) > SWEEP_FULL_FIELD:
            leaves[:] = [leaves[i * len(leaves) // 20] for i in range(20)]
    return groups


class TestMutationSweep:
    def test_surviving_mutations_are_the_listed_ones(self, ledger):
        survivors = {}
        for cert in [*verify_lemma_suite(), *ledger.certificates.values()]:
            cert = copy.deepcopy(cert)
            w = cert.witness
            mutants = []
            for label, leaves in _leaf_groups(cert).items():
                for node, key in leaves:
                    original = node[key]
                    for value in _perturbed(original):
                        node[key] = value
                        mutants.append((label, verify_certificate(cert)))
                    node[key] = original
            steps = w.get("steps", [])
            for i, step in enumerate(steps):
                w["steps"] = steps[:i] + steps[i + 1:]
                mutants.append((("deleted", step["kind"]), verify_certificate(cert)))
            w["steps"] = steps
            assert verify_certificate(cert), cert.claim
            for label, survived in mutants:
                if survived:
                    survivors[label] = survivors.get(label, 0) + 1
        assert survivors == SURVIVING_MUTATIONS


@pytest.fixture(scope="module")
def real_certs(ledger):
    suite = verify_lemma_suite()
    certs = {
        "sturm": ledger.certificates["spectral_radius_c1_root"],
        "subdivision": ledger.certificates["spectral_radius_c1_box"],
        "identity": suite[6],
        "monomial": ledger.certificates["derivative_bound_C4"],
        "binomial": ledger.certificates["condition_growth"],
        "floor": suite[0],
    }
    assert all(verify_certificate(c) for c in certs.values())
    return certs


def _step(w, kind):
    return next(s for s in w["steps"] if s["kind"] == kind)


def _on_both_sides(w, row):
    step = _step(w, "poly_identity")
    step["lhs"].append(row)
    step["rhs"].append(list(row))


def _deep_tree(w, depth=1000):
    """Replace the tree by a split chain `depth` levels deep whose boxes all
    match the split structure, so only a depth cap can stop the walk."""
    b = [Fraction(v) for v in w["box"]]
    root = node = {}
    for _ in range(depth):
        mid = (b[0] + b[1]) / 2
        child = {}
        leaf = {"box": [str(v) for v in (mid, *b[1:])], "status": "accepted"}
        node.update(box=[str(v) for v in b], status="split", axis=0, children=[child, leaf])
        node, b = child, [b[0], mid, *b[2:]]
    node.update(box=[str(v) for v in b], status="accepted")
    w["tree"] = root


_ONE = "1 + 0*sqrt2"
_SQRT2 = "0 + 1*sqrt2"
MALFORMED = {
    "sturm-missing-key": ("sturm", lambda w: w.pop("chain")),
    "sturm-bad-literal": ("sturm", lambda w: w["poly"].insert(0, "x")),
    "sturm-degree-65": ("sturm", lambda w: w.update(poly=[_ONE] * 66)),
    "subdivision-missing-key": ("subdivision", lambda w: w.pop("poly2")),
    "subdivision-bad-literal": ("subdivision", lambda w: w["poly2"].append([0, 0, "x"])),
    "subdivision-mixed-rows": ("subdivision", lambda w: w["poly2"].append([1, _ONE])),
    "subdivision-exponent-65": ("subdivision", lambda w: w["poly2"].append([65, 0, _SQRT2])),
    "subdivision-exponent-200000": (
        "subdivision",
        lambda w: w["poly2"].append([200000, 0, _SQRT2]),
    ),
    "subdivision-deep-tree": ("subdivision", _deep_tree),
    "subdivision-unknown-status": ("subdivision", lambda w: w["tree"].update(status="bogus")),
    "identity-missing-key": ("identity", lambda w: _step(w, "poly_identity").pop("rhs")),
    "identity-bad-literal": ("identity", lambda w: _on_both_sides(w, [0, 0, "x"])),
    "identity-mixed-rows": ("identity", lambda w: _on_both_sides(w, [1, _ONE])),
    "identity-exponent-65": ("identity", lambda w: _on_both_sides(w, [65, 0, _ONE])),
    "identity-exponent-200000": ("identity", lambda w: _on_both_sides(w, [200000, 0, _ONE])),
    "monomial-bad-literal": (
        "monomial",
        lambda w: _step(w, "monomial_abs_bound")["radii"].insert(0, "x"),
    ),
    "monomial-mixed-rows": (
        "monomial",
        lambda w: _step(w, "monomial_abs_bound")["poly"].append([[1, 2], _ONE]),
    ),
    "monomial-exponent-200000": (
        "monomial",
        lambda w: _step(w, "monomial_abs_bound")["poly"].append([[200000, 0, 0], _ONE]),
    ),
    # producers write rationals as str(Fraction); an exponent literal is
    # not read, so it can neither pass for its value nor build 10^k
    "floor-end-1e0": ("floor", lambda w: w["interval"].__setitem__(1, "1e0")),
    "floor-end-1e3000000": ("floor", lambda w: w["interval"].__setitem__(1, "1e3000000")),
    "binomial-terms-1e9": (
        "binomial",
        lambda w: _step(w, "even_binomial_value").update(terms=10**9),
    ),
}


class TestMalformedWitness:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_quickly_without_raising(self, real_certs, case):
        name, mutate = MALFORMED[case]
        cert = copy.deepcopy(real_certs[name])
        mutate(cert.witness)
        start = time.perf_counter()
        assert verify_certificate(cert) is False
        assert time.perf_counter() - start < 1.0
