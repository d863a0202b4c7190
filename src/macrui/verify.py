"""Named verification suites over the library's exact identities.

Every suite runs a family of checks up to a weight bound and reports one
pass/fail record per instance; a failing record carries a symbolic witness.
Failures are report content, never exceptions.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import MacruiError
from . import partitions as pt
from .linalg import vectors_rank
from .macdonald import (branching_coefficients, macdonald_p_expansion,
                        macdonald_polynomial, macdonald_tableau_sum,
                        parameter_duality_sign, skew_tableau_sum,
                        super_macdonald, super_tableau_sum)
from .operators import (apply_deformed_mr, apply_mr, cherednik_dunkl,
                        coefficient_sum_identity, hecke_T, mr_eigenvalue,
                        operator_from_shifted_symmetric)
from .polyring import MultiPoly, VarSpace
from .scalar import (P_ONE, QTPolynomial, QTScalar, S_ONE, S_T, one_minus_q,
                     qt_eval)
from .shifted import (_duality_holds, evaluate_at_partition,
                      interpolation_by_branching, interpolation_polynomial,
                      interpolation_pstar_expansion, interpolation_value,
                      shifted_super_macdonald, shifted_super_tableau_sum)
from .symfun import (SymExpansion, deformed_newton_sum, monomial_symmetric,
                     monomial_to_power_expansion, power_sum_product,
                     restrict_p_expansion, shifted_power_sum,
                     to_monomial_expansion)


def _check(checks, name, passed, witness=""):
    checks.append({"name": name, "passed": bool(passed),
                   "witness": "" if passed else str(witness)})


def _bound(bounds, families, key, value):
    """Record ``value`` as the bound ``key`` that the check families use,
    and return it."""
    for family in families:
        bounds[family] = {key: value}
    return value


def _diff_witness(lhs, rhs):
    try:
        return f"difference = {lhs - rhs}"
    except Exception:
        return f"lhs = {lhs}; rhs = {rhs}"


def suite_eigen(max_weight, bounds):
    """Eigenfunction relation, triangularity, and the deformed eigenfunctions."""
    checks = []
    N = max(max_weight, 1)
    for d in range(max_weight + 1):
        for lam in pt.partitions_of(d, max_length=N):
            P = macdonald_polynomial(lam, N)
            lhs = apply_mr(P)
            rhs = P.scale(mr_eigenvalue(lam))
            _check(checks, f"eigen lam={list(lam)} N={N}", lhs == rhs,
                   _diff_witness(lhs, rhs))
    for d in range(1, max_weight + 1):
        for lam in pt.partitions_of(d, max_length=N):
            exp = to_monomial_expansion(apply_mr(monomial_symmetric(lam, N)))
            lower = all(pt.dominance_leq(mu, lam) for mu in exp.coeffs)
            diag = exp.coeffs.get(lam, None)
            okdiag = diag == mr_eigenvalue(lam)
            _check(checks, f"triangular lam={list(lam)} N={N}", lower and okdiag,
                   f"support={sorted(exp.coeffs)} diag={diag}")
    wd = _bound(bounds, ["deformed eigen"], "weight", min(max_weight, 4))
    for (n, m) in [(1, 1), (2, 1), (1, 2)]:
        for d in range(wd + 1):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = super_macdonald(lam, n, m)
                lhs = apply_deformed_mr(S)
                rhs = S.scale(mr_eigenvalue(lam))
                _check(checks, f"deformed eigen lam={list(lam)} ({n},{m})",
                       lhs == rhs, _diff_witness(lhs, rhs))
    return checks


def suite_commdia(max_weight, bounds):
    """The restriction homomorphism intertwines the two operators."""
    checks = []
    for (n, m) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for d in range(1, max_weight + 1):
            for mu in pt.partitions_of(d):
                pmu = power_sum_product(mu, d)
                lhs = restrict_p_expansion(
                    monomial_to_power_expansion(to_monomial_expansion(apply_mr(pmu))), n, m)
                rhs = apply_deformed_mr(
                    restrict_p_expansion(SymExpansion("p", d, {mu: S_ONE}), n, m))
                _check(checks, f"restriction p_mu mu={list(mu)} ({n},{m})",
                       lhs == rhs, _diff_witness(lhs, rhs))
    return checks


def suite_kernel(max_weight, bounds):
    """Vanishing of off-hook restrictions and independence of the rest."""
    checks = []
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(max_weight + 1):
            vecs = []
            expected = 0
            for lam in pt.partitions_of(d):
                S = super_macdonald(lam, n, m)
                inside = pt.in_fat_hook(lam, n, m)
                _check(checks, f"kernel lam={list(lam)} ({n},{m})",
                       S.is_zero() != inside,
                       f"zero={S.is_zero()} in_hook={inside}")
                if inside:
                    expected += 1
                    vecs.append(S.terms)
            rk = vectors_rank(vecs)
            _check(checks, f"rank degree {d} ({n},{m})", rk == expected,
                   f"rank={rk} expected={expected}")
    return checks


def suite_duality(max_weight, bounds):
    """Evaluation duality between conjugate shapes with parameters swapped.

    The shapes are closed under conjugation, so each value is computed once:
    it is the left side of its own pair and, swapped, the right side of the
    conjugate pair."""
    checks = []
    shapes = [lam for d in range(max_weight + 1) for lam in pt.partitions_of(d)]
    values = {(lam, mu): interpolation_value(lam, mu) for lam in shapes for mu in shapes}
    for lam in shapes:
        for mu in shapes:
            _check(checks, f"duality lam={list(lam)} mu={list(mu)}",
                   _duality_holds(lam, mu, values))
    return checks


def suite_vanishing(max_weight, bounds):
    """The vanishing solve against the branching recursion and against the
    top-degree identity, hook normalization, and extra vanishing.

    The top-degree identity (Knop-Sahi 1996; Okounkov 1997): the weight-|lam|
    part of the p*-expansion is the p-expansion of P_lam, times the
    normalization alignment."""
    checks = []
    N = max(max_weight, 1)
    for d in range(max_weight + 1):
        for lam in pt.partitions_of(d, max_length=N):
            v = interpolation_polynomial(lam, N)
            b = interpolation_by_branching(lam, N)
            _check(checks, f"branching agrees lam={list(lam)}", v == b,
                   _diff_witness(v, b))
            top = {mu: c for mu, c in interpolation_pstar_expansion(lam).coeffs.items()
                   if pt.weight(mu) == d}
            align = pt.normalization_alignment(lam)
            want = {mu: c * align for mu, c in macdonald_p_expansion(lam).coeffs.items()}
            _check(checks, f"top degree agrees lam={list(lam)}", top == want,
                   f"top={top} want={want}")
            val = evaluate_at_partition(v, lam)
            _check(checks, f"normalization lam={list(lam)}",
                   val == pt.hook_product(lam),
                   f"value={val} hook={pt.hook_product(lam)}")
    wv = _bound(bounds, ["extra vanishing"], "weight", max(max_weight - 1, 1))
    for d in range(wv + 1):
        for lam in pt.partitions_of(d):
            for dd in range(d + 3):
                for mu in pt.partitions_of(dd):
                    if pt.contains(lam, mu):
                        continue
                    val = interpolation_value(lam, mu)
                    _check(checks,
                           f"extra vanishing lam={list(lam)} mu={list(mu)}",
                           val.is_zero(), f"value={val}")
    return checks


def suite_combinatorial(max_weight, bounds):
    """Tableau formulas against the constructions they must reproduce."""
    checks = []
    N = _bound(bounds, ["tableau", "branching reassembly"], "N",
               max(min(max_weight, 5), 1))
    w4 = _bound(bounds, ["skew decomposition", "super tableau",
                         "shifted super tableau", "duality sign"],
                "weight", min(max_weight, 4))
    for d in range(max_weight + 1):
        for lam in pt.partitions_of(d, max_length=N):
            _check(checks, f"tableau lam={list(lam)} N={N}",
                   macdonald_tableau_sum(lam, N) == macdonald_polynomial(lam, N))
    # branching reassembly with one distinguished variable
    for d in range(1, max_weight + 1):
        for lam in pt.partitions_of(d, max_length=N):
            P = macdonald_polynomial(lam, N)
            space = P.space
            total = MultiPoly.zero(space)
            for mu, psi in branching_coefficients(lam).items():
                if len(mu) > N - 1:
                    continue
                tail = macdonald_polynomial(mu, N - 1)
                lifted = MultiPoly._raw(space, {(0,) + e: c for e, c in tail.terms.items()})
                z1pow = MultiPoly.variable(space, 0, pt.weight(lam) - pt.weight(mu)) \
                    if pt.weight(lam) > pt.weight(mu) else MultiPoly.one(space)
                total = total + (z1pow * lifted).scale(psi)
            _check(checks, f"branching reassembly lam={list(lam)}", total == P,
                   _diff_witness(total, P))
    # concatenated alphabets: P_lam(x, y) = sum_mu P_{lam/mu}(x) P_mu(y)
    for d in range(w4 + 1):
        for lam in pt.partitions_of(d, max_length=4):
            P4 = macdonald_polynomial(lam, 4)
            space = P4.space
            total = MultiPoly.zero(space)
            for mu in pt.subpartitions(lam):
                if len(mu) > 2:
                    continue
                skew = skew_tableau_sum(lam, mu, 2)
                tail = macdonald_polynomial(mu, 2)
                skew_l = MultiPoly._raw(space, {e + (0, 0): c for e, c in skew.terms.items()})
                tail_l = MultiPoly._raw(space, {(0, 0) + e: c for e, c in tail.terms.items()})
                total = total + skew_l * tail_l
            _check(checks, f"skew decomposition lam={list(lam)}", total == P4,
                   _diff_witness(total, P4))
    # two-alphabet tableau formulas and the measured duality sign
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(w4 + 1):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                _check(checks, f"super tableau lam={list(lam)} ({n},{m})",
                       super_tableau_sum(lam, n, m) == super_macdonald(lam, n, m))
                _check(checks, f"shifted super tableau lam={list(lam)} ({n},{m})",
                       shifted_super_tableau_sum(lam, n, m)
                       == shifted_super_macdonald(lam, n, m))
    for d in range(w4 + 1):
        for lam in pt.partitions_of(d):
            try:
                sign = parameter_duality_sign(lam)
                _check(checks, f"duality sign lam={list(lam)}", sign == 1,
                       f"measured sign {sign}")
            except Exception as exc:
                _check(checks, f"duality sign lam={list(lam)}", False, repr(exc))
    return checks


def suite_cherednik(max_weight, bounds):
    """Hecke relations, commutativity, and the first-integral correspondence."""
    checks = []
    dmax = _bound(bounds, ["Hecke quadratic", "commutativity", "first integral"],
                  "degree", min(max_weight, 3))
    for N in (2, 3):
        sp = VarSpace.z(N)
        mons = []
        for d in range(dmax + 1):
            for combo in combinations_with_replacement(range(N), d):
                e = [0] * N
                for i in combo:
                    e[i] += 1
                mons.append(MultiPoly._raw(sp, {tuple(e): S_ONE}))
        hecke_ok = comm_ok = True
        for f in mons:
            for i in range(1, N):
                tf = hecke_T(f, i)
                if not (hecke_T(tf, i) - tf.scale(S_ONE - S_T) - f.scale(S_T)).is_zero():
                    hecke_ok = False
            for i in range(1, N + 1):
                for j in range(i + 1, N + 1):
                    a = cherednik_dunkl(cherednik_dunkl(f, j), i)
                    b = cherednik_dunkl(cherednik_dunkl(f, i), j)
                    if a != b:
                        comm_ok = False
        _check(checks, f"Hecke quadratic N={N} deg<={dmax}", hecke_ok)
        _check(checks, f"commutativity N={N} deg<={dmax}", comm_ok)
        for d in range(dmax + 1):
            for lam in pt.partitions_of(d, max_length=N):
                mlam = monomial_symmetric(lam, N)
                lhs = operator_from_shifted_symmetric(shifted_power_sum(1, N), mlam)
                rhs = apply_mr(mlam).scale(one_minus_q())
                _check(checks, f"first integral lam={list(lam)} N={N}",
                       lhs == rhs, _diff_witness(lhs, rhs))
    return checks


def suite_identities(max_weight, bounds):
    """Closed identities: coefficient sums, the diagram trace identity,
    the truncated kernel-function identities, and special-point vanishing."""
    checks = []
    for n in range(4):
        for m in range(4):
            if n + m < 1:
                continue
            _check(checks, f"coefficient sum ({n},{m})",
                   coefficient_sum_identity(n, m))
    wt = _bound(bounds, ["diagram trace"], "weight", min(max_weight, 6))
    for d in range(wt + 1):
        for lam in pt.partitions_of(d):
            lhs, rhs = pt.conjugation_sum_identity(lam)
            _check(checks, f"diagram trace lam={list(lam)}", lhs == rhs,
                   f"lhs={lhs} rhs={rhs}")
    ok, witness = _truncated_kernel_function_identity()
    _check(checks, "kernel function identity (truncated)", ok, witness)
    smax = _bound(bounds, ["log-coefficient identity"], "s", min(max_weight, 4))
    for (n, m) in [(1, 1), (2, 1)]:
        for s in range(1, smax + 1):
            ok, witness = _log_coefficient_identity(s, n, m)
            _check(checks, f"log-coefficient identity s={s} ({n},{m})", ok, witness)
    for r in range(1, _bound(bounds, ["special point"], "r", min(max_weight, 6)) + 1):
        p = deformed_newton_sum(r, 1, 1)
        val = p.evaluate([QTScalar.from_int(1), QTScalar.from_int(2)])
        num = qt_eval(val, Fraction(1, 2), Fraction(2))
        _check(checks, f"special point r={r}", num == 0, f"value={num}")
    return checks


def _truncated_kernel_function_identity():
    """Two z plus two w variables; the kernel series truncated at w-degree 3
    must be annihilated by the difference of the two block operators."""
    sp = VarSpace.z(4)
    zblock, wblock = [0, 1], [2, 3]

    def c_coeff(s):
        num = QTPolynomial.monomial(0, s) - P_ONE
        den = (QTPolynomial.monomial(0, s) * QTPolynomial.from_int(s)
               * (P_ONE - QTPolynomial.monomial(s, 0)))
        return QTScalar(num, den)

    def p_block(s, idx):
        return MultiPoly._raw(sp, {tuple(s if i == j else 0 for j in range(4)): S_ONE
                                   for i in idx})

    L = MultiPoly.zero(sp)
    for s in (1, 2, 3):
        L = L + (p_block(s, zblock) * p_block(s, wblock)).scale(c_coeff(s))
    kernel = MultiPoly.one(sp) + L
    power = L
    for k, fact in ((2, 2), (3, 6)):
        power = MultiPoly._raw(sp, {e: c for e, c in (power * L).terms.items()
                                    if e[2] + e[3] <= 3})
        kernel = kernel + power.scale(QTScalar.from_fraction(Fraction(1, fact)))
    lhs = apply_mr(kernel, block=zblock)
    rhs = apply_mr(kernel, block=wblock)
    return lhs == rhs, _diff_witness(lhs, rhs)


def _log_coefficient_identity(s, n, m):
    """The s-th log coefficient of the kernel function restricts to
    ((1 - t^-s)/(1 - q^s)) p_s(x) - t^-s p_s(y)."""
    spc = VarSpace.xy(n, m)
    coef = QTScalar(QTPolynomial.monomial(0, s) - P_ONE,
                    QTPolynomial.monomial(0, s) * (P_ONE - QTPolynomial.monomial(s, 0)))
    lhs = deformed_newton_sum(s, n, m).scale(coef)
    rhs = MultiPoly.zero(spc)
    for i in range(n):
        e = [0] * (n + m)
        e[i] = s
        rhs = rhs + MultiPoly._raw(spc, {tuple(e): coef})
    tminus = QTScalar(P_ONE, QTPolynomial.monomial(0, s))
    for j in range(m):
        e = [0] * (n + m)
        e[n + j] = s
        rhs = rhs - MultiPoly._raw(spc, {tuple(e): tminus})
    return lhs == rhs, _diff_witness(lhs, rhs)


SUITES = {
    "eigen": suite_eigen,
    "commdia": suite_commdia,
    "kernel": suite_kernel,
    "duality": suite_duality,
    "vanishing": suite_vanishing,
    "combinatorial": suite_combinatorial,
    "cherednik": suite_cherednik,
    "identities": suite_identities,
}


# The largest max_weight each suite accepts: the largest weight whose cold
# run (`python -m macrui verify`) finished within about 60 s on a 2-vCPU
# host, Python 3.11.  cherednik and identities cap every family of their
# own (degree 3 and weight 6), so their work stops growing and they take the
# 64-variable cap of VarSpace.
_WEIGHT_CEILINGS = {
    "eigen": 7,             # 45 s; weight 8 still running after 60 s
    "commdia": 7,           # 36 s; weight 8 over 100 s
    "kernel": 8,            # 25 s; weight 9 over 100 s
    "duality": 7,           # 42 s; weight 8 over 100 s
    "vanishing": 6,         # 18 s; weight 7 takes 226 s
    "combinatorial": 9,     # 23 s; weight 10 takes 65 s
    "cherednik": 64,        # 0.3 s at every weight
    "identities": 64,       # 0.4 s at every weight
}


def run_suite(name, max_weight):
    """Run one named suite; returns a deterministic report dictionary.

    ``bounds`` maps each check family with a bound of its own (a cap on
    the weight, a variable count N, a degree) to the bound it used.  A run
    that checked nothing is not ok.  A weight above the suite's ceiling in
    ``_WEIGHT_CEILINGS`` is refused before anything is computed.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_weight < 0:
        raise MacruiError(f"max_weight must be nonnegative, got {max_weight}")
    ceiling = _WEIGHT_CEILINGS[name]
    if max_weight > ceiling:
        raise MacruiError(f"max_weight {max_weight} is above the {name} suite's "
                          f"ceiling {ceiling}, the largest weight that finishes "
                          f"in about a minute")
    bounds = {}
    checks = SUITES[name](max_weight, bounds)
    failed = sum(1 for c in checks if not c["passed"])
    return {
        "suite": name,
        "max_weight": max_weight,
        "bounds": bounds,
        "total": len(checks),
        "passed": len(checks) - failed,
        "failed": failed,
        "ok": failed == 0 and len(checks) > 0,
        "checks": checks,
    }
