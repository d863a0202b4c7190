"""Interpolation values read off the p*-expansion against rendered polynomials.

``interpolation_value`` sums c_nu p*_nu(q^mu) over the p*-expansion, and
``duality_check`` compares two such values.  The references below render the
interpolation polynomial in N variables and evaluate it term by term with
``MultiPoly.evaluate``, as ``duality_check`` did before; the t-side renders
the parameter-swapped polynomial and evaluates it at the point t^{mu'}.  Both
routes must agree exactly, and the value routes must render nothing.
"""

from functools import cache

from macrui import partitions as pt
from macrui import shifted
from macrui.scalar import t_pow
from macrui.shifted import (duality_check, evaluate_at_partition,
                            interpolation_polynomial, interpolation_value)
from macrui.verify import run_suite

SHAPES_UP_TO_4 = pt.partitions_up_to(4)

# the library keeps no rendering; the references share theirs within the run
rendered = cache(interpolation_polynomial)


def reference_duality_sides(lam, mu):
    """The two sides of the duality, from polynomials rendered in N variables:
    I*_lam at q^mu, and the hook ratio times the parameter-swapped I*_lam'
    at t^{mu'}."""
    N = max(pt.weight(lam), pt.weight(mu), len(lam), len(mu), 1)
    lhs = evaluate_at_partition(rendered(lam, N), mu)
    lamc, muc = pt.conjugate(lam), pt.conjugate(mu)
    ratio = pt.hook_product(lam) / pt.hook_product(lamc).swap_qt()
    swapped = rendered(lamc, N).swap_parameters()
    t_point = [t_pow(pt.part(muc, i + 1)) for i in range(N)]
    return lhs, ratio * swapped.evaluate(t_point)


def test_duality_matches_the_rendering_route():
    for lam in SHAPES_UP_TO_4:
        lamc = pt.conjugate(lam)
        ratio = pt.hook_product(lam) / pt.hook_product(lamc).swap_qt()
        for mu in SHAPES_UP_TO_4:
            lhs, rhs = reference_duality_sides(lam, mu)
            assert lhs == rhs and duality_check(lam, mu), (lam, mu)
            # the side that duality_check reads off the expansions
            assert interpolation_value(lam, mu) == lhs
            assert ratio * interpolation_value(lamc, pt.conjugate(mu)).swap_qt() == rhs


def test_values_match_the_rendered_polynomial():
    for lam in SHAPES_UP_TO_4:
        d = pt.weight(lam)
        for mu in pt.partitions_up_to(d + 2):
            N = max(d, len(mu), 1)
            value = evaluate_at_partition(rendered(lam, N), mu)
            assert interpolation_value(lam, mu) == value, (lam, mu)


def test_values_render_no_polynomial(monkeypatch):
    renders = []
    render = shifted.from_shifted_power_expansion

    def counted(expansion, N):
        renders.append(N)
        return render(expansion, N)

    monkeypatch.setattr(shifted, "from_shifted_power_expansion", counted)
    assert run_suite("duality", 3)["ok"]
    assert renders == []
    # the triple agreement and normalization checks render each shape once;
    # the extra-vanishing family renders nothing
    report = run_suite("vanishing", 3)
    assert report["ok"]
    assert any(c["name"].startswith("extra vanishing") for c in report["checks"])
    assert renders == [3] * len(pt.partitions_up_to(3))
