"""Tracer arithmetic and the outside-in instrumentation."""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer, instrument  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_of_nested_and_sibling_frames():
    # bench [0, 10] holds families [1, 5] (holding series [2, 3]) and its
    # sibling umbral [6, 9] (holding polynomials [7, 8], which holds a
    # nested polynomials call [7.25, 7.5] of the same operation).
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 3, 5, 6, 7, 7.25, 7.5, 8, 9, 10]))
    tracer.enter("bench", "bench.batch", True)
    tracer.enter("families", "families.kernel", True)
    tracer.enter("series", "series.mul", False)
    tracer.exit()
    tracer.exit()
    tracer.enter("umbral", "umbral.pairing", True)
    tracer.enter("polynomials", "polynomials.add", False)
    tracer.enter("polynomials", "polynomials.add", False)
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.exit() == 10

    assert dict(tracer.layer_self) == {
        "bench": 3, "families": 3, "series": 1, "umbral": 2, "polynomials": 1,
    }
    assert sum(tracer.layer_self.values()) == 10
    assert tracer.calls["polynomials.add"] == 2
    assert tracer.seconds["polynomials.add"] == 1  # the nested call counts once
    assert tracer.seconds["families.kernel"] == 4
    spans = {s["name"]: s for s in tracer.spans}
    assert set(spans) == {"bench.batch", "families.kernel", "umbral.pairing"}
    root = spans["bench.batch"]["id"]
    assert spans["families.kernel"]["parent"] == root
    assert spans["umbral.pairing"]["parent"] == root
    assert (spans["umbral.pairing"]["start"], spans["umbral.pairing"]["end"]) == (6, 9)


def test_instrument_counts_library_calls_and_restores_them():
    from umbralcalc import cli, families, identities
    from umbralcalc.polynomials import Polynomial

    mul, verifier, kernel = Polynomial.__mul__, identities.VERIFIERS["thm3"], cli.mixed_kernel
    tracer = Tracer()
    with instrument(tracer):
        assert cli.mixed_kernel is not kernel
        assert identities.VERIFIERS["thm3"] is not verifier
        tracer.enter("bench", "bench.batch", True)
        product = Polynomial([1, 2]) * Polynomial([3, 4, 5])
        difference = product - Polynomial([1])
        families.mixed_kernel(1, 1, Fraction(2), 4)
        families.mixed_kernel(1, 1, Fraction(2), 4)
        wall = tracer.exit()
    assert Polynomial.__mul__ is mul
    assert identities.VERIFIERS["thm3"] is verifier and cli.mixed_kernel is kernel
    assert difference == Polynomial([2, 10, 13, 10])

    assert tracer.calls["polynomials.mul"] == 1
    assert tracer.counts["polynomials.mul.coeff_products"] == 6
    assert tracer.calls["polynomials.add"] == 3  # sub, neg and add
    assert tracer.calls["families.kernel"] == 6  # mixed_kernel and its two factors, twice
    assert {name for name, _, _ in tracer.keys["families.kernel"]} == {
        "mixed_kernel", "frobenius_euler_kernel", "poly_bernoulli_kernel"}
    assert len(tracer.keys["families.kernel"]) == 3
    assert tracer.counts["families.kernel.frobenius_euler_kernel.calls"] == 2
    assert abs(sum(tracer.layer_self.values()) - wall) < 1e-9
