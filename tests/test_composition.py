import numpy as np
import pytest

from spinsearch.linalg import (
    BranchCutError,
    comm,
    expm_unitary,
    spin_op,
    unitarity_defect,
)
from spinsearch.composition import (
    FOURTH_ORDER_WEIGHTS,
    commutator_product,
    commutator_propagator,
    cross_interaction,
    cross_interaction_target,
    cross_propagator,
    fractal_compose,
    fractal_propagator,
    symmetric_sandwich,
    trotter_product,
    trotter_propagator,
)

from conftest import CHECK, maxabs, random_hermitian
from reference import agreement, patch_counted

IX = spin_op(1, 1, "x")
IY = spin_op(1, 1, "y")
IZ = spin_op(1, 1, "z")


def commuting_pair(rng, dim=4):
    a = random_hermitian(rng, dim)
    _, v = np.linalg.eigh(a)
    b = (v * rng.normal(size=dim)) @ v.conj().T
    return a, b


class TestTrotter:
    def test_commuting_is_exact(self, rng):
        a, b = commuting_pair(rng)
        res = trotter_product([a, b], 0.9, 3)
        assert res.error_norm <= 1e-12
        assert res.fitted_order == float("inf")

    def test_error_halves_when_slices_double(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        e1 = trotter_product([a, b], 1.0, 16).error_norm
        e2 = trotter_product([a, b], 1.0, 32).error_norm
        assert 0.8 * 2 <= e1 / e2 <= 1.2 * 2

    def test_single_spin_pair_accuracy(self):
        res = trotter_product([IX, IZ], 1.0, 64)
        assert res.error_norm <= 0.01

    def test_fitted_order_near_one(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res = trotter_product([a, b], 1.0, 16)
        assert 0.8 <= res.fitted_order <= 1.2

    def test_propagator_unitary(self, rng):
        hs = [random_hermitian(rng, 4) for _ in range(3)]
        res = trotter_product(hs, 0.7, 8)
        assert unitarity_defect(res.propagator) <= 1e-10

    def test_three_step_ladder(self, rng):
        res = trotter_product([random_hermitian(rng, 4), random_hermitian(rng, 4)], 1.0, 8)
        assert len(res.steps) == 3
        assert res.steps[0] / res.steps[1] == pytest.approx(2.0)


class TestCommutatorProduct:
    def test_commuting_gives_identity(self, rng):
        a, b = commuting_pair(rng)
        res = commutator_product(a, b, 9)
        assert maxabs(res.propagator - np.eye(4)) <= 1e-10
        assert res.error_norm <= 1e-10

    def test_converges_to_commutator_exponential(self):
        a, b = np.pi * IX, np.pi * IY
        res = commutator_product(a, b, 400)
        c = comm(a, b)
        w, v = np.linalg.eigh(1j * c)
        target = (v * np.exp(1j * w)) @ v.conj().T
        assert maxabs(res.propagator - target) <= 0.2
        assert res.error_norm <= 0.2

    def test_error_decreasing_in_m(self):
        a, b = np.pi * IX, np.pi * IY
        errs = [commutator_product(a, b, m).error_norm for m in (25, 100, 400)]
        assert errs[0] > errs[1] > errs[2]

    def test_measured_decay_at_least_sqrt(self):
        a, b = np.pi * IX, np.pi * IY
        res = commutator_product(a, b, 100)
        assert res.fitted_order >= 0.8  # order in 1/sqrt(m)


test_ladders_match_the_sequential_product = agreement("trotter-commutator-ladders")


# (expm_unitary calls, matrix_log_skew calls) with 4x4 operators: every
# rung is built and scored once, and rung 0 is not rebuilt
BUILDER_CALLS = {
    "trotter": (lambda a, b: trotter_product([a, b], 1.0, 16), 7, 0),
    "commutator": (lambda a, b: commutator_product(a, b, 16), 13, 0),
    "sandwich": (lambda a, b: symmetric_sandwich(a, b, 0.2), 6, 3),
    "cross-level-2": (lambda a, b: cross_interaction(a, b, 0.1, level=2), 15, 6),
    "cross-level-4": (lambda a, b: cross_interaction(a, b, 0.1, level=4), 33, 12),
    "fractal-compose": (lambda a, b: fractal_compose(a, b, 0.2, [1.0]), 9, 0),
    "fractal-difference": (lambda a, b: fractal_compose(a, b, 0.2, [1.0], mode="difference"), 15, 6),
}


@pytest.mark.parametrize("name", sorted(BUILDER_CALLS))
def test_each_rung_is_built_once(monkeypatch, rng, name):
    builder, expm_calls, log_calls = BUILDER_CALLS[name]
    calls = patch_counted(monkeypatch, ["expm_unitary", "matrix_log_skew"])
    builder(0.5 * random_hermitian(rng, 4), 0.5 * random_hermitian(rng, 4))
    assert (len(calls["expm_unitary"]), len(calls["matrix_log_skew"])) == (expm_calls, log_calls)


# (builder, its propagator function at the builder's own step size)
BUILDER_PROPAGATORS = {
    "trotter": (
        lambda a, b: trotter_product([a, b], 0.7, 8), lambda a, b: trotter_propagator([a, b], 0.7, 8)
    ),
    "commutator": (lambda a, b: commutator_product(a, b, 16), lambda a, b: commutator_propagator(a, b, 16)),
    "sandwich-A-outer": (
        lambda a, b: symmetric_sandwich(a, b, 0.3), lambda a, b: fractal_propagator(a, b, 0.3, [1.0])
    ),
    "sandwich-B-outer": (
        lambda a, b: symmetric_sandwich(a, b, 0.3, "B-outer"),
        lambda a, b: fractal_propagator(a, b, 0.3, [1.0], "B-outer"),
    ),
    "cross-level-2": (lambda a, b: cross_interaction(a, b, 0.2), lambda a, b: cross_propagator(a, b, 0.2)),
    "cross-level-4": (
        lambda a, b: cross_interaction(a, b, 0.2, level=4), lambda a, b: cross_propagator(a, b, 0.2, 4)
    ),
    "fractal-compose": (
        lambda a, b: fractal_compose(a, b, 0.3, FOURTH_ORDER_WEIGHTS),
        lambda a, b: fractal_propagator(a, b, 0.3, FOURTH_ORDER_WEIGHTS),
    ),
    "fractal-difference": (
        lambda a, b: fractal_compose(a, b, 0.3, FOURTH_ORDER_WEIGHTS, "B-outer", "difference"),
        lambda a, b: fractal_propagator(a, b, 0.3, FOURTH_ORDER_WEIGHTS, "B-outer", "difference"),
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDER_PROPAGATORS))
def test_reported_propagator_is_the_propagator_function(rng, name):
    builder, propagator = BUILDER_PROPAGATORS[name]
    a, b = 0.5 * random_hermitian(rng, 4), 0.5 * random_hermitian(rng, 4)
    assert np.array_equal(builder(a, b).propagator, propagator(a, b))


@pytest.mark.parametrize("x", [0.2, -0.2])
@pytest.mark.parametrize("pair", ["random-2", "random-4", "random-16", "su2-zx", "real-4"])
def test_one_weight_cases_are_the_fractal_builders(rng, pair, x):
    # the sandwich is the one-weight fractal product (symmetric_sandwich builds
    # it so), and the level-2 cross composition, built by its own path, the
    # one-weight fractal difference with its operands swapped
    if pair == "su2-zx":
        a, b = IZ, IX
    else:
        dim = int(pair.split("-")[1])
        hs = [random_hermitian(rng, dim) for _ in range(2)]
        if pair.startswith("real"):  # float64 operands take the same complex path
            hs = [h.real for h in hs]
        a, b = (h / np.linalg.norm(h, 2) for h in hs)  # |x (A + B)| <= 0.4, far from the log's cut
    for side in ("A-outer", "B-outer"):
        sandwich = symmetric_sandwich(a, b, x, side).propagator
        assert np.array_equal(sandwich, fractal_propagator(a, b, x, [1.0], side))
    difference = fractal_propagator(b, a, x, [1.0], mode="difference")
    assert np.array_equal(cross_propagator(a, b, x, 2), difference)


class TestSymmetricSandwich:
    def test_zero_inner_is_pure_exponential(self, rng):
        a = random_hermitian(rng, 4)
        zero = np.zeros_like(a)
        res = symmetric_sandwich(a, zero, 0.4)
        assert maxabs(res.propagator - expm_unitary(a, -0.4)) <= 1e-12

    def test_time_symmetry(self):
        assert CHECK["sandwich-time-symmetry"](seed=20240817) <= 1e-12

    def test_generator_third_order(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res = symmetric_sandwich(a, b, 0.2)
        assert 2.8 <= res.fitted_order <= 3.2

    def test_leading_deviation_term(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        x = 0.05
        res = symmetric_sandwich(a, b, x)
        dev = res.generator_estimate - x * (a + b)
        c_lead = comm(b, comm(b, a / 2)) - comm(a / 2, comm(a / 2, b))
        pred = -(x**3 / 6) * c_lead
        assert maxabs(dev - pred) / maxabs(pred) <= 0.02

    def test_no_even_order_content(self, rng):
        # if an x^2 term were present the deviation would only shrink 4x per
        # halving; the observed 8x factor rules it out
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res = symmetric_sandwich(a, b, 0.2)
        ratio = res.step_errors[0] / res.step_errors[1]
        assert ratio >= 6.0

    def test_b_outer_swaps_roles(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res_b = symmetric_sandwich(a, b, 0.3, "B-outer")
        direct = (
            expm_unitary(b, -0.15) @ expm_unitary(a, -0.3) @ expm_unitary(b, -0.15)
        )
        assert maxabs(res_b.propagator - direct) <= 1e-12

    def test_unknown_side_rejected(self, rng):
        a = random_hermitian(rng, 2)
        with pytest.raises(ValueError, match="order_side"):
            symmetric_sandwich(a, a, 0.1, "sideways")


class TestCrossInteraction:
    def test_commuting_pair_vanishes(self, rng):
        a, b = commuting_pair(rng)
        res = cross_interaction(a, b, 0.2, level=2)
        assert maxabs(res.generator_estimate) <= 1e-10

    def test_su2_pair_leading_term(self):
        x = 0.1
        res = cross_interaction(IZ, IX, x, level=2)
        target = cross_interaction_target(IZ, IX, x)
        rel = maxabs(res.generator_estimate - target) / maxabs(target)
        assert rel <= 0.05

    def test_residual_scaling_exponent(self):
        res = cross_interaction(IZ, IX, 0.2, level=2)
        assert 4.5 <= res.fitted_order <= 5.5

    def test_level4_generator_higher_order(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res = cross_interaction(a, b, 0.3, level=4)
        assert res.fitted_order >= 4.5
        assert unitarity_defect(res.propagator) <= 1e-10

    def test_oracle_call_pattern(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        assert cross_interaction(a, b, 0.2, 2).oracle_calls == 4   # (3^2 - 1) / 2
        assert cross_interaction(a, b, 0.2, 4).oracle_calls == 13  # (3^3 - 1) / 2

    def test_bad_level(self, rng):
        a = random_hermitian(rng, 2)
        with pytest.raises(ValueError, match="level"):
            cross_interaction(a, a, 0.1, level=3)


class TestFractalCompose:
    def test_standard_triplet_reaches_fifth_order(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res = fractal_compose(a, b, 0.3, FOURTH_ORDER_WEIGHTS)
        assert 4.5 <= res.fitted_order <= 5.5

    def test_palindrome_violation(self, rng):
        a = random_hermitian(rng, 2)
        with pytest.raises(ValueError, match="palindromic"):
            fractal_compose(a, a, 0.1, [0.7, 0.2, 0.1])

    def test_sum_violation(self, rng):
        a = random_hermitian(rng, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            fractal_compose(a, a, 0.1, [0.5, 0.4])

    def test_difference_mode_reports_residual(self, rng):
        a = 0.5 * random_hermitian(rng, 4)
        b = 0.5 * random_hermitian(rng, 4)
        res = fractal_compose(a, b, 0.2, FOURTH_ORDER_WEIGHTS, mode="difference")
        # the leading x(A+B) term cancels between the two orderings
        assert maxabs(res.generator_estimate) <= 0.1 * maxabs(0.2 * (a + b))
        assert res.fitted_order > 3.0
        assert np.isfinite(res.error_norm)

    def test_propagators_unitary(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        res = fractal_compose(a, b, 0.4, FOURTH_ORDER_WEIGHTS)
        assert unitarity_defect(res.propagator) <= 1e-10


class TestBranchPropagation:
    def test_log_branch_failure_raises(self, rng):
        # eigenphase of the composed generator driven onto the pi cut
        a = random_hermitian(rng, 2)
        a = a / np.linalg.norm(a, 2)
        with pytest.raises(BranchCutError):
            symmetric_sandwich(a, np.zeros_like(a), np.pi)
