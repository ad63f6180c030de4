"""Operator-splitting and commutator-composition toolkit.

Conventions: the composition parameter x is the real magnitude of an
imaginary time, so every elementary factor is exp(+i x H) for Hermitian H
and all composed propagators are exactly unitary.  Generators are compared
in the form U = exp(i G) with G Hermitian, extracted with the principal
matrix logarithm.

Error metric: the largest singular value of (composed - target), taken on
the propagator or on its generator.  Error orders are never asserted
inside this module; each builder evaluates the composition at a geometric
ladder of step sizes and reports the fitted log-log slope, which the
callers and the test suite judge.

Four public functions give a builder's composed propagator at one step
size, for callers that need it without the diagnostics:
trotter_propagator, commutator_propagator, cross_propagator and
fractal_propagator.  The symmetric sandwich has none of its own:
symmetric_sandwich builds each rung as the one-weight fractal product
fractal_propagator(a, b, x, [1.0], order_side), whose one S(x) factor is
`_sandwich`.  Every builder returns through one ladder function, `_ladder`:
it builds the propagator once per rung and scores each rung once, and
rung 0 (the step size the caller asked for) is the reported propagator.
Step powers are taken by repeated squaring (np.linalg.matrix_power, about
2 log2(reps) products), which is still a brute-force product of the dense
step matrix, never the closed form it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import comm, expm_unitary, matrix_log_skew


@dataclass
class CompositionResult:
    """A composed propagator with its accuracy diagnostics.

    generator_estimate is the logarithm of the propagator where the error
    metric takes it anyway (symmetric_sandwich, cross_interaction and
    fractal_compose in "difference" mode), and None for the builders that
    compare propagators (trotter_product, commutator_product, fractal
    "compose" mode).
    """

    propagator: np.ndarray
    generator_estimate: np.ndarray | None
    error_norm: float
    fitted_order: float
    steps: tuple[float, ...]
    step_errors: tuple[float, ...]
    oracle_calls: int = 0


def _expi(h: np.ndarray, x: float = 1.0) -> np.ndarray:
    """exp(+i x h) for Hermitian h."""
    return expm_unitary(h, -x)


def _specnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def _fit_order(steps, errors) -> float:
    steps = np.abs(np.asarray(steps, dtype=float))
    errors = np.asarray(errors, dtype=float)
    keep = errors > 1e-13
    if keep.sum() < 2:
        return float("inf")  # errors at roundoff: composition is exact
    return float(np.polyfit(np.log(steps[keep]), np.log(errors[keep]), 1)[0])


def _propagator_error(target):
    """Error metric |u - target(rung)|; no generator is taken."""
    return lambda u, rung: (_specnorm(u - target(rung)), None)


def _generator_error(target):
    """Error metric |log u - target(rung)|, returned with log u."""

    def error(u, rung):
        g = matrix_log_skew(u)
        return _specnorm(g - target(rung)), g

    return error


def _ladder(build, error, ladder, steps, oracle_calls: int) -> CompositionResult:
    """Build and score every rung once: build(rung) calls the builder's
    propagator function, error(u, rung) is the rung's (error, generator or
    None), and steps the step size of each rung for the order fit.  Rung 0
    is reported."""
    runs = []
    for rung in ladder:
        u = build(rung)
        runs.append((u, *error(u, rung)))
    errors = [err for _, err, _ in runs]
    propagator, _, generator = runs[0]
    return CompositionResult(
        propagator=propagator,
        generator_estimate=generator,
        error_norm=errors[0],
        fitted_order=_fit_order(steps, errors),
        steps=tuple(steps),
        step_errors=tuple(errors),
        oracle_calls=oracle_calls,
    )


def trotter_propagator(h_list, t: float, m: int) -> np.ndarray:
    """(prod_k exp(-i H_k t/m))^m."""
    if m < 1:
        raise ValueError("need at least one slice")
    h_list = [np.asarray(h, dtype=complex) for h in h_list]
    step = np.eye(len(h_list[0]), dtype=complex)
    for h in h_list:
        step = step @ expm_unitary(h, t / m)
    return np.linalg.matrix_power(step, m)


def trotter_product(h_list, t: float, m: int) -> CompositionResult:
    """trotter_propagator against exp(-i sum_k H_k t).

    First-order splitting: the error decays like 1/m for non-commuting
    generators and vanishes for commuting ones.
    """
    h_list = [np.asarray(h, dtype=complex) for h in h_list]
    target = expm_unitary(sum(h_list), t)
    ladder = [m, 2 * m, 4 * m]
    return _ladder(
        lambda slices: trotter_propagator(h_list, t, slices),
        _propagator_error(lambda _: target),
        ladder,
        [1 / s for s in ladder],
        m,
    )


def commutator_propagator(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """(exp(iA/sqrt m) exp(iB/sqrt m) exp(-iA/sqrt m) exp(-iB/sqrt m))^m."""
    if m < 1:
        raise ValueError("need at least one repetition")
    r = 1 / np.sqrt(m)
    step = _expi(a, r) @ _expi(b, r) @ _expi(a, -r) @ _expi(b, -r)
    return np.linalg.matrix_power(step, m)


def commutator_product(a: np.ndarray, b: np.ndarray, m: int) -> CompositionResult:
    """Group-commutator approximation of exp(-[A, B]).

    commutator_propagator converges to exp(-[A, B]); the measured error
    decays like 1/sqrt(m).
    """
    target = _expi(1j * comm(a, b))  # exp(-[A, B]): i [A, B] is Hermitian
    ladder = [m, 4 * m, 16 * m]
    steps = [1 / np.sqrt(s) for s in ladder]
    return _ladder(
        lambda reps: commutator_propagator(a, b, reps),
        _propagator_error(lambda _: target),
        ladder,
        steps,
        2 * m,
    )


def _sandwich(a: np.ndarray, b: np.ndarray, x: float) -> np.ndarray:
    """exp(x A/2) exp(x B) exp(x A/2), x imaginary time."""
    half = _expi(a, x / 2)
    return half @ _expi(b, x) @ half


def symmetric_sandwich(
    a: np.ndarray, b: np.ndarray, x: float, order_side: str = "A-outer"
) -> CompositionResult:
    """Second-order symmetric splitting of exp(x (A + B)): the one-weight
    fractal product fractal_propagator(a, b, x, [1.0], order_side).

    The extracted generator deviates from x(A+B) at third order in x, with
    no even-order commutator content thanks to the time symmetry
    S(x) S(-x) = E.
    """
    ladder = [x, x / 2, x / 4]
    return _ladder(
        lambda xv: fractal_propagator(a, b, xv, [1.0], order_side),
        _generator_error(lambda xv: xv * (a + b)),
        ladder,
        ladder,
        1,
    )


def _symmetric_product(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sqrt(k) m sqrt(k), with sqrt(k) = exp(i G/2) the principal root of
    the unitary k = exp(i G), k away from the branch cut."""
    half = _expi(matrix_log_skew(k) / 2, 1.0)
    return half @ m @ half


def cross_interaction_target(a: np.ndarray, b: np.ndarray, x: float) -> np.ndarray:
    """Leading generator of the level-2 cross composition:
    -(x^3/8) ([B,[B,A]] - [A,[A,B]]) in the U = exp(iG) convention."""
    k = comm(b, comm(b, a)) - comm(a, comm(a, b))
    return -(x**3 / 8) * k


# level -> (leading generator of the cross composition, oracle calls)
_CROSS_LEVELS = {2: (cross_interaction_target, 4), 4: (lambda a, b, x: 0, 13)}


def cross_propagator(a: np.ndarray, b: np.ndarray, x: float, level: int = 2) -> np.ndarray:
    """The level-2 cross composition of the two sandwich orderings (the
    one-weight difference of fractal_propagator, operands swapped), or at
    level 4 the same composition of the two level-2 orderings."""
    if level not in _CROSS_LEVELS:
        raise ValueError(f"level must be 2 or 4, got {level}")
    u = _difference(a, b, x, [1.0])
    if level == 4:
        u = _symmetric_product(u, _difference(b, a, x, [1.0]))
    return u


def cross_interaction(
    a: np.ndarray, b: np.ndarray, x: float, level: int = 2
) -> CompositionResult:
    """Isolate pure cross-commutator generators by sandwich differences.

    level 2: the composed generator is -(x^3/8)([B,[B,A]] - [A,[A,B]]) up
    to O(x^5); both sum and difference of the two sandwich orderings enter,
    which cancels the x(A+B) term entirely.  level 4 repeats the trick on
    the level-2 products, pushing the generator to O(x^5).

    The reported oracle_calls counts the exp(xB)-type factors consumed:
    4 at level 2 and 13 at level 4 (the (3^(m+1) -+ 1)/2 pattern).
    """
    target, calls = _CROSS_LEVELS.get(level, (None, 0))  # cross_propagator rejects others
    ladder = [x, x / 2, x / 4]
    return _ladder(
        lambda xv: cross_propagator(a, b, xv, level),
        _generator_error(lambda xv: target(a, b, xv)),
        ladder,
        ladder,
        calls,
    )


_P1 = 1 / (2 - 2 ** (1 / 3))
FOURTH_ORDER_WEIGHTS = (_P1, 1 - 2 * _P1, _P1)  # palindromic (p1, 1 - 2 p1, p1)


def palindromic_weights(p_list) -> list[float]:
    """The scale factors of a fractal composition, checked: they must sum
    to one and read the same both ways."""
    p_list = [float(p) for p in p_list]
    if abs(sum(p_list) - 1.0) > 1e-12:
        raise ValueError(f"composition weights must sum to 1, got {sum(p_list)}")
    if any(abs(p_list[j] - p_list[-1 - j]) > 1e-12 for j in range(len(p_list))):
        raise ValueError("composition weights must be palindromic")
    return p_list


def _fractal_side(o: np.ndarray, i: np.ndarray, x: float, p_list) -> np.ndarray:
    """S(p_r x) ... S(p_1 x) with o outside each sandwich."""
    o, i = np.asarray(o, dtype=complex), np.asarray(i, dtype=complex)
    u = np.eye(o.shape[0], dtype=complex)
    for p in p_list:
        u = _sandwich(o, i, p * x) @ u
    return u


def _difference(a: np.ndarray, b: np.ndarray, x: float, p_list) -> np.ndarray:
    """The two-ordering difference sqrt(f_A) f_B^-1 sqrt(f_A), f_O the
    fractal product with O outside each sandwich."""
    f_a = _fractal_side(a, b, x, p_list)
    return _symmetric_product(f_a, np.linalg.inv(_fractal_side(b, a, x, p_list)))


def fractal_propagator(
    a: np.ndarray,
    b: np.ndarray,
    x: float,
    p_list,
    order_side: str = "A-outer",
    mode: str = "compose",
) -> np.ndarray:
    """The palindromic product of scaled sandwiches, or in mode "difference"
    sqrt(f_B) f_A^-1 sqrt(f_B) from both orderings, whatever order_side."""
    p_list = palindromic_weights(p_list)
    sides = {"A-outer": (a, b), "B-outer": (b, a)}
    if order_side not in sides:
        raise ValueError(f"order_side must be 'A-outer' or 'B-outer', got {order_side!r}")
    if mode == "compose":
        return _fractal_side(*sides[order_side], x, p_list)
    if mode == "difference":
        return _difference(b, a, x, p_list)
    raise ValueError(f"mode must be 'compose' or 'difference', got {mode!r}")


def fractal_compose(
    a: np.ndarray,
    b: np.ndarray,
    x: float,
    p_list,
    order_side: str = "A-outer",
    mode: str = "compose",
) -> CompositionResult:
    """Palindromic product of scaled sandwiches S(p_1 x) ... S(p_r x).

    The scale factors must sum to one and read the same both ways; with the
    right factors the composition cancels commutator errors order by order.
    The fitted order is reported, never asserted: choosing factors that
    actually reach a given order is the caller's problem.

    mode "difference" composes sqrt(f_B) f_A^-1 sqrt(f_B) from the two
    orderings, leaving only the high-order cross-interaction generator; its
    residual order is reported as measured.
    """
    # fractal_propagator checks p_list, order_side and mode on rung 0
    if mode == "difference":
        error, calls = _generator_error(lambda _: 0), 3 * len(p_list)
    else:
        error, calls = _propagator_error(lambda xv: _expi(a + b, xv)), len(p_list)
    ladder = [x, x / 2, x / 4]
    return _ladder(
        lambda xv: fractal_propagator(a, b, xv, p_list, order_side, mode),
        error,
        ladder,
        ladder,
        calls,
    )
