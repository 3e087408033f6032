import json
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.linalg import toeplitz
from scipy.optimize import brentq as scipy_brentq

from hpbec import numerics
from hpbec.errors import BracketError

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# (integrand on arrays, the same on mpmath numbers, a, b)
INTEGRANDS = {
    "smooth": (lambda x: np.exp(-x * x) * np.cos(3.0 * x), lambda x: mp.exp(-x * x) * mp.cos(3 * x), 0.0, 5.0),
    "complex drift": (
        lambda k: k * k * np.exp(-0.5 * k * k + 12.0j * k),
        lambda k: k * k * mp.exp(-k * k / 2 + 12j * k),
        0.0,
        9.0,
    ),
    "endpoint singular": (lambda k: k**-0.5 * np.exp(-k), lambda k: k ** mp.mpf(-0.5) * mp.exp(-k), 0.0, 1.0),
    "log singular": (lambda k: np.log(k) * np.cos(k), lambda k: mp.log(k) * mp.cos(k), 0.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_integrate_against_mpmath_and_quad(name):
    f, f_mp, a, b = INTEGRANDS[name]
    got = numerics.integrate(lambda k, _: f(k), a, b, epsabs=1e-13, epsrel=1e-12, limit=300)
    with mp.workdps(30):
        exact = complex(mp.quad(f_mp, [a, (a + b) / 2, b]))
    ref = complex(
        quad(lambda x: np.real(f(x)), a, b, epsabs=1e-13, epsrel=1e-12, limit=300)[0],
        quad(lambda x: np.imag(f(x)), a, b, epsabs=1e-13, epsrel=1e-12, limit=300)[0],
    )
    # the error estimate bounds the true error, and is itself within tolerance
    assert abs(got.value - exact) <= got.error
    assert got.error <= max(1e-13, 1e-12 * abs(got.value))
    assert abs(got.value - ref) <= 1e-11 * abs(exact)
    assert isinstance(got.value, complex) == (name == "complex drift")


def test_integrate_calls_once_per_pass_on_panel_arrays():
    shapes = []

    def f(k, comp):
        shapes.append(k.shape)
        assert comp.shape == k.shape[:1] and not comp.any()  # a scalar integral is component 0
        return np.sqrt(k)

    got = numerics.integrate(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=100)
    assert got.value == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert all(len(s) == 2 and s[1] == 15 for s in shapes)
    assert shapes[0] == (8, 15)  # the start: 8 equal panels
    assert got.evaluations == 15 * sum(s[0] for s in shapes)
    assert got.passes == len(shapes) > 1  # the k^{1/2} end point forces refinement


def test_integrate_starts_on_equal_panels_and_never_more_than_limit():
    calls = []
    f = lambda k, _: (calls.append(k), np.exp(-k))[1]  # noqa: E731
    got = numerics.integrate(f, 1.0, 3.0, epsabs=1e-10, epsrel=1e-10, limit=300)
    assert got.passes == len(calls) == 1 and got.evaluations == 8 * 15
    assert got.value == pytest.approx(np.exp(-1.0) - np.exp(-3.0), rel=1e-14)
    centers = calls[0][:, 7]  # node 7 of 15 is each panel's midpoint
    assert np.allclose(centers, 1.0 + 0.25 * (np.arange(8) + 0.5), rtol=0.0, atol=1e-15)
    calls.clear()
    numerics.integrate(f, 1.0, 3.0, epsabs=1e-10, epsrel=1e-10, limit=3)
    assert calls[0].shape == (3, 15)


def test_integrate_raises_when_limit_is_reached():
    with pytest.raises(BracketError, match="3 intervals"):
        numerics.integrate(lambda k, _: k**-0.5, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=3)


ROOT_CASES = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: np.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: np.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
]


@pytest.mark.parametrize("case", range(len(ROOT_CASES)))
@pytest.mark.parametrize("xtol, rtol", [(1e-14, 8.9e-16), (1e-6, 1e-10)])
def test_brentq_against_scipy(case, xtol, rtol):
    f, a, b = ROOT_CASES[case]
    ref, info = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
    got = numerics.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=100)
    assert got.root == ref  # same step sequence, so the same floating-point root
    assert got.iterations == info.iterations
    assert got.residual == f(got.root)
    # end-point values the caller holds are used instead of two more calls
    calls = []
    counted = lambda x: (calls.append(x), f(x))[1]  # noqa: E731
    again = numerics.brentq(counted, a, b, xtol=xtol, rtol=rtol, maxiter=100, fa=f(a), fb=f(b))
    assert again == got
    assert len(calls) == got.iterations - 1


def test_brentq_raises_without_sign_change_or_convergence():
    with pytest.raises(BracketError, match="no sign change"):
        numerics.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-12, maxiter=50)
    with pytest.raises(BracketError, match="not converged in 5 iterations"):
        numerics.brentq(lambda x: np.cos(x) - x, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16, maxiter=5)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_hermitian_toeplitz_equals_scipy(n):
    rng = np.random.default_rng(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(numerics.hermitian_toeplitz(row), toeplitz(np.conj(row), row))


@pytest.mark.parametrize("seed", [0, 1, 2, None])
def test_monotone_cubic_against_pchip(seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.1, 1.0, size=12))
    y = np.cumsum(rng.uniform(-0.5, 1.0, size=12))  # not monotone: flat-slope knots occur
    if seed is None:  # the three-point end slope changes sign at the left end and is set to 0
        x, y = np.arange(5.0), np.array([0.0, 0.1, 2.0, 2.1, 5.0])
    value, derivative = numerics.monotone_cubic(x, y)
    ref = PchipInterpolator(x, y)
    probe = np.concatenate([x, rng.uniform(x[0], x[-1], size=200)])
    scale = np.abs(y).max()
    assert np.abs(value(probe) - ref(probe)).max() <= 1e-14 * scale
    assert np.abs(derivative(probe) - ref.derivative()(probe)).max() <= 1e-13 * scale


def test_monotone_cubic_two_points_is_linear():
    value, derivative = numerics.monotone_cubic([0.0, 2.0], [1.0, 5.0])
    assert value(np.array([0.5, 2.0])) == pytest.approx([2.0, 5.0], abs=1e-15)
    assert derivative(1.0) == 2.0


@pytest.mark.parametrize("command", ["condense", "bec-states"])
def test_cli_runs_without_importing_scipy(command, tmp_path):
    script = (
        "import json, sys\n"
        "from hpbec import cli\n"
        f"code = cli.main({json.dumps(['--command', command, '--out', str(tmp_path / 'run')])}"
        " + ['--override', 'sweep.box_sizes=[5.0, 8.0]', '--override', 'bec.suite_size=2'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]


def test_integrate_floors_its_tolerance_at_the_estimators_own():
    """A request below 100 eps integral |f| is met at that floor; each panel's
    estimate is at least 50 eps of its integral of |f|, so the request alone
    could never be."""
    f = lambda k: 1e3 * np.exp(-k * k) * np.cos(8.0 * k)
    got = numerics.integrate(lambda k, _: f(k), 0.0, 8.0, epsabs=1e-16, epsrel=0.0, limit=300)
    exact = 1e3 * np.sqrt(np.pi) / 2.0 * np.exp(-16.0)
    l1 = numerics.integrate(lambda k, _: np.abs(f(k)), 0.0, 8.0, epsabs=1e-13, epsrel=1e-13, limit=300).value
    assert 1e-16 < got.error <= 100.0 * np.finfo(float).eps * l1
    assert abs(got.value - exact) <= got.error


def test_integrate_still_raises_when_the_integrand_cannot_converge():
    """1/k has no integral on [0, 1]: the first panel's estimate never falls,
    and the floor, tied to integral |f| over the panels, stays far below it."""
    with pytest.raises(BracketError, match="300 intervals"):
        numerics.integrate(lambda k, _: 1.0 / k, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=300)


# --- stacks: one integral per interval -------------------------------------------


def count_integrand_values(monkeypatch):
    """A list that each later numerics.integrate call appends its integrand's values per pass to."""
    counts, integrate = [], numerics.integrate

    def counted(f, *args, **kwargs):
        def g(*nodes):
            values = f(*nodes)
            counts.append(np.size(values))
            return values

        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate", counted)
    return counts


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_a_one_component_stack_returns_the_scalar_bits(name):
    f, _, a, b = INTEGRANDS[name]
    scalar = numerics.integrate(lambda k, _: f(k), a, b, epsabs=1e-13, epsrel=1e-12, limit=300)
    stack = numerics.integrate(lambda k, _: f(k), np.array([a]), b, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert type(scalar.value) in (float, complex) and type(scalar.error) is float
    assert stack.value.shape == stack.error.shape == (1,)
    assert np.asarray(scalar.value).tobytes() == stack.value.tobytes()
    assert np.float64(scalar.error).tobytes() == stack.error.tobytes()
    assert scalar.evaluations == stack.evaluations


MIXED = (
    lambda k: np.exp(-k * k) * np.cos(3.0 * k),
    lambda k: k * k * np.exp(-0.5 * k * k + 12.0j * k),
    lambda k: np.zeros_like(k),
)


def stacked(integrands, shapes=None):
    """One integrand whose component c is integrands[c], selected panel by panel through comp."""

    def f(k, comp):
        if shapes is not None:
            shapes.append(k.shape)
        out = np.empty(k.shape, dtype=complex)
        for c, g in enumerate(integrands):
            out[comp == c] = g(k[comp == c])
        return out

    return f


def test_each_component_of_a_mixed_stack_meets_its_own_tolerance():
    """Smooth, oscillatory and zero integrands in one quadrature: each agrees
    with its own scalar quadrature within the sum of the two error estimates."""
    shapes = []
    got = numerics.integrate(stacked(MIXED, shapes), np.zeros(3), 9.0, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert got.value.shape == got.error.shape == (3,)
    assert got.evaluations == 15 * sum(s[0] for s in shapes)
    for component, g in enumerate(MIXED):
        alone = numerics.integrate(lambda k, _: g(k), 0.0, 9.0, epsabs=1e-13, epsrel=1e-12, limit=300)
        assert abs(got.value[component] - alone.value) <= got.error[component] + alone.error
        assert got.error[component] <= max(1e-13, 1e-12 * abs(got.value[component]))
    assert got.value[2] == 0.0 and got.error[2] == 0.0


def test_a_stack_computes_what_its_components_compute_alone():
    """Each component is refined by its own errors alone: the stack computes as
    many integrand values as its components integrated one by one, and each value
    agrees with its value alone within the two error estimates."""
    integrands = (*MIXED, lambda k: k**0.5)
    got = numerics.integrate(stacked(integrands), np.zeros(4), 9.0, epsabs=1e-13, epsrel=1e-12, limit=300)
    alone = [
        numerics.integrate(lambda k, _: g(k), 0.0, 9.0, epsabs=1e-13, epsrel=1e-12, limit=300) for g in integrands
    ]
    assert got.evaluations == sum(q.evaluations for q in alone)
    assert got.passes == max(q.passes for q in alone) > 1
    for component, q in enumerate(alone):
        assert abs(got.value[component] - q.value) <= got.error[component] + q.error


def test_a_stack_keeps_its_leading_axes():
    powers = np.array([1.0, 2.0, 3.0, 0.0])
    got = numerics.integrate(
        lambda k, comp: k ** powers[comp, None], np.zeros((2, 2)), 1.0, epsabs=1e-14, epsrel=1e-14, limit=50
    )
    assert got.value == pytest.approx(np.array([[1 / 2, 1 / 3], [1 / 4, 1.0]]), rel=1e-14)


def test_a_stack_raises_on_one_non_finite_component_and_on_an_exhausted_limit():
    nan_above = stacked((np.cos, lambda k: np.where(k > 0.9, np.nan, k)))
    with pytest.raises(BracketError, match="not finite"):
        numerics.integrate(nan_above, np.zeros(2), 1.0, 1e-12, 1e-12, 300)
    with pytest.raises(BracketError, match="3 intervals"):
        numerics.integrate(stacked((np.cos, lambda k: k**-0.5)), np.zeros(2), 1.0, 1e-14, 1e-14, limit=3)
