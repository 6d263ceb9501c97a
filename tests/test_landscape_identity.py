"""Layer-1 landscapes against frozen reference copies, bit for bit.

The reference functions below are the composition, peak and base-function
code as it stood before the landscape layer was rewritten for fewer numpy
calls, with the composition's contraction taken as ``diff @ (M / lambda)``,
one vector-matrix product per (row, component).  Every seeded result of the
harness rests on these floats, so the production code must reproduce them
exactly: on every family, at the smallest, default and largest dimension,
at the batch sizes the optimizers use, on rows far from and very close to
an optimum, and after the environment has changed or the dimension has
moved.  The contraction it replaced, ``(diff / lambda) M`` through
``einsum``, is kept as a frozen copy too, and the last tests bound how far
the two paths differ.
"""

import itertools

import numpy as np
import pytest

from dynopt.gdbg import basefuncs as bf
from dynopt.gdbg.composition import NORMALIZER, SIGMA, CompositionProblem
from dynopt.gdbg.instance import FUNCTION_IDS, make_instance
from dynopt.gdbg.peaks import PeakSet

# -- reference base functions ---------------------------------------------

_W_AJ = [0.5 ** (j + 1) for j in range(7)]
_W_PI3K = np.pi * 3.0 ** np.array([0.0, 7.0, 14.0])


def ref_sphere(x):
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x, axis=-1)


def ref_rastrigin(x):
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def ref_weierstrass(x):
    v = (2.0 * np.sin(np.multiply.outer(_W_PI3K, x))) ** 2
    total = 0.5 * v
    for weight in _W_AJ[1:]:
        v = v * (3.0 - v) ** 2
        total += weight * v
    return np.add.reduce(total[0] + total[1] * 2.0**-7 + total[2] * 2.0**-14, axis=-1)


def ref_griewank(x):
    x = np.asarray(x, dtype=float)
    idx = np.sqrt(np.arange(1, x.shape[-1] + 1, dtype=float))
    return (
        np.add.reduce(x * x, axis=-1) / 4000.0
        - np.multiply.reduce(np.cos(x / idx), axis=-1)
        + 1.0
    )


def ref_ackley(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    quad = np.sqrt(np.add.reduce(x * x, axis=-1) / n)
    trig = np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / n
    return -20.0 * np.exp(-0.2 * quad) - np.exp(trig) + 20.0 + np.e


REF_BASE = {
    "sphere": ref_sphere,
    "rastrigin": ref_rastrigin,
    "weierstrass": ref_weierstrass,
    "griewank": ref_griewank,
    "ackley": ref_ackley,
}

# -- reference landscapes -------------------------------------------------


def ref_corner_values(prob, folded=True):
    """Each component's value at the domain corner, one component at a time.

    ``folded=False`` is the frozen einsum-era path: the corner divided by
    lambda, then rotated.
    """
    corner = np.full(prob.dim, prob.upper)
    fmax = np.empty(prob.num_components)
    for i, name in enumerate(prob.func_names):
        if folded:
            z = corner @ (prob.matrices[i] / prob.lambdas[i])
        else:
            z = (corner / prob.lambdas[i]) @ prob.matrices[i]
        fmax[i] = float(REF_BASE[name](z))
    return fmax


def folded_contraction(prob, diff):
    """``diff @ (M / lambda)``, one vector-matrix product per (row, component)."""
    scaled = prob.matrices / prob.lambdas[:, None, None]
    return (diff[:, :, None, :] @ scaled)[:, :, 0, :]


def einsum_contraction(prob, diff):
    """The contraction before the stretch was folded into the matrices."""
    return np.einsum("nmd,mde->nme", diff / prob.lambdas[:, None], prob.matrices)


def ref_composition(prob, xs, folded=True):
    """The composition rule; ``folded=False`` is the frozen einsum-era path."""
    h = prob.heights.copy()
    fmax = ref_corner_values(prob, folded)
    diff = xs[:, None, :] - prob.optima
    sq_dist = np.add.reduce(diff * diff, axis=2)
    w = np.exp(-np.sqrt(sq_dist / (2.0 * prob.dim * SIGMA**2)))
    wmax = np.maximum.reduce(w, axis=1, keepdims=True)
    damping = [[1.0 - v**10] for v in wmax[:, 0].tolist()]
    w = np.where(w == wmax, w, w * np.array(damping))
    w /= np.add.reduce(w, axis=1, keepdims=True)
    z = (folded_contraction if folded else einsum_contraction)(prob, diff)
    values = np.empty(z.shape[:2])
    start = 0
    for name, run in itertools.groupby(prob.func_names):
        stop = start + len(list(run))
        values[:, start:stop] = REF_BASE[name](z[:, start:stop])
        start = stop
    f_prime = NORMALIZER * values / np.abs(fmax)
    return np.add.reduce(w * (f_prime + h), axis=1)


def ref_peaks(peaks, xs):
    h = peaks.heights.copy()
    w = peaks.widths.copy()
    diff = xs[:, None, :] - peaks.centers
    dist = np.sqrt(np.add.reduce(diff * diff, axis=2) / diff.shape[2])
    return np.maximum.reduce(h / (1.0 + w * dist), axis=1)


# -- test points ----------------------------------------------------------

POINT_KINDS = ("uniform", "near-1e-7", "near-1e-12", "exact")


def _centers(problem):
    if isinstance(problem, PeakSet):
        return problem.centers
    return problem.optima


def sample_rows(problem, kind, n, rng):
    """``n`` rows of one kind: uniform, within a distance of an optimum, or on one."""
    dim = problem.dim
    if kind == "uniform":
        return rng.uniform(problem.lower, problem.upper, size=(n, dim))
    centers = _centers(problem)[rng.integers(0, len(_centers(problem)), size=n)]
    if kind == "exact":
        return centers.copy()
    scale = 1e-7 if kind == "near-1e-7" else 1e-12
    return centers + scale * rng.uniform(-1.0, 1.0, size=(n, dim))


def assert_same_bits(problem, rng):
    reference = ref_peaks if isinstance(problem, PeakSet) else ref_composition
    if isinstance(problem, CompositionProblem):
        assert problem._fmax.tobytes() == ref_corner_values(problem).tobytes()
    for n in (1, 5, 50):
        for kind in POINT_KINDS:
            xs = sample_rows(problem, kind, n, rng)
            got = problem.evaluate(xs)
            assert got.shape == (n,)
            assert got.tobytes() == reference(problem, xs).tobytes(), (n, kind)


@pytest.mark.parametrize("dim", [5, 10, 15])
@pytest.mark.parametrize("function_id", FUNCTION_IDS)
class TestLandscapeMatchesReference:
    def test_fresh(self, function_id, dim):
        inst = make_instance(function_id, "T1", seed=61, overrides={"dimension": dim})
        assert_same_bits(inst.problem, np.random.default_rng(62))

    def test_after_a_change(self, function_id, dim):
        inst = make_instance(function_id, "T1", seed=63, overrides={"dimension": dim})
        inst.advance_environment()
        assert_same_bits(inst.problem, np.random.default_rng(64))

    def test_after_a_dimension_step(self, function_id, dim):
        inst = make_instance(function_id, "T7", seed=65, overrides={"dimension": dim})
        rng = np.random.default_rng(66)
        # the walk grows from 5 and 10 and shrinks from 15, one step a change
        step = -1 if dim == 15 else 1
        for moved in (1, 2):
            inst.advance_environment()
            assert inst.problem.dim == dim + moved * step
            assert_same_bits(inst.problem, rng)


# -- base functions on every shape the landscapes pass ---------------------


def _base_inputs(name, rng):
    """1-D vectors (the corner form), 2-D batches and strided 3-D run slices."""
    half = bf.NATURAL_HALF_RANGE[name]
    inputs = []
    for dim in (1, 5, 10, 11, 15, 50):
        inputs.append(rng.uniform(-half, half, size=dim))
        inputs.append(1e-9 * rng.uniform(-1.0, 1.0, size=dim))
        inputs.append(np.zeros(dim))
        inputs.append(np.full(dim, half))
    for dim in (5, 10, 15):
        inputs.append(rng.uniform(-half, half, size=(7, dim)))
        stack = rng.uniform(-half, half, size=(50, 10, dim))
        inputs.append(stack[:, 2:4])
        inputs.append(stack[:, 0:1])
        inputs.append(stack[:1, :])
        inputs.append(1e-12 * stack[:5, 4:10])
    return inputs


@pytest.mark.parametrize("name", sorted(bf.BASE_FUNCTIONS))
def test_base_function_matches_reference(name):
    func, reference = bf.BASE_FUNCTIONS[name], REF_BASE[name]
    for x in _base_inputs(name, np.random.default_rng(67)):
        before = x.copy()
        got, want = np.asarray(func(x)), np.asarray(reference(x))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x.shape
        assert float(got.flat[0]) == float(want.flat[0])
        assert x.tobytes() == before.tobytes(), "a base function wrote to its input"


# -- the contraction against the einsum path it replaced -------------------

EPS = np.finfo(float).eps
# bounds set from the float analysis, with the largest gaps on these rows in
# brackets: z moves by a few ulp of its row's norm [1.9 eps]; a composition
# value by ~1e-15 relative [5.7e-16], except that Weierstrass (F6) multiplies
# its input by up to 2 pi 3^14 inside a sine [2.0e-13]
Z_ULPS = 4
VALUE_BOUND = {"F6": 2e-12}
VALUE_BOUND_DEFAULT = 1e-14
CONTRACTION_KINDS = ("uniform", "near-1e-3", "near-1e-7", "near-1e-12", "exact")


def _rows(problem, kind, rng):
    if kind == "near-1e-3":
        centers = problem.optima[rng.integers(0, problem.num_components, size=50)]
        return centers + 1e-3 * rng.uniform(-1.0, 1.0, size=centers.shape)
    return sample_rows(problem, kind, 50, rng)


def _composition_states(function_id, dim):
    """A fresh instance, and one after a T7 dimension step."""
    inst = make_instance(function_id, "T1", seed=71, overrides={"dimension": dim})
    yield inst.problem
    inst = make_instance(function_id, "T7", seed=73, overrides={"dimension": dim})
    inst.advance_environment()
    assert inst.problem.dim != dim
    yield inst.problem


@pytest.mark.parametrize("dim", [5, 10, 15])
@pytest.mark.parametrize("function_id", ["F2", "F3", "F4", "F5", "F6"])
class TestContractionAgainstEinsum:
    def test_z_within_a_few_ulp_of_the_row_norm(self, function_id, dim):
        rng = np.random.default_rng(75)
        for prob in _composition_states(function_id, dim):
            for kind in CONTRACTION_KINDS:
                diff = _rows(prob, kind, rng)[:, None, :] - prob.optima
                old = einsum_contraction(prob, diff)
                gap = np.abs(folded_contraction(prob, diff) - old)
                norm = np.sqrt(np.add.reduce(old * old, axis=2))[:, :, None]
                assert np.all(gap <= Z_ULPS * EPS * norm), kind

    def test_values_within_the_stated_bound(self, function_id, dim):
        bound = VALUE_BOUND.get(function_id, VALUE_BOUND_DEFAULT)
        rng = np.random.default_rng(77)
        for prob in _composition_states(function_id, dim):
            assert np.all(
                np.abs(prob._fmax - ref_corner_values(prob, folded=False))
                <= bound * np.abs(prob._fmax)
            )
            for kind in CONTRACTION_KINDS:
                xs = _rows(prob, kind, rng)
                new, old = prob.evaluate(xs), ref_composition(prob, xs, folded=False)
                if kind in ("near-1e-12", "exact"):
                    # the displacement is too small to round differently
                    assert new.tobytes() == old.tobytes(), kind
                else:
                    assert np.all(np.abs(new - old) <= bound * np.abs(old)), kind
