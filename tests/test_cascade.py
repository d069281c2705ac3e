"""The classical nested passes, pinned byte for byte.

``lft_nd_regular`` with its ``canonical_nd_dual_grids``, and whole
``run_qlft_nd_regular`` runs on the convex inputs among them, pickle to the
bytes pinned here: each pin is the sha256 of the digests
(``test_fixtures._digest``) of one case's outputs, cut to 16 hex digits. A
change to a grid, a value, an optimizer, a label, a step record or a
verification report fails here.
"""

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from lftlab import fixtures
from lftlab.grids import RegularGrid
from lftlab.multi import RatTensor, TensorGrid, TensorSamples, canonical_nd_dual_grids, lft_nd_regular
from lftlab.qlft_nd import run_qlft_nd_regular

from test_brute import _nd_verify_inputs
from test_fixtures import _digest, _pin


def _tensor(shape, value, gamma):
    """Samples value(idx) on axes of spacing gamma from 0."""
    grid = TensorGrid(axes=tuple(RegularGrid(x0=F(0), gamma=gamma, n=n) for n in shape))
    return TensorSamples(grid=grid, values=RatTensor.build(shape, lambda idx: F(value(*idx))))


def _long(n):
    """A 2 x n tensor with a long last axis: i^2 + a at (a, i)."""
    return _tensor((2, n), lambda a, i: i * i + a, F(1, n - 1))


def _deep():
    """A (24, 3, 3) tensor with a long first axis, convex on every line."""
    def value(i, j, k):
        return i * i + 2 * j * j + 3 * k * k + i * j - 2 * j * k + i * k

    return _tensor((24, 3, 3), value, F(1, 23))


def _plans():
    """(samples, dual sizes, convex input): the cases a pin covers."""
    coupled2, coupled3, _ = _nd_verify_inputs()
    quad15 = fixtures.random_convex_quadratic_nd(random.Random(15), d=2, n=4, coupling=3)
    # every axis-1 line is concave: its canonical range is its envelope's
    concave = _tensor((2, 3), lambda a, i: 5 if i == 1 else 0, F(1))
    return {
        "nd-verify": [(coupled2, (16, 16), True), (coupled2, (32, 32), True), (coupled3, (6, 6, 6), True)],
        # its axis-1 pass leaves a discretely nonconvex axis-0 line
        "quad15": [(quad15, (4, 4), True)],
        "concave": [(concave, (3, 3), False)],
        "long axis": [(_long(64), (2, 64), True), (_long(64), (2, 128), True)],
        "long first axis": [(_deep(), (24, 3, 3), True), (_deep(), (8, 4, 2), True)],
    }


def _regular(case):
    out = []
    for f, ks, _ in _plans()[case]:
        grids = canonical_nd_dual_grids(f, ks)
        out += [grids, lft_nd_regular(f, grids)]
    return out


def _runs(case):
    seed = _nd_verify_inputs()[2]
    return [run_qlft_nd_regular(f, ks, rng_seed=seed) for f, ks, convex in _plans()[case] if convex]


PINS_REGULAR = {
    "nd-verify": "ddb96e997247b2af",
    "quad15": "a3c02421a4a25a0c",
    "concave": "365e833ad54b4f7f",
    "long axis": "c42dc393f71f36b2",
    "long first axis": "1590982f4ad1c673",
}
PINS_RUNS = {
    "nd-verify": "87f49a7756291023",
    "quad15": "a83f35751c627f46",
    "long axis": "14f5276de754a225",
    "long first axis": "358929dbaf1870fb",
}


@pytest.mark.parametrize("case", list(PINS_REGULAR))
def test_regular_results_and_grids_are_pinned(case):
    assert _pin([_digest(out) for out in _regular(case)]) == PINS_REGULAR[case]


@pytest.mark.parametrize("case", list(PINS_RUNS))
def test_regular_runs_are_pinned(case):
    assert _pin([_digest(out) for out in _runs(case)]) == PINS_RUNS[case]


def _regular_on_grids(f, ks):
    grids = canonical_nd_dual_grids(f, ks)
    return lambda: lft_nd_regular(f, grids)


def _run(f, ks):
    return lambda: run_qlft_nd_regular(f, ks)


@pytest.mark.parametrize("route,sizes", [(_regular_on_grids, (512, 1024, 2048)), (_run, (512, 1024))])
def test_a_pass_holds_no_product_table(route, sizes):
    # at K = n, a K x n table of the products s_j x_i grows the peak 4x
    # when n doubles; a pass that forms each product where a value reads
    # it holds O(K + n) words per line, so the peak about doubles
    peaks = []
    for n in sizes:
        call = route(_long(n), (2, n))
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(b < 3 * a for a, b in zip(peaks, peaks[1:])), peaks


def test_the_concave_samples_are_the_ci_checks():
    from test_ci_checks import LFT_AGAINST_THE_BRUTE

    doc, dual = LFT_AGAINST_THE_BRUTE["concave"]
    [(concave, ks, _)] = _plans()["concave"]
    assert [F(v) for v in doc["samples"]] == list(concave.values.flat)
    assert [(F(g["x0"]), F(g["gamma_x"]), g["n"]) for g in doc["grid"]] == [
        (g.x0, g.gamma, g.n) for g in concave.grid.axes
    ]
    assert dual == ["--dual", f"regular:{ks[0]}"]
