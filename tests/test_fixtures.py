"""The shipped non-decomposable map and its PPT entangled companion.

The regeneration-and-validation recipe for the shipped JSON files lives
here: the e-cone solve at tolerance 1e-11 must certify non-decomposability
in five independently seeded local frames, the companion state must be PPT with
unit trace, and the pairing must equal the closed-form value -1/14.
"""

import importlib.resources as resources

import numpy as np
import pytest

from mapcones.choi import map_from_action, map_from_choi, matrix_unit, max_entangled_projector, pairing
from mapcones.cones import (
    Status,
    in_E,
    in_F,
    is_cop,
    is_cp,
    is_positive_map,
    is_ppt_state,
    is_separable,
)
from mapcones.fixtures import (
    FIXTURE_PAIRING,
    bell_phased_family,
    nondecomposable_map,
    nondecomposable_map_action,
    ppt_entangled_state,
)
from mapcones.io import loads_matrix
from mapcones.linalg import Dims, frob


class TestMapFixture:
    def test_action_matches_choi_blocks(self):
        lam = nondecomposable_map()
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1
        assert np.array_equal(nondecomposable_map_action(e01), -e01)
        assert np.array_equal(
            nondecomposable_map_action(np.diag([1.0, 0, 0]).astype(complex)),
            np.diag([1.0, 1.0, 0]).astype(complex),
        )
        assert lam.choi.shape == (9, 9)

    def test_action_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="expected a 3 x 3 matrix"):
            nondecomposable_map_action(np.eye(2))

    def test_built_once_read_only_and_equal_to_a_fresh_build(self):
        lam = nondecomposable_map()
        assert nondecomposable_map() is lam
        assert not lam.choi.flags.writeable
        with pytest.raises(ValueError):
            lam.choi[0, 0] = 0.0
        fresh = map_from_action(3, 3, nondecomposable_map_action)
        assert lam.d == fresh.d
        assert np.array_equal(lam.choi, fresh.choi)

    def test_neither_cp_nor_cop(self):
        lam = nondecomposable_map()
        assert is_cp(lam).status is Status.OUT
        assert is_cop(lam).status is Status.OUT

    def test_positive(self):
        assert is_positive_map(nondecomposable_map(), restarts=16).status is Status.IN

    def test_nondecomposable_five_seeds(self):
        # local unitaries U (x) V preserve the e cone, so every frame must
        # give OUT with a witness as deep as in the shipped one
        lam = nondecomposable_map()
        for seed in range(5):
            g = np.random.default_rng(seed)
            u, v = (np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))[0] for _ in range(2))
            uv = np.kron(u, v)
            verdict = in_E(uv @ lam.choi @ uv.conj().T, Dims(3, 3), 1e-11)
            assert verdict.status is Status.OUT, f"seed {seed}: {verdict.status}"
            assert verdict.certificate.value < -0.07


class TestStateFixture:
    def test_is_ppt_state(self):
        w, d = ppt_entangled_state()
        assert abs(np.trace(w).real - 1.0) <= 1e-12
        assert is_ppt_state(w, d).status is Status.IN

    def test_entangled(self):
        w, d = ppt_entangled_state()
        v = is_separable(w, d)
        # PPT at 3 x 3 cannot certify either way by spectra alone; the
        # shipped map detects the state, or the search leaves it open
        assert v.status in (Status.OUT, Status.UNDECIDED)
        assert v.status is Status.OUT

    def test_pairing_is_closed_form(self):
        lam = nondecomposable_map()
        w, _ = ppt_entangled_state()
        val = pairing(lam, map_from_choi(3, 3, w))
        assert val == pytest.approx(FIXTURE_PAIRING, abs=1e-15)
        assert val == pytest.approx(-1.0 / 14.0, abs=1e-15)

    def test_family_pairing_linear_in_parameter(self):
        lam = nondecomposable_map()
        for a in (1.0, 1.5, 2.5, 4.0):
            val = pairing(lam, map_from_choi(3, 3, bell_phased_family(a)))
            assert val == pytest.approx((a - 2.0) / 7.0, abs=1e-14)

    def test_family_matches_its_kron_sum(self):
        # the reference: S+ and S- as sums of Kronecker products of matrix units
        s_plus = sum(np.kron(matrix_unit(i, i, 3), matrix_unit((i + 1) % 3, (i + 1) % 3, 3)) / 3 for i in range(3))
        s_minus = sum(np.kron(matrix_unit((i + 1) % 3, (i + 1) % 3, 3), matrix_unit(i, i, 3)) / 3 for i in range(3))
        p_plus = max_entangled_projector(3) / 3
        for a in np.linspace(0.0, 5.0, 101):
            reference = (2 * p_plus + a * s_plus + (5 - a) * s_minus) / 7
            state = bell_phased_family(a)
            assert state.dtype == reference.dtype and state.tobytes() == reference.tobytes()

    def test_family_ppt_window(self):
        d = Dims(3, 3)
        assert in_F(bell_phased_family(1.0), d).status is Status.IN
        assert in_F(bell_phased_family(4.0), d).status is Status.IN
        assert in_F(bell_phased_family(4.5), d).status is Status.OUT
        assert in_F(bell_phased_family(0.5), d).status is Status.OUT


class TestShippedFiles:
    @pytest.mark.parametrize(
        "name,builder",
        [
            ("nondecomposable_map_3x3.json", lambda: nondecomposable_map().choi),
            ("ppt_entangled_state_3x3.json", lambda: ppt_entangled_state()[0]),
        ],
    )
    def test_files_match_generators(self, name, builder):
        text = resources.files("mapcones.data").joinpath(name).read_text()
        d, mat = loads_matrix(text)
        assert d == Dims(3, 3)
        assert frob(mat - builder()) == 0.0
