"""Ensemble state, rotations, and partial projection."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from ionclock.ensemble import (
    DetectionConfig,
    EmptySampleError,
    _turn,
    excited_population,
    free_precession,
    initialize_ensemble,
    partial_projection,
    reset_to_ground,
    rotate,
)
from ionclock.rng import substream


def make(n=16, seed=1, length=3e-3):
    return initialize_ensemble(n, length, substream(seed, "test-ens"))


class TestInitialization:
    def test_ground_state(self):
        e = make(n=50)
        assert np.all(e.bloch[:, 2] == -1.0)
        assert np.all(e.bloch[:, :2] == 0.0)
        assert not e.ever_projected.any()
        assert excited_population(e) == 0.0

    def test_positions_inside_cloud(self):
        e = make(n=500, length=2e-3)
        assert np.all(np.abs(e.z_pos) <= 1e-3)
        # spread should actually fill the cloud
        assert e.z_pos.std() > 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            initialize_ensemble(0, 3e-3, 1)
        with pytest.raises(ValueError):
            initialize_ensemble(10, -1.0, 1)

    def test_len_and_ion_view(self):
        e = make(n=7)
        assert len(e) == 7
        assert e.bloch[3].tolist() == [0.0, 0.0, -1.0]
        assert not e.ever_projected[3]


class TestRotate:
    def test_pi_pulse_inverts(self):
        e = make()
        s = rotate(e, 0.0, math.pi)
        assert np.allclose(s.bloch[:, 2], 1.0, atol=1e-12)

    def test_half_pi_at_zero_phase(self):
        s = rotate(make(), 0.0, math.pi / 2)
        assert np.allclose(s.bloch, [[0.0, 1.0, 0.0]] * len(s), atol=1e-12)

    def test_half_pi_at_ninety(self):
        s = rotate(make(), math.pi / 2, math.pi / 2)
        assert np.allclose(s.bloch, [[-1.0, 0.0, 0.0]] * len(s), atol=1e-12)

    def test_matches_rotation_matrix(self):
        # independent right-hand rotation about the in-plane drive axis
        rng = np.random.default_rng(77)
        e = make(n=40)
        state = rotate(free_precession(rotate(e, 0.3, 1.1), 0.7), 1.9, 0.4)
        for _ in range(25):
            phase = rng.uniform(0, 2 * math.pi)
            angle = rng.uniform(0, 2 * math.pi)
            axis = np.array([math.cos(phase), math.sin(phase), 0.0])
            expected = Rotation.from_rotvec(angle * axis).apply(state.bloch)
            got = rotate(state, phase, angle).bloch
            assert np.allclose(got, expected, atol=1e-9)
            state = rotate(state, phase, angle)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = make(n=30)
        for _ in range(50):
            state = rotate(state, rng.uniform(0, 7), rng.uniform(0, 7))
            state = free_precession(state, rng.uniform(-3, 3))
        norms = np.linalg.norm(state.bloch, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_additivity(self):
        e = rotate(make(), 0.4, 0.9)
        once = rotate(e, 1.2, 1.7)
        twice = rotate(rotate(e, 1.2, 0.8), 1.2, 0.9)
        assert np.allclose(once.bloch, twice.bloch, atol=1e-12)

    def test_full_turn_is_identity(self):
        e = rotate(make(), 0.2, 0.6)
        s = rotate(e, 1.0, 2 * math.pi)
        assert np.allclose(s.bloch, e.bloch, atol=1e-9)

    def test_input_state_not_mutated(self):
        e = make()
        before = e.bloch.copy()
        rotate(e, 0.0, math.pi)
        assert np.array_equal(e.bloch, before)


class TestFreePrecession:
    def test_matches_z_rotation(self):
        e = rotate(make(), 0.0, math.pi / 2)  # on the equator at +y
        s = free_precession(e, math.pi / 2)
        assert np.allclose(s.bloch, [[-1.0, 0.0, 0.0]] * len(s), atol=1e-12)

    def test_z_component_unchanged(self):
        e = rotate(make(), 0.3, 0.7)
        s = free_precession(e, 2.13)
        assert np.allclose(s.bloch[:, 2], e.bloch[:, 2], atol=1e-15)

    def test_agrees_with_rotation_matrix(self):
        e = rotate(make(n=20), 0.9, 1.3)
        for inc in (-2.0, 0.0, 0.31, 4.9):
            expected = Rotation.from_rotvec([0, 0, inc]).apply(e.bloch)
            assert np.allclose(free_precession(e, inc).bloch, expected, atol=1e-9)


class TestPartialProjection:
    def test_excited_state_reads_one(self):
        e = rotate(make(n=200), 0.0, math.pi)
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        _, m = partial_projection(e, det)
        assert m.estimate == 1.0
        assert m.n_sampled == 200

    def test_ground_state_reads_zero(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        _, m = partial_projection(make(n=200), det)
        assert m.estimate == 0.0

    def test_equator_is_binomial(self):
        e = rotate(make(n=4000, seed=3), 0.0, math.pi / 2)
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        _, m = partial_projection(e, det)
        assert abs(m.estimate - 0.5) < 5.0 / (2.0 * math.sqrt(4000))

    def test_sampled_fraction(self):
        e = make(n=5000, seed=9)
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        s, m = partial_projection(e, det)
        # binomial count around p*n
        assert abs(m.n_sampled - 900) < 5 * math.sqrt(5000 * 0.18 * 0.82)
        assert s.ever_projected.sum() == m.n_sampled
        assert np.array_equal(np.flatnonzero(s.ever_projected), np.sort(m.sampled_indices))

    def test_collapse_is_projective(self):
        e = rotate(make(n=300, seed=4), 0.0, math.pi / 2)
        det = DetectionConfig(p=0.5, sigma_tech=0.0)
        s, m = partial_projection(e, det)
        hit = s.bloch[m.sampled_indices]
        assert np.all(np.abs(hit[:, 2]) == 1.0)
        assert np.all(hit[:, :2] == 0.0)
        # the rest keep their coherence
        rest = np.setdiff1d(np.arange(300), m.sampled_indices)
        assert np.allclose(s.bloch[rest], e.bloch[rest])

    def test_explicit_sample_override(self):
        e = make(n=50)
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        s, m = partial_projection(e, det, sampled=np.array([1, 5, 7]))
        assert m.n_sampled == 3
        assert sorted(m.sampled_indices.tolist()) == [1, 5, 7]

    def test_empty_sample_raises(self):
        e = make()
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        with pytest.raises(EmptySampleError):
            partial_projection(e, det, sampled=np.array([], dtype=int))

    def test_beam_mode_requires_explicit_sample(self):
        e = make()
        det = DetectionConfig(mode="beam_overlap", p=0.18, sigma_tech=0.0)
        with pytest.raises(ValueError):
            partial_projection(e, det)

    def test_technical_noise_moves_estimate_off_grid(self):
        e = make(n=100, seed=6)
        det = DetectionConfig(p=1.0, sigma_tech=0.1)
        _, m = partial_projection(e, det)
        assert m.estimate != 0.0

    def test_estimate_clamped(self):
        e = make(n=100, seed=8)
        det = DetectionConfig(p=1.0, sigma_tech=3.0)
        _, m = partial_projection(e, det)
        assert 0.0 <= m.estimate_clamped <= 1.0

    def test_same_stream_reproduces(self):
        det = DetectionConfig(p=0.3, sigma_tech=0.05)
        r1 = partial_projection(rotate(make(seed=11, n=500), 0.0, 1.0), det)[1]
        r2 = partial_projection(rotate(make(seed=11, n=500), 0.0, 1.0), det)[1]
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.sampled_indices, r2.sampled_indices)

    def test_detection_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(p=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(p=1.2)
        with pytest.raises(ValueError):
            DetectionConfig(sigma_tech=-0.1)
        with pytest.raises(ValueError):
            DetectionConfig(mode="telepathy")


def test_reset_to_ground_keeps_positions():
    e = make(n=40, seed=12)
    det = DetectionConfig(p=0.5, sigma_tech=0.0)
    s, _ = partial_projection(rotate(e, 0.0, 1.2), det)
    back = reset_to_ground(s)
    assert np.all(back.bloch[:, 2] == -1.0)
    assert not back.ever_projected.any()
    assert np.array_equal(back.z_pos, s.z_pos)


def test_excited_population_midpoint():
    e = rotate(make(n=10), 0.0, math.pi / 2)
    assert excited_population(e) == pytest.approx(0.5, abs=1e-12)


def rodrigues(ux, uy, uz, angle):
    """The rotation matrix of ``_turn``, entry by entry in the same arithmetic."""
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [ux * ux + c * (1.0 - ux * ux), t * ux * uy - s * uz, t * ux * uz + s * uy],
            [t * uy * ux + s * uz, uy * uy + c * (1.0 - uy * uy), t * uy * uz - s * ux],
            [t * uz * ux - s * uy, t * uz * uy + s * ux, uz * uz + c * (1.0 - uz * uz)],
        ]
    )


class PerIonReference:
    """One (n, 3) Bloch row per ion: the storage the class table replaces."""

    def __init__(self, n, rng):
        self.bloch = np.zeros((n, 3))
        self.bloch[:, 2] = -1.0
        self.flags = np.zeros(n, dtype=bool)
        self.rng = rng

    def _apply(self, r):
        self.bloch = (self.bloch[:, None, :] * r).sum(axis=2)

    def rotate(self, phase, angle):
        phase = float(phase)
        self._apply(rodrigues(math.cos(phase), math.sin(phase), 0.0, float(angle) % (2.0 * np.pi)))

    def precess(self, inc):
        self._apply(rodrigues(0.0, 0.0, 1.0, float(inc)))

    def project(self, det, sampled=None):
        if sampled is not None:
            idx = np.asarray(sampled, dtype=np.intp)
        elif det.p == 1.0:
            idx = np.arange(len(self.bloch))
        else:
            idx = np.flatnonzero(self.rng.random(len(self.bloch)) < det.p)
        excited = self.rng.random(idx.size) < (1.0 + self.bloch[idx, 2]) / 2.0
        self.bloch = self.bloch.copy()
        self.bloch[idx, :2] = 0.0
        self.bloch[idx, 2] = np.where(excited, 1.0, -1.0)
        self.flags[idx] = True
        estimate = float(excited.mean())
        if det.sigma_tech > 0.0:
            estimate += self.rng.normal(0.0, det.sigma_tech)
        return float(estimate)


def test_class_table_matches_per_ion_reference():
    n = 30
    ops = np.random.default_rng(2024)
    state = make(n=n, seed=14)
    ref = PerIonReference(n, copy.deepcopy(state.rng_stream))
    dropped_rows = False
    for _ in range(600):
        op = ops.choice(
            ["rotate", "precess", "fixed", "explicit", "reset"], p=[0.3, 0.3, 0.15, 0.2, 0.05]
        )
        if op == "rotate":
            phase, angle = ops.uniform(0.0, 7.0, 2)
            state = rotate(state, phase, angle)
            ref.rotate(phase, angle)
        elif op == "precess":
            inc = ops.uniform(-4.0, 4.0)
            state = free_precession(state, inc)
            ref.precess(inc)
        elif op == "reset":
            state = reset_to_ground(state)
            ref = PerIonReference(n, ref.rng)
        else:
            det = DetectionConfig(p=ops.choice([0.3, 0.6, 1.0]), sigma_tech=ops.choice([0.0, 0.1]))
            sampled = None
            if op == "explicit":
                sampled = ops.choice(n, size=ops.integers(1, n + 1), replace=False)
            dropped_rows |= len(state.classes) + 2 > n
            state, m = partial_projection(state, det, sampled=sampled)
            assert m.estimate == ref.project(det, sampled)
        assert np.array_equal(state.bloch, ref.bloch)
        assert np.array_equal(state.ever_projected, ref.flags)
        assert excited_population(state) == float(np.mean((1.0 + ref.bloch[:, 2]) / 2.0))
    assert dropped_rows  # the bound on the table was exercised


def test_class_table_stays_bounded():
    state = make(n=50, seed=15)
    det = DetectionConfig(p=0.3, sigma_tech=0.0)
    for k in range(1000):
        state = free_precession(rotate(state, 0.3 * k, 1.0), 0.1 * k)
        state, _ = partial_projection(state, det)
        assert len(state.classes) <= len(state) + 2


def test_turn_rounds_a_row_the_same_whatever_the_table_size():
    # a BLAS product may round a row differently in a larger array (a 1-row
    # table, as after every reset, takes a matrix-vector kernel); the bits of
    # a class row must not depend on how many rows share the table
    gen = np.random.default_rng(77)
    state = make(n=3, seed=16)
    for _ in range(200):
        axis = gen.normal(size=3)
        ux, uy, uz = (axis / np.linalg.norm(axis)).tolist()
        angle = float(gen.uniform(-7.0, 7.0))
        k = int(gen.integers(1, 4))
        rows = gen.normal(size=(k, 3))
        big = gen.normal(size=(10_007, 3))
        at = int(gen.integers(0, len(big) - k + 1))
        big[at : at + k] = rows
        small = _turn(replace(state, classes=rows), ux, uy, uz, angle).classes
        inside = _turn(replace(state, classes=big), ux, uy, uz, angle).classes[at : at + k]
        assert np.array_equal(small, inside)


def test_full_projection_makes_no_sampling_draw():
    state = rotate(make(n=40, seed=17), 0.0, math.pi / 2)
    twin = copy.deepcopy(state)
    det = DetectionConfig(p=1.0, sigma_tech=0.1)
    state, m = partial_projection(state, det)
    twin, m_explicit = partial_projection(twin, det, sampled=np.arange(40))
    assert m.n_sampled == 40
    assert m.estimate == m_explicit.estimate
    assert state.rng_stream.bit_generator.state == twin.rng_stream.bit_generator.state
