"""Ensemble state, rotations, and partial projection."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.transform import Rotation

from ionclock.ensemble import (
    DetectionConfig,
    EmptySampleError,
    _turn,
    excited_population,
    free_precession,
    initialize_ensemble,
    partial_projection,
    place_ions,
    reset_to_ground,
    rotate,
)
from ionclock.rng import substream


def make(n=16, seed=1, blocks=1):
    return initialize_ensemble(n, substream(seed, "test-ens"), blocks)


def rows(state):
    """The class rows of every block, flattened to (B * k, 3)."""
    return state.classes.reshape(-1, 3)


class TestInitialization:
    def test_ground_state(self):
        e = make(n=50, blocks=3)
        assert e.classes.shape == (3, 1, 3)
        assert np.all(e.classes == [0.0, 0.0, -1.0])
        assert np.all(e.counts == 50)
        assert e.z_pos is None and e.label is None
        assert np.all(excited_population(e) == 0.0)

    def test_positions_inside_cloud(self):
        e = place_ions(make(n=500, blocks=2), 2e-3)
        assert e.z_pos.shape == e.label.shape == (2, 500)
        assert np.all(np.abs(e.z_pos) <= 1e-3)
        # spread should actually fill the cloud
        assert e.z_pos.std() > 1e-4
        assert not e.label.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            initialize_ensemble(0, 1)
        with pytest.raises(ValueError):
            initialize_ensemble(10, 1, blocks=0)
        with pytest.raises(TypeError):
            initialize_ensemble(10, 3e-3, 1)  # the former (n, cloud_length, seed) order
        with pytest.raises(ValueError):
            place_ions(make(n=10), -1.0)
        with pytest.raises(ValueError):
            place_ions(partial_projection(make(n=10), DetectionConfig(p=1.0))[0], 1e-3)

    def test_len_and_ion_view(self):
        e = make(n=7, blocks=3)
        assert len(e) == 21 and type(len(e)) is int
        assert e.classes[1, 0].tolist() == [0.0, 0.0, -1.0]
        assert e.counts.tolist() == [[7]] * 3


class TestRotate:
    def test_pi_pulse_inverts(self):
        s = rotate(make(), 0.0, math.pi)
        assert np.allclose(rows(s)[:, 2], 1.0, atol=1e-12)

    def test_half_pi_at_zero_phase(self):
        s = rotate(make(blocks=2), 0.0, math.pi / 2)
        assert np.allclose(rows(s), [[0.0, 1.0, 0.0]] * 2, atol=1e-12)

    def test_half_pi_at_ninety(self):
        s = rotate(make(), math.pi / 2, math.pi / 2)
        assert np.allclose(rows(s), [[-1.0, 0.0, 0.0]], atol=1e-12)

    def test_matches_rotation_matrix(self):
        # independent right-hand rotation about the in-plane drive axis
        rng = np.random.default_rng(77)
        e = make(n=40, blocks=2)
        state = rotate(free_precession(rotate(e, 0.3, 1.1), [0.7, -0.2]), 1.9, 0.4)
        state = partial_projection(state, DetectionConfig(p=0.5, sigma_tech=0.0))[0]
        for _ in range(25):
            phase = rng.uniform(0, 2 * math.pi)
            angle = rng.uniform(0, 2 * math.pi)
            axis = np.array([math.cos(phase), math.sin(phase), 0.0])
            expected = Rotation.from_rotvec(angle * axis).apply(rows(state))
            got = rows(rotate(state, phase, angle))
            assert np.allclose(got, expected, atol=1e-9)
            state = rotate(state, phase, angle)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = make(n=30, blocks=4)
        for _ in range(50):
            state = rotate(state, rng.uniform(0, 7), rng.uniform(0, 7))
            state = free_precession(state, rng.uniform(-3, 3, 4))
        norms = np.linalg.norm(rows(state), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_additivity(self):
        e = rotate(make(), 0.4, 0.9)
        once = rotate(e, 1.2, 1.7)
        twice = rotate(rotate(e, 1.2, 0.8), 1.2, 0.9)
        assert np.allclose(once.classes, twice.classes, atol=1e-12)

    def test_full_turn_is_identity(self):
        e = rotate(make(), 0.2, 0.6)
        s = rotate(e, 1.0, 2 * math.pi)
        assert np.allclose(s.classes, e.classes, atol=1e-9)

    def test_input_state_not_mutated(self):
        e = make()
        before = e.classes.copy()
        rotate(e, 0.0, math.pi)
        assert np.array_equal(e.classes, before)


class TestFreePrecession:
    def test_matches_z_rotation(self):
        e = rotate(make(), 0.0, math.pi / 2)  # on the equator at +y
        s = free_precession(e, math.pi / 2)
        assert np.allclose(rows(s), [[-1.0, 0.0, 0.0]], atol=1e-12)

    def test_z_component_unchanged(self):
        e = rotate(make(blocks=3), 0.3, 0.7)
        s = free_precession(e, [2.13, -0.4, 7.0])
        assert np.array_equal(s.classes[..., 2], e.classes[..., 2])

    def test_agrees_with_rotation_matrix(self):
        # one increment per block
        incs = np.array([-2.0, 0.0, 0.31, 4.9])
        e = rotate(make(n=20, blocks=4), 0.9, 1.3)
        got = free_precession(e, incs).classes
        for b, inc in enumerate(incs):
            expected = Rotation.from_rotvec([0, 0, inc]).apply(e.classes[b])
            assert np.allclose(got[b], expected, atol=1e-9)


class TestPartialProjection:
    def test_excited_state_reads_one(self):
        e = rotate(make(n=200, blocks=2), 0.0, math.pi)
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        _, m = partial_projection(e, det)
        assert m.estimate.tolist() == [1.0, 1.0]
        assert m.sample_sizes.tolist() == [200, 200]
        assert m.n_sampled == 400 and type(m.n_sampled) is int

    def test_ground_state_reads_zero(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        _, m = partial_projection(make(n=200), det)
        assert m.estimate.tolist() == [0.0]

    def test_equator_is_binomial(self):
        e = rotate(make(n=4000, seed=3, blocks=50), 0.0, math.pi / 2)
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        _, m = partial_projection(e, det)
        sd = 1.0 / (2.0 * math.sqrt(4000))
        assert np.all(np.abs(m.estimate - 0.5) < 5.0 * sd)
        assert m.estimate.std(ddof=1) == pytest.approx(sd, rel=0.3)

    def test_sampled_fraction(self):
        e = make(n=5000, seed=9, blocks=20)
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        s, m = partial_projection(e, det)
        # binomial count around p*n in every block
        assert np.all(np.abs(m.sample_sizes - 900) < 5 * math.sqrt(5000 * 0.18 * 0.82))
        assert np.array_equal(5000 - s.counts[:, 0], m.sample_sizes)
        assert np.array_equal(s.counts[:, 1:].sum(axis=1), m.sample_sizes)
        assert m.sampled_indices.size == 0  # counts, not ions

    def test_collapse_is_projective(self):
        e = rotate(make(n=300, seed=4, blocks=3), 0.0, math.pi / 2)
        det = DetectionConfig(p=0.5, sigma_tech=0.0)
        s, m = partial_projection(e, det)
        assert np.array_equal(s.classes[:, 1:], np.tile([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], (3, 1, 1)))
        # the rest keep their coherence
        assert np.array_equal(s.classes[:, :1], e.classes)
        assert np.array_equal(m.estimate, s.counts[:, 1] / m.sample_sizes)

    def test_explicit_sample_override(self):
        e = place_ions(make(n=50, blocks=2), 3e-3)
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        mask = np.zeros((2, 50), dtype=bool)
        mask[0, [1, 5, 7]] = True
        mask[1, 0] = True
        s, m = partial_projection(e, det, sampled=mask)
        assert m.n_sampled == 4
        assert m.sample_sizes.tolist() == [3, 1]
        assert sorted(m.sampled_indices.tolist()) == [1, 5, 7, 50]
        assert np.array_equal(s.label != 0, mask)
        assert np.array_equal(s.counts, [np.bincount(row, minlength=3) for row in s.label])

    def test_empty_sample_raises(self):
        e = place_ions(make(blocks=2), 3e-3)
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        mask = np.zeros((2, 16), dtype=bool)
        mask[0, 3] = True  # block 1 samples nothing
        with pytest.raises(EmptySampleError):
            partial_projection(e, det, sampled=mask)
        with pytest.raises(ValueError):
            partial_projection(e, det)  # labelled ions need the sample
        with pytest.raises(ValueError):
            partial_projection(make(), det, sampled=mask[:1])  # counts take no mask
        with pytest.raises(ValueError):
            partial_projection(e, det, sampled=mask[:, :8])  # one flag per ion

    def test_technical_noise_moves_estimate_off_grid(self):
        e = make(n=100, seed=6)
        det = DetectionConfig(p=1.0, sigma_tech=0.1)
        _, m = partial_projection(e, det)
        assert m.estimate[0] != 0.0

    def test_same_stream_reproduces(self):
        det = DetectionConfig(p=0.3, sigma_tech=0.05)
        s1, r1 = partial_projection(rotate(make(seed=11, n=500, blocks=5), 0.0, 1.0), det)
        s2, r2 = partial_projection(rotate(make(seed=11, n=500, blocks=5), 0.0, 1.0), det)
        assert np.array_equal(r1.estimate, r2.estimate)
        assert np.array_equal(s1.counts, s2.counts)

    def test_detection_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(p=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(p=1.2)
        with pytest.raises(ValueError):
            DetectionConfig(sigma_tech=-0.1)


def test_reset_to_ground_keeps_positions():
    e = place_ions(make(n=40, seed=12, blocks=2), 3e-3)
    det = DetectionConfig(p=0.5, sigma_tech=0.0)
    s, _ = partial_projection(rotate(e, 0.0, 1.2), det, sampled=e.z_pos > 0)
    back = reset_to_ground(s)
    assert np.all(back.classes == [0.0, 0.0, -1.0]) and back.classes.shape == (2, 1, 3)
    assert back.counts.tolist() == [[40], [40]]
    assert not back.label.any()
    assert np.array_equal(back.z_pos, s.z_pos)


def test_excited_population_midpoint():
    e = rotate(make(n=10, blocks=2), 0.0, math.pi / 2)
    assert excited_population(e) == pytest.approx([0.5, 0.5], abs=1e-12)
    s, _ = partial_projection(e, DetectionConfig(p=0.5, sigma_tech=0.0))
    mixed = (0.5 * s.counts[:, 0] + s.counts[:, 1]) / 10
    assert excited_population(s) == pytest.approx(mixed, abs=1e-12)


def rodrigues(ux, uy, uz, angle):
    """The rotation matrix of ``_turn``, entry by entry in the same arithmetic.

    cos and sin come from numpy's array loops, as the batch takes them.
    """
    c, s = (float(f(np.array([angle]))[0]) for f in (np.cos, np.sin))
    t = 1.0 - c
    return np.array(
        [
            [ux * ux + c * (1.0 - ux * ux), t * ux * uy - s * uz, t * ux * uz + s * uy],
            [t * uy * ux + s * uz, uy * uy + c * (1.0 - uy * uy), t * uy * uz - s * ux],
            [t * uz * ux - s * uy, t * uz * uy + s * ux, uz * uz + c * (1.0 - uz * uz)],
        ]
    )


class PerIonReference:
    """One (n, 3) Bloch row per ion and one draw per ion: what the class table replaces.

    ``label`` numbers the ions' classes as the table does: 0 until an
    ion is projected, then 1 + 2 r for excited and 2 + 2 r for ground
    at the r-th readout since the last reset (r from 0).
    """

    def __init__(self, n, rng):
        self.bloch = np.zeros((n, 3))
        self.bloch[:, 2] = -1.0
        self.label = np.zeros(n, dtype=np.intp)
        self.readouts = 0
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
        self.label[idx] = np.where(excited, 1, 2) + 2 * self.readouts
        self.readouts += 1
        estimate = float(excited.mean())
        if det.sigma_tech > 0.0:
            estimate += self.rng.normal(0.0, det.sigma_tech)
        return float(estimate)


# a fixed pulse and readout sequence: ("rotate", phase, angle), ("precess",
# increment) and ("project", p, sigma_tech); the p = 1 readout is the
# standard-Ramsey path and empties every earlier class
SEQUENCE = (
    ("rotate", 0.0, 1.1),
    ("project", 0.3, 0.0),
    ("precess", 0.7),
    ("rotate", math.pi / 2, 0.9),
    ("project", 0.6, 0.1),
    ("rotate", 0.4, 2.0),
    ("precess", -1.3),
    ("project", 1.0, 0.05),
)


def test_class_table_matches_per_ion_reference():
    # The batch draws class counts binomially, the reference one uniform
    # per ion, so they agree in distribution, not draw for draw. After
    # each readout, every class count and the estimate of a 30-ion
    # ensemble are compared between 40,000 blocks of one batch and 3000
    # reference runs, each by a Welch z test of the means and a two-sample
    # KS test. Significance, fixed before the first run: 1e-3 for the
    # whole family of 2 x (3 + 5 + 7 + 3) = 36 tests, so 1e-3 / 36 each
    # (Bonferroni). A quantity that is constant on both sides (the classes
    # the p = 1 readout empties) must be the same constant instead.
    n, blocks, runs = 30, 40_000, 3000
    alpha = 1e-3 / 36

    state = make(n=n, seed=14, blocks=blocks)
    table = []
    for op, *args in SEQUENCE:
        if op == "rotate":
            state = rotate(state, *args)
        elif op == "precess":
            state = free_precession(state, *args)
        else:
            state, m = partial_projection(state, DetectionConfig(p=args[0], sigma_tech=args[1]))
            table += list(state.counts.T) + [m.estimate]
    # class rows are deterministic: every block holds the same table
    assert np.array_equal(state.classes, np.broadcast_to(state.classes[0], state.classes.shape))

    reference = np.empty((runs, len(table)))
    for i in range(runs):
        ref = PerIonReference(n, substream(14, "reference", i))
        out = []
        for op, *args in SEQUENCE:
            if op == "rotate":
                ref.rotate(*args)
            elif op == "precess":
                ref.precess(*args)
            else:
                est = ref.project(DetectionConfig(p=args[0], sigma_tech=args[1]))
                out += list(np.bincount(ref.label, minlength=1 + 2 * ref.readouts)) + [est]
        reference[i] = out
        # and bitwise what the per-ion rows hold
        assert np.array_equal(ref.bloch, state.classes[0, ref.label])

    assert len(table) == 18
    for j, x in enumerate(table):
        y = reference[:, j]
        if x.min() == x.max() and y.min() == y.max():
            assert x[0] == y[0], f"quantity {j}"
            continue
        z = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        assert 2.0 * stats.norm.sf(abs(z)) > alpha, f"quantity {j}: mean z = {z:.2f}"
        assert stats.ks_2samp(x, y).pvalue > alpha, f"quantity {j}: KS"


def test_beam_sample_matches_per_ion_reference_draw_for_draw():
    # a given sample collapses one ion per draw, in ion order, as the reference does
    n = 30
    ops = np.random.default_rng(2024)
    state = place_ions(make(n=n, seed=14), 3e-3)
    ref = PerIonReference(n, copy.deepcopy(state.rng_stream))
    for _ in range(600):
        op = ops.choice(["rotate", "precess", "project", "reset"], p=[0.35, 0.35, 0.25, 0.05])
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
            det = DetectionConfig(sigma_tech=ops.choice([0.0, 0.1]))
            idx = np.sort(ops.choice(n, size=ops.integers(1, n + 1), replace=False))
            mask = np.zeros((1, n), dtype=bool)
            mask[0, idx] = True
            state, m = partial_projection(state, det, sampled=mask)
            assert m.estimate[0] == ref.project(det, idx)
            assert np.array_equal(m.sampled_indices, idx)
        assert np.array_equal(state.classes[0, state.label[0]], ref.bloch)
        assert np.array_equal(state.label[0], ref.label)
        assert np.array_equal(state.counts[0], np.bincount(ref.label, minlength=state.counts.shape[1]))
        assert excited_population(state)[0] == pytest.approx(np.mean((1.0 + ref.bloch[:, 2]) / 2.0), abs=1e-12)


def test_class_table_stays_bounded():
    # no row is ever dropped: each readout appends two, whatever the ion count
    for n in (50, 10**6):
        state = make(n=n, seed=15, blocks=3)
        det = DetectionConfig(p=0.3, sigma_tech=0.0)
        for k in range(1, 201):
            state = free_precession(rotate(state, 0.3 * k, 1.0), 0.1 * k)
            state, _ = partial_projection(state, det)
            assert state.classes.shape == (3, 1 + 2 * k, 3)
            assert state.counts.sum(axis=1).tolist() == [n] * 3


def test_turn_rounds_a_row_the_same_whatever_the_table_size():
    # a BLAS product may round a row differently in a larger array (a 1-row
    # table, as after every reset, takes a matrix-vector kernel); the bits of
    # a class row must not depend on how many rows or blocks share the table
    gen = np.random.default_rng(77)
    state = make(n=3, seed=16)
    for _ in range(200):
        axis = gen.normal(size=3)
        ux, uy, uz = (axis / np.linalg.norm(axis)).tolist()
        angles = gen.uniform(-7.0, 7.0, 40)
        k = int(gen.integers(1, 4))
        rows = gen.normal(size=(k, 3))
        big = gen.normal(size=(40, 250, 3))
        b, at = int(gen.integers(0, 40)), int(gen.integers(0, 250 - k + 1))
        big[b, at : at + k] = rows
        small = _turn(replace(state, classes=rows[None]), ux, uy, uz, angles[b]).classes[0]
        inside = _turn(replace(state, classes=big), ux, uy, uz, angles).classes[b, at : at + k]
        assert np.array_equal(small, inside)


def test_full_projection_makes_no_sampling_draw():
    # at p = 1 the only draws are the collapse of each class and the noise
    state = rotate(make(n=40, seed=17, blocks=3), 0.0, math.pi / 2)
    twin = copy.deepcopy(state.rng_stream)
    det = DetectionConfig(p=1.0, sigma_tech=0.1)
    state, m = partial_projection(state, det)
    excited = twin.binomial(40, np.clip((1.0 + state.classes[:, :1, 2]) / 2.0, 0.0, 1.0))
    assert m.sample_sizes.tolist() == [40] * 3
    assert np.array_equal(m.estimate, excited[:, 0] / 40 + twin.normal(0.0, 0.1, 3))
    assert state.rng_stream.bit_generator.state == twin.bit_generator.state
