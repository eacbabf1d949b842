"""Attractor rule tests: each rule against its definition on small
hand-built swarms, plus the centroid and noise-scale identities."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pao.attractors import (
    AttractorSpec,
    DE_WEIGHT,
    DRAWING_KINDS,
    VALID_KINDS,
    _RULES,
    _de_donors,
    _donor_bounds,
    _fitness_weighted_mean,
    _stiffness_row,
    compute_attractors,
    decode_donors,
    draw_donors,
    noise_scale,
    particle_mean,
    weighted_centroid,
)


def make_swarm(positions, fitness=None, local_best_pos=None, global_best_pos=None):
    positions = np.asarray(positions, dtype=float)
    if fitness is None:
        fitness = (positions**2).sum(axis=1)
    fitness = np.asarray(fitness, dtype=float)
    if local_best_pos is None:
        local_best_pos = positions.copy()
    if global_best_pos is None:
        global_best_pos = local_best_pos[np.argmin(fitness)].copy()
    return SimpleNamespace(
        positions=positions,
        velocities=np.zeros_like(positions),
        fitness=fitness,
        local_best_pos=np.asarray(local_best_pos, dtype=float),
        global_best_pos=np.asarray(global_best_pos, dtype=float),
    )


def reference_draw_donors(n, size, rng):
    """The donor draw with one ``rng.integers`` call per pick, a growing
    column stack and a sort of every taken set, the form the block draw must
    reproduce index for index and draw for draw."""
    taken = np.arange(n)[:, None]
    for t in range(size):
        pick = rng.integers(n - 1 - t, size=n)
        for excluded in np.sort(taken, axis=1).T:
            pick += pick >= excluded
        taken = np.column_stack((taken, pick))
    return taken[:, 1:]


def reference_compute_attractors(swarm, specs, rng):
    """The attractor tensor from an if-chain over the kinds, the form the
    kind -> rule table must reproduce bit for bit and draw for draw."""
    positions = swarm.positions
    n, d = positions.shape
    alpha = np.empty((len(specs), n, d))
    for s, spec in enumerate(specs):
        if spec.kind == "globalbest":
            alpha[s] = swarm.global_best_pos
        elif spec.kind == "localbest":
            alpha[s] = swarm.local_best_pos
        elif spec.kind == "averagelocalbest":
            alpha[s] = particle_mean(swarm.local_best_pos)
        elif spec.kind == "averageparticle":
            alpha[s] = particle_mean(positions)
        elif spec.kind == "weightedaverageparticle":
            alpha[s] = _fitness_weighted_mean(positions, swarm.fitness)
        elif spec.kind == "derand1bin":
            alpha[s] = _de_donors(positions, rng)
        elif spec.kind == "stochasticgaussian":
            alpha[s] = swarm.global_best_pos + spec.stddev * rng.standard_normal((n, d))
    return alpha


class TestSpec:
    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_parse_label_round_trip(self, kind):
        spec = AttractorSpec.parse(kind)
        assert spec.kind == kind
        assert AttractorSpec.parse(spec.label()) == spec

    def test_parse_with_stddev(self):
        spec = AttractorSpec.parse("stochasticgaussian:0.25")
        assert spec == AttractorSpec("stochasticgaussian", stddev=0.25)
        assert spec.label() == "stochasticgaussian:0.25"

    def test_kind_normalised(self):
        assert AttractorSpec(" GlobalBest ").kind == "globalbest"

    def test_unknown_kind(self):
        error = f"attractor kind must be one of {VALID_KINDS}, got 'bestglobal'"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            AttractorSpec("bestglobal")

    def test_negative_stddev(self):
        with pytest.raises(ValueError, match="stddev"):
            AttractorSpec("stochasticgaussian", stddev=-1.0)

    @pytest.mark.parametrize("sd", [np.nan, np.inf, -np.inf])
    def test_non_finite_stddev(self, sd):
        with pytest.raises(ValueError, match=r"attractor spec stochasticgaussian:.*stddev"):
            AttractorSpec("stochasticgaussian", stddev=sd)

    @pytest.mark.parametrize("text", ["stochasticgaussian:nan", "stochasticgaussian:inf"])
    def test_parse_rejects_non_finite_stddev(self, text):
        with pytest.raises(ValueError, match=r"attractor spec stochasticgaussian:.*stddev"):
            AttractorSpec.parse(text)

    @pytest.mark.parametrize("text", ["globalbest:0.5", "derand1bin:1.0", " LocalBest :2"])
    def test_parse_rejects_argument_of_kind_without_one(self, text):
        with pytest.raises(ValueError, match=f"attractor spec {text!r}: .* takes no argument"):
            AttractorSpec.parse(text)

    @pytest.mark.parametrize("kind", [k for k in VALID_KINDS if k != "stochasticgaussian"])
    def test_rejects_a_spread_on_a_kind_without_one(self, kind):
        # it ran as the default spec, yet compared unequal to it
        error = f"attractor spec {kind}: {kind} takes no argument, got stddev 2.0"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            AttractorSpec(kind, 2.0)
        assert AttractorSpec(kind, 1.0) == AttractorSpec(kind)

    @pytest.mark.parametrize("text", ["globalbest:", "stochasticgaussian:", "derand1bin: ", "localbest:\t"])
    def test_parse_rejects_empty_argument(self, text):
        with pytest.raises(ValueError, match=re.escape(f"attractor spec {text!r}: nothing follows")):
            AttractorSpec.parse(text)

    @pytest.mark.parametrize("text", [1, None, ["globalbest"]], ids=repr)
    def test_parse_rejects_a_non_string(self, text):
        # 1 raised a bare AttributeError that named no setting
        with pytest.raises(ValueError, match=f"^{re.escape(f'attractor spec must be a string, got {text!r}')}$"):
            AttractorSpec.parse(text)

    @given(st.floats(0.0, 10.0))
    def test_label_round_trips_stddev(self, sd):
        spec = AttractorSpec("stochasticgaussian", stddev=sd)
        assert AttractorSpec.parse(spec.label()) == spec


class TestRules:
    def setup_method(self):
        self.swarm = make_swarm(
            positions=[[0.0, 0.0], [1.0, 2.0], [4.0, -2.0], [-1.0, 1.0], [2.0, 2.0]],
            fitness=[5.0, 1.0, 9.0, 3.0, 7.0],
            local_best_pos=[[0.0, 0.1], [1.0, 2.0], [3.0, -2.0], [-1.0, 0.5], [2.0, 1.0]],
            global_best_pos=[1.0, 2.0],
        )
        self.rng = np.random.default_rng(0)

    def one(self, kind, **kwargs):
        alpha = compute_attractors(self.swarm, [AttractorSpec(kind, **kwargs)], self.rng)
        assert alpha.shape == (1, 5, 2)
        return alpha[0]

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_exactly_the_drawing_kinds_touch_the_generator(self, kind):
        # a run draws its noise ahead only under a menu of kinds that do not
        # draw, so a kind that draws must be marked as drawing
        class Touched(Exception):
            pass

        class Untouchable:
            def __getattr__(self, name):
                raise Touched(name)

        try:
            _RULES[kind](self.swarm, AttractorSpec(kind), Untouchable())
            touched = False
        except Touched:
            touched = True
        assert touched == (kind in DRAWING_KINDS)

    def test_globalbest(self):
        np.testing.assert_array_equal(self.one("globalbest"), np.tile([1.0, 2.0], (5, 1)))

    def test_localbest(self):
        np.testing.assert_array_equal(self.one("localbest"), self.swarm.local_best_pos)

    def test_averagelocalbest(self):
        expected = self.swarm.local_best_pos.mean(axis=0)
        np.testing.assert_allclose(self.one("averagelocalbest"), np.tile(expected, (5, 1)))

    def test_averageparticle(self):
        expected = self.swarm.positions.mean(axis=0)
        np.testing.assert_allclose(self.one("averageparticle"), np.tile(expected, (5, 1)))

    def test_weightedaverage_uniform_when_fitness_flat(self):
        self.swarm.fitness = np.full(5, 3.3)
        got = self.one("weightedaverageparticle")
        np.testing.assert_allclose(got, np.tile(self.swarm.positions.mean(axis=0), (5, 1)))

    def test_weightedaverage_prefers_fitter(self):
        got = self.one("weightedaverageparticle")[0]
        plain_mean = self.swarm.positions.mean(axis=0)
        best = self.swarm.positions[np.argmin(self.swarm.fitness)]
        # the weighted mean sits strictly closer to the best particle
        assert np.linalg.norm(got - best) < np.linalg.norm(plain_mean - best)

    def test_weightedaverage_in_convex_hull(self):
        got = self.one("weightedaverageparticle")[0]
        pos = self.swarm.positions
        assert np.all(got >= pos.min(axis=0) - 1e-12)
        assert np.all(got <= pos.max(axis=0) + 1e-12)

    def test_derand1bin_membership(self):
        # every donor must be p_a + W (p_b - p_c) for distinct a,b,c != i
        pos = self.swarm.positions
        donors = self.one("derand1bin")
        for i in range(5):
            others = [j for j in range(5) if j != i]
            candidates = [
                pos[a] + DE_WEIGHT * (pos[b] - pos[c])
                for a in others
                for b in others
                for c in others
                if len({a, b, c}) == 3
            ]
            assert any(np.allclose(donors[i], c, atol=1e-12) for c in candidates)

    def test_derand1bin_degenerate_swarm(self):
        swarm = make_swarm(np.tile([2.0, -1.0], (6, 1)))
        alpha = compute_attractors(swarm, [AttractorSpec("derand1bin")], self.rng)
        np.testing.assert_allclose(alpha[0], np.tile([2.0, -1.0], (6, 1)))

    def test_derand1bin_needs_four(self):
        swarm = make_swarm([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="at least 4"):
            compute_attractors(swarm, [AttractorSpec("derand1bin")], self.rng)

    def test_stochasticgaussian_zero_std_is_globalbest(self):
        got = self.one("stochasticgaussian", stddev=0.0)
        np.testing.assert_array_equal(got, np.tile([1.0, 2.0], (5, 1)))

    def test_stochasticgaussian_spread(self):
        swarm = make_swarm(np.zeros((4000, 2)), global_best_pos=[3.0, -1.0])
        alpha = compute_attractors(
            swarm, [AttractorSpec("stochasticgaussian", stddev=0.5)], self.rng
        )
        dev = alpha[0] - [3.0, -1.0]
        assert abs(dev.mean()) < 0.02
        assert dev.std() == pytest.approx(0.5, rel=0.05)

    def test_multiple_specs_stack(self):
        alpha = compute_attractors(
            self.swarm, [AttractorSpec("localbest"), AttractorSpec("globalbest")], self.rng
        )
        assert alpha.shape == (2, 5, 2)
        np.testing.assert_array_equal(alpha[0], self.swarm.local_best_pos)
        np.testing.assert_array_equal(alpha[1], np.tile(self.swarm.global_best_pos, (5, 1)))


class TestMatchesReference:
    @pytest.mark.parametrize(
        "menu",
        [[kind] for kind in VALID_KINDS]
        + [["derand1bin", "stochasticgaussian:0.5"], ["stochasticgaussian", "derand1bin"], list(VALID_KINDS)],
    )
    @pytest.mark.parametrize("n, d", [(4, 1), (5, 3), (30, 8)])
    def test_bytes_and_draws_match(self, menu, n, d):
        specs = [AttractorSpec.parse(text) for text in menu]
        for seed in range(3):
            init = np.random.default_rng(seed)
            positions = init.uniform(-5.0, 5.0, (n, d))
            local_best_pos = init.uniform(-5.0, 5.0, (n, d))
            fitness = init.uniform(0.0, 100.0, n)
            swarm = make_swarm(positions, fitness, local_best_pos, local_best_pos[np.argmin(fitness)].copy())
            rng, twin = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            got = compute_attractors(swarm, specs, rng)
            want = reference_compute_attractors(swarm, specs, twin)
            assert got.shape == want.shape == (len(specs), n, d)
            assert got.tobytes() == want.tobytes()
            # both consumed the same draws, so the next one agrees too
            assert rng.random() == twin.random()


class TestDonorDraw:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
    def test_rows_are_distinct_others_in_range(self, seed, n, size):
        size = min(size, n - 1)
        idx = draw_donors(n, size, np.random.default_rng(seed))
        assert idx.shape == (n, size)
        assert idx.min() >= 0 and idx.max() < n
        for i, row in enumerate(idx):
            assert len(set(row)) == size and i not in row

    @pytest.mark.parametrize("n, size", [(4, 3), (5, 4)])
    def test_floor_sizes_take_every_other_index(self, n, size):
        rng = np.random.default_rng(3)
        for _ in range(20):
            for i, row in enumerate(draw_donors(n, size, rng)):
                assert sorted(row) == [j for j in range(n) if j != i]

    @pytest.mark.parametrize("n", [4, 5, 20, 100, 1000])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_reference_draw(self, n, size):
        for seed in range(6):
            if n <= size:  # no size distinct others exist: both reject it
                for draw in (draw_donors, reference_draw_donors):
                    with pytest.raises(ValueError):
                        draw(n, size, np.random.default_rng(seed))
                continue
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = draw_donors(n, size, ours)
            want = reference_draw_donors(n, size, theirs)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            # the one block call leaves the stream where the per-pick calls do
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n, size", [(n, size) for n in (4, 5, 100, 1000) for size in (1, 2, 3, 4) if n > size])
    def test_decoding_a_stack_of_runs_matches_one_call_per_run(self, n, size):
        runs = 5
        stack = np.stack([np.random.default_rng(r).integers(_donor_bounds(n, size)) for r in range(runs)])
        got = decode_donors(stack)
        assert got is stack and got.shape == (runs, size, n)
        for r in range(runs):
            want = draw_donors(n, size, np.random.default_rng(r))
            assert got[r].T.dtype == want.dtype
            np.testing.assert_array_equal(got[r].T, want)

    def test_the_cached_bounds_are_read_only(self):
        bounds = _donor_bounds(100, 3)
        assert _donor_bounds(100, 3) is bounds and not bounds.flags.writeable
        np.testing.assert_array_equal(bounds, np.repeat([[99], [98], [97]], 100, axis=1))
        with pytest.raises(ValueError, match="read-only"):
            bounds[0, 0] = 0

    def test_ordered_triples_are_uniform(self):
        # chi-squared over the 24 ordered triples of each row at n = 5; 49.73
        # is the 0.999 quantile of chi2 with 23 degrees of freedom
        rng = np.random.default_rng(11)
        draws = np.array([draw_donors(5, 3, rng) for _ in range(4800)])
        for i in range(5):
            _, counts = np.unique(draws[:, i], axis=0, return_counts=True)
            assert len(counts) == 24
            assert ((counts - 200.0) ** 2 / 200.0).sum() < 49.73


class TestCentroidAndNoise:
    def test_centroid_equal_weights_is_mean(self):
        alpha = np.array([np.zeros((3, 2)), np.full((3, 2), 4.0)])
        np.testing.assert_allclose(weighted_centroid(alpha, (1.0, 1.0)), np.full((3, 2), 2.0))

    def test_centroid_weighting(self):
        alpha = np.array([np.zeros((2, 2)), np.full((2, 2), 4.0)])
        np.testing.assert_allclose(weighted_centroid(alpha, (3.0, 1.0)), np.full((2, 2), 1.0))

    def test_centroid_zero_weight_drops_slice(self):
        alpha = np.array([np.full((2, 2), 7.0), np.full((2, 2), 100.0)])
        np.testing.assert_allclose(weighted_centroid(alpha, (2.0, 0.0)), np.full((2, 2), 7.0))

    # a negative stiffness put the centroid outside its attractors, an
    # infinite one made it NaN
    @pytest.mark.parametrize("k", [(0.0,), (3.0, -1.0), (np.inf, 1.0)])
    def test_centroid_rejects_zero_total(self, k):
        alpha = np.stack([np.zeros((2, 2)), np.ones((2, 2))])[: len(k)]
        with pytest.raises(ValueError, match="stiffness > 0"):
            weighted_centroid(alpha, k)

    @given(st.integers(0, 2**32 - 1))
    def test_centroid_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.normal(size=(3, 4, 2))
        k = tuple(rng.uniform(0.1, 2.0, size=3))
        ref = sum(k[r] * alpha[r] for r in range(3)) / sum(k)
        np.testing.assert_allclose(weighted_centroid(alpha, k), ref, atol=1e-12)

    @given(st.integers(1, 4), st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_centroid_bits_match_tensordot(self, r, n, d, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.normal(scale=rng.uniform(0.1, 1e3), size=(r, n, d))
        k = rng.uniform(0.05, 4.0, size=r)
        want = np.tensordot(k, alpha, axes=(0, 0)) / k.sum()
        got = weighted_centroid(alpha, tuple(k))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "shape, k",
        [((2, 2), (1.0, 1.0)), ((2, 3, 2), (1.0,)), ((1, 3, 2), (1.0, 2.0))],
        ids=["alpha-not-3d", "more-slices-than-k", "more-k-than-slices"],
    )
    def test_centroid_rejects_shape_mismatch(self, shape, k):
        with pytest.raises(ValueError, match=r"\(r, N, D\) attractors, r stiffnesses"):
            weighted_centroid(np.zeros(shape), k)

    @pytest.mark.parametrize(
        "k", [(1, 1), (3.0, 1.0), (2.0, 0.0), (1.0, 1.5, 0.25), np.array([1.0, 1.5, 0.25]), [0.5, 2]], ids=repr
    )
    def test_centroid_bits_match_the_uncached_product(self, k):
        # the product with k read afresh on every call, as it was before the
        # stiffness row was cached; the second call reads the cached row
        alpha = np.random.default_rng(5).normal(scale=30.0, size=(len(k), 7, 3))
        row = np.asarray(k, dtype=float)
        want = np.dot(row[None, :], alpha.reshape(len(k), -1)).reshape(alpha.shape[1:]) / np.add.reduce(row)
        for _ in range(2):
            got = weighted_centroid(alpha, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [(3.0, -1.0), (np.nan, 1.0), (0.0, 0.0), np.array([[1.0, 1.0]]), 2.0])
    def test_centroid_rejects_a_bad_k_on_every_call(self, k):
        alpha = np.ones((2, 3, 2))
        kept = _stiffness_row.cache_info().currsize
        error = (
            "need (r, N, D) attractors, r stiffnesses, each finite and >= 0, and a total stiffness > 0; "
            f"got alpha of shape (2, 3, 2) and k = {np.asarray(k, dtype=float).tolist()}"
        )
        for _ in range(3):
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                weighted_centroid(alpha, k)
        assert _stiffness_row.cache_info().currsize == kept

    def test_the_cached_stiffness_row_is_read_only(self):
        row, total = _stiffness_row((3.0, 1.0))
        assert _stiffness_row((3.0, 1.0))[0] is row
        assert row.shape == (1, 2) and row.tolist() == [[3.0, 1.0]] and total == 4.0
        with pytest.raises(ValueError, match="read-only"):
            row[0, 0] = 0.0

    def test_a_negative_zero_stiffness_shares_its_entry(self):
        # -0.0 == 0.0, so both read one cache entry, which holds +0.0
        # whichever came first
        for k in ((1.0, -0.0), (1.0, 0.0)):
            assert np.signbit(_stiffness_row(k)[0]).tolist() == [[False, False]]

    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_noise_scale_bits_match_mean_formula(self, n, d, seed):
        rng = np.random.default_rng(seed)
        swarm = make_swarm(rng.normal(scale=rng.uniform(0.1, 1e3), size=(n, d)))
        diff = swarm.positions.mean(axis=0) - swarm.global_best_pos
        assert np.float64(noise_scale(swarm)).tobytes() == np.float64(diff @ diff).tobytes()

    @given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_particle_mean_bits_match_mean(self, r, n, d, seed):
        # the (N, D) swarm and a stack of r of them
        x = np.random.default_rng(seed).normal(scale=50.0, size=(r, n, d))
        for arr in (x[0], x):
            assert particle_mean(arr).tobytes() == arr.mean(axis=-2).tobytes()

    def test_noise_scale_hand_value(self):
        swarm = make_swarm([[0.0, 0.0], [2.0, 4.0]], global_best_pos=[0.0, 0.0])
        # mean position (1, 2) minus gbest (0, 0): 1 + 4 = 5
        assert noise_scale(swarm) == pytest.approx(5.0)

    def test_noise_scale_zero_at_collapse(self):
        swarm = make_swarm(np.tile([1.5, -0.5], (4, 1)), global_best_pos=[1.5, -0.5])
        assert noise_scale(swarm) == 0.0

    def test_noise_scale_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            swarm = make_swarm(rng.normal(size=(6, 3)))
            assert noise_scale(swarm) >= 0.0
