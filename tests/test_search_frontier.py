"""Dominance pruning (`repro.search.frontier`) against the brute-force
oracle: the vectorized sweep, the two-objective prefix-min fast path,
and the scalar fallback must all keep exactly the pairwise-non-dominated
subset, ties and duplicates included."""

import random
import tracemalloc

import pytest

import repro.search.frontier as frontier
from repro.errors import InvalidParameterError
from repro.search.frontier import (
    DEFAULT_BLOCK_SIZE,
    FrontierAccumulator,
    non_dominated,
    non_dominated_mask,
)


def _brute_force(scores):
    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    return [
        not any(
            dominates(other, row)
            for other in scores
            if other is not row
        )
        for row in scores
    ]


def _random_scores(rng, count, width, grid):
    """Coarse integer grid so ties and exact duplicates are common."""
    return [
        tuple(float(rng.randrange(grid)) for _ in range(width))
        for _ in range(count)
    ]


class TestMaskMatchesBruteForce:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("block_size", [1, 2, 7, DEFAULT_BLOCK_SIZE])
    def test_fuzz(self, width, block_size):
        rng = random.Random(width * 1000 + block_size)
        for trial in range(25):
            scores = _random_scores(
                rng, count=rng.randrange(1, 60), width=width,
                grid=rng.choice([2, 4, 10]),
            )
            assert non_dominated_mask(scores, block_size) == _brute_force(
                scores
            ), (width, block_size, trial, scores)

    def test_duplicates_all_survive(self):
        scores = [(1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (3.0, 3.0)]
        assert non_dominated_mask(scores) == [True, True, True, False]

    def test_single_candidate_kept(self):
        assert non_dominated_mask([(5.0, 5.0)]) == [True]

    def test_empty_input(self):
        assert non_dominated_mask([]) == []
        assert non_dominated([]) == []

    def test_classic_staircase(self):
        scores = [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0),
                  (3.0, 3.0), (4.0, 4.0)]
        assert non_dominated(scores) == [0, 1, 2, 3]

    @pytest.mark.skipif(frontier._np is None, reason="needs numpy")
    def test_accepts_numpy_arrays(self):
        table = frontier._np.asarray(
            [(1.0, 4.0), (2.0, 3.0), (2.0, 5.0)], dtype=float
        )
        assert non_dominated_mask(table) == [True, True, False]


class TestScalarFallback:
    @pytest.mark.skipif(frontier._np is None, reason="needs numpy")
    @pytest.mark.parametrize("width", [2, 3])
    def test_scalar_path_agrees_with_numpy(self, width, request):
        rng = random.Random(width)
        cases = [
            _random_scores(rng, rng.randrange(1, 50), width, grid=5)
            for _ in range(15)
        ]
        vectorized = [non_dominated_mask(scores) for scores in cases]
        request.getfixturevalue("no_numpy")
        assert [non_dominated_mask(scores) for scores in cases] == vectorized

    def test_scalar_matches_brute_force(self, no_numpy):
        rng = random.Random(7)
        for _ in range(20):
            scores = _random_scores(rng, rng.randrange(1, 40), 3, grid=4)
            assert non_dominated_mask(scores) == _brute_force(scores)


class TestValidation:
    def test_zero_objectives_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            non_dominated_mask([(), ()])

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_bad_block_size_rejected(self, block_size):
        with pytest.raises(InvalidParameterError, match="block_size"):
            non_dominated_mask([(1.0, 2.0)], block_size)


class TestFrontierAccumulator:
    def test_shuffled_blocks_match_one_shot(self):
        rng = random.Random(42)
        scores = _random_scores(rng, 200, 2, grid=12)
        expected = {
            index for index, kept in enumerate(non_dominated_mask(scores))
            if kept
        }
        indices = list(range(len(scores)))
        rng.shuffle(indices)
        accumulator = FrontierAccumulator()
        for start in range(0, len(indices), 17):
            chunk = indices[start:start + 17]
            accumulator.add(
                [scores[index] for index in chunk], chunk
            )
        assert set(accumulator.members()) == expected
        assert len(accumulator) == len(expected)

    def test_members_keep_insertion_order(self):
        accumulator = FrontierAccumulator()
        accumulator.add([(1.0, 4.0), (4.0, 1.0)], ["a", "b"])
        accumulator.add([(2.0, 2.0)], ["c"])
        assert accumulator.members() == ["a", "b", "c"]

    def test_later_block_can_evict(self):
        accumulator = FrontierAccumulator()
        accumulator.add([(3.0, 3.0)], ["loser"])
        accumulator.add([(1.0, 1.0)], ["winner"])
        assert accumulator.members() == ["winner"]

    def test_empty_add_is_noop(self):
        accumulator = FrontierAccumulator()
        accumulator.add([], [])
        assert accumulator.members() == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError, match="equal length"):
            FrontierAccumulator().add([(1.0, 2.0)], [])


@pytest.fixture(params=["numpy", "no numpy"])
def numpy_mode(request):
    """Runs a test with numpy and again on the scalar fallbacks."""
    if request.param == "numpy":
        if frontier._np is None:
            pytest.skip("needs numpy")
    else:
        request.getfixturevalue("no_numpy")
    return request.param


class TestCullAgainstRunningFrontier:
    """``add`` drops the rows its running frontier dominates before any
    sort: only the survivors, merged with the frontier, reach
    ``non_dominated_mask``."""

    @pytest.fixture
    def mask_inputs(self, monkeypatch):
        seen = []
        mask = frontier.non_dominated_mask

        def spy(scores, block_size=DEFAULT_BLOCK_SIZE):
            seen.append([tuple(float(x) for x in row) for row in scores])
            return mask(scores, block_size)

        monkeypatch.setattr(frontier, "non_dominated_mask", spy)
        return seen

    def test_dominated_rows_never_reach_the_mask(
        self, numpy_mode, mask_inputs
    ):
        accumulator = FrontierAccumulator()
        accumulator.add([(1.0, 1.0)], ["best"])
        block = [(2.0 + i, 2.0 + i % 3) for i in range(50)]
        block += [(0.5, 3.0), (1.0, 1.0), (1.0, 2.0)]
        accumulator.add(block, list(range(len(block))))
        # The 50 rows and (1.0, 2.0) are dominated by (1.0, 1.0); its
        # duplicate and (0.5, 3.0) are not.
        assert mask_inputs[-1] == [(1.0, 1.0), (0.5, 3.0), (1.0, 1.0)]
        assert accumulator.members() == ["best", 50, 51]
        calls = len(mask_inputs)
        accumulator.add([(2.0, 2.0), (1.5, 4.0)], ["x", "y"])
        assert len(mask_inputs) == calls  # a covered block costs no mask
        assert accumulator.members() == ["best", 50, 51]

    def test_payloads_read_only_for_survivors(self, numpy_mode):
        class Rows:
            def __init__(self, count):
                self.count, self.read = count, []

            def __len__(self):
                return self.count

            def __getitem__(self, offset):
                self.read.append(offset)
                return offset

        accumulator = FrontierAccumulator()
        first = Rows(3)
        accumulator.add([(1.0, 5.0), (2.0, 6.0), (5.0, 1.0)], first)
        assert first.read == [0, 2]
        later = Rows(4)
        accumulator.add(
            [(9.0, 9.0), (0.5, 0.5), (6.0, 6.0), (1.0, 5.0)], later
        )
        assert later.read == [1]
        assert accumulator.members() == [1]

    def test_search_masks_a_fraction_of_its_rows(
        self, numpy_mode, mask_inputs
    ):
        from repro.search import DesignSpace, run_search

        space = DesignSpace(
            module_areas=tuple(100.0 + 5.0 * i for i in range(100)),
            nodes=("7nm", "14nm"),
            technologies=("mcm", "2.5d"),
            chiplet_counts=(2, 3),
            d2d_fractions=(0.1,),
            quantity=500_000.0,
        )
        result = run_search(space)
        assert result.n_candidates == 1000
        # The first block (100 rows) is masked whole; later blocks only
        # contribute the rows the running frontier does not dominate.
        masked = sum(len(rows) for rows in mask_inputs)
        assert masked < 200
        assert result.frontier_indices() == tuple(
            index
            for index, kept in enumerate(
                _brute_force(_all_scores(space))
            )
            if kept
        )

    @pytest.mark.skipif(frontier._np is None, reason="needs numpy")
    def test_large_frontier_stays_within_the_chunked_bound(self):
        # 4096 members on a staircase against 2048 rows: one unchunked
        # broadcast would hold 4096 x 2048 booleans (8 MiB) per table.
        np = frontier._np
        steps = np.arange(4096, dtype=float)
        accumulator = FrontierAccumulator()
        accumulator.add(np.stack([steps, 4095.0 - steps], axis=1),
                        range(4096))
        assert len(accumulator) == 4096
        rows = np.stack([steps[::2] + 0.5, 4095.5 - steps[::2]], axis=1)
        tracemalloc.start()
        try:
            accumulator.add(rows, range(len(rows)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(accumulator) == 4096  # every row was dominated
        bound = 8 * DEFAULT_BLOCK_SIZE * len(rows)  # a few chunk tables
        assert peak < bound, (peak, bound)


def _all_scores(space):
    from repro.search.evaluate import SpaceEvaluator

    rows = {}
    for block in SpaceEvaluator(space).blocks():
        for offset in range(len(block)):
            rows[block.start + offset] = tuple(
                float(block.metrics[name][offset])
                for name in space.objectives
            )
    return [rows[index] for index in range(len(rows))]
