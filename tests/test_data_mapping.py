"""One reconciliation of the data mapping, for every registered algorithm.

A problem declares which cells a block reads and writes once
(``input_regions`` / ``output_regions``); ``extract_inputs``,
``apply_result``, ``input_bytes`` and ``cached_input_bytes`` are derived
from that declaration in ``algorithms/problem.py``. These tests drive
every block of a two-level partition of all registered algorithms and
hold the four derived views to each other and to the arrays that really
travel — the check that used to exist for SWGG, Nussinov and Viterbi only
(and that knapsack's hand-written closed form failed: its first block
shipped 1240 B of zeros the model charged 0 B for).
"""

import itertools

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, ViterbiDecoding, make_problem
from repro.algorithms.problem import region_index

SIZE, SEED, PROC, THREAD = 24, 0, 7, 3
NAMES = sorted(ALGORITHMS)
GRID_NAMES = ("edit-distance", "lcs", "needleman-wunsch")
#: A block id no partition contains: the history of a stranger node.
STRANGER = (-7, -7)


def nbytes(arrays):
    return sum(a.nbytes for a in arrays.values())


def drive(problem):
    """Run ``problem`` block by block in topological order; yields
    ``(partition, bid, state, inputs, outputs)`` *before* the block's
    result is applied, and applies it when the consumer comes back."""
    part = problem.build_partition(PROC)
    state = problem.make_state()
    for bid in part.abstract.topological_order():
        inputs = problem.extract_inputs(state, part, bid)
        outputs = problem.evaluator(part, bid, inputs).run_serial(
            part.sub_partition(bid, THREAD)
        )
        yield part, bid, state, inputs, outputs
        problem.apply_result(state, part, bid, outputs)


@pytest.mark.parametrize("name", NAMES)
def test_byte_model_equals_the_wire(name):
    """``input_bytes`` is what ``extract_inputs`` ships and ``output_bytes``
    what the evaluator returns, on every block — through the four public
    methods only, so this is the test the hand-written closed forms of
    the parent commit fail (knapsack block ``(0,)``)."""
    problem = make_problem(name, SIZE, SEED)
    for part, bid, _state, inputs, outputs in drive(problem):
        assert problem.input_bytes(part, bid) == nbytes(inputs), (bid, "inputs")
        if part.is_diagonal_block(bid):
            # The one recorded model/wire difference: a diagonal block of
            # a triangular partition returns its whole square (zeros below
            # the diagonal included) and is charged its triangle. Sizing
            # it from the square would move the Fig 14/16/17 makespans.
            assert problem.output_bytes(part, bid) == 8 * part.cell_count(bid)
            assert nbytes(outputs) == 8 * len(part.block_ranges(bid)[0]) ** 2
        else:
            assert problem.output_bytes(part, bid) == nbytes(outputs), (bid, "outputs")


@pytest.mark.parametrize("name", NAMES)
def test_extract_ships_copies_of_exactly_the_declared_regions(name):
    problem = make_problem(name, SIZE, SEED)
    for part, bid, state, inputs, _outputs in drive(problem):
        regions = problem.input_regions(part, bid)
        assert list(inputs) == list(regions), bid
        for key, (skey, r0, r1, c0, c1, _holder) in regions.items():
            cells = state[skey][region_index(r0, r1, c0, c1)]
            got = inputs[key]
            assert got.shape == cells.shape and got.dtype == cells.dtype, (bid, key)
            assert got.ndim == (r1 is not None) + (c1 is not None), (bid, key)
            assert np.array_equal(got, cells) and not np.shares_memory(got, cells), (bid, key)


@pytest.mark.parametrize("name", NAMES)
def test_cached_bytes_drop_exactly_the_held_regions(name):
    """A node's history saves the regions whose holder it ran, nothing
    else; a stranger saves nothing. A holder is a data predecessor: it
    has run before the block can be dispatched."""
    problem = make_problem(name, SIZE, SEED)
    for part, bid, _state, inputs, _outputs in drive(problem):
        full = problem.input_bytes(part, bid)
        assert problem.cached_input_bytes(part, bid, {STRANGER}) == full
        held = {
            key: region[5]
            for key, region in problem.input_regions(part, bid).items()
            if region[5] is not None and inputs[key].size
        }
        assert set(held.values()) <= set(part.abstract.data_predecessors(bid)), bid
        for k in range(1, len(held) + 1):
            for keys in itertools.combinations(held, k):
                history = {held[key] for key in keys} | {STRANGER}
                saved = sum(inputs[key].nbytes for key in held if held[key] in history)
                assert problem.cached_input_bytes(part, bid, history) == full - saved, (bid, keys)


def poisoned(state):
    """A state of the same arrays, every cell a value no kernel produces."""
    return {
        key: np.full_like(a, np.nan if a.dtype.kind == "f" else np.iinfo(a.dtype).max)
        for key, a in state.items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_apply_writes_exactly_the_declared_cells(name):
    problem = make_problem(name, SIZE, SEED)
    for part, bid, state, _inputs, outputs in drive(problem):
        regions = problem.output_regions(part, bid)
        assert set(outputs) == set(regions), bid
        scratch = poisoned(state)
        untouched = poisoned(state)
        problem.apply_result(scratch, part, bid, outputs)
        for key, (skey, r0, r1, c0, c1) in regions.items():
            index = region_index(r0, r1, c0, c1)
            assert np.array_equal(scratch[skey][index], outputs[key]), (bid, key)
            untouched[skey][index] = outputs[key]
        for skey in scratch:
            assert np.array_equal(scratch[skey], untouched[skey], equal_nan=True), (bid, skey)


@pytest.mark.parametrize("name", GRID_NAMES)
def test_boundary_store_ships_the_declared_arrays(name):
    """``retain="boundary"`` is a different store, not a different
    mapping: block for block it ships what the dense matrix ships."""
    dense = make_problem(name, SIZE, SEED)
    compact = type(dense)(dense.a, dense.b, retain="boundary")
    for (_, bid, _, want, _), (_, cbid, _, got, _) in zip(drive(dense), drive(compact)):
        assert bid == cbid and list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key]), (bid, key)


@pytest.mark.parametrize("name", ("knapsack", "viterbi"))
def test_first_chain_block_is_shipped_nothing(name):
    """The one wire change of the derivation: a chain's first block has no
    previous row, declares none, and its evaluator starts from the
    initial row itself (knapsack used to ship ``capacity + 1`` zeros)."""
    problem = make_problem(name, SIZE, SEED)
    part = problem.build_partition(PROC)
    assert problem.input_regions(part, (0,)) == {}
    assert problem.extract_inputs(problem.make_state(), part, (0,)) == {}
    assert problem.input_bytes(part, (0,)) == 0
    assert problem.input_bytes(part, (1,)) > 0


def test_viterbi_ships_one_row_of_states():
    vi = ViterbiDecoding.random(32, n_states=4, seed=1)
    part = vi.build_partition(8)
    assert vi.input_bytes(part, (0,)) == 0  # first block ships nothing
    assert vi.input_bytes(part, (1,)) == 8 * 4
