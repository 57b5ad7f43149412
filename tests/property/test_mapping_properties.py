"""Property tests: the batched mapping engine agrees with the scalar
path on randomized layouts and address sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import AddressMapper, random_layout, ring_layout

#: Randomized layouts spanning sizes, stripe widths, and seeds.
_RANDOM_CASES = [
    (6, 2, 4),
    (8, 4, 6),
    (10, 4, 8),
    (10, 5, 6),
    (12, 3, 5),
    (15, 5, 9),
]


def _mapper(case_index: int, seed: int, iterations: int) -> AddressMapper:
    v, k, spd = _RANDOM_CASES[case_index % len(_RANDOM_CASES)]
    layout = random_layout(v, k, stripes_per_disk=spd, seed=seed)
    return AddressMapper(layout, iterations=iterations)


#: Past 2^31 cells for every random case, so the mapper picks int64
#: tables (the small counts all fit int32).
_WIDE_ITERATIONS = 2**28


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_RANDOM_CASES) - 1),
    seed=st.integers(min_value=0, max_value=7),
    iterations=st.sampled_from((_WIDE_ITERATIONS, 1, 2, 3)),
    data=st.data(),
)
def test_map_batch_matches_scalar(case, seed, iterations, data):
    mapper = _mapper(case, seed, iterations)
    wide = iterations == _WIDE_ITERATIONS
    assert mapper.index_dtype == (np.int64 if wide else np.int32)
    lbas = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=mapper.capacity - 1),
            min_size=int(wide),  # the int64 tables always map something
            max_size=64,
        )
    )
    disks, offsets = mapper.map_batch(lbas)
    assert disks.shape == offsets.shape == (len(lbas),)
    for i, lba in enumerate(lbas):
        pu = mapper.logical_to_physical(lba)
        assert (pu.disk, pu.offset) == (int(disks[i]), int(offsets[i]))


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_RANDOM_CASES) - 1),
    seed=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_physical_batch_matches_scalar(case, seed, data):
    mapper = _mapper(case, seed, 2)
    layout = mapper.layout
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=layout.v - 1),
                st.integers(min_value=0, max_value=2 * layout.size - 1),
            ),
            min_size=0,
            max_size=64,
        )
    )
    disks = np.array([d for d, _ in pairs], dtype=np.int64)
    offsets = np.array([o for _, o in pairs], dtype=np.int64)
    lbas, is_par = mapper.physical_to_logical_batch(disks, offsets)
    for i, (d, off) in enumerate(pairs):
        lba, par = mapper.physical_to_logical(d, off)
        assert (lba, par) == (int(lbas[i]), bool(is_par[i]))


@settings(max_examples=25, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_RANDOM_CASES) - 1),
    seed=st.integers(min_value=0, max_value=7),
)
def test_map_batch_parity_targets_the_stripe_parity(case, seed):
    mapper = _mapper(case, seed, 2)
    lbas = np.arange(mapper.capacity, dtype=np.int64)
    disks, offsets, stripes, pdisks, poffs = mapper.map_batch_parity(lbas)
    layout = mapper.layout
    for i in range(len(lbas)):
        stripe = layout.stripes[int(stripes[i]) % layout.b]
        shift = (int(stripes[i]) // layout.b) * layout.size
        pd, poff = stripe.parity_unit
        assert (pd, poff + shift) == (int(pdisks[i]), int(poffs[i]))
        assert (int(disks[i]), int(offsets[i]) - shift) in stripe.data_units()


def test_map_batch_rejects_out_of_range():
    mapper = AddressMapper(ring_layout(5, 3))
    with pytest.raises(IndexError):
        mapper.map_batch([0, mapper.capacity])
    with pytest.raises(IndexError):
        mapper.map_batch([-1])
    with pytest.raises(ValueError):
        mapper.map_batch(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(IndexError):
        mapper.physical_to_logical_batch([0], [99])


def test_full_address_space_round_trips_batched():
    mapper = AddressMapper(ring_layout(7, 3), iterations=3)
    lbas = np.arange(mapper.capacity, dtype=np.int64)
    disks, offsets = mapper.map_batch(lbas)
    back, is_par = mapper.physical_to_logical_batch(disks, offsets)
    assert not is_par.any()
    assert (back == lbas).all()
