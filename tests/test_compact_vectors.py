"""Contract of the compact fixed-point vectors (``FixVector`` / ``ComplexVector``).

A compact vector must be observationally the tuple of boxed elements it
stands for -- equality and hashing across both representations, element
access, slicing, iteration, ``repr`` -- and every packer must treat both
representations alike, including the exception type and message of a
rejected value.  The retention tests pin why the representation exists:
the kernel result cache keeps a bounded number of GC-tracked objects per
entry, independent of the frame length.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.vorbis import kernels, reference
from repro.apps.vorbis.params import VorbisParams
from repro.core import kernelcompile as kc
from repro.core.fixedpoint import (
    ComplexVector,
    FixComplex,
    FixedPoint,
    FixVector,
)
from repro.core.types import ComplexT, FixPtT, StructT, UIntT, VectorT
from repro.platform import marshal

#: (int_bits, frac_bits): random formats plus one wider than 32 bits.
formats = st.one_of(
    st.tuples(st.integers(1, 16), st.integers(0, 24)),
    st.just((24, 40)),
)


@st.composite
def raw_vectors(draw, complex_elems=False):
    """``(int_bits, frac_bits, raws...)`` for a random vector of wrapped raws."""
    ib, fb = draw(formats)
    total = ib + fb
    n = draw(st.integers(1, 12))
    elem = st.integers(-(1 << (total - 1)), (1 << (total - 1)) - 1)
    raws = tuple(draw(st.lists(elem, min_size=n, max_size=n)))
    if not complex_elems:
        return ib, fb, raws
    return ib, fb, raws, tuple(draw(st.lists(elem, min_size=n, max_size=n)))


def _boxed_fix(raws, ib, fb):
    return tuple(FixedPoint(r, ib, fb) for r in raws)


def _boxed_cplx(re, im, ib, fb):
    return tuple(
        FixComplex(FixedPoint(r, ib, fb), FixedPoint(i, ib, fb)) for r, i in zip(re, im)
    )


def _outcome(fn, value):
    try:
        return ("ok", fn(value))
    except Exception as exc:  # noqa: BLE001 - comparing behaviours
        return (type(exc), str(exc))


class TestSequenceContract:
    @settings(max_examples=150, deadline=None)
    @given(raw_vectors())
    def test_fix_vector_equals_and_hashes_like_the_boxed_tuple(self, case):
        ib, fb, raws = case
        vec = FixVector(raws, ib, fb)
        boxed = _boxed_fix(raws, ib, fb)
        assert vec == boxed and boxed == vec and vec == list(boxed)
        assert not (vec != boxed)
        assert hash(vec) == hash(boxed)
        assert repr(vec) == repr(boxed)
        assert vec == FixVector(list(raws), ib, fb)
        assert {vec: 1}[boxed] == 1
        flipped = FixVector((raws[0] ^ 1,) + raws[1:], ib, fb)
        assert flipped != vec and flipped != boxed and boxed != flipped
        assert FixVector(raws, ib + 1, fb) != vec
        assert vec != boxed[:-1]

    @settings(max_examples=150, deadline=None)
    @given(raw_vectors(complex_elems=True))
    def test_complex_vector_equals_and_hashes_like_the_boxed_tuple(self, case):
        ib, fb, re, im = case
        vec = ComplexVector(re, im, ib, fb)
        boxed = _boxed_cplx(re, im, ib, fb)
        assert vec == boxed and boxed == vec and vec == list(boxed)
        assert hash(vec) == hash(boxed)
        assert repr(vec) == repr(boxed)
        assert vec == ComplexVector(list(re), list(im), ib, fb)
        swapped = ComplexVector(im, re, ib, fb)
        assert (swapped == vec) == (re == im)
        assert ComplexVector(re, im, ib, fb + 1) != vec

    @settings(max_examples=150, deadline=None)
    @given(raw_vectors(), st.data())
    def test_fix_vector_indexing_slicing_iteration(self, case, data):
        ib, fb, raws = case
        vec = FixVector(raws, ib, fb)
        boxed = _boxed_fix(raws, ib, fb)
        n = len(raws)
        assert len(vec) == n
        for i in range(-n, n):
            assert vec[i].__class__ is FixedPoint and vec[i] == boxed[i]
        with pytest.raises(IndexError):
            vec[n]
        assert list(vec) == list(boxed)
        assert all(v.__class__ is FixedPoint for v in vec)
        bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        cut = slice(data.draw(bound), data.draw(bound), step)
        assert vec[cut].__class__ is FixVector
        assert vec[cut] == boxed[cut]
        assert boxed[0] in vec and list(reversed(vec)) == list(reversed(boxed))

    @settings(max_examples=150, deadline=None)
    @given(raw_vectors(complex_elems=True), st.data())
    def test_complex_vector_indexing_slicing_iteration(self, case, data):
        ib, fb, re, im = case
        vec = ComplexVector(re, im, ib, fb)
        boxed = _boxed_cplx(re, im, ib, fb)
        n = len(re)
        for i in range(-n, n):
            assert vec[i].__class__ is FixComplex and vec[i] == boxed[i]
        assert list(vec) == list(boxed)
        bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
        step = data.draw(st.sampled_from([None, 1, 2, -1]))
        cut = slice(data.draw(bound), data.draw(bound), step)
        assert vec[cut].__class__ is ComplexVector
        assert vec[cut] == boxed[cut]

    def test_vectors_pickle(self):
        vec = FixVector((1, -2, 3), 8, 24)
        cvec = ComplexVector((1, 2), (-3, 4), 16, 16)
        assert pickle.loads(pickle.dumps(vec)) == vec
        assert pickle.loads(pickle.dumps(cvec)) == cvec


class TestPackUnpack:
    @settings(max_examples=150, deadline=None)
    @given(raw_vectors())
    def test_fix_vector_packs_like_the_boxed_tuple_and_round_trips(self, case):
        ib, fb, raws = case
        ty = VectorT(len(raws), FixPtT(ib, fb))
        vec = FixVector(raws, ib, fb)
        bits = ty.pack(_boxed_fix(raws, ib, fb))
        assert ty.pack(vec) == bits
        assert marshal._compile_pack(ty)(vec) == bits
        decoded = marshal._compile_unpack(ty)(bits)
        reference = ty.unpack(bits)
        assert decoded.__class__ is FixVector and reference.__class__ is FixVector
        assert decoded == vec and reference == vec

    @settings(max_examples=150, deadline=None)
    @given(raw_vectors(complex_elems=True))
    def test_complex_vector_packs_like_the_boxed_tuple_and_round_trips(self, case):
        ib, fb, re, im = case
        ty = VectorT(len(re), ComplexT(FixPtT(ib, fb)))
        vec = ComplexVector(re, im, ib, fb)
        bits = ty.pack(_boxed_cplx(re, im, ib, fb))
        assert ty.pack(vec) == bits
        assert marshal._compile_pack(ty)(vec) == bits
        decoded = marshal._compile_unpack(ty)(bits)
        assert decoded.__class__ is ComplexVector and ty.unpack(bits).__class__ is ComplexVector
        assert decoded == vec and ty.unpack(bits) == vec

    @settings(max_examples=60, deadline=None)
    @given(raw_vectors())
    def test_compact_fields_inside_structs_and_messages(self, case):
        ib, fb, raws = case
        ty = StructT("S", [("v", VectorT(len(raws), FixPtT(ib, fb))), ("tag", UIntT(8))])
        value = {"v": FixVector(raws, ib, fb), "tag": 7}
        bits = ty.pack({"v": _boxed_fix(raws, ib, fb), "tag": 7})
        assert marshal._compile_pack(ty)(value) == bits
        layout = marshal.layout_for(ty, 32)
        assert layout.decoder()(layout.encoder(3)(value), 1) == value

    def test_defaults_are_compact(self):
        fix_t = VectorT(4, FixPtT(8, 24))
        cplx_t = VectorT(3, ComplexT(FixPtT(16, 16)))
        assert fix_t.default().__class__ is FixVector
        assert fix_t.default() == tuple(FixPtT(8, 24).default() for _ in range(4))
        assert cplx_t.default().__class__ is ComplexVector
        assert cplx_t.default() == tuple(ComplexT(FixPtT(16, 16)).default() for _ in range(3))

    @settings(max_examples=100, deadline=None)
    @given(raw_vectors(), st.sampled_from(["int_bits", "frac_bits", "longer", "shorter"]))
    def test_wrong_format_or_length_raises_the_reference_error(self, case, defect):
        ib, fb, raws = case
        ty = VectorT(len(raws), FixPtT(ib, fb))
        if defect == "int_bits":
            ib += 1
        elif defect == "frac_bits":
            fb += 1
        elif defect == "longer":
            raws = raws + (0,)
        elif len(raws) > 1:
            raws = raws[:-1]
        else:
            ty = VectorT(2, FixPtT(ib, fb))
        expected = _outcome(ty.pack, _boxed_fix(raws, ib, fb))
        assert expected[0] != "ok"
        vec = FixVector(raws, ib, fb)
        assert _outcome(ty.pack, vec) == expected
        assert _outcome(marshal._compile_pack(ty), vec) == expected

    @settings(max_examples=100, deadline=None)
    @given(raw_vectors(complex_elems=True), st.sampled_from(["frac_bits", "longer", "kind"]))
    def test_complex_wrong_format_or_length_raises_the_reference_error(self, case, defect):
        ib, fb, re, im = case
        ty = VectorT(len(re), ComplexT(FixPtT(ib, fb)))
        if defect == "frac_bits":
            fb += 1
        elif defect == "longer":
            re, im = re + (0,), im + (0,)
        if defect == "kind":
            boxed = _boxed_fix(re, ib, fb)
            vec = FixVector(re, ib, fb)
        else:
            boxed = _boxed_cplx(re, im, ib, fb)
            vec = ComplexVector(re, im, ib, fb)
        expected = _outcome(ty.pack, boxed)
        assert expected[0] != "ok"
        assert _outcome(ty.pack, vec) == expected
        assert _outcome(marshal._compile_pack(ty), vec) == expected


# --------------------------------------------------------------------------
# GC retention of the kernel result cache (counts only, no timing)
# --------------------------------------------------------------------------


def _tracked_reachable(roots):
    """GC-tracked objects reachable from ``roots`` (types are not followed)."""
    seen = set()
    stack = list(roots)
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if kc.HAVE_NUMPY else []))
@pytest.mark.parametrize("n", [16, 64])
def test_cache_retains_a_constant_number_of_tracked_objects_per_entry(backend, n):
    """A cached frame is O(1) tracked objects, not O(n) boxes.

    Every cached value is one compact vector, or the window kernel's
    ``(pcm, new_previous)`` pair of them; the keys and raw tuples hold only
    ints, which the collector stops tracking once it has seen them.
    """
    kc.clear_kernel_cache()
    try:
        with kc.kernel_backend_override(backend), kc.kernel_cache_override(True):
            result = reference.decode(VorbisParams(n=n, n_frames=36))
            gc.collect()
            entries = list(kc._cache.items())
            assert len(entries) >= 36 * 6
            tracked = _tracked_reachable([item for entry in entries for item in entry])
            assert tracked <= 3 * len(entries)
            pcm = result.pcm_frames[-1]
            assert pcm.__class__ is FixVector and not gc.is_tracked(pcm.raws)
            spectrum = kernels.imdct_pre(pcm, 8, 24)
            gc.collect()
            assert spectrum.__class__ is ComplexVector
            assert not gc.is_tracked(spectrum.re) and not gc.is_tracked(spectrum.im)
    finally:
        kc.clear_kernel_cache()
