"""Marshaling and demarshaling of typed values into channel words.

Section 4.4: the design specifies atomic transfers at (say) audio-frame
granularity, but the physical substrate moves fixed-width words, so the
compiler generates marshaling/demarshaling code on both sides of every
synchronizer.  Because both sides use the same canonical bit-level packing
(:mod:`repro.core.types`), the data-format mismatch problem of Section 2.3
cannot arise.

A marshaled message is a list of unsigned integers: one header word carrying
the virtual-channel id and the payload length, followed by the payload words
(least significant word first).

The module is a small **layout compiler**: :func:`layout_for` derives, once
per ``(element type, word width)`` pair, a :class:`MessageLayout` -- the
header field shifts/masks, the per-field bit slices of the payload, the
total word count, and compiled encode/decode closures.  That one layout is
the single source of truth for three layers at once: the simulator's
transport dataplane packs and unpacks link words through it
(:mod:`repro.platform.libdn` / :mod:`repro.sim.cosim`), the interface
generator renders its C and BSV marshaling loops from it
(:mod:`repro.codegen.interface`), and the cross-layer differential tests
re-execute it to prove the two agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SimulationError, WireFormatError
from repro.core.fixedpoint import (
    ComplexVector,
    FixComplex,
    FixedPoint,
    FixVector,
    from_wrapped_raw,
)
from repro.core.types import (
    BCLType,
    BitT,
    BoolT,
    ComplexT,
    FixPtT,
    IntT,
    StructT,
    UIntT,
    VectorT,
    words_for,
)

#: Number of header bits reserved for the virtual-channel id.
VC_ID_BITS = 8
#: Number of header bits reserved for the payload word count.
LENGTH_BITS = 16


def wire_header(vc_id: int, payload_words: int) -> int:
    """The canonical header word for one message of a virtual channel.

    This formula is the *only* definition of the header layout: the
    simulator's dataplane, the generated C pack/unpack helpers and the
    generated BSV marshal rules all embed its result, so they cannot
    disagree about where the vc id and length live.
    """
    return (vc_id << LENGTH_BITS) | payload_words


def unframe_header(header: int) -> Tuple[int, int]:
    """Split a header word into ``(vc_id, payload_length)``."""
    return (header >> LENGTH_BITS) & ((1 << VC_ID_BITS) - 1), header & (
        (1 << LENGTH_BITS) - 1
    )


def validate_wire_format(
    n_channels: int, payload_words: int, word_bits: int, context: str = ""
) -> None:
    """Check that a channel configuration is representable on the wire.

    Raises :class:`~repro.core.errors.WireFormatError` when the global
    vc-id space does not fit ``VC_ID_BITS``, the payload length does not
    fit ``LENGTH_BITS``, or the header does not fit one ``word_bits`` link
    word.  Called at topology/spec *build* time so a misconfigured
    ``link_params`` fails loudly instead of silently corrupting headers.
    """
    where = f" ({context})" if context else ""
    if n_channels > (1 << VC_ID_BITS):
        raise WireFormatError(
            f"{n_channels} virtual channels exceed the {VC_ID_BITS}-bit wire "
            f"vc-id space ({1 << VC_ID_BITS} ids){where}"
        )
    if payload_words >= (1 << LENGTH_BITS):
        raise WireFormatError(
            f"payload of {payload_words} words does not fit the {LENGTH_BITS}-bit "
            f"header length field{where}"
        )
    if VC_ID_BITS + LENGTH_BITS > word_bits:
        raise WireFormatError(
            f"message header needs {VC_ID_BITS + LENGTH_BITS} bits but the link "
            f"word width is {word_bits}{where}"
        )


def marshal_value(ty: BCLType, value: Any, word_bits: int = 32) -> List[int]:
    """Pack one typed value into a list of ``word_bits``-wide payload words."""
    bits = ty.pack(value)
    n_words = words_for(ty, word_bits)
    mask = (1 << word_bits) - 1
    return [(bits >> (i * word_bits)) & mask for i in range(n_words)]


def demarshal_value(
    ty: BCLType,
    words: Sequence[int],
    word_bits: int = 32,
    start: int = 0,
    end: Optional[int] = None,
) -> Any:
    """Reassemble a typed value from its payload words.

    ``start``/``end`` select a slice of ``words`` *by index* so callers on
    the per-message hot path (the transport dataplane draining a shared
    word ring) never copy the payload out first.
    """
    if end is None:
        end = len(words)
    expected = words_for(ty, word_bits)
    if end - start != expected:
        raise SimulationError(
            f"demarshal: expected {expected} words for {ty!r}, got {end - start}"
        )
    bits = 0
    limit = 1 << word_bits
    for i in range(start, end):
        word = words[i]
        if word < 0 or word >= limit:
            raise SimulationError(
                f"demarshal: word {i - start} out of range for {word_bits}-bit channel"
            )
        bits |= word << ((i - start) * word_bits)
    return ty.unpack(bits)


def frame_message(vc_id: int, payload: Sequence[int], word_bits: int = 32) -> List[int]:
    """Prepend the header word (vc id + length) to a marshaled payload."""
    if not 0 <= vc_id < (1 << VC_ID_BITS):
        raise SimulationError(f"virtual channel id {vc_id} does not fit in {VC_ID_BITS} bits")
    if len(payload) >= (1 << LENGTH_BITS):
        raise SimulationError(f"payload of {len(payload)} words does not fit in the length field")
    if VC_ID_BITS + LENGTH_BITS > word_bits:
        raise SimulationError("header does not fit in one channel word")
    return [wire_header(vc_id, len(payload))] + list(payload)


def unframe_message(words: Sequence[int], word_bits: int = 32) -> Tuple[int, List[int]]:
    """Split a framed message back into ``(vc_id, payload_words)``.

    The returned payload is a fresh list (the historical API); hot-path
    callers should use :func:`demarshal_message`'s index-based decoding
    instead, which never copies the payload.
    """
    if not words:
        raise SimulationError("cannot unframe an empty message")
    vc_id, length = unframe_header(words[0])
    if len(words) - 1 != length:
        raise SimulationError(
            f"unframe: header declares {length} payload words but {len(words) - 1} were received"
        )
    return vc_id, list(words[1:])


def marshal_message(vc_id: int, ty: BCLType, value: Any, word_bits: int = 32) -> List[int]:
    """Marshal a typed value and frame it for the given virtual channel."""
    return frame_message(vc_id, marshal_value(ty, value, word_bits), word_bits)


def demarshal_message(
    ty: BCLType,
    words: Sequence[int],
    word_bits: int = 32,
    start: int = 0,
    end: Optional[int] = None,
) -> Tuple[int, Any]:
    """Unframe and decode a message; returns ``(vc_id, value)``.

    Index-based: ``words[start:end]`` is the framed message, but no slice is
    materialised -- the header is read in place and the payload is decoded
    through :func:`demarshal_value`'s ``start``/``end`` window.
    """
    if end is None:
        end = len(words)
    if end <= start:
        raise SimulationError("cannot unframe an empty message")
    vc_id, length = unframe_header(words[start])
    if end - start - 1 != length:
        raise SimulationError(
            f"unframe: header declares {length} payload words but "
            f"{end - start - 1} were received"
        )
    return vc_id, demarshal_value(ty, words, word_bits, start + 1, end)


def message_words(ty: BCLType, word_bits: int = 32) -> int:
    """Total channel words for one value of ``ty`` including the header word."""
    return 1 + words_for(ty, word_bits)


# --------------------------------------------------------------------------
# The layout compiler
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSlice:
    """One leaf field's position within the payload bit vector (LSB-first).

    Uniform repetitions (vector elements) are collapsed: ``count`` instances
    of the field live at ``bit_offset + k * stride`` for ``k`` in
    ``range(count)`` -- which is exactly the shape a generated C or BSV
    marshaling *loop* iterates over.  A scalar field has ``count == 1``.
    """

    path: str
    bit_offset: int
    bit_width: int
    count: int = 1
    stride: int = 0


@dataclass(frozen=True)
class WordSpan:
    """Where (part of) one field instance lands in the payload word array."""

    path: str
    word: int  #: payload word index (header not counted)
    shift: int  #: bit position within that word
    width: int  #: bits of the field stored in this span
    field_lsb: int  #: offset of those bits within the field's own value


def _collect_leaves(ty: BCLType, path: str, offset: int, out: List[FieldSlice]) -> None:
    if isinstance(ty, StructT):
        # The first declared field occupies the most significant bits, so
        # LSB-first offsets walk the declaration order in reverse.
        off = offset
        for fname, fty in reversed(ty.fields):
            _collect_leaves(fty, f"{path}.{fname}" if path else fname, off, out)
            off += fty.bit_width()
    elif isinstance(ty, ComplexT):
        w = ty.elem.bit_width()
        _collect_leaves(ty.elem, f"{path}.im" if path else "im", offset, out)
        _collect_leaves(ty.elem, f"{path}.re" if path else "re", offset + w, out)
    elif isinstance(ty, VectorT):
        sub: List[FieldSlice] = []
        _collect_leaves(ty.elem, "", 0, sub)
        stride = ty.elem.bit_width()
        if any(leaf.count != 1 for leaf in sub):
            # The element itself repeats (nested vectors): expand the outer
            # indices so every slice keeps a single stride.
            for i in range(ty.n):
                for leaf in sub:
                    out.append(
                        FieldSlice(
                            f"{path}[{i}]{leaf.path}",
                            offset + i * stride + leaf.bit_offset,
                            leaf.bit_width,
                            leaf.count,
                            leaf.stride,
                        )
                    )
        else:
            for leaf in sub:
                out.append(
                    FieldSlice(
                        f"{path}[*]{leaf.path}",
                        offset + leaf.bit_offset,
                        leaf.bit_width,
                        ty.n,
                        stride,
                    )
                )
    else:
        out.append(FieldSlice(path, offset, ty.bit_width()))


class _FastPackMismatch(Exception):
    """A fused packer's fast predicate failed; re-pack through ``ty.pack``.

    Raised (and always caught) inside :func:`_compile_pack`'s closures only.
    The slow re-pack either succeeds (a legal value the conservative fast
    predicate rejected, e.g. a ``FixedPoint`` subclass) or raises the
    reference implementation's exact exception -- so the fused path never
    changes error behaviour, only speed.  A compact vector of the wrong
    length or format takes the same path.
    """


def _fused_packer(ty: BCLType) -> Optional[Callable[[Any], int]]:
    """A fused packer for ``ty``, or ``None`` when no specialisation exists.

    The returned closure computes ``ty.pack(value)`` without per-element
    dispatch -- leaf packing is inlined into the container loops -- and
    raises :class:`_FastPackMismatch` the moment any value fails its fast
    predicate.  Composite packers are built recursively, with dedicated
    single-loop forms for the frame shapes the transport actually moves:
    ``Vector#(FixPt)``, ``Vector#(Complex#(FixPt))`` and ``Vector#(UInt)``.
    The fixed-point vector forms pack a compact ``FixVector`` /
    ``ComplexVector`` straight from its raw tuples.
    """
    if isinstance(ty, (UIntT, BitT)):
        hi = (1 << ty.n) - 1

        def pack_uint(value: Any) -> int:
            if value.__class__ is int and 0 <= value <= hi:
                return value
            raise _FastPackMismatch

        return pack_uint
    if isinstance(ty, BoolT):

        def pack_bool(value: Any) -> int:
            if value.__class__ is bool:
                return 1 if value else 0
            raise _FastPackMismatch

        return pack_bool
    if isinstance(ty, IntT):
        lo = -(1 << (ty.n - 1))
        hi = (1 << (ty.n - 1)) - 1
        mask = (1 << ty.n) - 1

        def pack_int(value: Any) -> int:
            if value.__class__ is int and lo <= value <= hi:
                return value & mask
            raise _FastPackMismatch

        return pack_int
    if isinstance(ty, FixPtT):
        ib, fb = ty.int_bits, ty.frac_bits
        mask = (1 << (ib + fb)) - 1

        def pack_fixpt(value: Any) -> int:
            if value.__class__ is FixedPoint and value.int_bits == ib and value.frac_bits == fb:
                return value.raw & mask
            raise _FastPackMismatch

        return pack_fixpt
    if isinstance(ty, ComplexT):
        ib, fb = ty.elem.int_bits, ty.elem.frac_bits
        w = ty.elem.bit_width()
        mask = (1 << w) - 1

        def pack_complex(value: Any) -> int:
            if value.__class__ is not FixComplex:
                raise _FastPackMismatch
            re, im = value.real, value.imag
            if (
                re.__class__ is not FixedPoint
                or im.__class__ is not FixedPoint
                or re.int_bits != ib
                or re.frac_bits != fb
                or im.int_bits != ib
                or im.frac_bits != fb
            ):
                raise _FastPackMismatch
            return ((re.raw & mask) << w) | (im.raw & mask)

        return pack_complex
    if isinstance(ty, VectorT):
        n = ty.n
        w = ty.elem.bit_width()
        elem = ty.elem
        if isinstance(elem, FixPtT):
            ib, fb = elem.int_bits, elem.frac_bits
            mask = (1 << w) - 1

            def pack_fix_vec(value: Any) -> int:
                bits = 0
                shift = 0
                if value.__class__ is FixVector:
                    raws = value.raws
                    if len(raws) != n or value.int_bits != ib or value.frac_bits != fb:
                        raise _FastPackMismatch
                    for raw in raws:
                        bits |= (raw & mask) << shift
                        shift += w
                    return bits
                if (value.__class__ is not tuple and value.__class__ is not list) or len(
                    value
                ) != n:
                    raise _FastPackMismatch
                for v in value:
                    if v.__class__ is not FixedPoint or v.int_bits != ib or v.frac_bits != fb:
                        raise _FastPackMismatch
                    bits |= (v.raw & mask) << shift
                    shift += w
                return bits

            return pack_fix_vec
        if isinstance(elem, ComplexT):
            ib, fb = elem.elem.int_bits, elem.elem.frac_bits
            half = elem.elem.bit_width()
            mask = (1 << half) - 1

            def pack_cplx_vec(value: Any) -> int:
                bits = 0
                shift = 0
                if value.__class__ is ComplexVector:
                    if len(value.re) != n or value.int_bits != ib or value.frac_bits != fb:
                        raise _FastPackMismatch
                    for re_raw, im_raw in zip(value.re, value.im):
                        bits |= (((re_raw & mask) << half) | (im_raw & mask)) << shift
                        shift += w
                    return bits
                if (value.__class__ is not tuple and value.__class__ is not list) or len(
                    value
                ) != n:
                    raise _FastPackMismatch
                for v in value:
                    if v.__class__ is not FixComplex:
                        raise _FastPackMismatch
                    re, im = v.real, v.imag
                    if (
                        re.__class__ is not FixedPoint
                        or im.__class__ is not FixedPoint
                        or re.int_bits != ib
                        or re.frac_bits != fb
                        or im.int_bits != ib
                        or im.frac_bits != fb
                    ):
                        raise _FastPackMismatch
                    bits |= ((((re.raw & mask) << half) | (im.raw & mask))) << shift
                    shift += w
                return bits

            return pack_cplx_vec
        if isinstance(elem, (UIntT, BitT)):
            hi = (1 << elem.n) - 1

            def pack_uint_vec(value: Any) -> int:
                if (value.__class__ is not tuple and value.__class__ is not list) or len(
                    value
                ) != n:
                    raise _FastPackMismatch
                bits = 0
                shift = 0
                for v in value:
                    if v.__class__ is not int or v < 0 or v > hi:
                        raise _FastPackMismatch
                    bits |= v << shift
                    shift += w
                return bits

            return pack_uint_vec
        sub = _fused_packer(elem)
        if sub is None:
            return None

        def pack_vec(value: Any) -> int:
            if (value.__class__ is not tuple and value.__class__ is not list) or len(
                value
            ) != n:
                raise _FastPackMismatch
            bits = 0
            shift = 0
            for v in value:
                bits |= sub(v) << shift
                shift += w
            return bits

        return pack_vec
    if isinstance(ty, StructT):
        subs = []
        for fname, fty in ty.fields:
            sub = _fused_packer(fty)
            if sub is None:
                return None
            subs.append((fname, sub, fty.bit_width()))
        field_packers = tuple(subs)

        def pack_struct(value: Any) -> int:
            if value.__class__ is not dict:
                raise _FastPackMismatch
            bits = 0
            try:
                for fname, sub, fw in field_packers:
                    bits = (bits << fw) | sub(value[fname])
            except KeyError:
                raise _FastPackMismatch from None
            return bits

        return pack_struct
    return None


def _compile_pack(ty: BCLType) -> Callable[[Any], int]:
    """Specialise ``ty.pack`` for the per-message transport hot path.

    Composes the fused per-layout packer (leaf packing inlined into the
    container loops) with a fallback: any value failing a fast predicate is
    re-packed through ``ty.pack`` so the error behaviour (exception type,
    message text) is exactly the reference's.  Types with no fused form
    (e.g. opaque state) keep ``ty.pack`` unchanged.
    """
    fast = _fused_packer(ty)
    if fast is None:
        return ty.pack
    slow = ty.pack

    def pack(value: Any) -> int:
        try:
            return fast(value)
        except _FastPackMismatch:
            return slow(value)

    return pack


def _compile_unpack(ty: BCLType) -> Callable[[int], Any]:
    """Specialise ``ty.unpack`` for the per-message transport hot path.

    Unlike packing, decoding needs no fallback: the input is always the
    unsigned payload integer the wire delivered, and the compiled closures
    replicate the reference bit semantics exactly (masking, two's-complement
    sign extension, vector element order, struct field order).  Fixed-point
    leaves box through :func:`~repro.core.fixedpoint.from_wrapped_raw`,
    skipping the re-wrap of already-wrapped values; fixed-point vectors
    decode to compact ``FixVector``/``ComplexVector`` values without boxing.
    """
    if isinstance(ty, (UIntT, BitT)):
        mask = (1 << ty.n) - 1
        return lambda bits: bits & mask
    if isinstance(ty, BoolT):
        return lambda bits: bool(bits & 1)
    if isinstance(ty, IntT):
        mask = (1 << ty.n) - 1
        sign = 1 << (ty.n - 1)
        return lambda bits: ((bits & mask) ^ sign) - sign
    if isinstance(ty, FixPtT):
        ib, fb = ty.int_bits, ty.frac_bits
        mask = (1 << (ib + fb)) - 1
        sign = 1 << (ib + fb - 1)
        return lambda bits: from_wrapped_raw(((bits & mask) ^ sign) - sign, ib, fb)
    if isinstance(ty, ComplexT):
        ib, fb = ty.elem.int_bits, ty.elem.frac_bits
        w = ty.elem.bit_width()
        mask = (1 << w) - 1
        sign = 1 << (w - 1)

        def unpack_complex(bits: int) -> FixComplex:
            return FixComplex(
                from_wrapped_raw((((bits >> w) & mask) ^ sign) - sign, ib, fb),
                from_wrapped_raw(((bits & mask) ^ sign) - sign, ib, fb),
            )

        return unpack_complex
    if isinstance(ty, VectorT):
        n = ty.n
        w = ty.elem.bit_width()
        elem = ty.elem
        if isinstance(elem, FixPtT):
            ib, fb = elem.int_bits, elem.frac_bits
            mask = (1 << w) - 1
            sign = 1 << (w - 1)

            def unpack_fix_vec(bits: int) -> FixVector:
                return FixVector(
                    [(((bits >> (i * w)) & mask) ^ sign) - sign for i in range(n)], ib, fb
                )

            return unpack_fix_vec
        if isinstance(elem, ComplexT):
            ib, fb = elem.elem.int_bits, elem.elem.frac_bits
            half = elem.elem.bit_width()
            mask = (1 << half) - 1
            sign = 1 << (half - 1)

            def unpack_cplx_vec(bits: int) -> ComplexVector:
                re = []
                im = []
                for i in range(n):
                    word = bits >> (i * w)
                    re.append((((word >> half) & mask) ^ sign) - sign)
                    im.append(((word & mask) ^ sign) - sign)
                return ComplexVector(re, im, ib, fb)

            return unpack_cplx_vec
        sub = _compile_unpack(elem)
        mask = (1 << w) - 1
        return lambda bits: tuple(sub((bits >> (i * w)) & mask) for i in range(n))
    if isinstance(ty, StructT):
        # LSB-first offsets walk the declaration order in reverse; the
        # decoded dict is built in declared order, like the reference.
        offsets: Dict[str, int] = {}
        off = 0
        for fname, fty in reversed(ty.fields):
            offsets[fname] = off
            off += fty.bit_width()
        entries = tuple(
            (fname, offsets[fname], (1 << fty.bit_width()) - 1, _compile_unpack(fty))
            for fname, fty in ty.fields
        )

        def unpack_struct(bits: int) -> Dict[str, Any]:
            return {
                fname: sub((bits >> shift) & mask)
                for fname, shift, mask, sub in entries
            }

        return unpack_struct
    return ty.unpack


class MessageLayout:
    """The compiled wire format of one channel element type.

    Everything every layer needs is derived here, once: header field
    shifts/masks, payload/message word counts, the per-field bit slices of
    the canonical packing, and closure-compiled encoders/decoders for the
    simulation dataplane.  One ``MessageLayout`` per ``(type, word width)``
    pair -- the invariant that makes the generated interfaces trustworthy.
    """

    __slots__ = (
        "ty",
        "word_bits",
        "payload_bits",
        "payload_words",
        "message_words",
        "fields",
        "_decoder",
    )

    #: Header field geometry (class-level: the header layout is global).
    VC_SHIFT = LENGTH_BITS
    VC_MASK = (1 << VC_ID_BITS) - 1
    LENGTH_MASK = (1 << LENGTH_BITS) - 1

    def __init__(self, ty: BCLType, word_bits: int = 32):
        self.ty = ty
        self.word_bits = word_bits
        self.payload_bits = ty.bit_width()
        self.payload_words = words_for(ty, word_bits)
        self.message_words = self.payload_words + 1
        validate_wire_format(1, self.payload_words, word_bits, context=repr(ty))
        leaves: List[FieldSlice] = []
        _collect_leaves(ty, "", 0, leaves)
        self.fields: Tuple[FieldSlice, ...] = tuple(
            sorted(leaves, key=lambda f: f.bit_offset)
        )
        self._decoder: Optional[Callable[[Sequence[int], int], Any]] = None

    def __repr__(self) -> str:
        return (
            f"MessageLayout({self.ty!r}, word_bits={self.word_bits}, "
            f"payload_words={self.payload_words})"
        )

    # -- header ------------------------------------------------------------

    def header_word(self, vc_id: int) -> int:
        """The constant header word every message of virtual channel ``vc_id``
        carries (the payload length of a channel is fixed by its type)."""
        if not 0 <= vc_id < (1 << VC_ID_BITS):
            raise WireFormatError(
                f"virtual channel id {vc_id} does not fit in {VC_ID_BITS} bits"
            )
        return wire_header(vc_id, self.payload_words)

    # -- word-level field table (codegen) -----------------------------------

    def word_spans(self, max_instances: int = 4) -> List[WordSpan]:
        """The payload word array positions of every field (instances capped).

        Expands each :class:`FieldSlice` into per-word spans: which payload
        word, at which shift, holds which bits of the field.  Repeated
        fields expand at most ``max_instances`` instances -- consumers
        (:func:`repro.codegen.cxx.generate_field_macros` emits
        ``_WORD``/``_SHIFT`` constants from the single-word spans) address
        the remaining instances with the slice's ``_COUNT``/``_STRIDE``.
        """
        spans: List[WordSpan] = []
        wb = self.word_bits
        for leaf in self.fields:
            for k in range(min(leaf.count, max_instances)):
                path = leaf.path.replace("[*]", f"[{k}]") if leaf.count > 1 else leaf.path
                offset = leaf.bit_offset + k * leaf.stride
                taken = 0
                while taken < leaf.bit_width:
                    word, shift = divmod(offset + taken, wb)
                    width = min(leaf.bit_width - taken, wb - shift)
                    spans.append(WordSpan(path, word, shift, width, taken))
                    taken += width
        return spans

    # -- compiled encode/decode (simulation dataplane) -----------------------

    def encoder(self, vc_id: int) -> Callable[[Any], Tuple[int, ...]]:
        """Compile the framed-message encoder of one virtual channel.

        The returned closure maps an element value to its wire words
        (header first, payload least-significant-word first).  Constants --
        the header word, the payload word count, the word mask -- are
        resolved now, so the per-message work is one ``pack`` plus the word
        split.
        """
        header = self.header_word(vc_id)
        pack = _compile_pack(self.ty)
        if self.payload_words == 1:
            # Single-word payload (the common scalar case): no split loop.
            return lambda value: (header, pack(value))
        n = self.payload_words
        wb = self.word_bits
        mask = (1 << wb) - 1

        def encode(value: Any) -> Tuple[int, ...]:
            bits = pack(value)
            words = [header]
            append = words.append
            for _ in range(n):
                append(bits & mask)
                bits >>= wb
            return tuple(words)

        return encode

    def batch_encoder(self, vc_id: int) -> Callable[[Sequence[Any]], List[int]]:
        """Compile the batched framed-message encoder of one virtual channel.

        Maps a sequence of element values to one flat word list -- the
        concatenated framed messages, ready for a single ``extend`` onto a
        :class:`~repro.platform.channel.MessagePool` word ring.  Because a
        channel's message length is fixed by its type, the caller can
        derive every per-message bound arithmetically.
        """
        header = self.header_word(vc_id)
        pack = _compile_pack(self.ty)
        if self.payload_words == 1:

            def encode_batch(values: Sequence[Any]) -> List[int]:
                out: List[int] = []
                append = out.append
                for value in values:
                    append(header)
                    append(pack(value))
                return out

            return encode_batch

        n = self.payload_words
        wb = self.word_bits
        mask = (1 << wb) - 1

        def encode_batch(values: Sequence[Any]) -> List[int]:
            out: List[int] = []
            append = out.append
            for value in values:
                bits = pack(value)
                append(header)
                for _ in range(n):
                    append(bits & mask)
                    bits >>= wb
            return out

        return encode_batch

    def decoder(self) -> Callable[[Sequence[int], int], Any]:
        """Compile the payload decoder (shared by every vc of this layout).

        The returned closure reads ``payload_words`` words from ``words``
        starting at ``start`` -- index-based, so the transport dataplane
        decodes straight out of its flat word ring without slicing.
        """
        if self._decoder is not None:
            return self._decoder
        unpack = _compile_unpack(self.ty)
        if self.payload_words == 1:
            decode: Callable[[Sequence[int], int], Any] = (
                lambda words, start: unpack(words[start])
            )
        else:
            n = self.payload_words
            wb = self.word_bits

            def decode(words: Sequence[int], start: int) -> Any:
                bits = 0
                for i in range(n):
                    bits |= words[start + i] << (i * wb)
                return unpack(bits)

        self._decoder = decode
        return decode

    def run_decoder(self) -> Callable[[Sequence[int], int, int], List[Any]]:
        """Compile the run decoder: ``count`` consecutive messages of this
        layout starting at ``start`` (each ``message_words`` long, header
        first) decode to a list of values in one call -- the batched
        hardware-side delivery path."""
        unpack = _compile_unpack(self.ty)
        stride = self.message_words
        if self.payload_words == 1:

            def decode_run(words: Sequence[int], start: int, count: int) -> List[Any]:
                return [
                    unpack(word)
                    for word in words[start + 1 : start + count * stride : stride]
                ]

            return decode_run

        n = self.payload_words
        wb = self.word_bits

        def decode_run(words: Sequence[int], start: int, count: int) -> List[Any]:
            out: List[Any] = []
            append = out.append
            base = start + 1
            for _ in range(count):
                bits = 0
                for i in range(n):
                    bits |= words[base + i] << (i * wb)
                append(unpack(bits))
                base += stride
            return out

        return decode_run

    # -- reference pack/unpack ----------------------------------------------

    def pack_message(self, vc_id: int, value: Any) -> List[int]:
        """Reference framed encoding (header + payload words)."""
        return frame_message(vc_id, marshal_value(self.ty, value, self.word_bits), self.word_bits)

    def unpack_message(
        self, words: Sequence[int], start: int = 0, end: Optional[int] = None
    ) -> Tuple[int, Any]:
        """Reference framed decoding; returns ``(vc_id, value)``."""
        return demarshal_message(self.ty, words, self.word_bits, start, end)


#: One layout per (element type, word width): every layer that touches a
#: channel's bits must go through the same object.
_LAYOUT_CACHE: Dict[Tuple[BCLType, int], MessageLayout] = {}


def layout_for(ty: BCLType, word_bits: int = 32) -> MessageLayout:
    """The canonical :class:`MessageLayout` of ``(ty, word_bits)`` (cached)."""
    key = (ty, word_bits)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = _LAYOUT_CACHE[key] = MessageLayout(ty, word_bits)
    return layout
