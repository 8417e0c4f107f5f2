"""Continuous-media stream containers.

A :class:`MediaStream` is an ordered sequence of LDUs plus a playout rate.
Video streams additionally know their GOP structure; audio and MJPEG
streams have no inter-frame dependency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import StreamError
from repro.media.gop import Gop, GopPattern, group_into_gops
from repro.media.ldu import FrameType, Ldu

#: Identity memo of ``(ldus, pattern)`` pairs that already passed
#: :class:`VideoStream` validation.  Generated fleets wrap one shared LDU
#: tuple in thousands of per-session streams, so re-checking every LDU
#: against the GOP pattern per stream is pure waste.  Each entry pins
#: both objects, so a recycled ``id`` can never vouch for a different
#: tuple (the ``is`` checks); LDUs and patterns are frozen, so a pinned
#: pair stays valid.
_VALIDATED_SIZE = 64
_validated: "OrderedDict[Tuple[int, int], Tuple[tuple, GopPattern]]" = OrderedDict()


def _check_fps(fps: float) -> None:
    if fps <= 0:
        raise StreamError(f"fps must be positive, got {fps}")


@dataclass(frozen=True)
class MediaStream:
    """An ordered, rated sequence of LDUs.

    Parameters
    ----------
    ldus:
        The LDUs in playback order.  Their ``index`` fields must be
        ``0, 1, 2, ...`` so that window arithmetic is trivial.
    fps:
        Playout rate in LDUs per second (frames per second for video).
    name:
        Optional label, e.g. the trace the stream was generated from.
    """

    ldus: Tuple[Ldu, ...]
    fps: float = 30.0
    name: str = ""

    def __post_init__(self) -> None:
        _check_fps(self.fps)
        for expected, ldu in enumerate(self.ldus):
            if ldu.index != expected:
                raise StreamError(
                    f"LDU indices must be consecutive from 0; "
                    f"position {expected} holds index {ldu.index}"
                )

    def __hash__(self) -> int:
        # Memoized: streams key the serving layer's demand cache, and
        # the dataclass-generated hash walks every LDU on each lookup.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.ldus, self.fps, self.name))
            object.__setattr__(self, "_hash", value)
        return value

    def __len__(self) -> int:
        return len(self.ldus)

    def __iter__(self) -> Iterator[Ldu]:
        return iter(self.ldus)

    def __getitem__(self, item):
        return self.ldus[item]

    @property
    def duration_seconds(self) -> float:
        """Ideal playout duration of the whole stream."""
        return len(self.ldus) / self.fps

    @property
    def slot_duration(self) -> float:
        """Length of one playback time slot in seconds."""
        return 1.0 / self.fps

    @property
    def total_bits(self) -> int:
        return sum(ldu.size_bits for ldu in self.ldus)

    @property
    def mean_bitrate_bps(self) -> float:
        """Average encoded bit rate over the ideal playout duration."""
        if not self.ldus:
            return 0.0
        return self.total_bits / self.duration_seconds

    @property
    def has_dependencies(self) -> bool:
        """True if any frame is a dependent (B/P) frame."""
        return any(ldu.frame_type in (FrameType.B, FrameType.P) for ldu in self.ldus)

    def slot_time(self, index: int) -> float:
        """Ideal appearance time of LDU ``index`` (start of its slot)."""
        return index / self.fps

    def window(self, start: int, size: int) -> Tuple[Ldu, ...]:
        """The LDUs of one sender-buffer window ``[start, start + size)``."""
        if start < 0 or size < 0:
            raise StreamError("window start and size must be non-negative")
        return self.ldus[start:start + size]

    def windows(self, size: int) -> Iterator[Tuple[Ldu, ...]]:
        """Iterate consecutive non-overlapping windows of ``size`` LDUs.

        A final partial window is yielded if the stream length is not a
        multiple of ``size``.
        """
        if size <= 0:
            raise StreamError(f"window size must be positive, got {size}")
        for start in range(0, len(self.ldus), size):
            yield self.ldus[start:start + size]


@dataclass(frozen=True)
class VideoStream(MediaStream):
    """A video stream with a known GOP pattern (MPEG-like)."""

    pattern: Optional[GopPattern] = None

    def __post_init__(self) -> None:
        key = (id(self.ldus), id(self.pattern))
        hit = _validated.get(key)
        if hit is not None and hit[0] is self.ldus and hit[1] is self.pattern:
            _validated.move_to_end(key)
            _check_fps(self.fps)  # the only field the memo does not cover
            return
        MediaStream.__post_init__(self)
        if self.pattern is None:
            return
        for ldu in self.ldus:
            expected = self.pattern.type_at(ldu.index)
            if ldu.frame_type is not expected:
                raise StreamError(
                    f"frame {ldu.index} has type {ldu.frame_type}, "
                    f"pattern says {expected}"
                )
        if type(self.ldus) is tuple:
            _validated[key] = (self.ldus, self.pattern)
            if len(_validated) > _VALIDATED_SIZE:
                _validated.popitem(last=False)

    def __hash__(self) -> int:
        # Memoized like the parent's (the dataclass decorator would
        # otherwise regenerate a field-walking hash for the subclass).
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.ldus, self.fps, self.name, self.pattern))
            object.__setattr__(self, "_hash", value)
        return value

    @property
    def gops(self) -> List[Gop]:
        """The stream split into groups of pictures."""
        return group_into_gops(self.ldus)

    @property
    def gop_size(self) -> int:
        if self.pattern is None:
            raise StreamError("stream has no GOP pattern")
        return self.pattern.size

    def max_gop_bits(self) -> int:
        """Size in bits of the largest GOP — the paper's buffer sizing input."""
        return max(g.size_bits for g in self.gops)


def make_independent_stream(
    count: int,
    *,
    size_bits: int = 8 * 1024,
    fps: float = 30.0,
    name: str = "",
) -> MediaStream:
    """Build an MJPEG/audio-like stream of ``count`` independent LDUs."""
    ldus = tuple(
        Ldu(index=i, frame_type=FrameType.X, size_bits=size_bits)
        for i in range(count)
    )
    return MediaStream(ldus=ldus, fps=fps, name=name)


def make_video_stream(
    pattern: GopPattern,
    gop_count: int,
    sizes_bits: Optional[Sequence[int]] = None,
    *,
    fps: float = 24.0,
    name: str = "",
) -> VideoStream:
    """Build a typed video stream of ``gop_count`` GOPs from a pattern.

    Parameters
    ----------
    sizes_bits:
        Per-frame encoded sizes.  When omitted, representative constant
        sizes per frame type are used (I > P > B).
    """
    total = pattern.size * gop_count
    if sizes_bits is not None and len(sizes_bits) != total:
        raise StreamError(
            f"need {total} frame sizes, got {len(sizes_bits)}"
        )
    default_sizes = {FrameType.I: 150_000, FrameType.P: 60_000, FrameType.B: 20_000}
    ldus = []
    for i in range(total):
        ftype = pattern.type_at(i)
        size = sizes_bits[i] if sizes_bits is not None else default_sizes[ftype]
        ldus.append(
            Ldu(
                index=i,
                frame_type=ftype,
                size_bits=size,
                gop_index=i // pattern.size,
                position_in_gop=i % pattern.size,
            )
        )
    return VideoStream(ldus=tuple(ldus), fps=fps, name=name, pattern=pattern)
