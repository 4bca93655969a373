"""Synthetic Motion-JPEG streams.

The paper's inputs are "two different input files containing 578 and 3000
JPEG images respectively.  The dimensions of each single image are the
same in both cases."  Those files are not available, so we synthesise
moving-texture frames (gradient + drifting sinusoid + seeded noise),
encode them with our baseline encoder, and package the result as an
in-memory stream.  Per-frame decode work (Huffman symbols, blocks,
IDCTs) therefore matches a real stream of the same geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.mjpeg.encoder import EncodedFrame, encode_image

#: Default frame geometry: 96x96 -> 144 blocks -> 18 batches of 8 blocks.
DEFAULT_HEIGHT = 96
DEFAULT_WIDTH = 96


def synthetic_frame(
    index: int,
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One uint8 frame of drifting structured texture."""
    y = np.arange(height).reshape(-1, 1)
    x = np.arange(width).reshape(1, -1)
    phase = index * 0.31
    img = (
        96.0
        + 40.0 * np.sin(2 * np.pi * (x / 24.0) + phase)
        + 30.0 * np.cos(2 * np.pi * (y / 32.0) - phase / 2)
        + 20.0 * ((x + y + 3 * index) % 64) / 64.0
    )
    if rng is not None:
        img = img + rng.normal(0.0, 4.0, size=(height, width))
    return np.clip(img, 0, 255).astype(np.uint8)


@dataclass
class FrameRecord:
    """One stream entry: the encoded frame plus its index."""

    index: int
    frame: EncodedFrame

    @property
    def n_bits(self) -> int:
        """Entropy-coded payload length in bits."""
        return self.frame.n_bits

    @property
    def n_blocks(self) -> int:
        """Number of 8x8 blocks in the frame."""
        return self.frame.n_blocks


class MJPEGStream:
    """An in-memory sequence of independently encoded frames."""

    def __init__(self, records: List[FrameRecord], height: int, width: int, quality: int) -> None:
        if not records:
            raise ValueError("a stream needs at least one frame")
        self.records = records
        self.height = height
        self.width = width
        self.quality = quality

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FrameRecord]:
        return iter(self.records)

    def __getitem__(self, i: int) -> FrameRecord:
        return self.records[i]

    @property
    def n_blocks_per_frame(self) -> int:
        """Blocks per frame (constant across the stream)."""
        return self.records[0].n_blocks


def generate_stream(
    n_images: int,
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    quality: int = 75,
    seed: int = 0,
    noise: bool = True,
) -> MJPEGStream:
    """Generate and encode ``n_images`` synthetic frames."""
    if n_images <= 0:
        raise ValueError(f"n_images must be positive, got {n_images}")
    rng = np.random.default_rng(seed) if noise else None
    records = []
    for i in range(n_images):
        frame = encode_image(synthetic_frame(i, height, width, rng), quality=quality)
        records.append(FrameRecord(index=i, frame=frame))
    return MJPEGStream(records, height, width, quality)
