"""The per-symbol entropy encoder: test-only reference for ``encode_plane``.

One ``BitWriter.write`` per Huffman code and per magnitude, in stream
order.  ``repro.mjpeg.encoder.encode_plane`` codes a whole plane with
array operations and must produce the same bits; the property tests in
``tests/mjpeg/test_encode_plane.py`` and ablation A13
(``benchmarks/test_ablation_entropy_encode.py``) compare the two.
"""

import numpy as np

from repro.mjpeg.huffman import EOB, STD_AC_LUMA, STD_DC_LUMA, ZRL


def encode_plane_reference(writer, qzz, dc_table=STD_DC_LUMA, ac_table=STD_AC_LUMA):
    """Encode (n, 64) quantized zigzag blocks one symbol at a time."""
    qzz = np.asarray(qzz)
    n_blocks = qzz.shape[0]
    if n_blocks == 0:
        return
    dcs = qzz[:, 0].astype(np.int64)
    diffs = np.empty(n_blocks, dtype=np.int64)
    diffs[0] = dcs[0]
    if n_blocks > 1:
        np.subtract(dcs[1:], dcs[:-1], out=diffs[1:])
    rows, cols = np.nonzero(qzz[:, 1:])
    cols = cols + 1
    bounds = np.searchsorted(rows, np.arange(n_blocks + 1)).tolist()
    cols_l = cols.tolist()
    vals_l = qzz[rows, cols].tolist()
    diffs_l = diffs.tolist()

    dc_enc = dc_table.encode_map
    ac_enc = ac_table.encode_map
    zrl_code, zrl_len = ac_enc[ZRL]
    eob_code, eob_len = ac_enc[EOB]
    w_write = writer.write
    for b in range(n_blocks):
        diff = diffs_l[b]
        category = diff.bit_length() if diff >= 0 else (-diff).bit_length()
        code, length = dc_enc[category]
        w_write(code, length)
        if category:
            w_write(diff + (1 << category) - 1 if diff < 0 else diff, category)
        prev_k = 0
        for i in range(bounds[b], bounds[b + 1]):
            k = cols_l[i]
            value = vals_l[i]
            run = k - prev_k - 1
            while run > 15:
                w_write(zrl_code, zrl_len)
                run -= 16
            category = value.bit_length() if value >= 0 else (-value).bit_length()
            code, length = ac_enc[(run << 4) | category]
            w_write(code, length)
            w_write(value + (1 << category) - 1 if value < 0 else value, category)
            prev_k = k
        if prev_k < 63:
            w_write(eob_code, eob_len)
