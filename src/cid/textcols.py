"""Lines of ASCII text laid out from literal strings and whole columns of
numbers (`'%.{d}f' % v` for every value v) and labels, formatted with numpy.

`rows` lays such parts side by side into the lines of a CSV body or an SVG
element list, a block at a time. It fills rows of one byte buffer in place
(`_Layout`), each text in its slot, padded with NUL bytes that it drops.
Numbers are rounded in numpy wherever the result is provably correctly
rounded (see `FAST_LIMIT`); every other value goes to Python's own `%`.
"""

from __future__ import annotations

import csv
from bisect import bisect_left

import numpy as np

# The fast path computes y = |x| * 10**d in floating point and rounds it to
# the nearest integer, ties to even. Rounding to nearest is monotone, and
# below FAST_LIMIT every half-integer is a float, so the float product lies
# on the same side of a half-integer as the exact one, or on it. Only a
# product that is exactly a half-integer can round the wrong way; for those
# the exact product's remainder (Dekker's two-product) picks the side.
# Larger values, non-finite ones and more than FAST_DECIMALS decimals go to
# Python's own '%.*f'.
FAST_LIMIT = 2.0**52
# 10**d = 2**d * 5**d has at most 26 significant bits up to d = 11, so the
# two-product needs to split only the value.
FAST_DECIMALS = 11
_SPLIT = 2.0**27 + 1  # Veltkamp's splitting constant for float64
# Most bytes of a block of rows, and of any temporary array: big enough to
# amortise numpy's per-call cost, and below glibc's 128 KiB mmap threshold,
# so that freed memory is reused rather than mapped and faulted in afresh.
BLOCK_BYTES = 2**16

# DIGIT_GROUPS[k] holds the four ASCII digits of '%04d' % k, read as one
# native-order uint32: entry (a, b, c, d) of a 10x10x10x10 array of digit
# quadruples is k = 1000a + 100b + 10c + d.
_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
_quads[..., 0] = _digits[:, None, None, None]
_quads[..., 1] = _digits[:, None, None]
_quads[..., 2] = _digits[:, None]
_quads[..., 3] = _digits
DIGIT_GROUPS = _quads.reshape(10_000, 4).view(np.uint32)[:, 0]
del _digits, _quads


def _product_error(a, b: float, p):
    """a * b - p exactly, for p = fl(a * b) and b with at most 26
    significant bits (Dekker 1971, with Veltkamp's split of a)."""
    c = _SPLIT * a
    a_hi = c - (c - a)
    return (a_hi * b - p) + (a - a_hi) * b


def _rounded(values, scale: float, limit=None):
    """round(|v| * scale) for every value v, as floats: correctly rounded,
    ties to even, and 0 where |v| * scale is not below limit, if given."""
    y = np.abs(values)
    if limit is None:
        y *= scale
    else:
        with np.errstate(over="ignore"):
            y *= scale
        y[~(y < limit)] = 0.0  # NaN included
    r = np.rint(y)
    y -= r
    tie = (np.abs(y, out=y) == 0.5).nonzero()[0]
    if len(tie):
        a = np.abs(values[tie])
        p = a * scale
        e = _product_error(a, scale, p)
        r[tie] = np.where(e == 0, r[tie], p + np.copysign(0.5, e))
    return r


class _Layout:
    """Where each part of a line lies in a row of `width` bytes, and how a
    block of rows is filled in place.

    A float column's slot is as wide as its widest text, and at least four
    bytes. q = round(|v| * 10**d), an integer below 2**52, is converted to
    int64 exactly and split once into its integer part and its d decimals,
    which are joined again with a 0 digit between them, where the point
    goes. Its digits go in as four-byte words ending at the slot's end, top
    word first, one integer division by 10**(4j) each. A word may reach up
    to `margin` bytes left of its slot; what it covers there is written
    after it: a lower word of an earlier slot (slots are at least four
    bytes wide), a label, or a literal byte put back, as the point is.
    Last, digits not every value of a column has are blanked left of each
    value's first digit, and the sign is put just before it.
    """

    def __init__(self, n: int, parts, decimals: int):
        self.scale = scale = 10.0**decimals
        limit = FAST_LIMIT if decimals <= FAST_DECIMALS else 0.0
        frac_w = decimals + (1 if decimals else 0)  # point and decimals
        skeleton, starts, ends, lead = bytearray(), [], [], []
        self.floats, self.labels, self.texts = [], [], []
        k_top, self.signed = 1, False
        for part in parts:
            at = len(skeleton)
            if part is None or isinstance(part, str):  # None: empty
                if "\0" in (part or ""):
                    raise ValueError(f"literal holds a NUL byte: {part!r}")
                skeleton += (part or "").encode("ascii")
            elif isinstance(part, tuple):  # texts padded on the right
                table = np.array([text.encode("ascii") for text in part[0]])
                self.labels.append((at, table.view(np.uint8).reshape(
                    len(table), -1), part[1]))
                skeleton += bytes(table.itemsize)
            else:  # a float column
                c, x = len(starts), np.asarray(part, dtype=float)
                lowest, highest = ((float(x.min()), float(x.max())) if n
                                   else (0, 0))
                largest, texts = max(highest, -lowest) * scale, []
                if not largest < limit:  # NaN fails here too
                    with np.errstate(over="ignore"):
                        y = np.abs(x) * scale
                    fast = y < limit
                    texts = [(i, c, b"%.*f" % (decimals, x[i]))
                             for i in np.flatnonzero(~fast).tolist()]
                    largest = float(y[fast].max(initial=0.0))
                # integer digits: one more where the largest product rounds,
                # as a tie, up to a power of ten its exact product misses
                k = max(len(str(round(largest))) - decimals, 1)
                # -0.0 prints a sign too, as does any value whose sign bit
                # is set, which makes it negative read as an int64
                sign = lowest < 0 or (not lowest > 0 and n > 0
                                      and x.view(np.int64).min() < 0)
                w = max(sign + k + frac_w, 4, *(len(t) for *_, t in texts))
                # the integer digits every value has: int() of the float
                # product never has more digits than the rounded exact one
                smallest = 0 if texts else max(lowest, -highest, 0) * scale
                k_low = max(len(str(int(smallest))) - decimals, 1)
                # digit m shows if the integer part (< 10**k) is >= 10**m;
                # the sign goes there if digit m - 1 shows but m does not
                lead += [(c, at + w - frac_w - 1 - m, 10**min(m, k),
                          10**min(m - 1, k) * (m > 1))
                         for m in range(k_low, w - frac_w)]
                self.floats.append(x)
                self.texts += texts
                starts.append(at)
                ends.append(at + w)
                skeleton += bytes(w - frac_w) + b"."[:frac_w] + bytes(decimals)
                k_top, self.signed = max(k_top, k), self.signed or sign
        self.texts.sort()
        self.limit = limit if self.texts else None
        self.skeleton = np.frombuffer(bytes(skeleton), dtype=np.uint8)
        self.width = W = len(self.skeleton)
        self.step = max(1, BLOCK_BYTES // max(  # rows; 16 bytes a value
            W, 16 * len(ends), 16 * len(lead), 1))
        self.starts, self.ends = starts, np.array(ends, dtype=np.intp)
        n_words = -(-(k_top + frac_w) // 4)  # of four bytes, for every digit
        self.margin = 4 * n_words
        # (10**(4j), columns of a uint32 view whose rows start margin bytes
        # early) of each word j, the top word first
        self.words = [(10**(4 * j), self.ends + (self.margin - 4 * j - 4))
                      for j in reversed(range(n_words))]
        self.unit, self.spread = 10**decimals, 9 * 10**decimals * (frac_w > 0)
        # the points, and the literal bytes the words cover
        self.restore = np.array([p % W for end in self.ends.tolist() for p in
                                 range(end - self.margin, end)
                                 if skeleton[p % W]], dtype=np.intp)
        self.restored = self.skeleton[self.restore]
        self.lead_col, self.lead_at, *thresholds = np.array(
            lead, dtype=np.int64).reshape(-1, 4).T
        self.shows_from, self.sign_from = np.array(thresholds)[..., None]

    def fill(self, buf, lo: int, hi: int) -> np.ndarray:
        """Write rows lo to hi into the flat uint8 buf, row lo at byte
        margin, and return them as a (rows, width) matrix. The literal bytes
        must be there already."""
        n, W, margin = hi - lo, self.width, self.margin
        block = buf[margin:margin + n * W].reshape(n, W)
        if self.floats and self.limit != 0:  # 0: every value is slow
            v = np.concatenate([x[lo:hi] for x in self.floats])  # by column
            q = _rounded(v, self.scale, self.limit).astype(np.int64)
            whole = q // self.unit  # the integer part
            q += whole * self.spread  # and a 0 digit where the point goes
            whole = whole.reshape(-1, n)[self.lead_col]
            shows = whole >= self.shows_from
            if self.signed:
                dash = (whole >= self.sign_from) > shows
                dash &= np.signbit(v).reshape(-1, n)[self.lead_col]
            words = np.ndarray((n, W + margin - 3), np.uint32, buf, 0, (W, 1))
            for power, at in self.words:
                top = q // power if power > 1 else q
                words[:, at] = DIGIT_GROUPS.take(top).reshape(-1, n).T
                if power > 1:
                    q -= top * power
            block[:, self.restore] = self.restored
            digits = block[:, self.lead_at]
            digits *= shows.T
            if self.signed:
                np.copyto(digits, ord("-"), where=dash.T)
            block[:, self.lead_at] = digits
        for at, table, codes in self.labels:
            block[:, at:at + table.shape[1]] = table.take(codes[lo:hi], axis=0)
        for i, c, text in self.texts[bisect_left(self.texts, (lo,)):
                                     bisect_left(self.texts, (hi,))]:
            slot = block[i - lo, self.starts[c]:self.ends[c]]
            slot[:] = 0
            slot[len(slot) - len(text):] = np.frombuffer(text, dtype=np.uint8)
        return block


def rows(n: int, parts, sep: str = "", decimals: int = 6):
    """n lines laid out from parts, joined by sep, as blocks of ASCII bytes:
    as many lines as fill BLOCK_BYTES each (see `_Layout.step`).

    Each part is a literal string (or None, for none), the same on every
    line; an array of n floats, which gives line i the text
    `'%.{decimals}f'` of its value i; or a pair (texts, codes), which gives
    line i the text texts[codes[i]]. The blocks are filled in turn into one
    row buffer of at most BLOCK_BYTES that holds every literal, and each
    block's padding is dropped as it is yielded, into bytes the caller owns.
    No temporary holds more than BLOCK_BYTES: for finite values below
    2**52 / 10**decimals, whatever n is.
    """
    layout = _Layout(n, [*parts, sep], decimals)
    step, margin = layout.step, layout.margin
    buf = np.zeros(margin + min(step, n) * layout.width, dtype=np.uint8)
    buf[margin:].reshape(min(step, n), layout.width)[:] = layout.skeleton
    for lo in range(0, n, step):
        block = layout.fill(buf, lo, min(lo + step, n))
        piece = block[block != 0].tobytes()
        yield piece[:len(piece) - len(sep)] if lo + step >= n else piece


def read_columns(path, columns: tuple) -> list:
    """Each row's cells in the named columns of a CSV file with a header
    line, as strings ("" where a row is short). A byte-order mark (U+FEFF)
    before the header, as spreadsheets write one, is not part of the first
    name. A missing column, or a file the csv module cannot read, is a
    ValueError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        try:
            names = reader.fieldnames or [""]
            reader.fieldnames = [names[0].removeprefix("\ufeff"), *names[1:]]
            for column in columns:
                if column not in reader.fieldnames:
                    raise ValueError(f"{path} has no {column!r} column")
            return [tuple(row[c] for c in columns) for row in reader]
        except csv.Error as err:  # e.g. a field over the csv field size limit
            raise ValueError(f"{path}: {err}") from err
