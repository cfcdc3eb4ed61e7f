"""Edge streams: the edge-list reader, single-pass enforcement, the
colorability gate.

`StreamSource.from_file` reads an edge-list file: a vertex-count header,
then one edge 'u v' per line. `read_pairs` reads it with numpy in blocks
of `BLOCK_BYTES` (256 KiB) cut at a newline, so no per-line Python code
runs on a valid file, and whole-array checks find every fault. The syntax,
shared with the colors file that `streamcolor verify` reads: ASCII decimal
integers with an optional sign, separated by ASCII whitespace; '#' starts
a comment that runs to the end of the line; a line ends at a line feed (a
carriage return is whitespace, so CRLF files read the same). A faulty
file raises `ParseError` naming its earliest faulty line, counted from 1.

A block of plain lines, 'digits SP digits LF' after the header with no
token over 18 digits (what `streamcolor gen`, `write_edge_list` and
`write_coloring` write), is split at its separators alone. Every other
block goes through the general tokenizer, which is the reference for
every input outside that form and the only path that words a syntax
fault.

The stream abstraction materializes its source once, then hands out
strictly sequential single-consumption passes, each in source order.
Every consumer of a pass is order-invariant, so a file's row order and
each row's orientation change no output.  `stream_source` reads a file,
or builds the source from the edges of the instance that
`generators.instance_from_spec` makes for a generator spec; this module
imports `generators`, never the other way round.

`check_colorability` reads the pre-pass's degree and union-find root
arrays as whole arrays and lists only the components with no
delta-coloring.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from streamcolor.generators import instance_from_spec, is_generator_spec


class StreamError(RuntimeError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def chunk_edges(n: int) -> int:
    """Edges per chunk of a pass over an n-vertex stream: 16n, at least
    4096 and at most 250,000.  A chunk meets each vertex about 32 times,
    so a kernel that builds per-endpoint state once a chunk amortizes it,
    and O(n) edges in flight stay within the semi-streaming O(n polylog n)
    space.

    The cap is not 2^18: then every full chunk's per-incidence int64
    arrays are exactly 4 MiB, and on a 2-core VM host with transparent
    huge pages gathers between such arrays ran 3 to 7 times slower than
    at nearby sizes."""
    return min(max(1 << 12, 16 * n), 250_000)


class EdgeStream:
    """One pass over the edges of an n-vertex stream; pulling after
    exhaustion raises.

    Re-opening (a fresh pass from the same source) is reserved for the
    pre-pass/main-pass pair; the verifier reads `StreamSource.edges`.
    """

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self._edges = edges
        self._cursor = 0
        self.consumed = False

    def chunks(self):
        """Yield (k, 2) int64 edge blocks of `chunk_edges(n)` edges (the
        last one may be shorter) exactly once."""
        if self.consumed:
            raise StreamError("stream already consumed; re-open the source for a new pass")
        size = chunk_edges(self.n)
        if size < 1:                        # a 0-edge block never advances the cursor
            raise ValueError(f"chunk size must be >= 1, got {size}")
        total = self._edges.shape[0]
        while self._cursor < total:
            block = self._edges[self._cursor : self._cursor + size]
            self._cursor += block.shape[0]
            yield block
        self.consumed = True


class StreamSource:
    """Parsed edge data that opens single-pass streams and counts them."""

    def __init__(self, n: int, edges: np.ndarray):
        if n < 1:
            raise ParseError("vertex count must be >= 1")
        self.n = n
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.passes = 0

    @property
    def edges(self) -> np.ndarray:
        """Every edge in source order, for checks where order does not
        matter; reading it is not a pass."""
        return self._edges

    def open(self) -> EdgeStream:
        """Start a new pass over the edges in source order."""
        self.passes += 1
        return EdgeStream(self.n, self._edges)

    @classmethod
    def from_file(cls, path: str) -> "StreamSource":
        """Read an edge-list file: a vertex-count header n >= 1, then one
        edge 'u v' per line with u != v, both in [0, n), and no edge twice
        in either orientation. Edges keep file order, each as (min, max).

        The syntax is `read_pairs`': ASCII decimal integers, whitespace
        separated, '#' comments, blank lines skipped. The file is read in
        blocks of `BLOCK_BYTES` bytes, each checked as whole arrays; the
        duplicate check is one sort of min*base+max codes over all edges.

        A faulty file raises `ParseError` at its earliest faulty line;
        within a line the checks run in the order arity, integer,
        self-loop, range, duplicate. A duplicate is reported at its second
        occurrence. An endpoint past int64 is out of range, even when both
        endpoints are the same number.
        """
        n, edges, lines, fault = read_pairs(path, _EDGE_MESSAGES, header=True)
        if n is None:
            raise ParseError("empty input: missing vertex-count header")
        u, v = edges[:, 0], edges[:, 1]
        loop = u == v
        lo = np.minimum(u, v)
        np.maximum(u, v, out=v)
        u[:] = lo
        bad = loop | (lo < 0) | (v >= n)
        if bad.any():
            i = int(bad.argmax())
            line = int(lines[i])
            if loop[i]:
                fault = ParseError(f"self-loop {int(lo[i])}", line)
            else:
                fault = ParseError(_EDGE_MESSAGES[2].format(_line_text(path, line)), line)
            edges = edges[:i]
        del lo, loop, bad
        base = int(edges[:, 1].max()) + 1 if edges.size else 1
        if base <= _MAX_CODE_BASE:
            keys = edges[:, 0] * base + edges[:, 1]
        else:   # (lo, hi) records sort the same way, only slower
            keys = np.ascontiguousarray(edges).view(_PAIR).ravel()
        i = first_repeat(keys)
        if i >= 0:
            raise ParseError(f"duplicate edge {tuple(edges[i].tolist())}", int(lines[i]))
        if fault is not None:
            raise fault
        return cls(n, edges)


# ---------------------------------------------------------------------------
# Two-integer line files: the edge list and the colors file
# ---------------------------------------------------------------------------

BLOCK_BYTES = 1 << 18
# messages for a line of the wrong arity, a non-integer, an integer past int64
_EDGE_MESSAGES = ("expected 'u v', got {!r}", "non-integer endpoint in {!r}",
                  "endpoint out of range in {!r}")
_MAX_DIGITS = 18                                # every 18-digit integer fits int64
_MAX_CODE_BASE = 3037000499                     # base * base < 2**63
_PAIR = np.dtype([("lo", np.int64), ("hi", np.int64)])
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _blocks(path: str):
    """The file's bytes in blocks of about BLOCK_BYTES, each cut after its
    last newline (a line longer than a block joins the next one); the last
    block gets a newline if the file lacks one."""
    rest = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(BLOCK_BYTES):
            data = rest + chunk
            cut = data.rfind(b"\n") + 1
            if cut:
                yield data[:cut]
            rest = data[cut:]
    if rest:
        yield rest + b"\n"


def _line_text(path: str, line: int) -> str:
    """Line `line` (from 1) as error messages quote it: the text before any
    '#', stripped."""
    with open(path, "rb") as fh:
        raw = next(itertools.islice(fh, line - 1, None))
    return raw.split(b"#", 1)[0].strip().decode("utf-8", "replace")


def _vertex_count(path: str, line: int, fields: int) -> int:
    """The header on line `line`, which holds `fields` fields."""
    text = _line_text(path, line)
    if fields != 1 or _INTEGER.fullmatch(text) is None:
        raise ParseError(f"expected vertex count, got {text!r}", line)
    if int(text) < 1:
        raise ParseError("vertex count must be >= 1", line)
    return int(text)


def _integers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
              other: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values of the tokens [starts, ends) of buf, the tokens that are not
    an optionally signed decimal integer, and those past int64.
    `other` holds the positions of the token bytes that are not digits."""
    lead = buf[starts]
    sign = (lead == ord("+")) | (lead == ord("-"))
    first = starts + sign
    width = ends - first
    bad = np.flatnonzero(width == 0)
    if other.size:
        # a non-digit byte is allowed only as the sign of its token
        other = other[~np.isin(other, starts[sign], assume_unique=True)]
        bad = np.union1d(bad, np.searchsorted(starts, other, side="right") - 1)
    vals = np.zeros(starts.size, dtype=np.int64)
    for j in range(min(int(width.max(initial=0)), _MAX_DIGITS)):
        digit = np.take(buf, first + j, mode="clip") - ord("0")
        np.copyto(vals, vals * 10 + digit, where=width > j)
    vals[lead == ord("-")] *= -1
    wide = []
    for t in np.flatnonzero(width > _MAX_DIGITS):
        value = 0 if t in bad else int(buf[starts[t]:ends[t]].tobytes())
        if -(1 << 63) <= value < 1 << 63:
            vals[t] = value
        else:
            wide.append(t)
    return vals, bad, np.array(wide, dtype=np.int64)


def read_pairs(path: str, messages: tuple[str, str, str], header: bool = False):
    """Read a file whose lines each hold two integers, with numpy.

    Syntax: a line ends at '\\n'; '#' starts a comment to the line's end;
    fields are separated by ASCII whitespace (space, tab, CR, LF, VT, FF);
    a field is an ASCII decimal integer with an optional '+' or '-';
    lines with no field are skipped. With `header`, the first non-blank
    line holds a single integer, the vertex count, which must be >= 1; a
    fault there raises at once.

    The file is read in blocks of `BLOCK_BYTES` cut at their last newline,
    each tokenized as whole arrays in one of two ways:
    - A block of plain lines, the form `cli.write_edge_list` and
      `write_coloring` write, is split at one `flatnonzero` of its
      separators (`_plain_tokens`). Plain means: after the header, only
      ASCII digits, spaces and line feeds, alternating 'digits SP digits
      LF', no token over 18 digits. Such a block has no syntax fault, and
      its k-th pair sits on its k-th line. A header line of digits alone
      is read first, so the rest of its block can be plain.
    - Any other block goes through the general tokenizer (`_fields`): a
      whitespace mask, token starts and ends, a token -> line map from a
      running newline count, and the arity of each line from a
      `bincount`. It is the reference for every input the plain form does
      not cover, and the only path that words a syntax fault.
    Either way each token becomes one int64 value in `_integers`.

    Returns (header or None, pairs, lines, fault): pairs is (k, 2) int64 in
    file order, lines the file line (from 1) of each pair, and fault a
    `ParseError` for the earliest line with the wrong number of fields
    (messages[0]), a non-integer (messages[1]) or an integer past int64
    (messages[2]), each formatted with the line's text, or None. Pairs stop
    before the fault's line, and no block after it is read.
    """
    n = None
    pairs, lines = [], []
    fault = None
    first_line = 1
    for data in _blocks(path):
        if header and n is None:
            cut = data.find(b"\n")
            if data[:cut].isdigit():                # a header of digits alone
                n = _vertex_count(path, first_line, 1)
                data, first_line = data[cut + 1 :], first_line + 1
                if not data:
                    continue
        buf = np.frombuffer(data, dtype=np.uint8)
        plain = None if header and n is None else _plain_tokens(buf)
        if plain is not None:
            vals = _integers(buf, *plain, np.empty(0, dtype=np.int64))[0]
            pairs.append(vals.reshape(-1, 2))
            lines.append(np.arange(first_line, first_line + vals.size // 2, dtype=np.int32))
            first_line += vals.size // 2
            continue
        space, starts, ends, tline, nlines = _fields(buf, data)
        if header and n is None:
            if not starts.size:
                first_line += nlines
                continue
            line = first_line + int(tline[0])
            n = _vertex_count(path, line, int(np.count_nonzero(tline == tline[0])))
            space[: ends[0]] = True                 # the header is no field
            starts, ends, tline = starts[1:], ends[1:], tline[1:]
        arity = np.bincount(tline, minlength=nlines)
        other = np.flatnonzero(~space & ((buf - ord("0")) > 9))
        vals, bad, wide = _integers(buf, starts, ends, other)
        # block lines failing each check, in the order a line is checked
        faults = [np.flatnonzero((arity != 0) & (arity != 2)), tline[bad], tline[wide]]
        stop = min((int(f.min()) for f in faults if f.size), default=nlines)
        if stop < nlines:
            kind = next(k for k, f in enumerate(faults) if stop in f)
            line = first_line + stop
            fault = ParseError(messages[kind].format(_line_text(path, line)), line)
        k = int(np.searchsorted(tline, stop))
        if k:
            pairs.append(vals[:k].reshape(-1, 2))
            lines.append(first_line + tline[:k:2])
        if fault is not None:
            break
        first_line += nlines
    if not pairs:
        return n, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), fault
    return n, np.concatenate(pairs), np.concatenate(lines), fault


def _plain_tokens(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Token starts and ends of a block of plain lines 'digits SP digits
    LF' with no token over `_MAX_DIGITS` digits, or None for any other
    block. Every byte below '0' is a separator, so one `flatnonzero` finds
    them all; the block ends in a line feed, so an odd count of them fails
    the check for spaces."""
    if buf.max() > ord("9"):
        return None
    ends = np.flatnonzero(buf < ord("0"))
    seps = buf[ends]
    if (seps[0::2] != ord(" ")).any() or (seps[1::2] != ord("\n")).any():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    width = ends - starts
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        return None
    return starts, ends


def _fields(buf: np.ndarray, data: bytes):
    """The general tokenizer: (whitespace mask, token starts, token ends,
    block line (from 0) of each token, lines in the block)."""
    newlines = np.cumsum(buf == ord("\n"), dtype=np.int32)
    space = (buf == ord(" ")) | ((buf - ord("\t")) < 5)   # space, \t \n \v \f \r
    if b"#" in data:
        space |= _comments(buf, newlines)
    bounds = np.flatnonzero(np.diff(~space, prepend=False))
    starts = bounds[0::2]
    return space, starts, bounds[1::2], newlines[starts], int(newlines[-1])


def _comments(buf: np.ndarray, newlines: np.ndarray) -> np.ndarray:
    """Mask of the bytes from each line's first '#' to its end."""
    hashes = np.flatnonzero(buf == ord("#"))
    hline = newlines[hashes]
    first = hashes[np.concatenate([[True], hline[1:] != hline[:-1]])]
    stop = np.flatnonzero(buf == ord("\n"))[newlines[first]]
    mark = np.zeros(buf.size, dtype=np.int8)
    mark[first] = 1
    mark[stop] = -1
    return np.cumsum(mark, dtype=np.int8).astype(bool)


def first_repeat(keys: np.ndarray) -> int:
    """Index of the earliest entry of keys equal to an earlier one, or -1.
    One sort on the way; the stable argsort only when there is a repeat."""
    s = np.sort(keys)
    if not (s[1:] == s[:-1]).any():
        return -1
    order = np.argsort(keys, kind="stable")
    later = np.flatnonzero(keys[order[1:]] == keys[order[:-1]]) + 1
    return int(order[later].min())


def stream_source(source: str, seed: int = 0) -> StreamSource:
    """The source a file path or generator spec names; `seed` picks the
    generator's instance."""
    if is_generator_spec(source):
        inst = instance_from_spec(source, seed)
        return StreamSource(inst.n, inst.edges)
    return StreamSource.from_file(source)


# ---------------------------------------------------------------------------
# Colorability gate
# ---------------------------------------------------------------------------

CLIQUE_COMPONENT = "CliqueComponent"
ODD_CYCLE_COMPONENT = "OddCycleComponent"


def check_colorability(roots: np.ndarray, degrees: np.ndarray, delta: int) -> list[dict]:
    """The components with no proper coloring in delta colors (Brooks):
    exactly a (delta+1)-clique or, at delta=2, an odd cycle.

    roots holds each vertex's union-find root and degrees its degree. A
    component is listed as {"verdict", "vertices" (its first 12,
    ascending), "size"}, in ascending root order; a colorable one yields
    nothing. The roots are sorted once, and each component's size and
    minimum degree are whole-array reductions.
    """
    if delta != int(degrees.max()):
        raise ValueError(f"delta={delta} inconsistent with census max degree")
    order = np.argsort(roots, kind="stable")
    sorted_roots = roots[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_roots[1:] != sorted_roots[:-1]]))
    sizes = np.diff(starts, append=roots.size)
    # delta is the maximum degree, so a component whose minimum is delta is
    # connected and delta-regular: with delta+1 vertices a clique, and at
    # delta=2 a cycle, odd when its size is
    bad = np.minimum.reduceat(degrees[order], starts) == delta
    bad &= (sizes % 2 == 1) if delta == 2 else (sizes == delta + 1)
    verdict = ODD_CYCLE_COMPONENT if delta == 2 else CLIQUE_COMPONENT
    return [{"verdict": verdict, "vertices": order[a : a + min(size, 12)].tolist(), "size": size}
            for a, size in zip(starts[bad].tolist(), sizes[bad].tolist())]
