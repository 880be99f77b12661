"""Immutable undirected graphs with unweighted shortest-path metrics."""

from __future__ import annotations

import re
from itertools import chain, compress
from typing import Iterable, Iterator

from .errors import Disconnected, InvalidEdge, ParseError, TooLarge

# Largest vertex count parse_graph accepts.  A header is checked against it
# before any per-vertex allocation, so a hostile one cannot exhaust memory.
MAX_VERTICES = 1 << 16

# parse_graph splits its text in blocks that end at the first line break
# after this many characters, about 550 edge lines of a reduction.
_BLOCK_CHARS = 1 << 12

# A line break as str.splitlines knows it, "\r\n" as one.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")

# bytes.translate table from the digits of bin() to the bytes 0 and 1.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class Graph:
    """Undirected simple graph on vertices ``0 .. vertex_count-1``.

    Vertices are bare indices with no names; what one stands for is read
    off its owner's layout.  ``edge_list`` may be any iterable, read once.
    The keyword ``clique`` names vertices that are pairwise adjacent
    besides, given as members rather than as pairs: each member's mask is
    ORed with the clique's mask, so a clique K costs O(|K|) big-int steps
    instead of |K|(|K| - 1)/2 pairs.  Members are validated like edge
    endpoints: InvalidEdge for one out of range or repeated.  The clique is
    stored on the graph: the distance sweep shares its members' balls, and
    the concavity test skips the boundary edges inside it.  It is an input
    form only: ``==``, ``hash``, ``edges`` and the text format see the
    same graph as one built from every pair, so a parsed graph, which has
    no stored clique, gives the same answers.

    Instances are immutable after construction.  The constructor builds
    only the adjacency bitmasks (bit w of mask v is set when vw is an
    edge).  Two structures are derived from them on first use and cached,
    because queries read them again and again: the BFS distance layers
    (per vertex, one bitmask of the vertices at each distance), which the
    metric, interval and hull queries and the searches walk, and the
    per-pair betweenness table, a reference view that tests and the
    benchmark's tracer read.  Each is identical no matter which thread
    asks first, so graphs are safe to share without locking.  The edge
    tuple, the distance matrix and neighbour sets are built on each call:
    no library path reads them, and the matrix has V^2 entries and the
    table V^3 bits, which would dominate the memory of a large graph.

    Edges read as ``(min, max)`` pairs in sorted order whatever order and
    orientation they were given in, which makes structural equality and
    the text format byte-stable.
    """

    __slots__ = ("vertex_count", "_adj_mask", "_clique", "_layers", "_between")

    def __init__(self, vertex_count: int,
                 edge_list: Iterable[tuple[int, int]], *,
                 clique: Iterable[int] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        masks = [0] * vertex_count
        for u, v in edge_list:
            if u == v:
                raise InvalidEdge(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidEdge(
                    f"edge ({u},{v}) out of range for {vertex_count} vertices")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        members = tuple(clique)
        clique_mask = 0
        for v in members:
            if not 0 <= v < vertex_count:
                raise InvalidEdge(f"clique member {v} out of range for "
                                  f"{vertex_count} vertices")
            if clique_mask >> v & 1:
                raise InvalidEdge(f"clique member {v} repeated")
            clique_mask |= 1 << v
        for v in members:
            masks[v] |= clique_mask ^ 1 << v
        self.vertex_count = vertex_count
        self._adj_mask = tuple(masks)
        self._clique = clique_mask
        # The sweep once run, or () when the graph is empty or disconnected.
        self._layers: tuple[tuple[int, ...], ...] | None = None
        self._between: list[list[int]] | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as a ``(min, max)`` pair, sorted; read off the upper
        triangle of the adjacency masks on each call."""
        edges = []
        for u, mask in enumerate(self._adj_mask):
            above = u + 1
            edges.extend((u, above + w) for w in mask_members(mask >> above))
        return tuple(edges)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self._adj_mask) // 2

    @property
    def full_mask(self) -> int:
        """Bitmask with one bit per vertex."""
        return (1 << self.vertex_count) - 1

    def neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(self, v)
        return frozenset(mask_members(self._adj_mask[v]))

    def adjacency_mask(self, v: int) -> int:
        """Neighbours of v as a bitmask.  The inner-loop accessor, so v is
        not range-checked: the caller must pass 0 <= v < vertex_count."""
        return self._adj_mask[v]

    def adjacent(self, u: int, v: int) -> bool:
        """False, not an error, when either endpoint is out of range."""
        return (0 <= u < self.vertex_count and v >= 0
                and bool(self._adj_mask[u] >> v & 1))

    def _sweep_layers(self) -> tuple[tuple[int, ...], ...]:
        """Bitmask BFS from every vertex at once: entry [u][k] holds the
        vertices at distance k from u, within u's component.

        Layer 1 is u's adjacency mask.  Beyond it, the vertices within
        distance k + 1 of u are those within k of u or of a neighbour of u,
        so each sweep ORs the neighbours' radius-k balls into u's, walking
        the bits of u's adjacency mask in place, and what is new is u's next
        layer.  Every member of the stored clique sees all the others, so
        the members' balls are ORed once per sweep and shared: a growing
        member takes that union and walks only its neighbours outside the
        clique.  A source drops out once its ball holds every vertex, or
        stops growing, as it does in a disconnected graph.
        """
        adj = self._adj_mask
        full = self.full_mask
        clique = self._clique
        members = mask_members(clique)
        balls = [mask | 1 << u for u, mask in enumerate(adj)]
        layers = [[1 << u, mask] if mask else [1 << u]
                  for u, mask in enumerate(adj)]
        growing = [u for u, ball in enumerate(balls) if ball != full]
        while growing:
            previous = balls[:]
            shared = 0
            for k in members:
                shared |= previous[k]
            still = []
            for u in growing:
                ball = old = previous[u]
                rest = adj[u]
                if clique >> u & 1:
                    ball |= shared
                    rest &= ~clique
                while rest:
                    low = rest & -rest
                    ball |= previous[low.bit_length() - 1]
                    rest ^= low
                if ball != old:
                    layers[u].append(ball ^ old)
                    balls[u] = ball
                    if ball != full:
                        still.append(u)
            growing = still
        return tuple(map(tuple, layers))

    @property
    def is_connected(self) -> bool:
        if self._layers is None:
            # No vertex to start from: metric operations reject this.
            layers = self._sweep_layers() if self.vertex_count else ()
            # Layers are disjoint, so their sum is their union.
            if layers and sum(layers[0]) != self.full_mask:
                layers = ()
            self._layers = layers
        return bool(self._layers)

    # -- metrics ----------------------------------------------------------

    def distance_layers(self) -> tuple[tuple[int, ...], ...]:
        """Entry [u][k] is the bitmask of vertices at distance k from u.

        Row u has eccentricity(u) + 1 entries.  Computed together with
        connectivity; raises Disconnected when the metric is undefined.
        """
        if not self.is_connected:
            raise Disconnected(
                f"graph with {self.vertex_count} vertices is not connected")
        return self._layers

    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop counts, read off the distance layers; raises
        Disconnected when undefined.  A reference view: the library's own
        metric queries read the layers directly."""
        rows = []
        for layers in self.distance_layers():
            dist = [0] * self.vertex_count
            for k, layer in enumerate(layers):
                for w in mask_members(layer):
                    dist[w] = k
            rows.append(tuple(dist))
        return tuple(rows)

    def between_table(self) -> list[list[int]]:
        """Table of bitmasks: entry [u][v] holds every w on a shortest u-v path.

        Includes u and v themselves.  A reference view, like
        ``distances()``: no library path reads it, since the convexity
        operations and the hull-number search walk the distance layers
        instead; callers must not mutate the returned lists.  Read off the
        distance layers alone, with no distance matrix: v lies in L_d(u)
        for d = d(u, v), and
        I(u, v) = {u, v} | OR over 0 < k < d of L_k(u) & L_{d-k}(v).
        """
        if self._between is None:
            layers = self.distance_layers()
            n = self.vertex_count
            table: list[list[int]] = [[0] * n for _ in range(n)]
            for u in range(n):
                lu, row = layers[u], table[u]
                bit = 1 << u
                row[u] = bit
                above = -(bit << 1)
                for d in range(1, len(lu)):
                    for v in mask_members(lu[d] & above):
                        lv = layers[v]
                        mask = bit | (1 << v)
                        for k in range(1, d):
                            mask |= lu[k] & lv[d - k]
                        row[v] = table[v][u] = mask
            self._between = table
        return self._between

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return ((self.vertex_count, self._adj_mask)
                == (other.vertex_count, other._adj_mask))

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._adj_mask))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# -- vertex-set helpers ---------------------------------------------------

def _check_vertex(g: Graph, v: int) -> None:
    """ValueError unless v is a vertex of g."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range for {g.vertex_count} vertices")


def vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Fold a vertex collection into a bitmask, validating the indices."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range for {g.vertex_count} vertices")
        mask |= 1 << v
    return mask


def mask_members(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_clique_mask(g: Graph, mask: int) -> bool:
    """True iff every two members of mask are adjacent.

    Walks the members lowest first and stops at the first one that misses
    another, so a large neighbourhood that is no clique costs little.
    """
    adj = g._adj_mask
    rest = mask
    while rest:
        low = rest & -rest
        if mask & ~(adj[low.bit_length() - 1] | low):
            return False
        rest ^= low
    return True


# -- metric and clique queries --------------------------------------------

def eccentricity(g: Graph, v: int) -> int:
    """Largest distance from v to any vertex."""
    _check_vertex(g, v)
    return len(g.distance_layers()[v]) - 1


def diameter(g: Graph) -> int:
    """Largest distance between any two vertices."""
    return max(map(len, g.distance_layers())) - 1


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every two members are adjacent (vacuously true when < 2)."""
    return _is_clique_mask(g, vertex_mask(g, vertices))


# -- text format ----------------------------------------------------------
#
#   # optional comments
#   <vertex_count> <edge_count>
#   <u> <v>          (one line per edge, 0-based)

def format_graph_chunks(g: Graph) -> Iterator[str]:
    """The text format of g in pieces: the header line, then one chunk per
    vertex u holding the lines of u's edges to higher vertices, in
    ``Graph.edges`` order.

    Each chunk is written off u's adjacency mask with no Python step per
    edge: the mask's bits above u, as 0/1 bytes, select the ``"v\\n"``
    strings of u's higher neighbours from a table built once per call
    (``itertools.compress``), and ``prefix.join`` puts ``"u "`` before
    each.  Neither the edge tuple nor the whole text is held at once."""
    yield f"{g.vertex_count} {g.edge_count}\n"
    ends = [f"{v}\n" for v in range(g.vertex_count)]
    for u, mask in enumerate(g._adj_mask):
        upper = mask >> (u + 1)
        if upper:
            # flags[i] is 1 when u + 1 + i is a neighbour of u, else 0.
            flags = bin(upper)[:1:-1].encode().translate(_BIT_FLAGS)
            prefix = f"{u} "
            yield prefix + prefix.join(
                compress(ends[u + 1:u + 1 + len(flags)], flags))


def format_graph(g: Graph) -> str:
    """The text format of g: ``format_graph_chunks`` joined."""
    return "".join(format_graph_chunks(g))


def _text_blocks(text: str) -> Iterator[tuple[list[str], list[list[str]]]]:
    """The text's content lines, one block of about _BLOCK_CHARS characters
    at a time: per block, the lines that are neither blank nor comments,
    and each one's tokens.

    A block ends just after a line break (``_LINE_BREAK``, which takes
    ``\\r\\n`` whole), so no line is cut, and ``splitlines`` of the blocks
    gives the lines of the whole text, whichever breaks it uses.  A token
    list is empty for a blank line and starts with ``#`` for a comment; a
    block with neither keeps every line as it is.
    """
    start, size = 0, len(text)
    while start < size:
        cut = _LINE_BREAK.search(text, start + _BLOCK_CHARS)
        end = cut.end() if cut else size
        block = text[start:end]
        lines = block.splitlines()
        rows = list(map(str.split, lines))
        if "#" in block or not all(rows):
            kept = [i for i, row in enumerate(rows)
                    if row and not row[0].startswith("#")]
            lines = [lines[i] for i in kept]
            rows = [rows[i] for i in kept]
        yield lines, rows
        start = end


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; inverse of format_graph up to normalization.

    Raises TooLarge when the header claims more than MAX_VERTICES vertices,
    and otherwise ParseError for the first of these that the text has: a
    bad header, an edge-line count other than the header's, the first
    edge line that is not two integers, the first pair that is a self-loop
    or out of range.

    The text is split one block at a time (``_text_blocks``).  A block
    whose lines all hold two tokens, each a vertex written as ``str(v)``,
    becomes ints with one dict lookup per token; any other block takes
    the line-by-line rules, with ``int()`` on each token, so ``007``,
    ``+1`` and ``1_0`` read as 7, 1 and 10.  The ints stream into
    ``Graph(vertex_count, zip(it, it))`` as they are made.  Once a bad
    line or an invalid pair is met, the rest of the text is still read
    through, to count its edge lines and find its first bad line, so
    that the error reported is the same whatever the block size.
    """
    blocks = _text_blocks(text)
    for lines, rows in blocks:
        if rows:
            break
    else:
        raise ParseError("empty graph file")
    line, header = lines[0].strip(), rows[0]
    if len(header) != 2:
        raise ParseError(f"bad header line: {line!r}")
    try:
        vertex_count, edge_count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad header line: {line!r}") from exc
    if vertex_count < 0:
        raise ParseError(f"negative vertex count: {line!r}")
    if edge_count < 0:
        raise ParseError(f"negative edge count: {line!r}")
    if vertex_count > MAX_VERTICES:
        raise TooLarge(f"vertex count {vertex_count} exceeds the cap of "
                       f"{MAX_VERTICES}")
    found = 0  # edge lines read so far
    bad = None  # the first bad edge line, stripped

    def ends(blocks):
        """Each block's edge ends as one list of ints, until a bad line."""
        nonlocal found, bad
        vertex = {str(v): v for v in range(vertex_count)}.__getitem__
        for lines, rows in blocks:
            found += len(rows)
            if bad is not None:
                continue
            if set(map(len, rows)) <= {2}:
                try:
                    values = list(map(vertex, chain.from_iterable(rows)))
                except KeyError:
                    pass
                else:
                    yield values
                    continue
            values = []
            for line, row in zip(lines, rows):
                try:
                    u, v = map(int, row)  # ValueError unless two ints
                except ValueError:
                    bad = line.strip()
                    break
                values += u, v
            yield values

    source = ends(chain([(lines[1:], rows[1:])], blocks))
    it = chain.from_iterable(source)
    invalid = None
    try:
        graph = Graph(vertex_count, zip(it, it))
    except InvalidEdge as exc:
        invalid = exc
    for _ in source:  # the blocks after an invalid pair still count
        pass
    if found != edge_count:
        raise ParseError(f"expected {edge_count} edge lines, found {found}")
    if bad is not None:
        raise ParseError(f"bad edge line: {bad!r}")
    if invalid is not None:
        raise ParseError(str(invalid)) from invalid
    return graph
