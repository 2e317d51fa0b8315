"""The hypergraph fixture text format: first line "n r", then one edge
per line.  Only the tests read and write it, so the parser and writer live
here, outside the package.
"""

from __future__ import annotations

from linhyp.errors import ValidationError
from reference import Hypergraph


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the fixture format: first line "n r", then one edge per line.

    Raises ValidationError with a line number on any malformed content.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValidationError("line 1: expected header 'n r'")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError("line 1: expected exactly two integers 'n r'")
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValidationError(f"line 1: non-integer header: {exc}") from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            verts = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer vertex") from None
        if len(verts) != r:
            raise ValidationError(
                f"line {lineno}: edge has {len(verts)} vertices, expected {r}"
            )
        if len(set(verts)) != r:
            raise ValidationError(f"line {lineno}: repeated vertex in edge")
        if min(verts) < 1 or max(verts) > n:
            raise ValidationError(f"line {lineno}: vertex outside 1..{n}")
        edges.append(verts)
    try:
        return Hypergraph(n=n, r=r, edges=tuple(edges))
    except ValidationError as exc:
        raise ValidationError(f"hypergraph invalid: {exc}") from None


def format_hypergraph(h: Hypergraph) -> str:
    out = [f"{h.n} {h.r}"]
    out.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(out) + "\n"
