"""JSON function specs, reports, CSV rows and SVG rendering.

The function spec is the package's only wire format:

    {"leading": [re, im],
     "roots":    [{"z": [re, im], "mult": n}, ...],
     "unit_num": [{"z": [re, im], "mult": n}, ...],
     "unit_den": [{"z": [re, im], "mult": n}, ...]}

Emission uses repr-roundtrip floats, so parse(emit(f)) reproduces f
bit-identically and artifact bytes are deterministic.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SchemaError
from .rational import RationalFactored


def _complex_from(node, ptr):
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        raise SchemaError(ptr, "expected [re, im] pair of numbers")
    z = complex(node[0], node[1])
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        raise SchemaError(ptr, "components must be finite")
    return z


def _root_list(node, ptr):
    if node is None:
        return ()
    if not isinstance(node, list):
        raise SchemaError(ptr, "expected a list of {z, mult} objects")
    out = []
    for i, item in enumerate(node):
        here = f"{ptr}/{i}"
        if not isinstance(item, dict) or "z" not in item:
            raise SchemaError(here, "expected object with 'z' (and optional 'mult')")
        z = _complex_from(item["z"], f"{here}/z")
        mult = item.get("mult", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise SchemaError(f"{here}/mult", "multiplicity must be a positive integer")
        out.append((z, mult))
    return tuple(out)


def parse_function(text: str) -> RationalFactored:
    """Parse and validate a JSON function spec."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("/", "top level must be an object")
    if "leading" not in obj:
        raise SchemaError("/leading", "missing")
    lead = _complex_from(obj["leading"], "/leading")
    if lead == 0:
        raise SchemaError("/leading", "must be nonzero")
    roots = _root_list(obj.get("roots"), "/roots")
    unit_num = _root_list(obj.get("unit_num"), "/unit_num")
    unit_den = _root_list(obj.get("unit_den"), "/unit_den")
    try:
        return RationalFactored(
            leading=lead, interior_roots=roots, unit_num=unit_num, unit_den=unit_den
        )
    except ValueError as exc:
        raise SchemaError("/roots", str(exc)) from exc


def emit_function(f: RationalFactored) -> str:
    def pair(z):
        return [z.real, z.imag]

    obj = {
        "leading": pair(complex(f.leading)),
        "roots": [{"z": pair(z), "mult": m} for z, m in f.interior_roots],
        "unit_num": [{"z": pair(z), "mult": m} for z, m in f.unit_num],
        "unit_den": [{"z": pair(z), "mult": m} for z, m in f.unit_den],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)}")


# -- CSV and SVG -----------------------------------------------------------


def csv_rows(header: str, fmt: str, inside, centers, grids) -> list:
    """The header, then "x,y," and fmt % values for each inside cell,
    row-major: x, y as %.17g, each centre formatted once, and the values read
    from the grids one row at a time, to bound the memory."""
    rows = [header]
    xy = ["%.17g," % c for c in centers.tolist()]
    for iy, row in enumerate(inside):
        ix = np.flatnonzero(row).tolist()
        values = zip(*(g[iy, ix].tolist() for g in grids))
        rows += [xy[i] + xy[iy] + fmt % v for i, v in zip(ix, values)]
    return rows


def _svg_path(points):
    cmds = []
    for i, p in enumerate(points):
        op = "M" if i == 0 else "L"
        cmds.append(f"{op} {p.real:.4f} {-p.imag:.4f}")
    return " ".join(cmds)


def render_svg(graph) -> str:
    """Line rendering: unit disk, nodal arcs, filled interior criticals,
    open boundary zeros.  Deterministic output bytes for a fixed input."""
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 2.2" '
        'width="600" height="600">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="0.01"/>',
    ]
    for arc in graph.arcs:
        pts = arc.points
        if len(pts) > 400:
            step = len(pts) // 400 + 1
            pts = tuple(pts[::step]) + (pts[-1],)
        lines.append(
            f'<path d="{_svg_path(pts)}" fill="none" stroke="black" stroke-width="0.008"/>'
        )
    for v in graph.vertices:
        x, y = v.location.real, -v.location.imag
        if v.kind == "interior-critical":
            lines.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="0.025" fill="black"/>')
        else:
            lines.append(
                f'<circle cx="{x:.4f}" cy="{y:.4f}" r="0.025" fill="white" '
                'stroke="black" stroke-width="0.008"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
