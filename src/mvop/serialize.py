"""JSON, LaTeX and CSV renderings of the package's values.

All output is deterministic: fixed key order, fixed iteration order, floats
via repr; the JSON is what ``json.dumps(indent=2)`` writes, byte for byte
(``json_dumps``).  Rationals serialize as "p/q" strings ("p" for
integers).  Values held as integers over a common denominator, the
coefficients of an ``IntegerTable`` (``table_to_json``) and the entries
of W(x), are printed by ``rational.format_over`` straight from the
integers, with no ``Fraction`` built; it gives the string
``format_rational`` gives the reduced ``Fraction``.  The program only writes these formats; the
parsers that read a polynomial, matrix polynomial or operator back to an
equal object, and so check the round trip, are in
``tests/test_serialize.py``.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .poly import MatrixPoly, ScalarPoly
from .rational import format_over, format_rational


def json_dumps(data) -> str:
    """``json.dumps(data, indent=2)`` and a newline, byte for byte, from a
    recursive writer: with ``indent``, ``json`` runs its pure-Python
    encoder, which this outpaces."""
    parts = []
    _write(data, "\n", parts)
    parts.append("\n")
    return "".join(parts)


_string = json.encoder.encode_basestring_ascii
_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _float(v: float) -> str:
    """A float as ``json`` writes it: repr, or NaN and +-Infinity."""
    if v != v:
        return "NaN"
    return _INFINITIES.get(v) or float.__repr__(v)


def _key(k) -> str:
    """A dict key as ``json`` writes it: a str as is, and an int, float,
    bool or None as its JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        text = []
        _write(k, "", text)
        return text[0]
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(value, newline: str, parts: list):
    """Append ``value``'s JSON to ``parts``, ``newline`` being a newline and
    the indent of the line ``value`` starts on; a list of strings is one
    join."""
    if isinstance(value, str):
        parts.append(_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is str for v in value):
            parts.append(f"[{inner}{(',' + inner).join(map(_string, value))}{newline}]")
            return
        parts.append("[")
        sep = inner
        for v in value:
            parts.append(sep)
            _write(v, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in value.items():
            parts.append(f"{sep}{_string(_key(k))}: ")
            _write(v, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# --------------------------------------------------------------------------
# polynomials


def poly_to_json(p: ScalarPoly):
    return [format_rational(c) for c in p.coeffs]


def matpoly_to_json(P: MatrixPoly):
    return {
        "rows": P.rows,
        "cols": P.cols,
        "entries": [[poly_to_json(e) for e in row] for row in P.entries],
    }


def table_to_json(table):
    """``matpoly_to_json`` of the polynomial an ``IntegerTable`` holds, each
    coefficient printed as its integer over the table's scale."""
    scale = table.scale
    return {
        "rows": len(table.coefficients),
        "cols": len(table.coefficients[0]),
        "entries": [[[format_over(c, scale) for c in cs] for cs in row]
                    for row in table.coefficients],
    }


def _rational_latex(c) -> str:
    """A coefficient in LaTeX: a rational as an integer or a \\frac, and a
    float (a value computed from a float mass quotient) by repr, as
    ``format_rational`` prints it in the JSON."""
    if isinstance(c, float):
        return repr(c)
    c = Fraction(c)
    sign = "-" if c < 0 else ""
    c = abs(c)
    if c.denominator == 1:
        return f"{sign}{c.numerator}"
    return f"{sign}\\frac{{{c.numerator}}}{{{c.denominator}}}"


def poly_to_latex(p: ScalarPoly) -> str:
    if p.is_zero:
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        if k == 0:
            body = _rational_latex(c)
        else:
            xpow = "x" if k == 1 else f"x^{{{k}}}"
            if c == 1:
                body = xpow
            elif c == -1:
                body = f"-{xpow}"
            else:
                body = f"{_rational_latex(c)} {xpow}"
        if terms and not body.startswith("-"):
            terms.append(f"+ {body}")
        elif terms:
            terms.append(f"- {body[1:]}")
        else:
            terms.append(body)
    return " ".join(terms)


def matpoly_to_latex(P: MatrixPoly) -> str:
    rows = " \\\\\n  ".join(
        " & ".join(poly_to_latex(e) for e in row) for row in P.entries
    )
    return "\\begin{pmatrix}\n  " + rows + "\n\\end{pmatrix}"


# --------------------------------------------------------------------------
# operators


def operator_to_json(D):
    return {
        "action": "P.D = Delta(P) F + P K + Nabla(P) G",
        "F": matpoly_to_json(D.F),
        "K": matpoly_to_json(D.K),
        "G": matpoly_to_json(D.G),
    }


def operator_to_latex(D) -> str:
    # displayed in the Delta F + K - Nabla G convention
    return (
        "D = \\Delta "
        + matpoly_to_latex(D.F)
        + "\n+ "
        + matpoly_to_latex(D.K)
        + "\n- \\nabla "
        + matpoly_to_latex(-D.G)
    )


# --------------------------------------------------------------------------
# reports


def convergence_to_json(report):
    return {
        "transition": report.name,
        "n": report.n,
        "a": format_rational(report.a),
        "precision": "float64",
        "monotone": report.monotone,
        "steps": [s.to_json() for s in report.steps],
        "target": matpoly_to_json(report.target),
    }


def convergence_to_csv(report) -> str:
    extras = sorted({k for s in report.steps for k, _ in s.extras})
    header = ["ladder", "max_abs_error", "rel_error"] + extras
    lines = [",".join(header)]
    for s in report.steps:
        extra_map = dict(s.extras)
        row = [
            format_rational(s.ladder_value),
            repr(s.max_abs_error),
            repr(s.rel_error),
        ] + [repr(extra_map[k]) if k in extra_map else "" for k in extras]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
