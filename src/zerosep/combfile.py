"""Combination definition files.

Grammar (line oriented, '#' comments, blank lines ignored)::

    # zerosep combination file v1
    [specs]
    <name> = riemann_zeta
    <name> = sparse_Z
    <name> = dirichlet_L modulus=<q> index=<k>
    <name> = finite_euler primes=<p>:<re>:<im>[,<p>:<re>:<im>...]
    [poly f]
    vars = <name> [<name> ...]
    mono exps=<e1>,<e2>,... coeff=<n>:<re>:<im>[;<n>:<re>:<im>...] [inv=<p>:<re>:<im>[,...][|<p>:...]]
    [poly g]
    ...

``index`` counts characters mod q in library order (principal first).  The
``inv`` clause attaches reciprocal finite Euler factors to the coefficient,
one ``|``-separated group per factor, listing the polynomial coefficients in
p^-s ascending.  Serialization is canonical, so parsing and serializing
round-trips byte-identically.  A malformed line raises ``ParseError`` with
its line number, and an unreadable file ``ZerosepError`` with its path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import dirichlet_characters
from .combalg import CombPolynomial, SeparationProblem
from .errors import ParseError, ZerosepError
from .euler import (EulerProductSpec, finite_euler_spec, lfunction_spec,
                    sparse_zeta_spec, zeta_spec)
from .pfinite import PFiniteSeries

HEADER = "# zerosep combination file v1"


@dataclass(frozen=True)
class SpecDecl:
    name: str
    kind: str
    params: tuple  # canonical parameter tuple, kind dependent

    def build(self) -> EulerProductSpec:
        if self.kind == "riemann_zeta":
            return zeta_spec()
        if self.kind == "sparse_Z":
            return sparse_zeta_spec()
        if self.kind == "dirichlet_L":
            q, idx = self.params
            chars = dirichlet_characters(q)
            if not (0 <= idx < len(chars)):
                raise ParseError(f"character index {idx} out of range mod {q}")
            return lfunction_spec(chars[idx])
        if self.kind == "finite_euler":
            return finite_euler_spec(self.name, dict(self.params))
        raise ParseError(f"unknown spec kind {self.kind!r}")

    def serialize(self) -> str:
        if self.kind in ("riemann_zeta", "sparse_Z"):
            return f"{self.name} = {self.kind}"
        if self.kind == "dirichlet_L":
            q, idx = self.params
            return f"{self.name} = dirichlet_L modulus={q} index={idx}"
        if self.kind == "finite_euler":
            body = ",".join(f"{p}:{v.real!r}:{v.imag!r}" for p, v in self.params)
            return f"{self.name} = finite_euler primes={body}"
        raise ParseError(f"unknown spec kind {self.kind!r}")


@dataclass(frozen=True)
class CombinationFile:
    specs: tuple[SpecDecl, ...]
    f_vars: tuple[str, ...]
    g_vars: tuple[str, ...]
    f: CombPolynomial
    g: CombPolynomial

    def build_problem(self) -> SeparationProblem:
        by_name = {d.name: d.build() for d in self.specs}
        specs_f = tuple(by_name[n] for n in self.f_vars)
        specs_g = tuple(by_name[n] for n in self.g_vars)
        return SeparationProblem(self.f, self.g, specs_f, specs_g)


def _parse_complex(re_s: str, im_s: str) -> complex:
    return complex(float(re_s), float(im_s))


def _parse_coeff(coeff_s: str, inv_s: str | None) -> PFiniteSeries:
    terms = {}
    for part in coeff_s.split(";"):
        n_s, re_s, im_s = part.split(":")
        terms[int(n_s)] = _parse_complex(re_s, im_s)
    series = PFiniteSeries.from_terms(terms)
    if inv_s:
        for group in inv_s.split("|"):
            entries = [e.split(":") for e in group.split(",")]
            p = int(entries[0][0])
            coeffs = []
            for p_s, re_s, im_s in entries:
                if int(p_s) != p:
                    raise ParseError("inverse factor group must share one prime")
                coeffs.append(_parse_complex(re_s, im_s))
            series = series.times_inverse_factor(p, coeffs)
    return series


def _serialize_coeff(series: PFiniteSeries) -> str:
    terms = series.terms or ((1, 1.0 + 0.0j),)
    body = ";".join(f"{n}:{a.real!r}:{a.imag!r}" for n, a in terms)
    if series.inverse_factors:
        groups = []
        for p, coeffs in series.inverse_factors:
            groups.append(",".join(f"{p}:{c.real!r}:{c.imag!r}" for c in coeffs))
        body += " inv=" + "|".join(groups)
    return body


def _key_values(tokens: list) -> dict:
    bad = [t for t in tokens if "=" not in t]
    if bad:
        raise ValueError(f"{bad[0]!r} is not key=value")
    return dict(t.split("=", 1) for t in tokens)


def _parse_line(s: str, section, decls: list, polys: dict):
    """Parse one stripped content line into ``decls`` or ``polys``; returns
    the section the next line belongs to."""
    if s.startswith("["):
        if s == "[specs]":
            return "specs"
        if s.startswith("[poly ") and s.endswith("]"):
            pname = s[6:-1].strip()
            if pname not in ("f", "g"):
                raise ParseError(f"polynomial must be named f or g, got {pname!r}")
            polys[pname] = {"vars": None, "monos": []}
            return ("poly", pname)
        raise ParseError(f"unknown section {s!r}")
    if section == "specs":
        if " = " not in s:
            raise ParseError(f"bad spec line: {s!r}")
        name, rhs = (x.strip() for x in s.split(" = ", 1))
        if not name or any(ch in name for ch in "= \t"):
            raise ParseError(f"bad spec name {name!r}")
        parts = rhs.split()
        kind = parts[0]
        kv = _key_values(parts[1:])
        if kind in ("riemann_zeta", "sparse_Z"):
            decls.append(SpecDecl(name, kind, ()))
        elif kind == "dirichlet_L":
            decls.append(SpecDecl(name, kind,
                                  (int(kv["modulus"]), int(kv["index"]))))
        elif kind == "finite_euler":
            entries = []
            for part in kv["primes"].split(","):
                p_s, re_s, im_s = part.split(":")
                entries.append((int(p_s), _parse_complex(re_s, im_s)))
            decls.append(SpecDecl(name, kind, tuple(entries)))
        else:
            raise ParseError(f"unknown spec kind {kind!r}")
    elif isinstance(section, tuple):
        pname = section[1]
        if s.startswith("vars"):
            _, rhs = s.split("=", 1)
            polys[pname]["vars"] = tuple(rhs.split())
        elif s.startswith("mono "):
            fields = _key_values(s[5:].split())
            exps = tuple(int(x) for x in fields["exps"].split(","))
            coeff = _parse_coeff(fields["coeff"], fields.get("inv"))
            polys[pname]["monos"].append((coeff, exps))
        else:
            raise ParseError(f"bad polynomial line: {s!r}")
    else:
        raise ParseError(f"line outside any section: {s!r}")
    return section


def parse_combination(text: str) -> CombinationFile:
    stripped = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)]
    content = [(n, s) for n, s in stripped
               if s and (s == HEADER or not s.startswith("#"))]
    if not content or content[0][1] != HEADER:
        raise ParseError(f"missing header line {HEADER!r}")
    section = None
    decls: list[SpecDecl] = []
    polys: dict[str, dict] = {}
    for n, s in content[1:]:
        try:
            section = _parse_line(s, section, decls, polys)
        except KeyError as exc:
            raise ParseError(f"line {n}: {s!r} lacks {exc.args[0]}=") from exc
        except ValueError as exc:
            raise ParseError(f"line {n}: {s!r}: {exc}") from exc
    if "f" not in polys or "g" not in polys:
        raise ParseError("both [poly f] and [poly g] are required")
    names = [d.name for d in decls]
    if len(set(names)) != len(names):
        raise ParseError("duplicate spec names")
    out = {}
    for pname in ("f", "g"):
        vars_ = polys[pname]["vars"]
        if vars_ is None:
            raise ParseError(f"[poly {pname}] lacks a vars line")
        for v in vars_:
            if v not in names:
                raise ParseError(f"unknown spec {v!r} in [poly {pname}]")
        out[pname] = CombPolynomial(len(vars_), tuple(
            (coeff, exps) for coeff, exps in polys[pname]["monos"]))
    return CombinationFile(tuple(decls), polys["f"]["vars"], polys["g"]["vars"],
                           out["f"], out["g"])


def serialize_combination(cf: CombinationFile) -> str:
    lines = [HEADER, "[specs]"]
    for d in cf.specs:
        lines.append(d.serialize())
    for pname, vars_, poly in (("f", cf.f_vars, cf.f), ("g", cf.g_vars, cf.g)):
        lines.append(f"[poly {pname}]")
        lines.append("vars = " + " ".join(vars_))
        for coeff, exps in poly.monomials:
            lines.append(f"mono exps={','.join(map(str, exps))} "
                         f"coeff={_serialize_coeff(coeff)}")
    return "\n".join(lines) + "\n"


def read_text(path: str) -> str:
    """The file's text, or ``ZerosepError`` naming the path."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ZerosepError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_combination(path: str) -> CombinationFile:
    return parse_combination(read_text(path))

