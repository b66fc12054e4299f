"""Text front end: parse graded complexes, balanced component data, and
candidate gluing maps from a line-oriented grammar, run the verification
suites and flavor computations, and report the results.  Every verdict is
a ``Check`` the engine names and decides; the front end only renders it.

Grammar (``#`` starts a comment anywhere; blank lines are skipped; blocks
close with ``end``, and end of input closes the final block):

    complex <name>
      ring Z | F<p>                     # p a prime below 2^64
      mod <c>                           # grading modulus, 0 for Z
      gen <id> <degree>
      d <src> <dst> <coeff>
      u <src> <dst> <coeff>
      y <src> <dst> <coeff>
      dU <src> <dst> <coeff> <exponent> # filtered complexes only

    components <name>                   # balanced block data
      ring Z | F<p>
      part o|s|u                        # gen lines follow
      map d:o->s                        # one of the sixteen block maps
      entry <src> <dst> <coeff>

    summaps <name>                      # candidate gluing maps; the named
      of <c1> <c2>                      # complexes must appear earlier in
      sharp <name>                      # the same file
      map V0 <degree>                   # V0 V1 V0d V1d Hsharp A B C D
      entry <src> <dst> <coeff>

Reports come in two formats.  ``text`` is human-oriented: homology lines
``H_j = Z^r + Z/d``, one ``PASS``/``FAIL`` line per checked identity (cited
by its tag), and complex output in the grammar above so it can be fed back
in.  ``machine`` is line-oriented ``key=value`` records with a fixed field
order, byte-stable across runs.

Exit codes: 0 all checks pass, 1 a verification failed, 2 parse or
validation error.

Only ``exactlin`` and ``chain`` load with this module.  Each parser and
command imports ``circle``, ``flavors`` or ``connsum`` where it needs them,
so a job loads only the modules its command runs.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .chain import (ChainComplex, ChainError, Check, GradedMap, GradedModule,
                    HomologyTable, homology, validate)
from .exactlin import AbelianGroup, is_prime

__all__ = [
    "Manifest",
    "ParseError",
    "SumSpec",
    "ValidationError",
    "main",
    "parse",
    "parse_all",
    "parse_all_text",
    "print_complex",
    "print_components",
    "print_sum_file",
    "run",
]


class ParseError(Exception):
    """Input text does not conform to the grammar."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(Exception):
    """Input parsed but the described object violates a structural law."""

    def __init__(self, law: str, witness: str):
        super().__init__(f"{law}: {witness}")
        self.law = law
        self.witness = witness


_FLAVOR_FLAGS = ("minus", "inf", "plus", "hat")  # as circle.ALL_FLAVORS

_SUMMAP_NAMES = ("V0", "V1", "V0d", "V1d", "Hsharp", "A", "B", "C", "D")

# Resource guards: a larger request is refused while the arguments are
# parsed (exit 2) instead of running away.  Both sit far above every corpus
# job and test: the widest default window there spans 18 degrees, and the
# deepest --n is 5 (the tower over a point still runs in well under a
# second at n = 256).
MAX_WINDOW_WIDTH = 128   # degrees lo..hi in a --window, both ends counted
MAX_N = 256              # --n of tower and consum-case1


class SumSpec(NamedTuple):
    """A parsed gluing-data file: the two factors plus the candidate maps."""

    name: str
    inputs: SumInput
    maps: ConnSumMaps


ParsedObject = Union[ChainComplex, "FilteredComplex", "BalancedComponents",
                     SumSpec]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    kind: str
    name: str
    line: int
    rows: List[Tuple[int, List[str]]]


_BLOCK_KINDS = ("complex", "components", "summaps")


def _blocks(text: str) -> List[_Block]:
    out: List[_Block] = []
    open_block: Optional[_Block] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] in _BLOCK_KINDS:
            if open_block is not None:
                raise ParseError(lineno, f"{toks[0]!r} before "
                                 f"{open_block.kind!r} block was closed")
            if len(toks) != 2:
                raise ParseError(lineno, f"{toks[0]} needs exactly one name")
            open_block = _Block(toks[0], toks[1], lineno, [])
        elif toks == ["end"]:
            if open_block is None:
                raise ParseError(lineno, "end outside any block")
            out.append(open_block)
            open_block = None
        elif open_block is None:
            raise ParseError(lineno, f"unexpected {toks[0]!r} outside a block")
        else:
            open_block.rows.append((lineno, toks))
    if open_block is not None:
        # End of input closes the final block, so a minimal file needs no
        # trailing ``end`` (printers still emit one).
        out.append(open_block)
    return out


def _int(tok: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"expected {what}, got {tok!r}") from None


def _ring(toks: List[str], lineno: int) -> int:
    _arity(toks, lineno, 2)
    tok = toks[1]
    if tok == "Z":
        return 0
    m = re.fullmatch(r"F(\d+)", tok)
    if m:
        p = int(m.group(1))
        # field arithmetic inverts by Fermat, which needs p prime
        if p < 2 ** 64 and is_prime(p):
            return p
        raise ParseError(lineno, f"F<p> needs a prime p below 2^64, "
                         f"got {tok!r}")
    raise ParseError(lineno, f"ring must be Z or F<p>, got {tok!r}")


def _ring_name(p: int) -> str:
    return "Z" if p == 0 else f"F{p}"


def _arity(toks: List[str], lineno: int, count: int) -> None:
    if len(toks) != count:
        raise ParseError(lineno, f"{toks[0]} takes {count - 1} argument(s)")


def _add_entry(ent: Dict[Tuple[str, str], int], toks: List[str],
               lineno: int) -> None:
    """Add a ``<keyword> <src> <dst> <coeff>`` row to ent; repeats sum."""
    _arity(toks, lineno, 4)
    key = (toks[1], toks[2])
    ent[key] = ent.get(key, 0) + _int(toks[3], lineno, "coefficient")


def _parse_complex(b: _Block) -> Union[ChainComplex, FilteredComplex]:
    ring = 0
    mod = 0
    gens: List[Tuple[str, int]] = []
    ents: Dict[str, Dict[Tuple[str, str], int]] = {"d": {}, "u": {}, "y": {}}
    laurent: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for lineno, toks in b.rows:
        kw = toks[0]
        if kw == "ring":
            ring = _ring(toks, lineno)
        elif kw == "mod":
            _arity(toks, lineno, 2)
            mod = _int(toks[1], lineno, "grading modulus")
        elif kw == "gen":
            _arity(toks, lineno, 3)
            gens.append((toks[1], _int(toks[2], lineno, "degree")))
        elif kw in ents:
            _add_entry(ents[kw], toks, lineno)
        elif kw == "dU":
            _arity(toks, lineno, 5)
            laurent.setdefault((toks[1], toks[2]), []).append(
                (_int(toks[4], lineno, "exponent"),
                 _int(toks[3], lineno, "coefficient")))
        else:
            raise ParseError(lineno, f"unknown keyword {kw!r} in a complex")
    if laurent:
        if any(ents.values()):
            raise ParseError(b.line, "dU entries cannot mix with d/u/y")
        if mod:
            raise ParseError(b.line, "filtered complexes are Z-graded "
                             "(mod must be 0)")
        from .connsum import FilteredComplex
        return FilteredComplex(gens, laurent, p=ring)
    module = GradedModule(gens, modulus=mod)
    return ChainComplex(module, GradedMap(module, module, -1, ents["d"]),
                        u_action=GradedMap(module, module, -2, ents["u"]),
                        y_action=GradedMap(module, module, 1, ents["y"]),
                        p=ring)


def _map_field(spec: str, lineno: int) -> str:
    m = re.fullmatch(r"(d|dbar|u|ubar):([osu])->([osu])", spec)
    if not m:
        raise ParseError(lineno, f"map spec must look like d:o->s, "
                         f"got {spec!r}")
    return f"{m.group(1)}_{m.group(2)}{m.group(3)}"


def _parse_components(b: _Block) -> BalancedComponents:
    from .flavors import _SHAPES, BalancedComponents
    ring = 0
    parts: Dict[str, List[Tuple[str, int]]] = {"o": [], "s": [], "u": []}
    maps: Dict[str, Dict[Tuple[str, str], int]] = {}
    section: Optional[Tuple[str, str]] = None
    for lineno, toks in b.rows:
        kw = toks[0]
        if kw == "ring":
            ring = _ring(toks, lineno)
            section = None
        elif kw == "part":
            _arity(toks, lineno, 2)
            if toks[1] not in parts:
                raise ParseError(lineno, f"part must be o, s, or u, "
                                 f"got {toks[1]!r}")
            section = ("part", toks[1])
        elif kw == "map":
            _arity(toks, lineno, 2)
            name = _map_field(toks[1], lineno)
            if name not in _SHAPES:
                raise ParseError(lineno, f"no such block map {toks[1]!r}")
            maps.setdefault(name, {})
            section = ("map", name)
        elif kw == "gen":
            if section is None or section[0] != "part":
                raise ParseError(lineno, "gen outside a part section")
            _arity(toks, lineno, 3)
            parts[section[1]].append((toks[1],
                                      _int(toks[2], lineno, "degree")))
        elif kw == "entry":
            if section is None or section[0] != "map":
                raise ParseError(lineno, "entry outside a map section")
            _add_entry(maps[section[1]], toks, lineno)
        else:
            raise ParseError(lineno, f"unknown keyword {kw!r} in components")
    mods = {letter: GradedModule(g) for letter, g in parts.items()}
    built = {}
    for name, ent in maps.items():
        src_field, tgt_field, deg = _SHAPES[name]
        built[name] = GradedMap(mods[src_field[-1]], mods[tgt_field[-1]], deg,
                                ent)
    return BalancedComponents.zeros(mods["o"], mods["s"], mods["u"], p=ring,
                                    **built)


def _parse_summaps(b: _Block,
                   named: Dict[str, ParsedObject]) -> SumSpec:
    of_names: Optional[Tuple[str, str]] = None
    sharp_name: Optional[str] = None
    maps: Dict[str, Tuple[int, Dict[Tuple[str, str], int]]] = {}
    current: Optional[str] = None
    for lineno, toks in b.rows:
        kw = toks[0]
        if kw == "of":
            _arity(toks, lineno, 3)
            of_names = (toks[1], toks[2])
        elif kw == "sharp":
            _arity(toks, lineno, 2)
            sharp_name = toks[1]
        elif kw == "map":
            _arity(toks, lineno, 3)
            if toks[1] not in _SUMMAP_NAMES:
                raise ParseError(lineno, f"no such gluing map {toks[1]!r}")
            current = toks[1]
            maps[current] = (_int(toks[2], lineno, "degree"), {})
        elif kw == "entry":
            if current is None:
                raise ParseError(lineno, "entry outside a map section")
            _add_entry(maps[current][1], toks, lineno)
        else:
            raise ParseError(lineno, f"unknown keyword {kw!r} in summaps")
    if of_names is None or sharp_name is None:
        raise ParseError(b.line, "summaps needs both an of line and a "
                         "sharp line")
    missing = [n for n in _SUMMAP_NAMES if n not in maps]
    if missing:
        raise ParseError(b.line, f"summaps is missing map(s) "
                         f"{', '.join(missing)}")

    def complex_named(name: str) -> ChainComplex:
        obj = named.get(name)
        if not isinstance(obj, ChainComplex):
            raise ParseError(b.line, f"summaps references {name!r}, which is "
                             "not a complex defined earlier in the file")
        return obj

    from .connsum import _MAP_SHAPES, ConnSumMaps, SumInput, product_complex
    c1 = complex_named(of_names[0])
    c2 = complex_named(of_names[1])
    sharp = complex_named(sharp_name)
    inputs = SumInput(c1, c2)
    mods = {"s": sharp.module, "p": product_complex(inputs).module}
    # ConnSumMaps lists the maps in the order of _SUMMAP_NAMES
    built = ConnSumMaps(sharp, *(
        GradedMap(mods[a], mods[b], *maps[name])
        for name, (a, b) in zip(_SUMMAP_NAMES, _MAP_SHAPES)))
    return SumSpec(b.name, inputs, built)


def parse_all_text(text: str) -> List[Tuple[str, ParsedObject]]:
    """All named objects of a file, in file order."""
    out: List[Tuple[str, ParsedObject]] = []
    named: Dict[str, ParsedObject] = {}
    for b in _blocks(text):
        if b.name in named:
            raise ParseError(b.line, f"duplicate block name {b.name!r}")
        try:
            if b.kind == "complex":
                obj: ParsedObject = _parse_complex(b)
            elif b.kind == "components":
                obj = _parse_components(b)
            else:
                obj = _parse_summaps(b, named)
        except ChainError as e:
            law = "degree-homogeneity" if "homogeneity" in str(e) \
                else "structure"
            raise ValidationError(law, str(e)) from None
        named[b.name] = obj
        out.append((b.name, obj))
    if not out:
        raise ParseError(1, "no blocks found")
    return out


def parse_all(path: str) -> List[Tuple[str, ParsedObject]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_all_text(fh.read())


def parse(path: str):
    """The file's primary object: its last block (gluing maps as the raw
    map data when the file ends in a summaps block)."""
    obj = parse_all(path)[-1][1]
    return obj.maps if isinstance(obj, SumSpec) else obj


# ---------------------------------------------------------------------------
# Printing (canonical form; parse . print is the identity on files the
# printer wrote)
# ---------------------------------------------------------------------------

def _complex_rows(C: Union[ChainComplex, FilteredComplex]):
    """(modulus, generators, entries) of a plain or filtered complex, each
    entry (map, src, dst, coeff, exponent) with exponent None off ``dU``."""
    if not isinstance(C, ChainComplex):
        return 0, C.generators, [("dU", s, t, c, n) for s, t in sorted(
            C.d_entries) for n, c in C.d_entries[(s, t)]]
    maps = (("d", C.d), ("u", C.u_action), ("y", C.y_action))
    return C.module.modulus, C.module.generators, [
        (label, s, t, f.entries[(s, t)], None) for label, f in maps
        if f is not None for s, t in sorted(f.entries)]


def _entry_lines(f: GradedMap) -> List[str]:
    return [f"  entry {s} {t} {f.entries[(s, t)]}"
            for s, t in sorted(f.entries)]


def print_complex(C: Union[ChainComplex, FilteredComplex], name: str) -> str:
    mod, gens, ents = _complex_rows(C)
    lines = [f"complex {name}", f"  ring {_ring_name(C.p)}", f"  mod {mod}"]
    lines += [f"  gen {n} {d}" for n, d in gens]
    lines += [f"  {label} {s} {t} {c}" + ("" if n is None else f" {n}")
              for label, s, t, c, n in ents]
    lines.append("end")
    return "\n".join(lines) + "\n"


def print_components(bc: BalancedComponents, name: str) -> str:
    from .flavors import _SHAPES
    lines = [f"components {name}", f"  ring {_ring_name(bc.p)}"]
    for letter, module in (("o", bc.c_o), ("s", bc.c_s), ("u", bc.c_u)):
        lines.append(f"  part {letter}")
        for n, d in module.generators:
            lines.append(f"  gen {n} {d}")
    for field in sorted(_SHAPES):
        f: GradedMap = getattr(bc, field)
        if f.is_zero():
            continue
        kind, st = field.rsplit("_", 1)
        lines.append(f"  map {kind}:{st[0]}->{st[1]}")
        lines += _entry_lines(f)
    lines.append("end")
    return "\n".join(lines) + "\n"


def print_sum_file(spec: SumSpec, c1_name: str = "c1", c2_name: str = "c2",
                   sharp_name: str = "sharp") -> str:
    parts = [print_complex(spec.inputs.C1, c1_name),
             print_complex(spec.inputs.C2hat, c2_name),
             print_complex(spec.maps.sharp, sharp_name)]
    lines = [f"summaps {spec.name}", f"  of {c1_name} {c2_name}",
             f"  sharp {sharp_name}"]
    for name, f in zip(_SUMMAP_NAMES, spec.maps[1:], strict=True):
        lines.append(f"  map {name} {f.degree}")
        lines += _entry_lines(f)
    lines.append("end")
    parts.append("\n".join(lines) + "\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _group_text(g: AbelianGroup, p: int) -> str:
    if g.is_trivial():
        return "0"
    if p:
        return _ring_name(p) if g.free_rank == 1 else \
            f"{_ring_name(p)}^{g.free_rank}"
    return str(g)


def _group_machine(g: AbelianGroup, p: int) -> str:
    return _group_text(g, p).replace(" ", "")


class _Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: List[str] = []
        self.failed = False

    def raw(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, kind: str, fields: str, text: str) -> None:
        """One record: ``kind=<kind> <fields>`` in machine format, else
        the text line."""
        self.raw(f"kind={kind} {fields}" if self.fmt == "machine" else text)

    def check(self, *checks: Check) -> None:
        """One check record each; a failing Check whose witness is a
        message is followed by that message as a detail record."""
        for c in checks:
            self.failed = self.failed or not c.ok
            status = "pass" if c.ok else "fail"
            self.emit("check", f"tag={c.tag} status={status}",
                      f"{status.upper()} {c.tag}")
            if not c.ok and isinstance(c.witness, str):
                self.message("detail", "  ", c.witness)

    def info(self, key: str, value) -> None:
        self.emit("info", f"{key}={value}", f"{key}={value}")

    def window(self, win: Window) -> None:
        self.info("window", f"{win.lo}..{win.hi}")

    def message(self, kind: str, prefix: str, message: str) -> None:
        """A detail or error record: the text line is prefix + message;
        machine format quotes the message, escaping backslashes and double
        quotes."""
        quoted = message.replace("\\", "\\\\").replace('"', '\\"')
        self.emit(kind, f'message="{quoted}"', prefix + message)

    def homology_table(self, H: HomologyTable, p: int,
                       flavor: Optional[str] = None,
                       comment: bool = False) -> None:
        degs = H.degrees()
        if self.fmt == "machine":
            base = "kind=homology"
            if flavor:
                base += f" flavor={flavor}"
            for j in degs:
                self.raw(f"{base} degree={j} group={_group_machine(H[j], p)}")
            return
        prefix = "# " if comment else ""
        if flavor:
            self.raw(f"{prefix}flavor {flavor}")
        if not degs:
            self.raw(f"{prefix}H = 0")
        for j in degs:
            self.raw(f"{prefix}H_{j} = {_group_text(H[j], p)}")

    def shift_result(self, r: ShiftReport, p: int) -> None:
        self.failed = self.failed or not r.ok
        shift = f"{r.shift:+d}" if r.shift is not None else "none"
        yn = "yes" if r.ok else "no"
        self.emit("result", f"shift={shift} match={yn}",
                  f"shift={shift}, match={yn}")
        for j in sorted(r.per_degree):
            expected, got = r.per_degree[j]
            self.emit("pair", f"degree={j} expected="
                      f"{_group_machine(expected, p)} "
                      f"got={_group_machine(got, p)}",
                      f"H_{j} = {_group_text(expected, p)} ~ "
                      f"{_group_text(got, p)}")

    def complex_block(self, C: Union[ChainComplex, FilteredComplex],
                      name: str) -> None:
        if self.fmt == "text":
            self.raw(print_complex(C, name).rstrip("\n"))
            return
        _, gens, ents = _complex_rows(C)
        self.raw(f"kind=complex name={name} ring={_ring_name(C.p)}")
        for n, d in gens:
            self.raw(f"kind=gen name={n} degree={d}")
        for label, s, t, c, n in ents:
            self.raw(f"kind=entry map={label} src={s} dst={t} coeff={c}"
                     + ("" if n is None else f" exponent={n}"))

    def render(self) -> str:
        return "".join(line + "\n" for line in self.lines)


# ---------------------------------------------------------------------------
# The manifest and the runner
# ---------------------------------------------------------------------------

class Manifest(NamedTuple):
    """One CLI invocation: the command, its inputs, and its options."""

    command: str
    inputs: Tuple[str, ...] = ()
    flavor: Optional[str] = None
    window: Optional[Window] = None
    n: Optional[int] = None
    direction: Optional[str] = None
    seed: Optional[int] = None
    fmt: str = "text"


def _primary(m: Manifest) -> Tuple[str, ParsedObject]:
    if not m.inputs:
        raise ValidationError("manifest", f"{m.command} needs an input file")
    try:
        objs = parse_all(m.inputs[0])
    except OSError as e:
        raise ValidationError("input", str(e)) from None
    return objs[-1]


def _chain_input(m: Manifest) -> Tuple[str, ChainComplex]:
    name, obj = _primary(m)
    if not isinstance(obj, ChainComplex):
        raise ValidationError("manifest",
                              f"{m.command} needs a plain complex")
    return name, obj


def _flavor_option(m: Manifest, default: Optional[str] = None) -> Flavor:
    flag = m.flavor or default
    if flag is None:
        raise ValidationError("manifest", f"{m.command} needs --flavor")
    from .circle import ALL_FLAVORS
    return dict(zip(_FLAVOR_FLAGS, ALL_FLAVORS))[flag]


def _random_u_complex(seed: int) -> ChainComplex:
    """Deterministic small U-complex: a direct sum of single generators,
    two-term acyclic-or-torsion arrows, and three-step u-towers."""
    rng = random.Random(seed)
    gens: List[Tuple[str, int]] = []
    dent: Dict[Tuple[str, str], int] = {}
    uent: Dict[Tuple[str, str], int] = {}
    idx = 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("single", "arrow", "utower"))
        base = rng.randint(-3, 3)
        if kind == "single":
            gens.append((f"g{idx}", base))
            idx += 1
        elif kind == "arrow":
            a, b = f"g{idx}", f"g{idx + 1}"
            gens += [(a, base), (b, base - 1)]
            dent[(a, b)] = rng.choice((1, -1, 2, 3))
            idx += 2
        else:
            names = [f"g{idx + k}" for k in range(3)]
            gens += [(n, base - 2 * k) for k, n in enumerate(names)]
            uent[(names[0], names[1])] = 1
            uent[(names[1], names[2])] = 1
            idx += 3
    module = GradedModule(gens)
    return ChainComplex(module,
                        GradedMap(module, module, -1, dent),
                        u_action=GradedMap(module, module, -2, uent),
                        y_action=GradedMap.zero(module, module, 1))


# --- command handlers ------------------------------------------------------

def _loaded_instance(obj, module: str, cls: str) -> bool:
    """isinstance against a class whose module may not be loaded yet."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return mod is not None and isinstance(obj, getattr(mod, cls))


def _assembled(obj: BalancedComponents, rep: _Report
               ) -> Optional[FlavorBundle]:
    """The flavor bundle of obj, or None once the law it fails is
    reported."""
    from .flavors import AssemblyInconsistent, assemble
    try:
        return assemble(obj)
    except AssemblyInconsistent as e:
        rep.check(Check(e.tag, False))
        return None


def _check_sum_maps(spec: SumSpec, rep: _Report) -> None:
    from .connsum import verify_sum_maps
    rep.check(*verify_sum_maps(spec.inputs, spec.maps).checks)


def _cmd_verify(m: Manifest, rep: _Report) -> None:
    _, obj = _primary(m)
    if isinstance(obj, ChainComplex):
        rep.check(*validate(obj).checks)
    elif isinstance(obj, SumSpec):
        _check_sum_maps(obj, rep)
    elif _loaded_instance(obj, "connsum", "FilteredComplex"):
        from .connsum import check_positivity
        # the constructor refuses a complex that fails either of the first
        # two, so only positivity can fail here
        rep.check(Check("degree-homogeneity", True), Check("d.d=0", True),
                  check_positivity(obj))
    elif (bundle := _assembled(obj, rep)) is not None:
        from .flavors import ASSEMBLY_TAGS, cone_identities
        rep.check(*(Check(tag, True) for tag in ASSEMBLY_TAGS))
        rep.check(*cone_identities(bundle).checks)


def _cmd_homology(m: Manifest, rep: _Report) -> None:
    _, C = _chain_input(m)
    if m.window is not None:
        rep.window(m.window)
    rep.homology_table(homology(C, m.window), C.p)


def _cmd_su(m: Manifest, rep: _Report) -> None:
    from .circle import s_u
    name, C = _chain_input(m)
    S = s_u(C)
    rep.complex_block(S, f"{name}.su")
    rep.homology_table(homology(S), S.p, comment=True)


def _cmd_ey(m: Manifest, rep: _Report) -> None:
    from .circle import e_y
    name, C = _chain_input(m)
    flavor = _flavor_option(m)
    E = e_y(C, flavor, m.window)
    rep.complex_block(E, f"{name}.{flavor.tag}")
    rep.homology_table(homology(E), E.p, comment=True)


def _cmd_flavors(m: Manifest, rep: _Report) -> None:
    from .flavors import four_flavors
    _, C = _chain_input(m)
    ff = four_flavors(C, m.window)
    rep.window(ff.window)
    for tag, H in ff.tables.items():
        rep.homology_table(H, C.p, flavor=tag)
    rep.check(*ff.sequences.checks)


def _cmd_koszul(m: Manifest, rep: _Report) -> None:
    from .circle import koszul_a, koszul_b, s_u
    C = _random_u_complex(m.seed or 0)
    if m.direction == "a":
        r = koszul_a(C, _flavor_option(m, default="minus"), m.window)
    else:
        r = koszul_b(s_u(C), m.window)
    rep.shift_result(r, C.p)


def _cmd_ladder(m: Manifest, rep: _Report) -> None:
    from .flavors import BalancedComponents, ladder_check
    _, obj = _primary(m)
    if not isinstance(obj, BalancedComponents):
        raise ValidationError("manifest", "ladder needs a components file")
    if (bundle := _assembled(obj, rep)) is None:
        return
    lr = ladder_check(bundle, m.window)
    rep.window(lr.window)
    # the vanishing line, which decides whether the j isomorphism is
    # checked, follows the cone's two checks
    rep.check(*lr.checks[:2])
    rep.info("vanishing", "yes" if lr.bar_vanishing else "no")
    rep.check(*lr.checks[2:])
    if lr.bar_u_iso is not None:
        rep.info("u-iso", "yes" if lr.bar_u_iso else "no")


def _cmd_tower(m: Manifest, rep: _Report) -> None:
    from .flavors import point_tower
    if m.n is None:
        raise ValidationError("manifest", "tower needs --n")
    H, checks = point_tower(m.n)
    rep.check(*checks)
    rep.homology_table(H, 0)  # the tower over a point is over Z


def _cmd_cmflavors(m: Manifest, rep: _Report) -> None:
    from .connsum import FilteredComplex, check_positivity, cm_flavors
    _, obj = _primary(m)
    if isinstance(obj, ChainComplex):  # d at exponent 0
        C = obj
        if (C.u_action is not None and not C.u_action.is_zero_mod(C.p)) or \
                (C.y_action is not None and not C.y_action.is_zero_mod(C.p)):
            raise ValidationError("manifest", "a complex with u or y entries "
                                  "has no filtered form")
        if C.module.modulus:
            raise ValidationError("manifest", "filtered complexes are "
                                  "Z-graded")
        obj = FilteredComplex(C.module.generators, {
            k: [(0, v)] for k, v in C.d.entries.items()}, p=C.p)
    if not isinstance(obj, FilteredComplex):
        raise ValidationError("manifest", "cmflavors needs a filtered "
                              "complex")
    # an error in the expansion prints the error record alone
    positivity = check_positivity(obj)
    fl = cm_flavors(obj, m.window) if positivity.ok else None
    rep.check(positivity)
    if fl is None:
        return
    rep.window(fl.window)
    for tag, cx in fl.complexes.items():
        rep.homology_table(homology(cx), obj.p, flavor=tag)
    rep.check(*fl.checks)


def _cmd_case1(m: Manifest, rep: _Report) -> None:
    from .connsum import case1_check
    _, C = _chain_input(m)
    r = case1_check(C, m.n if m.n is not None else 4, m.window)
    rep.shift_result(r, C.p)


def _cmd_case2(m: Manifest, rep: _Report) -> None:
    from .connsum import case2_check
    _, C = _chain_input(m)
    rep.check(case2_check(C, _flavor_option(m), m.window))


def _cmd_consum_verify(m: Manifest, rep: _Report) -> None:
    _, obj = _primary(m)
    if not isinstance(obj, SumSpec):
        raise ValidationError("manifest", "consum-verify needs a summaps "
                              "file")
    _check_sum_maps(obj, rep)


_HANDLERS = {
    "verify": _cmd_verify,
    "homology": _cmd_homology,
    "su": _cmd_su,
    "ey": _cmd_ey,
    "flavors": _cmd_flavors,
    "koszul": _cmd_koszul,
    "ladder": _cmd_ladder,
    "tower": _cmd_tower,
    "cmflavors": _cmd_cmflavors,
    "consum-case1": _cmd_case1,
    "consum-case2": _cmd_case2,
    "consum-verify": _cmd_consum_verify,
}


def run(manifest: Manifest) -> Tuple[int, str]:
    """Execute one manifest; returns (exit code, report text)."""
    rep = _Report(manifest.fmt)
    try:
        _HANDLERS[manifest.command](manifest, rep)
    except (ParseError, ValidationError, ChainError) as e:
        rep.message("error", "ERROR ", str(e))
        return 2, rep.render()
    return (1 if rep.failed else 0), rep.render()


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _window_flag(text: str) -> Window:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("window must look like -4..6")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError("window lower end exceeds upper")
    if hi - lo + 1 > MAX_WINDOW_WIDTH:
        raise argparse.ArgumentTypeError(
            f"window spans more than {MAX_WINDOW_WIDTH} degrees")
    from .circle import Window
    return Window(lo, hi)


def _n_flag(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None
    if n > MAX_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_N}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--window", type=_window_flag, default=None,
                        metavar="LO..HI",
                        help="degree window (default: support widened by 2)")
    common.add_argument("--format", dest="fmt", choices=("text", "machine"),
                        default="text", help="report format")
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact verification and flavor computation for graded "
                    "complexes with circle actions.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def cmd(name: str, help_text: str, takes_file: bool = True
            ) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if takes_file:
            sp.add_argument("inputs", nargs=1, metavar="FILE")
        return sp

    cmd("verify", "run every law the input's kind must satisfy")
    cmd("homology", "degreewise homology of a complex")
    cmd("su", "double a U-complex into a Y-complex")
    sp = cmd("ey", "flavor expansion of a Y-complex")
    sp.add_argument("--flavor", choices=sorted(_FLAVOR_FLAGS),
                    required=True)
    cmd("flavors", "all four flavor homologies with both fundamental "
        "sequences")
    sp = cmd("koszul", "round-trip comparison on a seeded random complex",
             takes_file=False)
    sp.add_argument("--direction", choices=("a", "b"), required=True)
    sp.add_argument("--flavor", choices=sorted(_FLAVOR_FLAGS))
    sp.add_argument("--seed", type=int, default=0)
    cmd("ladder", "assemble a components file and certify the comparison "
        "ladder")
    sp = cmd("tower", "truncated tower over a point: vanishing and edge "
             "classes", takes_file=False)
    sp.add_argument("--n", type=_n_flag, required=True)
    cmd("cmflavors", "four flavor expansions of a filtered complex")
    sp = cmd("consum-case1", "polynomial-factor product against the "
             "homology model")
    sp.add_argument("--n", type=_n_flag, default=4)
    sp = cmd("consum-case2", "exponent-model product against the flavor "
             "expansion")
    sp.add_argument("--flavor", choices=sorted(_FLAVOR_FLAGS),
                    required=True)
    cmd("consum-verify", "check candidate gluing maps against their "
        "identities")
    return parser


def _merge_flag_values(argv: Sequence[str]) -> List[str]:
    """Join ``--flag value`` into ``--flag=value`` for flags whose values
    may start with ``-`` (windows like ``-4..2``, negative seeds)."""
    out: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg in ("--window", "--seed", "--n"):
            value = next(it, None)
            if value is None:
                out.append(arg)
            else:
                out.append(f"{arg}={value}")
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_flag_values(argv))
    # a command without an option of the manifest leaves it None
    args.inputs = tuple(getattr(args, "inputs", ()))
    code, text = run(Manifest._make(getattr(args, name, None)
                                    for name in Manifest._fields))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
