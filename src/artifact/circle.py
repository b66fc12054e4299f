"""Circle-action functors between U-module and Y-module chain complexes.

``s_u`` doubles a complex carrying a degree -2 U-action into one carrying a
degree +1 square-zero Y-action; ``e_y`` goes back by tensoring with one of
four standard u-power ranges (minus: n >= 1, infinity: all n, plus: n <= 0,
hat: n = 0 only), sliced to a degree window using deg(g.u{n}) = deg(g) - 2n
so every slice is finite.  Both directions of the duality are checked by
brute-force homology comparison up to a uniform degree shift.

One engine serves these flavors and the Laurent-filtered flavors of
``connsum``.  ``_expand`` expands a Laurent differential once for all the
flavors a caller asks for and slices it per flavor (``e_y`` feeds it d at
exponent 0 and Y at exponent 1, the form d + Y.u), and ``_fundamental``
ties the four slices together by the two fundamental short exact
sequences, their connecting maps and their long-exact-sequence
certificates.  Slices of one expansion share generator names, so the
inclusion of minus in infinity and the projection of infinity onto plus
are name identities, and maps composed with them are read off by name
(``_restricted``), with no product formed.  The two callers differ only in a
``_Layout``: the range table (u-range as above; Laurent: minus k >= 0,
infinity all k, plus k <= -1, hat k = 0), the name suffix (``.u`` / ``.U``)
and the tags of the two sequences' Checks.  The hat offset o = 2 *
(bottom exponent of minus - hat exponent) is 2 for the u-range, whose hat
is the top line of plus, and 0 for the Laurent range, whose hat is the
bottom line of minus.  It is the degree of the projection of minus onto
hat, and every other difference between the two sequences follows from
it.

Conventions match chain.py: differentials have degree -1; a degree-d chain
map satisfies f.d - (-1)^d d.f = 0.  On a doubled complex the blocks over
(g, g.y) are [[d, 0], [U, -d]], the Y-action is g -> g.y, and a p-morphism
(phi, K) becomes [[phi, 0], [K, (-1)^{deg phi} phi]].

Window-safe degrees: j is safe when every generator the *untruncated*
flavor complex would have in degrees {j-1, j, j+1} is retained by the
slice.  Truncation is by generator deletion, so artifacts are confined to
unsafe degrees and all assertions are made at safe ones.

The records here are NamedTuples, and ``Flavor`` checks its tag however it
is built; of the package's records only ``flavors.FlavorBundle`` is a
slotted ``_Sealed`` class.
"""

from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .chain import (
    ChainComplex,
    ChainError,
    Check,
    CheckReport,
    GradedMap,
    GradedModule,
    HomologyTable,
    ModulusUnsupported,
    NotAChainMap,
    PMorphism,
    _Checked,
    _HomologyArrow,
    _apply,
    _block_map,
    _defect,
    _renamed_module,
    _require_valid,
    exactness_pair,
    homology,
    induced_on_homology,
    is_chain_map,
)
from .exactlin import AbelianGroup


class MissingUAction(ChainError):
    pass


class MissingYAction(ChainError):
    pass


class NotAPMorphism(ChainError):
    pass


# ---------------------------------------------------------------------------
# Flavors, exponent ranges and windows
# ---------------------------------------------------------------------------

FLAVOR_TAGS = ("minus", "infinity", "plus", "hat")

# (lowest, highest) exponent per flavor; None is unbounded
ExponentRange = Tuple[Optional[int], Optional[int]]


def _in_range(exponents: ExponentRange, n: int) -> bool:
    lo, hi = exponents
    return (lo is None or n >= lo) and (hi is None or n <= hi)


class _Layout(NamedTuple):
    """One family of flavor expansions: the exponent range of each flavor,
    the generator-name suffix, and the tags a report prints for the two
    fundamental sequences."""

    ranges: Dict[str, ExponentRange]
    suffix: str
    tags: Tuple[str, str]

    @property
    def hat_offset(self) -> int:
        """Degree of the projection of minus onto hat."""
        return 2 * (self.ranges["minus"][0] - self.ranges["hat"][0])


# powers of u: hat is the top line of plus
_U_LAYOUT = _Layout(
    {"minus": (1, None), "infinity": (None, None), "plus": (None, 0),
     "hat": (0, 0)},
    ".u", ("eq:E-sq1", "eq:E-sq2"))

# Laurent exponents of a filtered complex: hat is the bottom line of minus
_LAURENT_LAYOUT = _Layout(
    {"minus": (0, None), "infinity": (None, None), "plus": (None, -1),
     "hat": (0, 0)},
    ".U", ("eq:fund-short:1", "eq:fund-short:2"))


class Flavor(_Checked, NamedTuple("Flavor", [("tag", str)])):
    """One of the four u-power ranges: minus (n >= 1), infinity (all n),
    plus (n <= 0, residues mod the positive powers), hat (n = 0 only)."""

    __slots__ = ()

    def _check(self):
        if self.tag not in FLAVOR_TAGS:
            raise ChainError(f"unknown flavor {self.tag!r}")

    def __str__(self) -> str:
        return self.tag


MINUS = Flavor("minus")
INFINITY = Flavor("infinity")
PLUS = Flavor("plus")
HAT = Flavor("hat")
ALL_FLAVORS = (MINUS, INFINITY, PLUS, HAT)


class Window(Tuple[int, int]):
    """Inclusive degree bounds used to slice infinite-rank flavor complexes."""

    def __new__(cls, lo: int, hi: int):
        if lo > hi:
            raise ChainError(f"window {lo}..{hi} is empty")
        return super().__new__(cls, (lo, hi))

    lo = property(lambda self: self[0])
    hi = property(lambda self: self[1])


def _resolve_window(degrees: Sequence[int], window) -> Window:
    """The given window, or else the span of the generator degrees widened
    by two on each side (-2..2 when there are none)."""
    if window is None:
        if not degrees:
            return Window(-2, 2)
        return Window(min(degrees) - 2, max(degrees) + 2)
    if isinstance(window, Window):
        return window
    lo, hi = window
    return Window(lo, hi)


def _window_safe(gen_degrees: Sequence[int], exponents: ExponentRange,
                 win: Window, reach: int = 1) -> List[int]:
    """Degrees j of the window such that every degree in j-reach..j+1 where
    the untruncated expansion (g.{n} in degree deg(g) - 2n for n in the
    exponent range) has a generator lies inside the window."""
    def occupied(t: int) -> bool:
        return any((dg - t) % 2 == 0 and _in_range(exponents, (dg - t) // 2)
                   for dg in gen_degrees)

    # the degrees next to the window that some j-reach..j+1 can reach
    lost = [t for t in (*range(win.lo - reach, win.lo), win.hi + 1)
            if occupied(t)]
    return [j for j in range(win.lo, win.hi + 1)
            if not any(j - reach <= t <= j + 1 for t in lost)]


def safe_degrees(C: ChainComplex, flavor: Flavor, window) -> List[int]:
    """Degrees of e_y(C, flavor, window) untouched by the slicing."""
    win = _resolve_window(C.module.degrees(), window)
    return _window_safe([d for _, d in C.module.generators],
                        _U_LAYOUT.ranges[flavor.tag], win)


# ---------------------------------------------------------------------------
# S_U: from U-modules to Y-modules
# ---------------------------------------------------------------------------

def _doubled(f: GradedMap, k: Optional[GradedMap], source: GradedModule,
             target: GradedModule) -> GradedMap:
    """The blocks [[f, 0], [k, (-1)^{deg f} f]] over (g, g.y) between doubled
    modules; k may be None."""
    sign = -1 if f.degree % 2 else 1
    return _block_map(source, target, f.degree, [
        (f, "{}", "{}", 1), (f, "{}.y", "{}.y", sign), (k, "{}", "{}.y", 1)])


def s_u(C: ChainComplex) -> ChainComplex:
    """Double C along a polynomial variable y: generators g and g.y with
    differential blocks [[d, 0], [U, -d]] and Y = multiplication by y."""
    if C.module.modulus:
        raise ModulusUnsupported("s_u needs a genuine Z-grading")
    if C.u_action is None:
        raise MissingUAction("s_u needs a U-action")
    module = _renamed_module([(C.module, "{}", 0), (C.module, "{}.y", 1)])
    d = _doubled(C.d, C.u_action, module, module)
    y = GradedMap(module, module, 1, {(g, f"{g}.y"): 1 for g in C.module.names()})
    out = ChainComplex(module, d, y_action=y, p=C.p)
    _require_valid(out, "s_u output fails")
    return out


def s_u_map(P: PMorphism) -> GradedMap:
    """The doubled map [[phi, 0], [K, (-1)^{deg phi} phi]] between s_u
    complexes; a chain map commuting with the Y-actions."""
    return _su_map(P, s_u(P.source), s_u(P.target))


def _su_map(P: PMorphism, su_source: ChainComplex,
            su_target: ChainComplex) -> GradedMap:
    """``s_u_map(P)``, given s_u(P.source) and s_u(P.target) already built."""
    if not P.verify():
        raise NotAPMorphism("s_u_map needs a verified p-morphism")
    return _doubled(P.phi, P.k_phi, su_source.module, su_target.module)


# ---------------------------------------------------------------------------
# The expansion engine and E_Y in the four flavors
# ---------------------------------------------------------------------------

def _exponents(dg: int, exponents: ExponentRange, win: Window) -> List[int]:
    # lo <= dg - 2n <= hi  <=>  ceil((dg - hi)/2) <= n <= floor((dg - lo)/2)
    lo_n = -((win.hi - dg) // 2)
    hi_n = (dg - win.lo) // 2
    return [n for n in range(lo_n, hi_n + 1) if _in_range(exponents, n)]


def _expand(generators: Sequence[Tuple[str, int]],
            terms: Iterable[Tuple[str, str, int, int]], layout: _Layout,
            tags: Sequence[str], win: Window, p: int
            ) -> Dict[str, ChainComplex]:
    """Expand a Laurent differential once, over the exponent range of the
    one flavor in ``tags`` or over all exponents for several, and slice the
    expansion into one complex per flavor of ``tags``.

    ``terms`` lists (src, dst, exponent, coeff).  Generator g and exponent n
    give g{suffix}{n} in degree deg(g) - 2n, a term shifts the exponent by
    its own, and terms leaving the range or the window drop (for plus this
    is the quotient differential).  The U-action is the exponent shift.
    A slice is its flavor's in-range generators in module order with the d
    and U entries between them, so the slices of one expansion share
    generator names."""
    span = layout.ranges[tags[0]] if len(tags) == 1 else (None, None)
    out: Dict[str, List[Tuple[str, int, int]]] = {}
    for src, dst, n, c in terms:
        out.setdefault(src, []).append((dst, n, c))
    # (generator, exponent) -> name, for every generator the slice keeps
    names = {(g, n): f"{g}{layout.suffix}{n}" for g, dg in generators
             for n in _exponents(dg, span, win)}
    degree = dict(generators)
    ent: Dict[Tuple[str, str], int] = {}
    uent: Dict[Tuple[str, str], int] = {}
    for (g, n), sname in names.items():
        for dst, k, c in out.get(g, ()):
            tname = names.get((dst, n + k))
            if tname is not None:
                ent[(sname, tname)] = ent.get((sname, tname), 0) + c
        up = names.get((g, n + 1))
        if up is not None:
            uent[(sname, up)] = 1
    slices = {}
    for tag in tags:
        lo, hi = layout.ranges[tag]
        # names are distinct: g is what precedes the last suffix
        module = GradedModule._trusted([
            (name, degree[g] - 2 * n) for (g, n), name in names.items()
            if (lo is None or n >= lo) and (hi is None or n <= hi)])
        own = module._index
        # each term keeps the degree of the homogeneous map it came from
        d, u = (GradedMap._trusted(module, module, deg, {
            k: v for k, v in e.items() if v and k[0] in own and k[1] in own})
                for deg, e in ((-1, ent), (-2, uent)))
        slices[tag] = ChainComplex(module, d, u_action=u, p=p)
    return slices


def e_y(C: ChainComplex, flavor: Flavor, window=None) -> ChainComplex:
    """Flavor complex on generators g.u{n}, differential d + Y.u (the
    u-multiplication truncates out of the exponent range), u-action =
    exponent shift exposed as the output's U."""
    return _e_y_slices(C, (flavor.tag,), window)[flavor.tag]


def _e_y_slices(C: ChainComplex, tags: Sequence[str],
                window) -> Dict[str, ChainComplex]:
    """``e_y(C, Flavor(tag), window)`` for each tag, from one expansion."""
    if C.module.modulus:
        raise ModulusUnsupported("e_y needs a genuine Z-grading")
    if C.y_action is None:
        raise MissingYAction("e_y needs a Y-action")
    win = _resolve_window(C.module.degrees(), window)
    terms = [(s, t, 0, v) for (s, t), v in C.d.entries.items()]
    terms += [(s, t, 1, v) for (s, t), v in C.y_action.entries.items()]
    return _expand(C.module.generators, terms, _U_LAYOUT, tags, win, C.p)


def _slotwise(f: GradedMap, source: ChainComplex,
              target: ChainComplex) -> GradedMap:
    """f tensored with the identity of the u-range between two slices:
    g.u{n} -> f(g).u{n}, dropping images outside the target slice.  Built
    unchecked: both slices shift g and f(g) by the same 2n degrees."""
    tindex = target.module._index
    rows = f._rows()
    ent = {}
    for sname, _ in source.module.generators:
        g, n = sname.rsplit(".u", 1)
        for t, v in rows.get(g, {}).items():
            tname = f"{t}.u{n}"
            if tname in tindex:
                ent[(sname, tname)] = v
    return GradedMap._trusted(source.module, target.module, f.degree, ent)


def e_y_map(f: GradedMap, source: ChainComplex, target: ChainComplex,
            flavor: Flavor, window=None) -> GradedMap:
    """f tensored with the identity of the u-range: g.u{n} -> f(g).u{n} on
    the window slices.  f must be a chain map commuting with Y up to the
    usual degree sign."""
    if not is_chain_map(f, source, target):
        raise ChainError("e_y_map needs a chain map")
    if not _defect(f, source.y_action, target.y_action).is_zero_mod(source.p):
        raise ChainError("e_y_map needs Y-equivariance")
    return _slotwise(f, e_y(source, flavor, window),
                     e_y(target, flavor, window))


# ---------------------------------------------------------------------------
# Fundamental sequences and their long exact sequences
# ---------------------------------------------------------------------------

class ShortExactSequence(NamedTuple):
    left: ChainComplex
    middle: ChainComplex
    right: ChainComplex
    inject: GradedMap
    project: GradedMap
    checked_degrees: Tuple[int, ...]
    exact: bool


class FundamentalSequences(NamedTuple):
    """The flavor expansions of one complex on a window, with both
    fundamental short exact sequences (minus into infinity onto plus; minus
    into minus by u onto hat) and the Checks of their long exact sequences.
    ``delta1`` is plus -> minus of degree -1, ``delta2`` hat -> minus of
    degree 1 - hat offset; ``safe`` holds each slice's window-safe degrees.
    Without a hat slice the second sequence is not built, and ``seq2``,
    ``les2`` and ``delta2`` are None."""

    window: Window
    complexes: Dict[str, ChainComplex]
    seq1: ShortExactSequence
    les1: Check
    delta1: _HomologyArrow
    safe: Dict[str, Set[int]]
    seq2: Optional[ShortExactSequence]
    les2: Optional[Check]
    delta2: Optional[_HomologyArrow]

    @property
    def checks(self) -> Tuple[Check, Check]:
        """One Check per sequence, as a report prints it: exact at the chain
        level and its long exact sequence certified, with the LES witness."""
        return tuple(les._replace(ok=seq.exact and les.ok) for seq, les in
                     ((self.seq1, self.les1), (self.seq2, self.les2)))

    @property
    def ok(self) -> bool:
        return CheckReport(self.checks).ok


def _name_identity(src: GradedModule, tgt: GradedModule) -> GradedMap:
    """Each generator of src to the generator of tgt of its name, if any."""
    return GradedMap._trusted(src, tgt, 0, {
        (n, n): 1 for n, _ in src.generators if n in tgt._index})


def _restricted(f: GradedMap, source: GradedModule,
                target: GradedModule) -> GradedMap:
    """The entries of f from generators of source to those of target: f
    composed with name identities, such as the inclusion of minus in
    infinity or the projection onto plus, with no product formed."""
    s, t = source._index, target._index
    return GradedMap._trusted(source, target, f.degree, {
        k: v for k, v in f.entries.items() if k[0] in s and k[1] in t})


def _transpose(f: GradedMap) -> GradedMap:
    """A 0/1 generator map read backwards: the canonical degreewise section
    of a projection, or retraction of an injection.  Built unchecked, as
    the transpose of a homogeneous map is homogeneous."""
    return GradedMap._trusted(f.target, f.source, -f.degree,
                              {(t, s): v for (s, t), v in f.entries.items()})


def _name_map(f: GradedMap) -> Dict[str, str]:
    """f as a partial bijection of generator names; ChainError unless every
    entry is 1 and no generator has two images or shares one."""
    out = {s: t for (s, t), v in f.entries.items() if v == 1}
    if len(out) != len(f.entries) or len(set(out.values())) != len(out):
        raise ChainError("map is not a 0/1 partial bijection of generators")
    return out


def _ses_exact_at(inject: GradedMap, project: GradedMap, mid_degree: int,
                  names: Tuple[Dict[str, str], Dict[str, str]]) -> bool:
    """Module-level exactness of 0 -> A -> B -> C -> 0 at the middle degree
    for 0/1 partial bijections, from their ``_name_map``s (``names``, built
    once per sequence), over Z and F_p alike: every A-generator has an
    image, every C-generator is hit, and the image names are the
    B-generators that project does not map."""
    inj, proj = names
    b_gens = project.source.gens_in_degree(mid_degree)
    hit = {proj[b] for b in b_gens if b in proj}
    image = {inj.get(a) for a in
             inject.source.gens_in_degree(mid_degree - inject.degree)}
    c_gens = project.target.gens_in_degree(mid_degree + project.degree)
    return (None not in image and hit.issuperset(c_gens)
            and image == {b for b in b_gens if b not in proj})


def _les_check(tag: str, win: Window, rows,
               safe: Dict[str, Set[int]]) -> Check:
    """Homology-level exactness at the nodes of a long exact sequence, degree
    by degree.  ``rows`` lists (location, incoming arrow, outgoing arrow,
    needs); the node at degree j is checked only when j + offset lies in
    ``safe[key]`` for every (key, offset) pair of its needs.  Every node is
    checked; the witness is the first inexact (location, degree).  With no
    node checked the sequence has certified nothing, and the Check fails
    with no witness."""
    checked, witness = False, None
    for j in range(win.lo, win.hi + 1):
        for location, incoming, outgoing, needs in rows:
            if all(j + k in safe[key] for key, k in needs):
                checked = True
                if (exactness_pair(incoming, outgoing, j) != (True, True)
                        and witness is None):
                    witness = (location, j)
    return Check(tag, checked and witness is None, witness)


def _chain_map_inside(f: GradedMap, source: ChainComplex,
                      target: ChainComplex, win: Window) -> bool:
    """``is_chain_map`` on the source generators whose whole square lies in
    the window: the slices cut d off below the window, and a map of
    positive degree pushes the top of the window out of it.  For a degree-0
    map between slices of one window this is ``is_chain_map`` itself."""
    defect = _defect(f, source.d, target.d)
    deg = source.module.degree_of
    p = source.p
    return not any(v % p if p else v
                   for (s, _t), v in defect.entries.items()
                   if win.lo < deg(s) and deg(s) + f.degree <= win.hi)


def _fundamental(complexes: Dict[str, ChainComplex], layout: _Layout,
                 gen_degrees: Sequence[int], win: Window
                 ) -> FundamentalSequences:
    """Both fundamental sequences of the flavor slices of one expansion,
    degreewise at the chain level and through the long exact sequence at
    window-safe degrees; connecting maps by the snake construction,
    retraction . d . section through the canonical degreewise splittings.
    In the first sequence both splittings are name identities, so its
    chain-map tests and delta1 read d of infinity between slices by name.
    The second sequence is built only when ``complexes`` has a hat slice."""
    minus, inf, plus = (complexes[t] for t in FLAVOR_TAGS[:3])

    # a generator keeps its name and degree in every slice
    inc = _name_identity(minus.module, inf.module)
    proj = _name_identity(inf.module, plus.module)
    # the generator split is window-uniform, so the module-level sequence is
    # exact at every sliced degree
    seq1_checked = tuple(range(win.lo, win.hi + 1))
    names = (_name_map(inc), _name_map(proj))
    # inc and proj are chain maps when d of infinity out of minus is d of
    # minus, and d of infinity into plus is d of plus
    seq1_ok = (all((_restricted(inf.d, a, b) - _restricted(cx.d, a, b))
                   .is_zero_mod(inf.p) for cx, a, b in (
                       (minus, minus.module, inf.module),
                       (plus, inf.module, plus.module)))
               and all(_ses_exact_at(inc, proj, j, names)
                       for j in seq1_checked))
    seq1 = ShortExactSequence(minus, inf, plus, inc, proj, seq1_checked,
                              seq1_ok)

    # retraction . d . section: d of infinity from plus into minus
    delta1 = _HomologyArrow(_restricted(inf.d, plus.module, minus.module),
                            plus, minus)
    inc_a = _HomologyArrow(inc, minus, inf)
    proj_a = _HomologyArrow(proj, inf, plus)

    safe = {tag: set(_window_safe(gen_degrees, layout.ranges[tag], win))
            for tag in complexes}
    les1 = _les_check(layout.tags[0], win, (
        ("infinity", inc_a, proj_a,
         (("infinity", 0), ("minus", 0), ("plus", 0))),
        ("plus", proj_a, delta1,
         (("plus", 0), ("infinity", 0), ("minus", -1))),
        ("minus", delta1, inc_a,
         (("minus", 0), ("plus", 1), ("infinity", 0)))), safe)
    second = (_second_sequence(complexes, layout, win, safe)
              if "hat" in complexes else (None, None, None))
    return FundamentalSequences(win, complexes, seq1, les1, delta1, safe,
                                *second)


def _second_sequence(complexes: Dict[str, ChainComplex], layout: _Layout,
                     win: Window, safe: Dict[str, Set[int]]) -> tuple:
    """(seq2, les2, delta2) of ``_fundamental``: minus into minus by u onto
    hat, its long exact sequence's Check and its connecting map."""
    minus, hat = complexes["minus"], complexes["hat"]
    o = layout.hat_offset

    # multiplication by u inside minus, quotient onto hat: the bottom line
    # of minus goes to the hat line, o degrees up
    mult_u = minus.u_action
    bottom_n = layout.ranges["minus"][0]
    proj2_names = {}
    for name, _ in hat.module.generators:
        g, _n = name.rsplit(layout.suffix, 1)
        sname = f"{g}{layout.suffix}{bottom_n}"
        if sname in minus.module:
            proj2_names[(sname, name)] = 1
    proj2 = GradedMap._trusted(minus.module, hat.module, o, proj2_names)
    # u-multiplication runs off the top of the slice, so the module-level
    # check stops two degrees short of it
    seq2_checked = tuple(range(win.lo, win.hi - 1))
    names = (_name_map(mult_u), _name_map(proj2))
    seq2_ok = (_chain_map_inside(proj2, minus, hat, win)
               and all(_ses_exact_at(mult_u, proj2, j, names)
                       for j in seq2_checked))
    seq2 = ShortExactSequence(minus, minus, hat, mult_u, proj2,
                              seq2_checked, seq2_ok)

    # retracting u keeps the exponents above the bottom of minus
    delta2 = _HomologyArrow(
        _transpose(mult_u) @ minus.d @ _transpose(proj2), hat, minus)
    mult_a = _HomologyArrow(mult_u, minus, minus)
    proj2_a = _HomologyArrow(proj2, minus, hat)
    les2 = _les_check(layout.tags[1], win, (
        ("minus@u-image", mult_a, proj2_a,
         (("minus", 0), ("minus", 2), ("hat", o))),
        ("hat", proj2_a, delta2,
         (("hat", 0), ("minus", -o), ("minus", 1 - o))),
        ("minus@delta-image", delta2, mult_a,
         (("minus", 0), ("hat", o - 1), ("minus", -2)))), safe)
    return seq2, les2, delta2


def fundamental_sequences(C: ChainComplex, window=None) -> FundamentalSequences:
    """The two short exact sequences of flavor complexes (minus into
    infinity onto plus; minus into minus by u onto hat) with degreewise
    exactness checks and homology-level long-exact-sequence certificates at
    window-safe degrees, connecting maps computed by the snake construction
    through the canonical degreewise splitting."""
    win = _resolve_window(C.module.degrees(), window)
    return _fundamental(_e_y_slices(C, FLAVOR_TAGS, win), _U_LAYOUT,
                        [d for _, d in C.module.generators], win)


# ---------------------------------------------------------------------------
# The first-page models and both Koszul comparisons
# ---------------------------------------------------------------------------

def _plus_model_gens(C: ChainComplex, win: Window) -> Set[str]:
    """Generators whose iterated-U orbit dies before leaving the window,
    closed under reachability through d and U (so the restricted span is a
    genuine subcomplex).  For a finite complex fitting in the window this is
    everything; for a truncated translation tower it is only the edge band."""
    u_rows = C.u_action._rows().get
    kept: Set[str] = set()
    for g, dg in C.module.generators:
        vec = {g: 1}
        d = dg
        while vec and d >= win.lo:
            vec = _apply(vec, u_rows, C.p)
            d -= 2
        if not vec:
            kept.add(g)
    # close under reachability so d and U restrict
    frontier = list(kept)
    while frontier:
        g = frontier.pop()
        for f in (C.d, C.u_action):
            for t in f.image_of(g):
                if t not in kept:
                    kept.add(t)
                    frontier.append(t)
    return kept


def e1_page(C: ChainComplex, flavor: Flavor, window=None) -> ChainComplex:
    """The finite model carrying the first-page groups of the flavor
    comparison, with differential -d as stored.

      minus:    one copy of C on the u^1 line (g.u1 at degree-2), u acts by U;
      infinity: the zero complex (u is invertible there but nilpotent here);
      plus:     the u-torsion model: generators whose U-orbit dies inside the
                window, at their own degrees, u acting by -U;
      hat:      C itself with differential -d and u = 0.
    """
    if C.module.modulus:
        raise ModulusUnsupported("e1_page needs a genuine Z-grading")
    if C.u_action is None:
        raise MissingUAction("e1_page needs a U-action")
    win = _resolve_window(C.module.degrees(), window)
    if flavor.tag == "infinity":
        keep: Set[str] = set()
    elif flavor.tag == "plus":
        keep = _plus_model_gens(C, win)
    else:
        keep = set(C.module.names())
    n = 1 if flavor.tag == "minus" else 0
    u_sign = {"minus": 1, "plus": -1}.get(flavor.tag, 0)
    line = f"{{}}.u{n}"
    whole = _renamed_module([(C.module, line, -2 * n)])
    module = GradedModule([(f"{g}.u{n}", dg - 2 * n)
                           for g, dg in C.module.generators
                           if g in keep and win.lo <= dg - 2 * n <= win.hi])
    d, u = (_restricted(_block_map(whole, whole, f.degree,
                                   [(f, line, line, sign)]), module, module)
            for f, sign in ((C.d, -1), (C.u_action, u_sign)))
    return ChainComplex(module, d, u_action=u, p=C.p)


class ShiftReport(NamedTuple):
    """Uniform-shift comparison of two homology tables.

    ``shift`` = s means the first table at degree j + s matches the second
    at degree j for every degree where both sides are trustworthy; None when
    no uniform s works.  ``per_degree`` maps the second table's degree j to
    (second[j], first[j + s])."""

    shift: Optional[int]
    per_degree: Dict[int, Tuple[AbelianGroup, AbelianGroup]]
    witness_ok: Optional[bool] = None

    @property
    def matched(self) -> bool:
        return self.shift is not None

    @property
    def ok(self) -> bool:
        """Matched, and the cycle-level witness, where there is one, holds."""
        return self.matched and self.witness_ok is not False


def _match_shift(leftH: HomologyTable, rightH: HomologyTable,
                 safe_left: Sequence[int], safe_right: Sequence[int]
                 ) -> ShiftReport:
    sl, sr = set(safe_left), set(safe_right)
    left_nz = sorted(j for j in sl if not leftH[j].is_trivial())
    right_nz = sorted(j for j in sr if not rightH[j].is_trivial())
    if not left_nz and not right_nz:
        # both sides trivial: a match only where some degree is compared
        return ShiftReport(0 if sl & sr else None, {})
    if not left_nz or not right_nz:
        return ShiftReport(None, {})
    # at shift s the degrees compared are the k trusted on the right with
    # k + s trusted on the left, and a class in a degree without a trusted
    # partner is left out; each candidate s pairs two nontrivial classes,
    # so a match never rests on trivial groups alone
    for s in sorted({left_nz[0] - right_nz[0], left_nz[-1] - right_nz[-1]}):
        table = {k: (rightH[k], leftH[k + s]) for k in sorted(sr)
                 if k + s in sl and not (rightH[k].is_trivial()
                                         and leftH[k + s].is_trivial())}
        if all(want == got for want, got in table.values()):
            return ShiftReport(s, table)
    return ShiftReport(None, {})


def koszul_a(C: ChainComplex, flavor: Flavor, window=None) -> ShiftReport:
    """Compare H(e_y(s_u(C), flavor)) against the first-page model's
    homology, reporting the uniform shift.  For hat the right side is
    H(s_u(C)) itself and the match is groupwise-exact at shift 0."""
    SU = s_u(C)
    win = _resolve_window(SU.module.degrees(), window)
    left = homology(e_y(SU, flavor, win))
    sl = safe_degrees(SU, flavor, win)
    if flavor.tag == "hat":
        right = homology(SU)
        sr = list(range(win.lo - 1, win.hi + 2))
    else:
        model = e1_page(C, flavor, win)
        right = homology(model)
        if flavor.tag == "minus":
            degs = [dg - 2 for _, dg in C.module.generators]
        elif flavor.tag == "plus":
            degs = [dg for _, dg in C.module.generators]
        else:
            degs = []
        # the models keep each generator on one line: the hat range
        sr = _window_safe(degs, _U_LAYOUT.ranges["hat"], win)
    return _match_shift(left, right, sl, sr)


def koszul_b(C: ChainComplex, window=None) -> ShiftReport:
    """Compare H(s_u(e_y(C, minus))) against H(C) up to uniform shift and
    verify the cycle-level witness z -> (Yz).u1 + z.u1.y: a chain map,
    Y-equivariant, inducing isomorphisms at window-safe degrees.

    The default window hangs four degrees below the support (instead of the
    usual two) so the doubled minus-flavor complex is still safe one degree
    below every class of H(C)."""
    if C.y_action is None:
        raise MissingYAction("koszul_b needs a Y-action")
    if window is None:
        sw = C.module.support_window()
        window = Window(sw[0] - 4, sw[1] + 2) if sw else Window(-4, 2)
    win = _resolve_window(C.module.degrees(), window)
    em = e_y(C, MINUS, win)
    SUm = s_u(em)
    left = homology(SUm)
    right = homology(C)
    # the doubling reaches one degree further down
    sl = _window_safe([d for _, d in C.module.generators],
                      _U_LAYOUT.ranges["minus"], win, reach=2)
    sr = list(range(win.lo - 1, win.hi + 2))
    report = _match_shift(left, right, sl, sr)

    # the witness over the whole line u1 and its y copy, cut to the slice
    whole = _renamed_module([(C.module, "{}.u1", -2),
                             (C.module, "{}.u1.y", -1)])
    W = _restricted(_block_map(C.module, whole, -1, [
        (C.y_action, "{}", "{}.u1", 1),
        (_name_identity(C.module, C.module), "{}", "{}.u1.y", 1)]),
        C.module, SUm.module)
    # the witness intertwines the y-actions on the nose: W(Yz) = Y(W(z))
    ynat = (W @ C.y_action) - (SUm.y_action @ W)
    witness_ok = ynat.is_zero_mod(C.p)
    if witness_ok:
        try:   # checks that W is a chain map
            ind = induced_on_homology(W, C, SUm)
        except NotAChainMap:
            witness_ok = False
        else:
            witness_ok = all(info.isomorphism
                             for j, info in ind.by_degree.items()
                             if j - 1 in sl)
    return report._replace(witness_ok=witness_ok)
