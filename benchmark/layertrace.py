"""Per-layer tracing of autsplit from outside the package.

The tracer replaces public functions and methods of the layers with
wrappers that record one span per call: a name, a start, an end and the
span that was open when the call began.  Spans are kept in flat arrays
(about 25 bytes each) and written out when the run ends.

The modules import each other's functions by name (``from .series import
substitute``), so a module-level function is replaced in every loaded
``autsplit`` module whose namespace holds it; a wrapper installed only in
its home module would miss those calls without any error.  Methods are
replaced on their class, which every instance looks up.
"""

from __future__ import annotations

import sys
import time
from array import array

_TARGETS = (
    # (metric prefix, module, attribute path inside the module)
    ("gftower.build_tower", "gftower", "build_tower"),
    ("series.mul", "series", "LaurentSeries.__mul__"),
    ("series.add", "series", "LaurentSeries.__add__"),
    ("series.inverse", "series", "LaurentSeries.inverse"),
    ("series.substitute", "series", "substitute"),
    ("series.reversion", "series", "reversion"),
    ("series.hensel_root", "series", "hensel_root"),
    ("series.norm_equation_solve", "series", "norm_equation_solve"),
    ("autk.apply", "autk", "LocalFieldAuto.__call__"),
    ("autk.compose_auto", "autk", "compose_auto"),
    ("autk.invert_auto", "autk", "invert_auto"),
    ("cyclic.element_mul", "cyclic", "AlgebraElement.__mul__"),
    ("cyclic.matrix_mul", "cyclic", "AlgebraMatrix.__mul__"),
    ("cyclic.apply", "cyclic", "SemilinearAuto.apply"),
    ("cyclic.compose_semilinear", "cyclic", "compose_semilinear"),
    ("cyclic.acts_like", "cyclic", "acts_like"),
    ("cyclic.reduced_norm", "cyclic", "AlgebraElement.reduced_norm"),
    ("sections.context", "sections", "SectionContext.__init__"),
    ("sections.glue_section", "sections", "glue_section"),
    ("sections.verify_section", "sections", "verify_section"),
    ("descent.hanke_test_deg3", "descent", "hanke_test_deg3"),
    ("brauer.non_split_witness", "brauer", "non_split_witness"),
    ("rootdatum.extension_splits", "rootdatum", "extension_splits"),
    ("cli.main", "cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in _TARGETS)
COUNTERS = ("series.mul.term_pairs", "cyclic.matrix_mul.entry_pairs")
NO_PARENT = -1
LOG_ZERO = -1               # gftower.LOG_ZERO, the log stored for 0


def _series_term_pairs(a, b) -> int:
    """Nonzero coefficient pairs of a*b that land below the product's
    precision: the pairs LaurentSeries.__mul__ multiplies."""
    alogs, blogs = a.logs, b.logs
    if not alogs or not blogs:
        return 0
    prefix = [0]
    for lg in blogs:
        prefix.append(prefix[-1] + (lg != LOG_ZERO))
    room = min(a.prec + b.val, b.prec + a.val) - a.val - b.val
    nb = len(blogs)
    total = 0
    for ia, la in enumerate(alogs):
        if la != LOG_ZERO:
            top = min(nb, room - ia)
            if top > 0:
                total += prefix[top]
    return total


def _matrix_entry_pairs(A, B) -> int:
    """Nonzero x nonzero entry products of A*B: sum over k of the nonzeros
    in column k of A times the nonzeros in row k of B."""
    n = A.n
    col_nz = [0] * n
    for row in A.rows:
        for k, e in enumerate(row):
            if not e.is_zero():
                col_nz[k] += 1
    return sum(col_nz[k] * sum(1 for e in B.rows[k] if not e.is_zero())
               for k in range(n))


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self):
        self.names = array("b")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [NO_PARENT]
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        pkg = sys.modules["autsplit"]
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "autsplit"
                                         or key.startswith("autsplit."))]
        for idx, (name, modname, path) in enumerate(_TARGETS):
            home = getattr(pkg, modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = owner.__dict__[attr]
            wrapper = self._wrap(idx, name, original)
            if owner_name:
                self._set(owner, attr, wrapper, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, wrapper, original):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx, name, fn):
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        counters = self.counters
        clock = time.perf_counter
        count = None
        if name == "series.mul":
            count = ("series.mul.term_pairs", _series_term_pairs)
        elif name == "cyclic.matrix_mul":
            count = ("cyclic.matrix_mul.entry_pairs", _matrix_entry_pairs)

        def wrapper(*args, **kwargs):
            if count is not None:
                counters[count[0]] += count[1](args[0], args[1])
            span = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end

        return wrapper

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to delimit a phase of the run."""
        return len(self.names)

    def summary(self, lo: int = 0, hi: int | None = None):
        """Calls and self seconds per target over spans [lo, hi).

        A span's self time is its duration minus the durations of its
        direct children; the spans of one phase must be complete trees.
        """
        hi = len(self.names) if hi is None else hi
        child = [0.0] * (hi - lo)
        for s in range(lo, hi):
            par = self.parents[s]
            if par >= lo:
                child[par - lo] += self.ends[s] - self.starts[s]
        calls = [0] * len(_TARGETS)
        self_s = [0.0] * len(_TARGETS)
        for s in range(lo, hi):
            k = self.names[s]
            calls[k] += 1
            self_s[k] += self.ends[s] - self.starts[s] - child[s - lo]
        return ({SPAN_NAMES[k]: calls[k] for k in range(len(_TARGETS))},
                {SPAN_NAMES[k]: self_s[k] for k in range(len(_TARGETS))})

    def root_balance(self, lo: int, hi: int):
        """For each root span in [lo, hi): (duration, sum of the self times
        of its subtree).  The two agree when every span nests in its
        parent."""
        root_of = {}
        out = {}
        child = {}
        for s in range(lo, hi):
            par = self.parents[s]
            if par >= lo:
                child[par] = child.get(par, 0.0) + self.ends[s] - self.starts[s]
        for s in range(lo, hi):
            par = self.parents[s]
            root = s if par < lo else root_of[par]
            root_of[s] = root
            dur = self.ends[s] - self.starts[s]
            tot = out.setdefault(root, [self.ends[root] - self.starts[root], 0.0])
            tot[1] += dur - child.get(s, 0.0)
        return [tuple(v) for v in out.values()]

    def truncate(self, lo: int):
        """Drop the spans from index lo on, once they are summarised."""
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[lo:]

    def write(self, fh):
        """Spans as tab-separated lines: index, name, parent, start, end."""
        fh.write("span\tname\tparent\tstart_s\tend_s\n")
        for s in range(len(self.names)):
            fh.write(f"{s}\t{SPAN_NAMES[self.names[s]]}\t{self.parents[s]}"
                     f"\t{self.starts[s]!r}\t{self.ends[s]!r}\n")
