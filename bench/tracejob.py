"""Run one eqhom CLI call with spans around every layer entry point.

Usage: python bench/tracejob.py SPANS_JSON JOB_ID -- EQHOM_ARGS...

The wrappers are installed from outside: each public function of an
eqhom module is replaced under every name that binds it in any
``eqhom.*`` namespace, and the listed methods are replaced on their
class.  Spans are kept in memory and written to SPANS_JSON at exit.  The
program's stdout and exit code are those of ``python -m eqhom.cli``.

A span is [name, layer, group, start, end, parent, book, attrs]: parent
is the index of the enclosing span (-1 at the top), book is the time the
tracer spent after ``end`` computing attrs, which is taken out of the
parent's self time, and attrs holds the counts the benchmark reports.
"""

import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "intlinalg", "groups", "complexes", "duality",
          "group_homology", "coarse")

# Methods to wrap, besides every public module-level function.
METHODS = {
    "intlinalg": ("QuotientLattice.__init__", "PairHomology.__init__"),
    "groups": ("IntRepresentation.matrix_of",),
    "complexes": ("SimplicialComplex.__init__", "SimplicialComplex.boundary_matrix",
                  "EquivariantComplex.__init__", "EquivariantComplex.boundary_terms",
                  "EquivariantComplex.cover_complex"),
    "group_homology": ("BarComplex.boundary_matrix", "CoinvariantsPresentation.of"),
    "coarse": ("CayleyBall.__init__", "PonziCertificate.verify"),
}

# (layer, entry point) -> the group whose self time is reported on its own.
GROUPS = {}
for _layer, _group, _names in (
        ("intlinalg", "invariants", ("invariant_factors", "rank", "cokernel_invariants",
                                     "homology_of_pair")),
        ("intlinalg", "transforms", ("smith_normal_form", "kernel_basis", "lattice_basis",
                                     "solve_columns", "unimodular_inverse",
                                     "PairHomology.__init__", "QuotientLattice.__init__")),
        ("intlinalg", "matmul", ("matmul",)),
        ("complexes", "build", ("load_complex", "SimplicialComplex.__init__",
                                "EquivariantComplex.cover_complex")),
        ("complexes", "assemble", ("SimplicialComplex.boundary_matrix",
                                   "chain_boundary_matrix", "cochain_differential_matrix")),
        ("groups", "coset", ("todd_coxeter",)),
        ("groups", "rep", ("regular_rep", "augmentation_ideal_rep", "tensor_rep",
                           "tensor_power", "IntRepresentation.matrix_of")),
        ("duality", "cup", ("cup",)),
        ("duality", "cap", ("cap", "cap_chain")),
        ("group_homology", "bar", ("BarComplex.boundary_matrix",)),
        ("group_homology", "shift", ("shift_homology", "shift_chain_check", "coinvariants",
                                     "CoinvariantsPresentation.of")),
        ("coarse", "verify", ("PonziCertificate.verify",)),
        ("coarse", "ball", ("cayley_ball", "CayleyBall.__init__")),
        ("coarse", "flow", ("max_flow",))):
    for _name in _names:
        GROUPS[(_layer, _name)] = _group

# Entry points that factor a matrix, and which argument is factored.
FACTORED_ARG = {"invariant_factors": 0, "smith_normal_form": 0, "kernel_basis": 0,
                "lattice_basis": 0, "solve_columns": 0, "unimodular_inverse": 0,
                "PairHomology.__init__": 1, "QuotientLattice.__init__": 2}


class Tracer:
    def __init__(self, int_matrix):
        self.IntMatrix = int_matrix
        self.spans = []
        self.stack = [-1]
        self.keep = []  # objects whose id() keys a count, kept alive
        self.kept_ids = set()

    def wrap(self, fn, name, layer):
        group = GROUPS.get((layer, name), "")
        hook = getattr(self, "_count_" + layer, None)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [name, layer, group, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[3], span[4] = start, end
            if hook is not None:
                parent_layer = spans[parent][1] if parent >= 0 else None
                span[7] = hook(name, args, result, parent_layer)
                span[6] = perf_counter() - end
            return result

        return traced

    # -- counts, computed after the span ends ---------------------------------
    # Keys are the benchmark's metric names: one with "max" in it takes the
    # largest value over spans, any other is summed.  "factored" and "cert"
    # identify a factored matrix and a verified certificate.

    def _stats(self, m, out, inputs):
        if inputs:
            out["intlinalg.input_entries"] = out.get("intlinalg.input_entries", 0) + m.rows * m.cols
            out["intlinalg.input_nnz"] = (out.get("intlinalg.input_nnz", 0)
                                          + sum(len(r) - r.count(0) for r in m.data))
        out["intlinalg.max_dim"] = max(out.get("intlinalg.max_dim", 0), m.rows, m.cols)
        big = max((max(max(r), -min(r)) for r in m.data if r), default=0)
        out["intlinalg.max_entry_bits"] = max(out.get("intlinalg.max_entry_bits", 0),
                                              big.bit_length())

    def _matrices(self, obj, depth=2):
        if isinstance(obj, self.IntMatrix):
            yield obj
        elif depth and isinstance(obj, (tuple, list)):
            for x in obj:
                yield from self._matrices(x, depth - 1)
        elif depth and type(obj).__module__ == "eqhom.intlinalg" and hasattr(obj, "__dict__"):
            for x in vars(obj).values():
                yield from self._matrices(x, depth - 1)

    def _count_intlinalg(self, name, args, result, parent_layer):
        out = {}
        if parent_layer != "intlinalg":  # a call into the layer from outside
            for a in args:
                if isinstance(a, self.IntMatrix):
                    self._stats(a, out, inputs=True)
            for m in self._matrices(args[0] if name.endswith("__init__") else result):
                self._stats(m, out, inputs=False)
        if name in FACTORED_ARG:
            m = args[FACTORED_ARG[name]]
            out["factored"] = [m.rows, m.cols, hash(tuple(map(tuple, m.data)))]
        return out or None

    def _count_complexes(self, name, args, result, parent_layer):
        if name == "SimplicialComplex.__init__":
            return {"complexes.cells": sum(args[0].counts())}
        if GROUPS.get(("complexes", name)) == "assemble" and id(result) not in self.kept_ids:
            self.keep.append(result)  # a cached matrix counts once
            self.kept_ids.add(id(result))
            return {"complexes.boundary_nnz": sum(len(r) - r.count(0) for r in result.data),
                    "complexes.boundary_entries": result.rows * result.cols}
        return None

    def _count_groups(self, name, args, result, parent_layer):
        if name == "todd_coxeter":
            return {"groups.order_max": result.order}
        if name in ("regular_rep", "augmentation_ideal_rep", "tensor_rep", "tensor_power"):
            return {"groups.rep_rank_max": result.rank}
        return None

    def _count_duality(self, name, args, result, parent_layer):
        if name == "cup":
            return {"duality.cup_calls": 1}
        if name == "cap_chain":  # every cap goes through it
            return {"duality.cap_calls": 1}
        return None

    def _count_group_homology(self, name, args, result, parent_layer):
        if name == "BarComplex.boundary_matrix":
            return {"group_homology.bar_rank_max": max(result.rows, result.cols)}
        return None

    def _count_coarse(self, name, args, result, parent_layer):
        if name == "CayleyBall.__init__":
            return {"coarse.ball_vertices": len(args[0]), "coarse.ball_edges": len(args[0].edges)}
        if name == "max_flow":
            return {"coarse.flow_calls": 1, "coarse.flow_arcs": len(args[1])}
        if name == "PonziCertificate.verify":
            self.keep.append(args[0])
            return {"cert": id(args[0])}
        return None

    # -- installation -----------------------------------------------------------

    def install(self, layers, namespaces):
        """Wrap every entry point and rebind it in every eqhom namespace."""
        replaced = {}
        for layer, mod in layers.items():
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replaced[id(fn)] = self.wrap(fn, name, layer)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, qual, layer)))
                else:
                    setattr(cls, meth, self.wrap(raw, qual, layer))
        # The originals stay alive in the wrappers, so their ids stay unique.
        for mod in namespaces:
            for name, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, name, replaced[id(value)])


def main(argv):
    if sys.flags.optimize:
        sys.exit("tracejob: refusing to run with asserts stripped (-O)")
    out_path, job_id, sep, *args = argv
    if sep != "--":
        sys.exit("usage: tracejob.py SPANS_JSON JOB_ID -- EQHOM_ARGS...")
    import eqhom.cli
    from eqhom.intlinalg import IntMatrix

    namespaces = [m for name, m in sys.modules.items()
                  if (name == "eqhom" or name.startswith("eqhom.")) and m is not None]
    tracer = Tracer(IntMatrix)
    tracer.install({layer: sys.modules["eqhom." + layer] for layer in LAYERS}, namespaces)
    sys.argv = ["eqhom"] + args
    code = eqhom.cli.main()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"job": job_id, "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
