import ast
import pathlib

import mcgehee

SRC = pathlib.Path(mcgehee.__file__).parent

# every settable value of the program, by qualified name
PINNED = """
certify.CertifyOptions.allow_sign_flip
certify.CertifyOptions.strictness_tol
certify.certify.certificate.boundary
certify.certify.certificate.picked
certify.certify.opts
certify.check_triple.opts
certify.sweep_threshold.grid_m
certify.sweep_threshold.opts
certify.sweep_threshold.thresh_tol
cli.run.argv
critical._residual_tol.size
errors.PoleEncounteredError.__init__.reason
expr._Emitter._place.assign
expr._Emitter.check.when
flow.integrate.atol
flow.integrate.rtol
flow.integrate.t_stop
flow.integrate_cartesian.atol
flow.integrate_cartesian.rtol
flow.sample_at_physical_times.fdf.q
flow.sample_at_physical_times.fdf.target
flow.trace_invariant_manifold.max_tau
flow.trace_invariant_manifold.offset
rk.solve.atol
rk.solve.postprocess
rk.solve.rtol
rk.solve.stop
""".split()


def settable_values() -> list[str]:
    """Parameters with a default in the package's modules, and the fields of
    ``CertifyOptions``, as module.qualified.name."""
    names = []

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                names.extend(f"{module}.{name}.{a.arg}" for a in defaulted)
                walk(child, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                if child.name == "CertifyOptions":
                    names.extend(f"{module}.CertifyOptions.{s.target.id}" for s in child.body
                                 if isinstance(s, ast.AnnAssign))
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def test_settable_values_are_pinned():
    """No default that only a test sets.  A parameter with a default, or a
    ``CertifyOptions`` field, is a value someone may set; it stays only if a
    program caller (the command line, ``validate``, the workloads) sets it,
    tests and examples not counting.  Otherwise it is a named constant of
    the module that owns it, and a test that needs another value
    monkeypatches the constant.  Adding a settable value means updating
    this list on purpose."""
    assert len(PINNED) == 27
    assert sorted(settable_values()) == sorted(PINNED)
