"""Import checks with the stdlib ast.

No module in src, tests or demos imports a name it never uses, only noise
drives mc.run_trials, the posterior kernels are reached only through
bayes._POSTERIORS, src and demos reach the fast solvers only through the
wrappers of stability.SOLVERS, only models and counting name the PSP
adjacency-matrix conversions, bayes, lowdeg and stability check
observations only through models.stack_observations, no src call passes a
list as a batch of observations, src keeps one trial form (an instance is
a run of one trial: no instance class, no run indexing or iteration, no
run_of), src keeps one record per model (the only per-model tables are
models._MODELS and the kernel tables noise._NOISE, bayes._POSTERIORS and
lowdeg.POLY_FAMILIES, and solvers and counting take the run-size rule from
models, not noise), cli draws no instance or null graph one seed at a time,
no src module but noise keeps a caught exception to raise it later, and src
calls no numpy function newer than the numpy floor in pyproject.toml.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, in order of appearance."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):  # a quoted annotation
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return [name for name, _ in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_scan_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nfrom __future__ import annotations\n"
    assert unused_imports(source + "x = np.zeros(c)\ny: 'd'\nz = 'os'\n") == ["os"]


def test_no_unused_imports():
    assert len(FILES) > 20
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8")) for p in FILES}
    assert {path: names for path, names in found.items() if names} == {}


def test_only_noise_drives_run_trials():
    # CoupledTrials.run_lanes is the one coupled-trial loop (map is its one-lane case); no other src module
    # may import or call mc.run_trials
    users = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = isinstance(node, ast.ImportFrom) and any(alias.name == "run_trials" for alias in node.names)
            if named or (isinstance(node, ast.Attribute) and node.attr == "run_trials"):
                users.add(path.stem)
    assert users == {"noise"}


# the posterior kernels; bayes.posterior_means is the one way into them, through bayes._POSTERIORS
KERNELS = {"_psp_posteriors", "_rlc_posteriors", "_gss_posteriors", "_tpca_posteriors"}


def kernel_references(source: str) -> list[int]:
    """Lines that name a posterior kernel outside its definition and the _POSTERIORS table."""
    tree = ast.parse(source)
    table = {
        id(node)
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_POSTERIORS" for t in assign.targets)
        for node in ast.walk(assign.value)
    }
    named = (
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in KERNELS) or (isinstance(node, ast.Attribute) and node.attr in KERNELS)
    )
    return sorted(node.lineno for node in named if id(node) not in table)


def test_kernel_scan_finds_a_call_outside_the_table():
    source = "def _gss_posteriors(p, o, r):\n    pass\n_POSTERIORS = {'gss': (_gss_posteriors, len)}\n"
    assert kernel_references(source) == []
    assert kernel_references(source + "x = _gss_posteriors(1, 2, 3)\ny = bayes._psp_posteriors\n") == [4, 5]


def test_posterior_kernels_are_reached_only_through_the_table():
    found = {str(p.relative_to(ROOT)): kernel_references(p.read_text(encoding="utf-8")) for p in FILES}
    assert {path: lines for path, lines in found.items() if lines} == {}
    bayes = (ROOT / "src" / "plantedlab" / "bayes.py").read_text(encoding="utf-8")
    assert {node.id for node in ast.walk(ast.parse(bayes)) if isinstance(node, ast.Name)} >= KERNELS


# the fast solvers; src and demos reach them only through stability.SOLVERS, whose wrappers call them
SOLVER_CALLS = {"shortest_path", "shortest_paths", "f2_solve", "f2_rref", "lll_subset_sum"}
SOLVER_WRAPPERS = {"_solve_psp", "_solve_rlc", "_solve_gss"}


def solver_references(source: str, wrappers: frozenset = frozenset()) -> list[int]:
    """Lines that name a fast solver, by use or import, outside the functions in wrappers.

    A source that defines wrappers may also import the solvers they call.
    """
    tree = ast.parse(source)
    excused = {
        id(node)
        for scope in ast.walk(tree)
        if (isinstance(scope, ast.FunctionDef) and scope.name in wrappers)
        or (isinstance(scope, ast.ImportFrom) and wrappers and scope.module == "solvers")
        for node in ast.walk(scope)
    }
    named = (
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in SOLVER_CALLS)
        or (isinstance(node, ast.Attribute) and node.attr in SOLVER_CALLS)
        or (isinstance(node, ast.alias) and node.name in SOLVER_CALLS)
    )
    return sorted(node.lineno for node in named if id(node) not in excused)


def test_solver_scan_finds_a_call_outside_the_wrappers():
    source = "from .solvers import f2_solve\ndef _solve_rlc(p, o, c):\n    return f2_solve(*o)\n"
    assert solver_references(source, frozenset({"_solve_rlc"})) == []
    assert solver_references(source) == [1, 3]
    planted = "from plantedlab.solvers import lll_subset_sum as lll\nx = solvers.shortest_path(adj)\n"
    assert solver_references(source + planted, frozenset({"_solve_rlc"})) == [4, 5]


def test_fast_solvers_are_reached_only_through_the_table():
    scanned = [p for p in FILES if p.parts[-2] != "tests" and p.name != "solvers.py"]
    found = {
        str(p.relative_to(ROOT)): solver_references(
            p.read_text(encoding="utf-8"), frozenset(SOLVER_WRAPPERS) if p.name == "stability.py" else frozenset()
        )
        for p in scanned
    }
    assert len(scanned) > 15 and {path: lines for path, lines in found.items() if lines} == {}
    stability = (ROOT / "src" / "plantedlab" / "stability.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(stability)) if isinstance(node, ast.FunctionDef)}
    assert defined >= SOLVER_WRAPPERS


# a PSP graph is its edge vector everywhere in src, the path census included, so no src module
# defines, imports or calls a conversion to or from an adjacency matrix
CONVERSIONS = {"adjacency_from_edge_vector", "edge_vector_from_adjacency"}


def conversion_references(source: str) -> list[int]:
    """Lines that name an adjacency conversion, by definition, use or import."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.FunctionDef) and node.name in CONVERSIONS)
        or (isinstance(node, ast.Name) and node.id in CONVERSIONS)
        or (isinstance(node, ast.Attribute) and node.attr in CONVERSIONS)
        or (isinstance(node, ast.alias) and node.name in CONVERSIONS)
    )


def test_conversion_scan_finds_a_planted_conversion():
    planted = (
        "from .models import edge_vector_from_adjacency as ev, pair_ids\n"
        "def _noise_psp(p, r, instances, fresh):\n"
        "    return models.adjacency_from_edge_vector(ev(instances[0].observation), p.n)\n"
        "def adjacency_from_edge_vector(v, n):\n"
        "    pass\n"
    )
    assert conversion_references(planted) == [1, 3, 4]
    assert conversion_references("adjacency = pair_ids(n)\nedges = inst.edges\n") == []


def test_only_models_and_counting_name_the_adjacency_conversions():
    src = sorted((ROOT / "src" / "plantedlab").glob("*.py"))
    found = {p.name: conversion_references(p.read_text(encoding="utf-8")) for p in src}
    assert len(src) > 10 and {name for name, lines in found.items() if lines} == set()


# the checks on observations: bayes, lowdeg and stability reach them only through
# models.stack_observations, check_stack checks a stack only there and in solvers.shortest_paths
# (for its own array input), and the per-field batch split batch_fields is gone
OBSERVATION_CHECKS = {"check_stack", "check_shape", "check_bits", "check_finite", "batch_fields"}


def check_references(source: str, excused: frozenset = frozenset()) -> list[tuple[int, str]]:
    """(line, name) of each observation check named, by use or import, outside the classes and functions in excused.

    The import of a name that an excused scope uses is excused too.
    """
    tree = ast.parse(source)
    scopes = [s for s in ast.walk(tree) if isinstance(s, (ast.FunctionDef, ast.ClassDef)) and s.name in excused]
    inside = {id(node) for scope in scopes for node in ast.walk(scope)}
    used_inside = {node.id for scope in scopes for node in ast.walk(scope) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or (node.name if isinstance(node, ast.alias) else None)
        if name in OBSERVATION_CHECKS and id(node) not in inside and not (isinstance(node, ast.alias) and name in used_inside):
            found.append((node.lineno, name))
    return sorted(found)


def test_check_scan_finds_a_planted_check():
    source = (
        "from .models import check_finite, check_stack, stack_observations\n"
        "class DiagramSpec:\n"
        "    def __post_init__(self):\n"
        "        check_finite('mu', self.mu)\n"
        "def evaluate_many(self, observations, params):\n"
        "    A, y = stack_observations(params, observations)\n"
    )
    assert check_references(source, frozenset({"DiagramSpec"})) == [(1, "check_stack")]
    assert check_references(source) == [(1, "check_finite"), (1, "check_stack"), (4, "check_finite")]
    planted = "    models.check_bits('y', y)\nX, Y = batch_fields(observations, 2)\n"
    assert check_references(source + planted, frozenset({"DiagramSpec"})) == [(1, "check_stack"), (7, "check_bits"), (8, "batch_fields")]


def test_estimators_check_observations_only_through_stack_observations():
    src = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "plantedlab").glob("*.py")}
    # lowdeg's DiagramSpec checks its own mu, a parameter, not an observation
    for module, excused in (("bayes", ()), ("stability", ()), ("lowdeg", ("DiagramSpec",))):
        assert (module, check_references(src[module], frozenset(excused))) == (module, [])
    named = {str(p.relative_to(ROOT)): {name for _, name in check_references(p.read_text(encoding="utf-8"))} for p in FILES}
    assert {path for path, names in named.items() if "check_stack" in names and path.startswith("src")} == {
        "src/plantedlab/models.py",
        "src/plantedlab/solvers.py",
    }
    assert {path for path, names in named.items() if "batch_fields" in names} == set()


# a batch of observations is a run's stacked observation: no src call hands a batch entry point a list display
BATCH_ENTRY_POINTS = {"stack_observations", "check_stack", "posterior_means", "evaluate_many"}


def listed_batches(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call of a batch entry point that passes a list display or comprehension."""
    return sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in BATCH_ENTRY_POINTS
        and any(isinstance(arg, (ast.List, ast.ListComp)) for arg in [*node.args, *(k.value for k in node.keywords)])
    )


def test_listed_batch_scan_finds_a_planted_list():
    planted = (
        "fields = stack_observations(params, [Y])\n"
        "out = self.evaluate_many([obs for obs in batch], params)\n"
        "means = bayes.posterior_means(params, observations=[observation], rho=rho)\n"
        "edges = check_stack('edges', edges, (pairs,))\n"
        "one = posterior_means(params, per_field(lambda a: a[None], observation), rho)\n"
    )
    assert listed_batches(planted) == [(1, "stack_observations"), (2, "evaluate_many"), (3, "posterior_means")]


def test_src_passes_no_list_as_a_batch():
    src = sorted((ROOT / "src" / "plantedlab").glob("*.py"))
    found = {p.name: listed_batches(p.read_text(encoding="utf-8")) for p in src}
    assert len(src) > 10 and {name: calls for name, calls in found.items() if calls} == {}


# an instance is a run of one trial: no per-trial record type, and no way from a run to one or back
RUN_TRIAL_METHODS = {"__getitem__", "__iter__"}


def second_trial_forms(source: str) -> list[tuple[int, str]]:
    """(line, name) of each class named *Instance, each __getitem__ or __iter__ of _Run or a class built on it,
    and each run_of named, by definition, use or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Instance"):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef) and (node.name == "_Run" or any(getattr(b, "id", None) == "_Run" for b in node.bases)):
            found += [(f.lineno, f"{node.name}.{f.name}") for f in node.body if getattr(f, "name", None) in RUN_TRIAL_METHODS]
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name == "run_of":
            found.append((node.lineno, name))
    return sorted(found)


def test_second_trial_form_scan_finds_planted_forms():
    planted = (
        "from .models import run_of as stack, sample_instance\n"
        "@dataclass(frozen=True)\n"
        "class GssInstance(_Instance):\n"
        "    X: np.ndarray\n"
        "class _Run:\n"
        "    def __iter__(self):\n"
        "        return iter(())\n"
        "class PspRun(_Run):\n"
        "    def __getitem__(self, i):\n"
        "        return models.run_of([self])\n"
        "def run_of(instances):\n"
        "    pass\n"
    )
    assert second_trial_forms(planted) == [
        (1, "run_of"), (3, "GssInstance"), (6, "_Run.__iter__"), (9, "PspRun.__getitem__"), (10, "run_of"), (11, "run_of"),
    ]
    assert second_trial_forms("class GssRun(_Run):\n    def __len__(self):\n        return run.S[0]\n") == []


def test_src_keeps_one_trial_form():
    src = sorted((ROOT / "src" / "plantedlab").glob("*.py"))
    found = {p.name: second_trial_forms(p.read_text(encoding="utf-8")) for p in src}
    assert len(src) > 10 and {name: forms for name, forms in found.items() if forms} == {}


# one record per model: models._MODELS holds what models knows of each model, and the only other per-model
# tables are the kernels models cannot hold, since it would import the modules that import it; solvers and
# counting read the run-size rule (trial_runs, EVAL_CHUNK, EVAL_CHUNK_BYTES) from models, so neither imports noise
MODEL_TABLES = {("models", "_MODELS"), ("noise", "_NOISE"), ("bayes", "_POSTERIORS"), ("lowdeg", "POLY_FAMILIES")}
MODEL_KEYS = {"psp", "rlc", "gss", "tpca"}


def model_tables(source: str, nested: bool = False) -> list[tuple[int, str]]:
    """(line, name) of each module-level assignment (any assignment, when nested) of a dict display with a model
    name among its keys."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree) if nested else tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            if {k.value for k in node.value.keys if isinstance(k, ast.Constant)} & MODEL_KEYS:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def noise_imports(source: str) -> list[int]:
    """Lines that import noise or a name from it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "noise")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "noise" for alias in node.names))
        or (isinstance(node, ast.Import) and any(alias.name.split(".")[-1] == "noise" for alias in node.names))
    )


def test_model_table_scan_finds_planted_tables():
    planted = (
        "_PRIOR_MEANS = {'psp': psp_mean, 'rlc': half}\n"
        "_SIGNAL_NORMS: dict = {'tpca': one}\n"
        "_JSON_KEYS = {'lam': 'lambda'}\n"
        "def prior_mean_vector(params):\n"
        "    means = {'gss': k_over_n}\n"
        "from .noise import trial_runs\n"
        "from . import models, noise\n"
        "import plantedlab.noise as nz\n"
        "from .models import EVAL_CHUNK, trial_runs\n"
    )
    assert model_tables(planted) == [(1, "_PRIOR_MEANS"), (2, "_SIGNAL_NORMS")]
    assert model_tables(planted, nested=True) == [(1, "_PRIOR_MEANS"), (2, "_SIGNAL_NORMS"), (5, "means")]
    assert noise_imports(planted) == [6, 7, 8]


def test_src_keeps_one_record_per_model():
    src = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "plantedlab").glob("*.py")}
    assert len(src) > 10
    assert {(module, name) for module, source in src.items() for _, name in model_tables(source)} == MODEL_TABLES
    assert model_tables(src["stability"], nested=True) == []
    assert {module: noise_imports(src[module]) for module in ("solvers", "counting")} == {"solvers": [], "counting": []}


# numpy functions src may call only when the pyproject floor is at least the version that added them
NUMPY_ADDED = {"bitwise_count": (2, 0)}


def test_numpy_floor_covers_the_functions_src_calls():
    floor = re.search(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor is not None, "pyproject.toml names no numpy floor"
    have = tuple(int(part) for part in floor.group(1).split("."))
    used = {
        node.attr
        for path in (ROOT / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_ADDED
    }
    assert {name: NUMPY_ADDED[name] for name in used if have < NUMPY_ADDED[name]} == {}


# cli draws its instances and null graphs as keyed runs (noise.instance_runs, rng.keyed_runs);
# a per-seed one-trial draw there would pay the run decoder's fixed cost once per trial
PER_SEED_DRAWS = {"sample_instance", "sample_null_graph"}


def per_seed_draws(source: str) -> list[int]:
    """Lines that name a per-seed draw, by use or import."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id in PER_SEED_DRAWS)
        or (isinstance(node, ast.Attribute) and node.attr in PER_SEED_DRAWS)
        or (isinstance(node, ast.alias) and node.name in PER_SEED_DRAWS)
    )


def test_per_seed_draw_scan_finds_a_planted_loop():
    planted = (
        "from .models import sample_instance as draw, params_from_json\n"
        "hits = [solve(draw(p, s)) for s in seeds]\n"
        "edges = counting.sample_null_graph(n, q, seed)\n"
    )
    assert per_seed_draws(planted) == [1, 3]
    assert per_seed_draws("runs = instance_runs(params, seed, n)\nsample = chunk_sampler(params)\n") == []


def test_cli_draws_no_per_seed_instances():
    assert per_seed_draws((ROOT / "src" / "plantedlab" / "cli.py").read_text(encoding="utf-8")) == []


# a deferred failure is ranked in one place, the lane pass of noise.CoupledTrials.run_lanes; elsewhere in src
# an except handler ends what it caught at once.  A handler keeps what it caught when it stores it (assigns,
# returns or yields it, or passes it to a call outside a raise) or catches every Exception, which a deferred
# lane failure needs.  Two broad handlers end it at once: _second_moments re-raises it with its trial index,
# and cli.run turns it into exit status 1.
KEEPS_ALLOWED = {("stability", "_second_moments"), ("cli", "run")}


def _stores(handler: ast.ExceptHandler) -> bool:
    raised = {id(node) for raise_ in ast.walk(handler) if isinstance(raise_, ast.Raise) for node in ast.walk(raise_)}

    def caught(node) -> bool:
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List)) else [node]
        return any(isinstance(e, ast.Name) and e.id == handler.name for e in elts)

    for node in ast.walk(handler):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Return, ast.Yield)) and node.value is not None:
            if caught(node.value):
                return True
        elif isinstance(node, ast.Call) and id(node) not in raised and any(caught(a) for a in node.args):
            return True
    return False


def kept_exceptions(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function or class, line) of each except handler that keeps what it caught."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.ExceptHandler):
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                broad = any(t is None or (isinstance(t, ast.Name) and t.id in {"Exception", "BaseException"}) for t in types)
                if broad or (child.name is not None and _stores(child)):
                    found.append((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_kept_exception_scan_finds_planted_deferrals():
    planted = (
        "class _Arm:\n"
        "    def __call__(self, run):\n"
        "        try:\n"
        "            score(run)\n"
        "        except TrialError as err:\n"
        "            self.failure = err\n"
        "def outcomes(arm):\n"
        "    try:\n"
        "        arm.reduce()\n"
        "    except IllConditionedError as err:\n"
        "        return [], err\n"
        "    try:\n"
        "        arm.more()\n"
        "    except (KeyError, Exception):\n"
        "        rerun()\n"
        "        raise\n"
        "    try:\n"
        "        arm.last()\n"
        "    except ValueError as err:\n"
        "        failures.append(err)\n"
    )
    assert kept_exceptions(planted) == [("__call__", 5), ("outcomes", 10), ("outcomes", 14), ("outcomes", 19)]
    ended = (
        "def check(arrays):\n"
        "    try:\n"
        "        stack(arrays)\n"
        "    except ValueError as err:\n"
        "        print(f'{err}')\n"
        "        raise ParameterError(str(err)) from err\n"
    )
    assert kept_exceptions(ended) == []


def test_only_noise_keeps_a_caught_exception():
    src = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "plantedlab").glob("*.py")}
    kept = {(module, scope) for module, source in src.items() if module != "noise" for scope, _ in kept_exceptions(source)}
    assert kept == KEEPS_ALLOWED
    assert {scope for scope, _ in kept_exceptions(src["noise"])} == {"run_lanes", "chunk"}
