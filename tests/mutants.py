"""Statement-deletion mutation run over the simulator's core modules.

Each mutant replaces one statement of ``src/fronthaul/<module>.py`` (all
its lines, a compound statement with its body) by ``pass``. Docstrings,
imports, ``pass`` itself and ``def``/``class`` statements are not
mutated. For every mutant the runner copies ``src/`` to a temporary
directory, writes the mutant there, and runs the tier-1 test files,
without the acceptance suite, with ``-x`` in one child process at
``OPENBLAS_NUM_THREADS=1``; the module's own test file runs first. A
mutant is killed when the run fails, survives when it passes, and times
out when it runs past four times the unmutated run (at least 60 s). The
counts per module and every survivor are printed; survivors on
``EQUIVALENT`` are listed apart, with the reason they cannot be told from
the original.

    python tests/mutants.py                        # all five modules
    python tests/mutants.py --modules protocol

The run starts with the unmutated copy, which must pass. Mutants run on
one worker per CPU. It uses the standard library only, and pytest does
not collect this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"
MODULES = ("channel", "edge", "cloud", "nn", "protocol")
SKIPPED_FILES = {"test_acceptance.py"}

_ANNOTATION = ("the alias is read only in annotations, which "
               "``from __future__ import annotations`` never evaluates")
_ARRAY_IN = ("admits a sequence as well as an array; every caller in the "
             "package passes a float array")
# (module, enclosing def/class qualified name or "" at module level, the
# mutated statement's first line, stripped) -> why deleting it changes no
# behaviour a caller can observe. Each key must name exactly one mutant.
EQUIVALENT = {
    **{(module, "", "Array = np.ndarray"): _ANNOTATION for module in MODULES},
    ("nn", "", "LayerSpec = Dense | Relu | Projection"): _ANNOTATION,
    ("channel", "sample_channel", "d = np.asarray(d, dtype=float)"): _ARRAY_IN,
    ("channel", "uplink_transmit", "s = np.asarray(s, dtype=float)"): _ARRAY_IN,
    ("channel", "downlink_transmit", "m = np.asarray(m, dtype=float)"): _ARRAY_IN,
    ("channel", "downlink_decode", "y = np.asarray(y, dtype=float)"): _ARRAY_IN,
    ("nn", "ParamSet._hold",
     "arrays = {name: np.asarray(a, dtype=float) for name, a in arrays.items()}"): _ARRAY_IN,
    ("nn", "projection_forward", "v = np.asarray(v, dtype=float)"): _ARRAY_IN,
    ("nn", "projection_backward", "v = np.asarray(v, dtype=float)"): _ARRAY_IN,
    ("nn", "ParamSet.__deepcopy__", "memo[id(self)] = clone"):
        "a parameter set is never reached twice in one deep copy",
    ("protocol", "evaluate", "n_test = int(n_test)"):
        "evaluate only slices and compares n_test, which a numpy integer does as an int",
    ("protocol", "EvalPopulation",
     "pools: dict[float, tuple[Array, int]] = field(default_factory=dict)"):
        "a new population's made_for is None, so free_made sets its pools before any read",
    ("protocol", "EvalPopulation.__deepcopy__", "return None"):
        "a body of pass returns None as well",
}


@dataclass(frozen=True)
class Mutant:
    module: str
    scope: str  # qualified name of the enclosing def or class, "" at module level
    line: int  # first line, 1-based
    end: int  # last line, inclusive
    text: str  # the first line, stripped

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.scope, self.text

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        first = lines[self.line - 1]
        indent = first[:len(first) - len(first.lstrip())]
        return "".join(lines[:self.line - 1] + [indent + "pass\n"] + lines[self.end:])


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def mutants(module: str) -> list[Mutant]:
    """Every statement of ``module`` that fills its lines, in line order."""
    source = (SRC / "fronthaul" / f"{module}.py").read_text()
    lines = source.splitlines()
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            visit(child, scope)
            if not isinstance(child, ast.stmt) or _is_docstring(child) or isinstance(
                    child, (ast.Pass, ast.Import, ast.ImportFrom)):
                continue
            first, last = lines[child.lineno - 1], lines[child.end_lineno - 1]
            # only a statement with nothing before it on its first line and
            # nothing after it on its last (no ``a; b``, no one-line ``if``)
            if first[:child.col_offset].strip() or last[child.end_col_offset:].strip():
                continue
            found.append(Mutant(module, scope, child.lineno, child.end_lineno, first.strip()))

    visit(ast.parse(source), "")
    return sorted(found, key=lambda m: m.line)


def test_files(module: str | None) -> list[str]:
    files = sorted(p for p in TESTS.glob("test_*.py") if p.name not in SKIPPED_FILES)
    own = [p for p in files if p.name == f"test_{module}.py"]
    return [str(p) for p in own + [p for p in files if p not in own]]


def run(mutant: Mutant | None, timeout: float | None) -> tuple[str, float]:
    """('killed' | 'survived' | 'timeout', seconds) for one mutant; None runs
    the unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "fronthaul" / f"{mutant.module}.py"
            path.write_text(mutant.apply(path.read_text()))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={src}",
                   *test_files(mutant.module if mutant else None)]
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return "timeout", time.perf_counter() - start
        return ("survived" if code == 0 else "killed"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", choices=MODULES, default=list(MODULES))
    args = parser.parse_args(argv)
    todo = [m for module in args.modules for m in mutants(module)]
    matches = Counter(m.key for m in todo)
    stale = [key for key in EQUIVALENT if key[0] in args.modules and matches[key] != 1]
    if stale:
        for key in stale:
            print(f"EQUIVALENT entry names {matches[key]} mutants, not 1: {key}")
        return 1

    verdict, seconds = run(None, None)
    if verdict != "survived":
        print("the unmutated copy fails its tests; nothing to score")
        return 1
    timeout = max(60.0, 4 * seconds)
    workers = os.cpu_count() or 1
    print(f"unmutated run {seconds:.1f} s; timeout {timeout:.0f} s; "
          f"{len(todo)} mutants on {workers} worker(s)", flush=True)
    started = time.perf_counter()
    results = []
    with ThreadPoolExecutor(workers) as pool:
        for mutant, (verdict, _) in zip(todo, pool.map(lambda m: run(m, timeout), todo)):
            results.append((mutant, verdict))
            if len(results) % 25 == 0:
                print(f"  {len(results)}/{len(todo)}", flush=True)
    print(f"done in {(time.perf_counter() - started) / 60:.1f} min")

    print(f"\n{'module':10} {'mutants':>8} {'killed':>7} {'survived':>9} {'timeout':>8} "
          f"{'equivalent':>11}")
    for module in args.modules:
        mine = [(m, v) for m, v in results if m.module == module]
        count = {v: sum(verdict == v for _, verdict in mine)
                 for v in ("killed", "survived", "timeout")}
        equivalent = sum(v == "survived" and m.key in EQUIVALENT for m, v in mine)
        print(f"{module:10} {len(mine):8} {count['killed']:7} {count['survived']:9} "
              f"{count['timeout']:8} {equivalent:11}")
    for label, pick in (("survived", lambda m, v: v == "survived" and m.key not in EQUIVALENT),
                        ("equivalent", lambda m, v: v == "survived" and m.key in EQUIVALENT),
                        ("timed out", lambda m, v: v == "timeout")):
        chosen = [m for m, v in results if pick(m, v)]
        if chosen:
            print(f"\n{label}:")
        for m in chosen:
            reason = EQUIVALENT.get(m.key)
            print(f"  {m.module}:{m.line}: {m.text}" + (f"  # {reason}" if reason else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
