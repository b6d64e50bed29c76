"""REP004 / REP005 / REP007 — estimator-spec and front-end conformance.

**REP004** makes the budget-relevant parts of an estimator spec explicit at
the registration site.  ``EstimatorSpec`` has defaults (``reservation=1.0``,
``min_records=8``) that are convenient in tests but dangerous in the
registry: an estimator that silently inherits a reservation factor spends
budget the author never reasoned about, and a missing ``min_records`` lets
tiny datasets through to estimators whose accuracy guarantees assume more.
Every ``@register_estimator(...)`` / direct ``EstimatorSpec(...)``
registration must therefore spell out ``reservation=`` and ``min_records=``,
and every numeric ``ParamField`` must carry at least one of ``minimum=`` /
``maximum=`` so the HTTP validator can reject out-of-range parameters
before any budget is reserved.

**REP005** enforces the no-traceback contract of the serving front ends: a
request-handling entry point (``do_GET``/``do_POST``-style methods in
``service/http.py``, ``_handle_connection`` in ``service/aio.py``,
``handle`` of the request core in ``service/app.py``) must wrap its body in
a broad ``except`` that maps the failure to a structured error document.  An
uncaught exception in a handler thread kills the connection with a raw
traceback — and in the threaded server, leaks the failure mode to the
client instead of the audit log.

**REP007** enforces the sketch contract: a runner registered with
``needs=("sorted", ...)`` promised the service it reads the dataset's cached
sorted sketch, so the registry pays for that sort exactly once at
registration time.  A ``np.sort(data)`` (or in-place ``data.sort()``) on the
runner's data argument silently re-pays the n·log n per query — the
declaration and the body disagree, and the cold-path speedup the
declaration bought is lost.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.base import ModuleContext, Rule, dotted_name
from repro.lint.findings import Finding

__all__ = ["EstimatorSpecRule", "FrontEndContainmentRule", "SketchContractRule"]

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ParamField types that are enumerations, not numbers — bounds make no sense.
_UNBOUNDED_PARAM_TYPES = {"levels", "str", "string", "bool"}


def _keyword_names(call: ast.Call) -> set:
    return {kw.arg for kw in call.keywords if kw.arg is not None}


def _has_double_star(call: ast.Call) -> bool:
    return any(kw.arg is None for kw in call.keywords)


class EstimatorSpecRule(Rule):
    rule_id = "REP004"
    description = (
        "estimator specs must declare reservation= and min_records= "
        "explicitly and bound every numeric ParamField"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            if tail in ("register_estimator", "EstimatorSpec"):
                yield from self._check_spec(module, node, tail)
            elif tail == "ParamField":
                yield from self._check_param(module, node)

    def _check_spec(
        self, module: ModuleContext, call: ast.Call, label: str
    ) -> Iterator[Finding]:
        if _has_double_star(call):
            # ``EstimatorSpec(**adapter_kwargs)`` — an adapter layer owns the
            # defaults; its own source is where explicitness is checked.
            return
        keywords = _keyword_names(call)
        for required in ("reservation", "min_records"):
            if required not in keywords:
                yield self.finding(
                    module,
                    call,
                    f"{label}(...) omits {required}=; budget-relevant spec fields "
                    "must be explicit at the registration site, not inherited "
                    "from EstimatorSpec defaults",
                )

    def _check_param(self, module: ModuleContext, call: ast.Call) -> Iterator[Finding]:
        keywords = _keyword_names(call)
        if _has_double_star(call):
            return
        param_type = self._literal_keyword(call, "type")
        if isinstance(param_type, str) and param_type in _UNBOUNDED_PARAM_TYPES:
            return
        if "minimum" not in keywords and "maximum" not in keywords:
            name = self._literal_keyword(call, "name")
            if name is None and call.args:
                first = call.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    name = first.value
            label = f"ParamField '{name}'" if name else "ParamField"
            yield self.finding(
                module,
                call,
                f"{label} declares no minimum= or maximum=; numeric request "
                "parameters must be range-validated before any budget is "
                "reserved",
            )

    @staticmethod
    def _literal_keyword(call: ast.Call, name: str):
        for kw in call.keywords:
            if kw.arg == name and isinstance(kw.value, ast.Constant):
                return kw.value.value
        return None


class SketchContractRule(Rule):
    rule_id = "REP007"
    description = (
        "runners declaring needs=('sorted', ...) must read the cached "
        "sketch instead of re-sorting their data argument"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, _FunctionNode):
                continue
            if not self._declares_sorted(node):
                continue
            param = self._data_param(node)
            if param is not None:
                yield from self._check_body(module, node, param)

    @staticmethod
    def _declares_sorted(function: ast.AST) -> bool:
        """``@register_estimator(..., needs=(...'sorted'...))`` on this def?"""
        for decorator in function.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            name = dotted_name(decorator.func)
            if name is None or name.rsplit(".", 1)[-1] != "register_estimator":
                continue
            for kw in decorator.keywords:
                if kw.arg != "needs" or not isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    continue
                for element in kw.value.elts:
                    if (
                        isinstance(element, ast.Constant)
                        and element.value == "sorted"
                    ):
                        return True
        return False

    @staticmethod
    def _data_param(function: ast.AST) -> Optional[str]:
        """The runner's data argument: its first positional parameter."""
        args = function.args
        ordered = list(args.posonlyargs) + list(args.args)
        return ordered[0].arg if ordered else None

    def _check_body(
        self, module: ModuleContext, function: ast.AST, param: str
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or not name.endswith(".sort"):
                continue
            prefix = name[: -len(".sort")]
            if prefix in ("np", "numpy"):
                operands = list(node.args) + [kw.value for kw in node.keywords]
                if any(self._references(operand, param) for operand in operands):
                    yield self.finding(
                        module,
                        node,
                        f"runner declares needs=('sorted', ...) but re-sorts "
                        f"its data argument '{param}' with {name}(); read the "
                        "DatasetView's cached sketch (.sorted_values) the "
                        "declaration already paid for",
                    )
            elif prefix == param or prefix.startswith(param + "."):
                yield self.finding(
                    module,
                    node,
                    f"runner declares needs=('sorted', ...) but calls "
                    f"{name}() on its data argument; datasets are immutable "
                    "inputs — read the DatasetView's cached sketch "
                    "(.sorted_values) instead",
                )

    @staticmethod
    def _references(expr: ast.AST, param: str) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id == param
            for node in ast.walk(expr)
        )


class FrontEndContainmentRule(Rule):
    rule_id = "REP005"
    description = (
        "front-end request handlers must wrap their body in a broad except "
        "mapping failures to a structured error document"
    )

    #: (path suffix, predicate over method name) pairs defining entry points.
    _SCOPES: Tuple[Tuple[str, str], ...] = (
        ("service/http.py", "do_"),
        ("service/aio.py", "_handle_connection"),
        ("service/app.py", "handle"),
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        display = module.posix_display
        prefixes = [
            prefix for suffix, prefix in self._SCOPES if display.endswith(suffix)
        ]
        if not prefixes:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, _FunctionNode):
                continue
            if not any(node.name.startswith(prefix) for prefix in prefixes):
                continue
            if not self._is_contained(node):
                yield self.finding(
                    module,
                    node,
                    f"request handler '{node.name}' is not wrapped in a broad "
                    "except; an uncaught exception here returns a raw traceback "
                    "to the client instead of a structured error document",
                )

    @classmethod
    def _is_contained(cls, function: ast.AST) -> bool:
        """True when the handler body is one top-level try with a broad handler.

        Leading docstrings and trivial setup (assignments, constants) before
        the try are tolerated; real request work outside it is not.
        """
        body = list(function.body)
        # Skip a docstring expression.
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        while body and isinstance(body[0], (ast.Assign, ast.AnnAssign)):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Try):
            return False
        return any(cls._is_broad_handler(h) for h in body[0].handlers)

    @staticmethod
    def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
        def broad(expr: Optional[ast.AST]) -> bool:
            if expr is None:  # bare except
                return True
            if isinstance(expr, ast.Tuple):
                return any(broad(element) for element in expr.elts)
            name = dotted_name(expr)
            return name in ("Exception", "BaseException")

        if not broad(handler.type):
            return False
        # ``except Exception: raise`` contains nothing.
        if len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise):
            raised = handler.body[0]
            if raised.exc is None:
                return False
        return True
