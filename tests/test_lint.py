"""Tests for :mod:`repro.lint` — rule engine, shape checker and CLI.

Layout mirrors the package:

* per-rule fixture pairs — one snippet that must fire the rule and one
  that must stay quiet, run through :func:`repro.lint.lint_text`;
* engine mechanics — suppression comments, domain scoping, select /
  ignore filtering, parse-error handling;
* shape checker — clean walks of the real ODENet family (module,
  module-plan and quantized paths), plus the deliberate failures the
  checker exists for: a mis-sized MHSA head split, broken conv
  geometry, non-shape-preserving ODE dynamics and a Q-format
  accumulator overflow;
* CLI — exit-code contract and the JSON report format.
"""

import json
import textwrap

import numpy as np
import pytest

from repro.fixedpoint import QFormat
from repro.fixedpoint.quantized_model import QuantizedODENetExecutor
from repro.lint import (
    Severity,
    all_rules,
    check_fixed_point,
    check_model,
    check_plan,
    check_quantized,
    lint_text,
)
from repro.lint.cli import main
from repro.models import build_model
from repro.nn.module import Parameter
from repro.runtime.engine import ModulePlan


def _rules_fired(text, *, rule, rel="", domain="library"):
    diags = lint_text(textwrap.dedent(text), rel=rel, domain=domain,
                      select=[rule])
    return [d.rule for d in diags]


def assert_fires(rule, text, **kwargs):
    assert rule in _rules_fired(text, rule=rule, **kwargs), (
        f"{rule} did not fire on:\n{textwrap.dedent(text)}"
    )


def assert_quiet(rule, text, **kwargs):
    assert not _rules_fired(text, rule=rule, **kwargs), (
        f"{rule} fired unexpectedly on:\n{textwrap.dedent(text)}"
    )


# ----------------------------------------------------------------------
# per-rule fixtures: (rule, bad snippet, good snippet, lint_text kwargs)
# ----------------------------------------------------------------------
RULE_FIXTURES = [
    (
        "RNG001",
        """\
        import numpy as np
        x = np.random.rand(3)
        """,
        """\
        import numpy as np
        rng = np.random.default_rng(0)
        x = rng.random(3)
        """,
        {},
    ),
    (
        "RNG001",
        """\
        from numpy.random import randn
        x = randn(3)
        """,
        """\
        from numpy.random import default_rng
        x = default_rng(0).random(3)
        """,
        {},
    ),
    (
        "HOT001",
        """\
        import numpy as np
        def forward(a, b):
            return np.matmul(a, b)
        """,
        """\
        from .. import kernels
        def forward(a, b):
            return kernels.matmul(a, b)
        """,
        {"rel": "nn/functional.py"},
    ),
    (
        "CMP001",
        """\
        import numpy as np
        def scale_shift(x, scale, shift):
            out = np.empty(x.shape, x.dtype)
            np.multiply(x, scale, out=out)
            np.add(out, shift, out=out)
            return out
        """,
        """\
        import numpy as np
        def scale_shift(x, scale, shift, out):
            np.multiply(x, scale, out=out)
            np.add(out, shift, out=out)
        """,
        {"rel": "compile/steps.py"},
    ),
    (
        "CMP001",
        """\
        def merge(b, out):
            tmp = b.cat.copy()
            out[:] = tmp
        """,
        """\
        import numpy as np
        def merge(b, out):
            np.copyto(out, b.cat)
        """,
        {"rel": "compile/steps.py"},
    ),
    (
        "SEAM002",
        """\
        def out(h, kh, sh, ph):
            return (h + 2 * ph - kh) // sh + 1
        """,
        """\
        from ..kernels import shapes
        def out(h, w, kh, kw, sh, sw, ph, pw):
            return shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
        """,
        {"rel": "nn/layers.py"},
    ),
    (
        "SEAM003",
        """\
        import numpy as np
        def patches(x):
            return np.lib.stride_tricks.as_strided(x, (2, 2), (8, 8))
        """,
        """\
        from ..kernels import shapes
        def patches(x, kh, kw, sh, sw):
            return shapes.as_strided_patches(x, kh, kw, sh, sw)
        """,
        {"rel": "nn/layers.py"},
    ),
    (
        "SEAM004",
        """\
        '''A kernel-seam consumer that skips the seam.'''
        import numpy as np
        """,
        """\
        '''A kernel-seam consumer that routes through the seam.'''
        from .. import kernels
        """,
        {"rel": "tensor/ops_matmul.py"},
    ),
    (
        "DBG001",
        """\
        x = 1  # FIXME: remove before shipping
        """,
        """\
        x = 1  # tuned against Table IV
        """,
        {},
    ),
    (
        "DBG001",
        """\
        def f():
            breakpoint()
        """,
        """\
        def f():
            return 0
        """,
        {},
    ),
    (
        "EXC001",
        """\
        try:
            x = 1
        except:
            x = 2
        """,
        """\
        try:
            x = 1
        except ValueError:
            x = 2
        """,
        {},
    ),
    (
        "EXC002",
        """\
        try:
            x = 1
        except Exception:
            pass
        """,
        """\
        import logging
        try:
            x = 1
        except Exception:
            logging.exception("boom")
        """,
        {},
    ),
    (
        "DOC001",
        """\
        x = 1
        """,
        """\
        '''This module is documented.'''
        x = 1
        """,
        {},
    ),
    (
        "DOC002",
        """\
        '''Docs.'''
        __all__ = ["f"]
        def f():
            return 1
        """,
        """\
        '''Docs.'''
        __all__ = ["f"]
        def f():
            '''Documented export.'''
            return 1
        """,
        {},
    ),
    (
        "MUT001",
        """\
        def zero(p):
            p.data[...] = 0.0
        """,
        """\
        def zero(p):
            p.data = p.data * 0.0
        """,
        {},
    ),
    (
        "MUT001",
        """\
        def step(p, g, lr):
            p.data -= lr * g
        """,
        """\
        def step(p, g, lr):
            p.data = p.data - lr * g
        """,
        {},
    ),
    (
        "SRV001",
        """\
        import numpy as np
        def jitter(x):
            rng = np.random.default_rng()
            return x + rng.standard_normal(x.shape)
        """,
        """\
        import numpy as np
        def jitter(x, seed):
            rng = np.random.default_rng(seed)
            return x + rng.standard_normal(x.shape)
        """,
        {"rel": "serve/pool.py"},
    ),
    (
        "SRV001",
        """\
        import numpy as np
        def schedule(rate):
            rng = np.random.default_rng(0)
            return rng.exponential(1.0 / rate, 8)
        """,
        """\
        import numpy as np
        def schedule(rate, seed):
            rng = np.random.default_rng(seed)
            return rng.exponential(1.0 / rate, 8)
        """,
        {"rel": "serve/loadgen.py"},
    ),
    (
        "SRV001",
        """\
        import numpy as np
        def sample(tap):
            rng = np.random.default_rng()
            return tap.sample(8, rng)
        """,
        """\
        import numpy as np
        def sample(tap, seed):
            rng = np.random.default_rng(seed)
            return tap.sample(8, rng)
        """,
        {"rel": "adapt/online.py"},
    ),
    (
        "SRV001",
        """\
        import numpy as np
        def shuffle(n):
            rng = np.random.default_rng()
            return rng.permutation(n)
        """,
        """\
        import numpy as np
        def shuffle(n, seed):
            rng = np.random.default_rng(seed)
            return rng.permutation(n)
        """,
        {"rel": "train/trainer.py"},
    ),
    (
        "SRV002",
        """\
        def dispatch(run, futures):
            try:
                run()
            except Exception:
                return None
        """,
        """\
        def dispatch(run, futures):
            try:
                run()
            except Exception as exc:
                for f in futures:
                    f.set_exception(exc)
        """,
        {"rel": "serve/scheduler.py"},
    ),
    (
        "TRC001",
        """\
        import time
        def measure(run):
            t0 = time.time()
            run()
            return time.time() - t0
        """,
        """\
        import time
        def measure(run):
            t0 = time.perf_counter()
            run()
            return time.perf_counter() - t0
        """,
        {"rel": "serve/scheduler.py"},
    ),
    (
        "TRC001",
        """\
        from time import time as now
        def stamp():
            return now()
        """,
        """\
        from time import perf_counter as now
        def stamp():
            return now()
        """,
        {"rel": "runtime/session.py"},
    ),
    (
        "QNT001",
        """\
        import numpy as np
        def fixed_global_avgpool(x, fmt):
            acc = x.sum(axis=(2, 3))
            n = x.shape[2] * x.shape[3]
            return fmt.saturate(np.rint(acc / n).astype(np.int64))
        """,
        """\
        from .ops import div_round_half_even
        def fixed_global_avgpool(x, fmt):
            acc = x.sum(axis=(2, 3))
            n = x.shape[2] * x.shape[3]
            return fmt.saturate(div_round_half_even(acc, n))
        """,
        {"rel": "fixedpoint/quantized_layers.py"},
    ),
    (
        "QNT001",
        """\
        import numpy as np
        def fixed_scale_shift(raw, fmt):
            return np.clip(raw.astype(np.float64), fmt.min_raw, fmt.max_raw)
        """,
        """\
        import numpy as np
        def fixed_scale_shift(raw, fmt):
            return np.clip(raw, fmt.min_raw, fmt.max_raw)
        """,
        {"rel": "fixedpoint/ops.py"},
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule,bad,good,kwargs",
        RULE_FIXTURES,
        ids=[f"{r}-{i}" for i, (r, _, _, _) in enumerate(RULE_FIXTURES)],
    )
    def test_bad_fires_good_quiet(self, rule, bad, good, kwargs):
        assert_fires(rule, bad, **kwargs)
        assert_quiet(rule, good, **kwargs)

    def test_every_registered_rule_has_a_fixture(self):
        covered = {r for r, _, _, _ in RULE_FIXTURES}
        registered = {rule.id for rule in all_rules()}
        assert registered <= covered, registered - covered


class TestEngine:
    def test_suppression_comment(self):
        src = "def step(p, g):\n    p.data -= g  # repro-lint: ignore[MUT001] optimizer step\n"
        assert not lint_text(src, select=["MUT001"])

    def test_suppression_is_rule_specific(self):
        src = "def step(p, g):\n    p.data -= g  # repro-lint: ignore[RNG001] wrong rule\n"
        assert _rules_fired(src, rule="MUT001")

    def test_wildcard_suppression(self):
        src = "def step(p, g):\n    p.data -= g  # repro-lint: ignore[*] trusted line\n"
        assert not lint_text(src, select=["MUT001"])

    def test_domain_scoping_rng_rule_skips_tests(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert _rules_fired(src, rule="RNG001", domain="library")
        assert not _rules_fired(src, rule="RNG001", domain="tests")

    def test_seeded_rng_scope_bounds_srv001(self):
        # SRV001 polices serve/, adapt/ and train/ — the paths where an
        # unseeded default_rng() breaks replay determinism — and stays
        # quiet elsewhere (RNG001 covers general library hygiene)
        from repro.lint.rules_serve import SEEDED_RNG_SCOPE

        assert set(SEEDED_RNG_SCOPE) == {"serve/", "adapt/", "train/"}
        src = (
            "import numpy as np\n"
            "def draw():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random(3)\n"
        )
        for scope in SEEDED_RNG_SCOPE:
            assert _rules_fired(src, rule="SRV001",
                                rel=f"{scope}mod.py")
        assert not _rules_fired(src, rule="SRV001", rel="data/mod.py")

    def test_bare_except_fires_in_every_domain(self):
        src = "try:\n    x = 1\nexcept:\n    x = 2\n"
        for domain in ("library", "tests", "examples"):
            assert _rules_fired(src, rule="EXC001", domain=domain)

    def test_ignore_filter(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert not lint_text(src, ignore=["RNG001", "DOC001", "HOT001"])

    def test_syntax_error_reports_parse_diagnostic(self):
        diags = lint_text("def broken(:\n")
        assert [d.rule for d in diags] == ["PARSE"]
        assert diags[0].severity is Severity.ERROR

    def test_diagnostic_json_roundtrip(self):
        (diag,) = lint_text("x = 1  # FIXME\n", select=["DBG001"])
        record = diag.to_dict()
        assert record["rule"] == "DBG001"
        assert record["severity"] == "error"
        assert json.dumps(record)  # serialisable


# ----------------------------------------------------------------------
# shape / dtype / Q-format checker
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_model():
    model = build_model("ode_botnet", profile="tiny", seed=0)
    model.eval()
    return model


def _fresh_tiny():
    model = build_model("ode_botnet", profile="tiny", seed=0)
    model.eval()
    return model


class TestShapeChecker:
    def test_shipped_model_is_clean(self, tiny_model):
        assert check_model(tiny_model) == []

    def test_module_plan_is_clean(self, tiny_model):
        assert check_plan(ModulePlan(tiny_model)) == []

    def test_missized_mhsa_head_split(self):
        model = _fresh_tiny()
        model.block3.func.mhsa.heads = 5  # 16 channels % 5 != 0
        diags = check_model(model)
        assert any(
            d.rule == "SHP001" and "head split" in d.message for d in diags
        ), [d.message for d in diags]

    def test_broken_conv_geometry(self):
        model = _fresh_tiny()
        w = model.down1.conv.weight.data
        model.down1.conv.weight = Parameter(
            np.zeros((w.shape[0], w.shape[1] - 1) + w.shape[2:], dtype=w.dtype)
        )
        diags = check_model(model)
        assert any(
            d.rule == "SHP001" and "down1" in d.message for d in diags
        ), [d.message for d in diags]

    def test_non_shape_preserving_ode_dynamics(self):
        model = _fresh_tiny()
        pw = model.block1.func.conv2.conv.pointwise
        w = pw.weight.data  # (C_out, C_in, 1, 1): widen the output
        pw.weight = Parameter(
            np.zeros((w.shape[0] + 1,) + w.shape[1:], dtype=w.dtype)
        )
        pw.bias = Parameter(np.zeros(w.shape[0] + 1, dtype=w.dtype))
        diags = check_model(model)
        assert any(
            d.rule == "SHP001" and "shape" in d.message and "block1" in d.message
            for d in diags
        ), [d.message for d in diags]

    def test_dtype_mixing_flagged(self, tiny_model):
        diags = check_model(tiny_model, dtype="float64")
        assert any(d.rule == "SHP002" for d in diags)

    def test_qformat_overflow_is_error(self, tiny_model):
        diags = check_fixed_point(tiny_model, QFormat(48, 24), QFormat(32, 16))
        errors = [d for d in diags if d.rule == "SHP003"
                  and d.severity is Severity.ERROR]
        assert errors, [d.message for d in diags]
        assert any("wraps silently" in d.message for d in errors)

    def test_paper_formats_flag_feature_by_feature_worst_case(self, tiny_model):
        # the paper's widest pair is provably safe at every feature x param
        # site (ops.py's <= 2^55 argument) but the MHSA QK^T / attn x V
        # contractions multiply two 32-bit features — worst case 65 bits
        diags = check_fixed_point(tiny_model, QFormat(32, 16), QFormat(24, 8))
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors and all("mhsa" in d.message for d in errors)

    def test_narrow_formats_are_clean(self, tiny_model):
        diags = check_fixed_point(tiny_model, QFormat(16, 8), QFormat(12, 4))
        assert diags == []

    def test_check_quantized_executor(self, tiny_model):
        executor = QuantizedODENetExecutor(
            tiny_model, QFormat(16, 8), QFormat(12, 4)
        )
        assert check_quantized(executor) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(textwrap.dedent(text))
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "clean.py",
            """\
            '''A documented module.'''
            import numpy as np
            rng = np.random.default_rng(0)
            """,
        )
        assert main([path]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "dirty.py",
            """\
            '''A documented module.'''
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert main([path]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "'''Docs.'''\n")
        assert main([path, "--select", "NOPE999"]) == 2

    def test_json_format(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "dirty.py",
            """\
            '''A documented module.'''
            x = 1  # FIXME
            """,
        )
        assert main([path, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert [d["rule"] for d in report["diagnostics"]] == ["DBG001"]
        assert report["summary"]["errors"] == 1

    def test_output_file_always_json(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "'''Docs.'''\n")
        out = tmp_path / "report.json"
        assert main([path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["diagnostics"] == []
        assert report["summary"]["files_scanned"] == 1

    def test_select_limits_rules(self, tmp_path):
        path = self._write(
            tmp_path, "dirty.py",
            """\
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        # module docstring missing too, but DOC001 is deselected
        assert main([path, "--select", "DOC001"]) == 1
        assert main([path, "--select", "RNG001"]) == 1
        assert main([path, "--select", "EXC001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
