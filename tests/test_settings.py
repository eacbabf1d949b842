"""Settings across every config type: each reads its numbers through
``settings.to_float`` or ``settings.to_int`` and its names through
``settings.to_choice``, so the same bad value is rejected everywhere with a
ValueError that names the setting; a setting declared with
``settings.setting``, every function argument read in a domain and every name
choice is also held to its domain, in one message form."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from pao import cli
from pao.attractors import MIN_POP, VALID_KINDS, AttractorSpec
from pao.baselines import DeConfig, PsoConfig, QpsoConfig, SadeConfig
from pao.benchmarks import PROBLEM_NAMES, make_problem
from pao.engine import BOUNDS_POLICIES, VELOCITY_INITS, PaoConfig, initialize_swarm
from pao.harness import OPTIMIZER_IDS, SUITES, BenchmarkSuite, run_one, standard_suite
from pao.kernel import Hyperparams
from pao.settings import to_float

from support import RUNNERS


def suite(**overrides):
    kwargs = dict(problems=(("dejong", 2),), pop=8, gens=1, reps=1, optimizers=("pso",))
    return BenchmarkSuite(**{**kwargs, **overrides})


def cli_run(key):
    def run(value, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "griewangk", "pop": 8, "gens": 1, key: value}))
        cli.main(["run", "--out", str(tmp_path / "out.jsonl"), "--config", str(cfg)])
        raise AssertionError(f"config key {key!r} = {value!r} ran")

    return run


def keyword(build, key):
    return lambda value, tmp_path: build(**{key: value})


# (config type and setting, builder taking the value, whether it is an integer)
SETTINGS = [
    *[(f"Hyperparams.{key}", keyword(Hyperparams, key), False) for key in ("m", "zeta", "q0", "dt")],
    ("Hyperparams.k", lambda value, tmp_path: Hyperparams(k=(1.0, value)), False),
    *[(f"from_params.{key}", lambda value, tmp_path, key=key: PaoConfig.from_params({key: value}), False)
      for key in ("m", "zeta", "q0", "dt")],
    *[(f"BenchmarkSuite.{key}", keyword(suite, key), True) for key in ("pop", "gens", "reps", "base_seed")],
    ("BenchmarkSuite.griewangk_denominator", keyword(suite, "griewangk_denominator"), False),
    ("BenchmarkSuite.dimension", lambda value, tmp_path: suite(problems=(("dejong", value),)), True),
    *[(f"config.{key}", cli_run(key), True) for key in ("dim", "pop", "gens", "reps", "seed")],
    ("config.griewangk_denominator", cli_run("griewangk_denominator"), False),
    ("make_problem.dimension", lambda value, tmp_path: make_problem("dejong", value), True),
    ("make_problem.griewangk_denominator", lambda value, tmp_path: make_problem("griewangk", 2, value), False),
    ("AttractorSpec.stddev", lambda value, tmp_path: AttractorSpec("stochasticgaussian", value), False),
    *[(f"{cfg.__name__}.{key}", keyword(cfg, key), False)
      for cfg, keys in [(PsoConfig, ("w_start", "w_end", "c1", "c2", "vmax_frac")),
                        (QpsoConfig, ("alpha_start", "alpha_end")),
                        (DeConfig, ("f_de", "cr")),
                        (SadeConfig, ("cr_mean", "cr_std", "f_mean", "f_std"))]
      for key in keys],
    ("SadeConfig.learning_period", keyword(SadeConfig, "learning_period"), True),
]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
BAD = [True, "0.5", None, *NON_FINITE]
FLOATS = {setting for setting, _, integer in SETTINGS if not integer}


@pytest.mark.parametrize(
    "setting, build, value",
    [(setting, build, value) for setting, build, integer in SETTINGS for value in BAD + [2.5] * integer
     # k alone takes numeric text, the CLI's comma form "1,2"
     if not (setting == "Hyperparams.k" and value == "0.5")],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_every_config_type_rejects_the_same_bad_values(tmp_path, setting, build, value):
    name = setting.split(".")[1]
    error = f"{name} must be finite" if setting in FLOATS and value in NON_FINITE else name
    with pytest.raises(ValueError, match=re.escape(error)):
        build(value, tmp_path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "inf"])
def test_to_float_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match=r"^x must be finite, got (nan|inf|-inf)$"):
        to_float("x", value, strings=True)


# (what the error names, builder taking the value) for every name setting
NAME_SETTINGS = [
    ("config key 'optimizer'", cli_run("optimizer")),
    ("config key 'problem'", cli_run("problem")),
    ("attractor kind", lambda value, tmp_path: AttractorSpec(value)),
    ("problem name", lambda value, tmp_path: make_problem(value, 2)),
    ("optimizer", lambda value, tmp_path: suite(optimizers=("pso", value))),
    ("optimizer", lambda value, tmp_path: run_one(value, make_problem("dejong", 2), 8, 1, 0)),
    ("suite", lambda value, tmp_path: standard_suite(value)),
]


@pytest.mark.parametrize("what, build", NAME_SETTINGS, ids=[what for what, _ in NAME_SETTINGS])
@pytest.mark.parametrize("value", [5, None, 2.5, True, ["pso"]], ids=repr)
def test_every_name_setting_rejects_a_non_string(tmp_path, what, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{what} must be a string, got {value!r}")):
        build(value, tmp_path)


# (what the error names, its choices, reader taking the value and returning
# the name it read) for every name choice
CHOICE_SETTINGS = [
    ("attractor kind", VALID_KINDS, lambda value: AttractorSpec(value).kind),
    ("problem name", PROBLEM_NAMES, lambda value: make_problem(value, 2).name),
    ("suite", tuple(SUITES), lambda value: standard_suite(value).problems),
    ("optimizer", OPTIMIZER_IDS, lambda value: suite(optimizers=(value,)).optimizers[0]),
    ("optimizer", OPTIMIZER_IDS, lambda value: run_one(value, make_problem("dejong", 2), 8, 1, 0).optimizer),
    ("config key 'optimizer'", OPTIMIZER_IDS, lambda value: cli._read({"optimizer": value})["optimizer"]),
    ("config key 'problem'", PROBLEM_NAMES, lambda value: cli._read({"problem": value})["problem"]),
    ("config key 'optimizers'", OPTIMIZER_IDS, lambda value: cli._read({"optimizers": ["pso", value]})["optimizers"][1]),
    ("bounds_policy", BOUNDS_POLICIES, lambda value: PaoConfig(bounds_policy=value).bounds_policy),
    ("velocity_init", VELOCITY_INITS, lambda value: PaoConfig(velocity_init=value).velocity_init),
]
CHOICE_IDS = [what for what, _, _ in CHOICE_SETTINGS]


@pytest.mark.parametrize("what, choices, read", CHOICE_SETTINGS, ids=CHOICE_IDS)
def test_every_name_choice_rejects_a_name_outside_it_in_one_form(what, choices, read):
    error = f"{what} must be one of {choices}, got 'nope'"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        read("nope")


@pytest.mark.parametrize("what, choices, read", CHOICE_SETTINGS, ids=CHOICE_IDS)
def test_every_name_choice_reads_padded_capitalised_text_as_its_member(what, choices, read):
    for member in choices:
        assert read(f" {member.capitalize()}") == read(member)


def test_config_out_must_be_a_path(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pop": 8, "gens": 1, "out": 5}))
    with pytest.raises(ValueError, match=re.escape("config key 'out' must be a path string, got 5")):
        cli.main(["run", "--config", str(cfg)])


@pytest.mark.parametrize(
    "command, key, value",
    [("run", "problem", 5), ("run", "optimizer", None), ("run", "pop", 2.5),
     ("run", "optimizer", "cmaes"), ("bench", "optimizers", ["cmaes"])],
)
def test_a_config_value_is_checked_where_a_flag_overrides_it(tmp_path, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gens": 1, key: value}))
    flag = {"problem": "griewangk", "optimizer": "pso", "optimizers": "pso", "pop": "8"}[key]
    argv = {"run": ["run"], "bench": ["bench", "--suite", "2d", "--out", str(tmp_path / "suite")]}[command]
    with pytest.raises(ValueError, match=re.escape(f"config key {key!r}")):
        cli.main([*argv, f"--{key}", flag, "--config", str(cfg)])


# every setting that declares a domain, as "<type>.<field>": its domain
DECLARED = {
    "Hyperparams.m": "> 0",
    "Hyperparams.zeta": ">= 0",
    "Hyperparams.q0": ">= 0",
    "Hyperparams.dt": "> 0",
    "PaoConfig.bounds_policy": BOUNDS_POLICIES,
    "PaoConfig.velocity_init": VELOCITY_INITS,
    "AttractorSpec.stddev": ">= 0",
    "PsoConfig.vmax_frac": "> 0",
    "DeConfig.cr": "in [0, 1]",
    "SadeConfig.learning_period": ">= 1",
    "SadeConfig.cr_std": ">= 0",
    "SadeConfig.f_std": ">= 0",
    "BenchmarkSuite.pop": ">= 1",
    "BenchmarkSuite.gens": ">= 0",
    "BenchmarkSuite.reps": ">= 1",
    "BenchmarkSuite.base_seed": "in [0, 2**64)",
    "BenchmarkSuite.griewangk_denominator": "> 0",
}
# config type -> (builder taking one setting by keyword, label its errors put before the field)
BUILDERS = {
    # the least stiffness, so that the least m (5e-324) still gives a finite drift matrix
    Hyperparams: (lambda **kw: Hyperparams(k=(5e-324,), **kw), ""),
    PaoConfig: (PaoConfig, ""),
    AttractorSpec: (lambda **kw: AttractorSpec("stochasticgaussian", **kw), "attractor spec stochasticgaussian: "),
    PsoConfig: (PsoConfig, "PsoConfig."),
    QpsoConfig: (QpsoConfig, "QpsoConfig."),
    DeConfig: (DeConfig, "DeConfig."),
    SadeConfig: (SadeConfig, "SadeConfig."),
    BenchmarkSuite: (suite, ""),
}
# numeric domain -> (values just on its wrong side, its allowed boundary values), for floats and for ints
EDGES = {
    float: {"> 0": ([0.0, -5e-324], [5e-324]), ">= 0": ([-5e-324], [0.0]),
            "in [0, 1]": ([-5e-324, 1.0 + 2.0**-52], [0.0, 1.0])},
    int: {">= 0": ([-1], [0]), ">= 1": ([0], [1]), "in [0, 2**64)": ([-1, 2**64], [0, 2**64 - 1])},
}


def declared_fields():
    return [(cfg, f) for cfg in BUILDERS for f in fields(cfg) if "domain" in f.metadata]


def test_the_declared_domains_are_the_table():
    # a dropped domain or a lost annotation (no field) would empty the cases below
    assert {f"{cfg.__name__}.{f.name}": f.metadata["domain"] for cfg, f in declared_fields()} == DECLARED


def domain_cases():
    for cfg, f in declared_fields():
        build, prefix = BUILDERS[cfg]
        domain, label = f.metadata["domain"], prefix + f.name
        choices = isinstance(domain, tuple)
        wrong, allowed = (["nope"], domain) if choices else EDGES[f.type][domain]
        setting = f"{cfg.__name__}.{f.name}"
        for value in wrong:
            error = f"{label} must be one of {domain}, got {value!r}" if choices else f"{label} must be {domain}, got {value}"
            yield pytest.param(build, f.name, value, error, id=f"{setting}={value!r}")
        for value in allowed:
            yield pytest.param(build, f.name, value, None, id=f"{setting}={value!r}")


@pytest.mark.parametrize("build, name, value, error", list(domain_cases()))
def test_every_declared_domain_holds_at_its_boundary(build, name, value, error):
    if error is None:
        assert getattr(build(**{name: value}), name) == value
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            build(**{name: value})


def runner_call(optimizer, size):
    """A direct call of the optimiser's runner on 2-D dejong with ``size``
    ("n", "generations" or "seed") set to the value; the other sizes are the
    smallest the optimiser runs with."""

    def run(value):
        runner, cfg = RUNNERS[optimizer]
        sizes = {"n": MIN_POP.get(optimizer, 1), "generations": 0, "seed": 0, size: value}
        return runner(make_problem("dejong", 2), sizes["n"], sizes["generations"], cfg, sizes["seed"])

    return run


# (case, builder taking the value, the setting its errors name, domain,
# values just on its wrong side, its allowed boundary values) for every
# range read of a function argument
ARGUMENTS = [
    ("make_problem.dim", lambda value: make_problem("dejong", value), "dimension", ">= 1", [0], [1]),
    ("make_problem.griewangk_denominator", lambda value: make_problem("griewangk", 2, value),
     "griewangk_denominator", "> 0", [0.0, -5e-324], [5e-324]),
    *[(f"{optimizer}.n", runner_call(optimizer, "n"), "population size", ">= 1", [0], [MIN_POP.get(optimizer, 1)])
      for optimizer in RUNNERS],
    *[(f"{optimizer}.{size}", runner_call(optimizer, size), size, ">= 0", [-1], [0])
      for optimizer in RUNNERS for size in ("generations", "seed")],
    ("initialize_swarm.n", lambda value: initialize_swarm(
        make_problem("dejong", 2), value, PaoConfig(), np.random.default_rng(0)),
     "population size", ">= 1", [0], [1]),
    ("run.reps", lambda value: cli.main(["run", "--pop", "4", "--gens", "0", "--reps", str(value)]),
     "reps", ">= 1", [0], [1]),
    ("Hyperparams.k", lambda value: Hyperparams(k=(1.0, value)), "k", ">= 0", [-5e-324], [0.0]),
]


def argument_cases():
    for case, build, what, domain, wrong, allowed in ARGUMENTS:
        for value in wrong:
            yield pytest.param(build, value, f"{what} must be {domain}, got {value}", id=f"{case}={value!r}")
        for value in allowed:
            yield pytest.param(build, value, None, id=f"{case}={value!r}")
    # below the least population a DE donor draw takes, read after the size itself
    for optimizer in ("de", "sade"):
        least = MIN_POP[optimizer]
        error = f"{optimizer} needs a population of at least {least}, got {least - 1}"
        yield pytest.param(runner_call(optimizer, "n"), least - 1, error, id=f"{optimizer}.n={least - 1}")


@pytest.mark.parametrize("build, value, error", list(argument_cases()))
def test_every_range_read_argument_holds_at_its_boundary(build, value, error):
    if error is None:
        build(value)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            build(value)
