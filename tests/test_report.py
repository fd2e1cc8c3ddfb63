"""Every public report encodes through the one Report mixin.

The walk builds reports from the public API, collects every Report
reachable through their fields, and checks each class's keys against its
field names and that json.dumps takes the output.
"""

import dataclasses
import json

import numpy as np

from stabdyn import cover, families, growth, lattice, metric, scenarios, stability, volume
from stabdyn._report import Report

MODULES = (cover, growth, lattice, metric, scenarios, stability, volume)
# public classes whose JSON keys are a format of their own, not their field names
OWN_KEYS = {"IntMatrix", "CentralCharge", "StabilityData", "AutoequivalenceData",
            "SpectralData", "MetricSample"}


def _report_classes():
    out, todo = set(), [Report]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


def _built_reports():
    rng = np.random.default_rng(3)
    t = families.compatible_triple(rng, rank=3, kind="parabolic")
    seed = families.seed_object(t)
    table = scenarios.p1_hom_table(256)
    pairing = volume.EulerPairing(families.random_antisymmetric_pairing(rng, 2), cy_parity=3)
    pa = scenarios.run_scenario("pseudo-anosov")
    return [scenarios.run_scenario(name) for name in scenarios.SCENARIOS] + [
        seed,
        growth.yomdin_suite(t, seed, hom_table=table),
        growth.linearity_check(t, seed, hom_table=table),
        growth.pol_shifting_numbers(t, seed),
        growth.epsilon_bounds_from_hom(table),
        lattice.growth_rate_estimate(t.auto.P),
        pairing,
        volume.EulerPairing(pairing.chi),
        volume.vol_transform_check(pa.triple.sigma.Z, pairing, pa.triple.g),
        volume.det_one_necessity(pa.triple, pairing),
    ]


def _walk(value, found):
    if isinstance(value, Report):
        found.append(value)
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _walk(getattr(value, f.name), found)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _walk(v, found)
    elif isinstance(value, dict):
        for v in value.values():
            _walk(v, found)


def test_every_report_class_encodes_its_field_names():
    found = []
    _walk(_built_reports(), found)
    assert {type(r) for r in found} == _report_classes()
    seen = set()  # (class, field, set?) for the fields whose default is None
    for rep in found:
        out = rep.to_json()
        json.dumps(out)
        want = set()
        for f in dataclasses.fields(rep):
            value = getattr(rep, f.name)
            if f.default is None:
                seen.add((type(rep), f.name, value is not None))
            if value is not None or f.default is not None:
                want.add(f.name)
        if isinstance(rep, scenarios.ScenarioReport):
            want.add("all_passed")
        assert set(out) == want, type(rep).__name__
    # the walk meets every None-default field both unset and set
    optional = {(cls, f.name) for cls in _report_classes()
                for f in dataclasses.fields(cls) if f.default is None}
    assert {(cls, name, flag) for cls, name in optional for flag in (False, True)} <= seen


def test_only_keyed_formats_write_their_own_to_json():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and hasattr(obj, "to_json"):
                if name in OWN_KEYS:
                    assert not issubclass(obj, Report), name
                else:
                    assert issubclass(obj, Report), name
                    own = obj.__dict__.get("to_json")
                    assert own is None or obj is scenarios.ScenarioReport, name
