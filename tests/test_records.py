"""The public records: ``BoxSpec``, ``GraphPair``, ``BoundaryReport`` and
``TrialConfig`` are plain immutable classes with the contract of frozen
dataclasses (equality, hash, repr, immutability, pickling, field order),
and importing the package loads no ``dataclasses`` module."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import boundarykit
from boundarykit import (BoundaryReport, BoxSpec, GraphPair, InputError, TrialConfig,
                         build_box)

_BOX = BoxSpec(2, 3, "plain")
_G, _G_PLUS = build_box(_BOX), build_box(BoxSpec(2, 3, "plus"))

# per record: its fields, a second value list, the repr of the first, and
# fields that fail validation with a message
RECORDS = {
    "BoxSpec": (BoxSpec, (2, 3, "plain"), (2, 3, "star"),
                "BoxSpec(d=2, side=3, flavor='plain')",
                ((0, 3, "plain"), "dimension must be ≥ 1")),
    "GraphPair": (GraphPair, (_G, _G_PLUS), (_G, _G),
                  "GraphPair(g=Graph(|V|=9, |E|=12), g_plus=Graph(|V|=9, |E|=20))",
                  ((_G_PLUS, _G), "edges of g missing from g_plus")),
    "BoundaryReport": (BoundaryReport,
                       (frozenset({1, 2}), frozenset({1}), frozenset(), 2, (1, 2)),
                       (frozenset({1, 2}), frozenset({1}), frozenset(), 1, None),
                       "BoundaryReport(boundary=frozenset({1, 2}), visible=frozenset({1}), "
                       "outer_visible=frozenset(), component_count=2, witness_disconnect=(1, 2))",
                       ((frozenset(), frozenset({1}), frozenset(), 1, None), "must nest")),
    "TrialConfig": (TrialConfig, ("dp", _BOX, "exhaustive", 6, 1000, 0, 2, "apex", None, None,
                                  None),
                    ("dp", _BOX, "exhaustive", 6, 1000, 1, 2, "apex", None, None, None),
                    "TrialConfig(theorem='dp', box=BoxSpec(d=2, side=3, flavor='plain'), "
                    "mode='exhaustive', max_size=6, trials=1000, seed=0, margin=2, "
                    "x_policy='apex', x_vertex=None, probe=None, g_prime=None)",
                    (("ramsey", _BOX, "exhaustive", 6, 1000, 0, 2, "apex", None, None, None),
                     "theorem must be one of")),
}
_IDS = list(RECORDS)
FIELDS = {
    "BoxSpec": ("d", "side", "flavor"),
    "GraphPair": ("g", "g_plus"),
    "BoundaryReport": ("boundary", "visible", "outer_visible", "component_count",
                       "witness_disconnect"),
    "TrialConfig": ("theorem", "box", "mode", "max_size", "trials", "seed", "margin",
                    "x_policy", "x_vertex", "probe", "g_prime"),
}


def _field_values(rec) -> tuple:
    return tuple(getattr(rec, name) for name in FIELDS[type(rec).__name__])


@pytest.mark.parametrize("name", _IDS)
def test_equal_fields_give_equal_records_and_hashes(name):
    cls, values, other, _, _ = RECORDS[name]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)     # the frozen-dataclass hash
    assert cls(*other) != a and hash(cls(*other)) == hash(other)
    assert _field_values(a) == values


@pytest.mark.parametrize("name", _IDS)
def test_another_type_or_a_tuple_is_not_equal(name):
    cls, values, _, _, _ = RECORDS[name]
    sub = type("Sub", (cls,), {"__slots__": ()})
    rec = cls(*values)
    assert sub(*values) != rec and rec != sub(*values)
    assert rec != values and values != rec and rec != list(values)
    assert all(rec != RECORDS[n][0](*RECORDS[n][1]) for n in _IDS if n != name)


@pytest.mark.parametrize("name", _IDS)
def test_repr_is_the_dataclass_form(name):
    cls, values, _, want, _ = RECORDS[name]
    assert repr(cls(*values)) == want


@pytest.mark.parametrize("name", _IDS)
def test_assignment_and_deletion_raise(name):
    cls, values, _, _, _ = RECORDS[name]
    rec = cls(*values)
    first = FIELDS[name][0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(rec, first, values[1])
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(rec, first)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        rec.extra = 1
    assert _field_values(rec) == values


@pytest.mark.parametrize("name", _IDS)
def test_pickle_and_copy_round_trip_and_validate_again(name):
    cls, values, _, _, (bad, message) = RECORDS[name]
    rec = cls(*values)
    assert copy.copy(rec) == rec
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(twin) is cls and twin is not rec
        if cls is GraphPair:        # graphs compare by identity; copies by structure
            assert twin.g.same_as(rec.g) and twin.g_plus.same_as(rec.g_plus)
        else:
            assert twin == rec and hash(twin) == hash(rec)
    forged = object.__new__(cls)    # fields set without the checks of __init__
    forged._set(*bad)
    for rebuild in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        with pytest.raises(InputError, match=message):
            rebuild(forged)


def test_trial_config_arguments_and_defaults():
    box = BoxSpec(3, 5, "plain")
    defaults = {"mode": "exhaustive", "max_size": 6, "trials": 1000, "seed": 0, "margin": 2,
                "x_policy": "apex", "x_vertex": None, "probe": None, "g_prime": None}
    assert TrialConfig("dp", box) == TrialConfig(theorem="dp", box=box) \
        == TrialConfig("dp", box, *defaults.values())
    assert {name: getattr(TrialConfig("dp", box), name) for name in defaults} == defaults
    values = ("k", box, "random", 3, 50, 7, 2, "fixed", 4, None, "plus")
    positional = TrialConfig(*values)
    assert positional == TrialConfig(**dict(zip(FIELDS["TrialConfig"], values)))
    assert positional == TrialConfig("k", box, "random", 3, 50, 7, x_policy="fixed",
                                     x_vertex=4, g_prime="plus")
    with pytest.raises(TypeError):
        TrialConfig(*values, None)
    with pytest.raises(TypeError):
        TrialConfig("dp", box, margins=3)
    with pytest.raises(TypeError):
        TrialConfig(theorem="dp")


def test_trial_config_echo_keeps_the_field_order():
    box = BoxSpec(3, 5, "plain")
    cfg = TrialConfig("k", box, "random", 3, 50, 7, 2, "fixed", 4, None, "plus")
    echo = cfg.echo()
    assert list(echo.items()) == [
        ("theorem", "k"), ("box", "z3:5:plain"), ("mode", "random"), ("max_size", 3),
        ("trials", 50), ("seed", 7), ("margin", 2), ("x_policy", "fixed"),
        ("x_vertex", 4), ("probe", None), ("g_prime", "plus")]
    assert echo is not cfg.echo()      # a fresh dict each call
    assert TrialConfig(**{**echo, "box": box}) == cfg


def test_import_loads_no_dataclasses():
    """A fresh interpreter that imports the package adds no ``dataclasses``
    module: it pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize`` and
    would cost every campaign's start-up its import."""
    src = os.path.dirname(os.path.dirname(boundarykit.__file__))
    probe = ("import sys; before = set(sys.modules); import boundarykit; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    added = run.stdout.split()
    assert "boundarykit.harness" in added
    assert "dataclasses" not in added
