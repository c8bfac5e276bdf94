"""Tests for repro.slotinit: each decorated record class behaves exactly
like the same class built by the stock dataclass constructor."""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import FrozenInstanceError, InitVar, dataclass, field, replace

import pytest

from repro.condor.dagfile import DagNode, ScriptSpec
from repro.condor.jobs import JobPayload, JobSpec
from repro.osg.metrics import JobRecord
from repro.slotinit import slot_init
from repro.wf.schema import WfFile, WfPayload, WfTask


def stock_twin(cls):
    """``cls`` rebuilt by the stock constructor: the same fields (types,
    defaults, factories) and class-body methods, with the dataclass's own
    ``__init__``."""
    specs = []
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            specs.append((f.name, f.type, field(default_factory=f.default_factory)))
        elif f.default is not dataclasses.MISSING:
            specs.append((f.name, f.type, field(default=f.default)))
        else:
            specs.append((f.name, f.type))
    namespace = {
        name: value
        for name, value in cls.__dict__.items()
        if name == "__post_init__" or isinstance(value, property)
    }
    return dataclasses.make_dataclass(
        cls.__name__, specs, namespace=namespace, frozen=True, slots=True
    )


SPEC = JobSpec("j0", input_files={"gf.npy": 2.0})

#: class -> (valid positional args, a valid replacement, invalid kwargs).
CASES = {
    JobRecord: (
        ("n0", "dag", "C", 7, 1.0, 2.5, 9.0, 1, False),
        {"end_time": 12.0},
        [{"start_time": 10.0}, {"submit_time": 3.0}],
    ),
    WfFile: (
        ("f.npy", 1048576.0, "output"),
        {"size_bytes": 2.0},
        [{"name": ""}, {"size_bytes": -1.0}, {"link": "both"}],
    ),
    WfTask: (
        ("t1", "C", 12.5, ("t0",), ("t2",), (WfFile("f", 1.0),), 4, 2048, 3, "run.sh",
         ("-x",), WfPayload("C", 2, 4)),
        {"runtime_s": 0.0},
        [{"name": "a b"}, {"category": ""}, {"runtime_s": -1.0}, {"cores": 0},
         {"memory_mb": 0}, {"retries": -1}],
    ),
    JobSpec: (
        ("j1", "x.sh", "--fast", 2, 1024, 2048, "HasSingularity", {"a": 1.0},
         JobPayload("A", 16, 121)),
        {"name": "j2"},
        [{"name": ""}, {"request_cpus": 0}, {"request_memory_mb": 0},
         {"request_disk_mb": 0}, {"input_files": {"f": -1.0}}],
    ),
    DagNode: (
        ("n1", SPEC, 2, ScriptSpec("pre.sh"), ScriptSpec("post.sh", exit_code=1)),
        {"retries": 0},
        [{"name": "a b"}, {"name": ""}, {"retries": -1}],
    ),
}


def _raised(make):
    with pytest.raises(Exception) as info:
        make()
    return type(info.value), str(info.value)


def _outcome(call):
    """``call()``'s value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_matches_stock_dataclass(cls):
    twin = stock_twin(cls)
    args, change, bad = CASES[cls]
    fields_ = dataclasses.fields(cls)
    names = [f.name for f in fields_]
    kwargs = dict(zip(names, args))
    missing = dataclasses.MISSING
    required = {
        f.name: kwargs[f.name]
        for f in fields_
        if f.default is missing and f.default_factory is missing
    }

    # Same parameters, defaults (the <factory> marker included) and
    # annotations.
    assert inspect.signature(cls) == inspect.signature(twin)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)

    # Same stored values, eq, hash and repr, positionally, by keyword,
    # and with every default taken.
    for a, b in ((cls(*args), twin(*args)), (cls(**kwargs), twin(**kwargs)),
                 (cls(**required), twin(**required))):
        assert [getattr(a, n) for n in names] == [getattr(b, n) for n in names]
        assert repr(a) == repr(b)
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b))  # a dict field: both raise
    a = cls(*args)
    assert a == cls(**kwargs) and a != replace(a, **change)
    assert not hasattr(a, "__dict__")

    # A default_factory runs once per instance.
    for f in fields_:
        if f.default_factory is not missing:
            x, y = cls(**required), cls(**required)
            assert getattr(x, f.name) == f.default_factory()
            assert getattr(x, f.name) is not getattr(y, f.name)

    # Same validation errors, at construction and through replace().
    for values in bad:
        wrong = {**kwargs, **values}
        assert _raised(lambda: cls(**wrong)) == _raised(lambda: twin(**wrong))
        assert _raised(lambda: replace(a, **values)) == _raised(
            lambda: replace(twin(*args), **values)
        )

    # Frozen, picklable, copyable; replace() builds through __init__.
    with pytest.raises(FrozenInstanceError):
        setattr(a, names[0], args[0])
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a
    changed = replace(a, **change)
    assert changed == cls(**{**kwargs, **change})
    assert repr(changed) == repr(replace(twin(*args), **change))


def test_refuses_initvar():
    with pytest.raises(TypeError, match="InitVar"):
        @slot_init
        @dataclass(frozen=True, slots=True)
        class WithInitVar:
            x: int
            scale: InitVar[int] = 1

            def __post_init__(self, scale):
                pass


def test_refuses_kw_only():
    with pytest.raises(TypeError, match="kw_only"):
        @slot_init
        @dataclass(frozen=True, slots=True)
        class WithKwOnly:
            x: int
            y: int = field(default=0, kw_only=True)


def test_refuses_init_false():
    with pytest.raises(TypeError, match="init=False"):
        @slot_init
        @dataclass(frozen=True, slots=True)
        class WithInitFalse:
            x: int
            y: int = field(default=0, init=False)


def test_refuses_unslotted_and_plain_classes():
    with pytest.raises(TypeError, match="slots=True"):
        @slot_init
        @dataclass(frozen=True)
        class Unslotted:
            x: int

    with pytest.raises(TypeError, match="dataclass"):
        slot_init(object)
