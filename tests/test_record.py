"""Frozen records against the standard dataclasses they replace.

Each of the package's record classes is paired with a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` from the same annotated
fields and defaults, over the record class for its ``__post_init__`` and
other methods.  On drawn field
values the two must print the same, compare and hash alike, refuse
assignment, copy by ``replace`` and reject bad arguments with the same
errors, the ``__post_init__`` SpecErrors included.
"""
import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mvop import construction, families, limits, operators, verification
from mvop.record import FrozenInstanceError, replace

RECORDS = {
    construction: ("FamilySpec", "GramMatrix", "IntegerTable", "GramBasis", "ChannelTerms"),
    families: ("Mass", "NormValue", "ScalarOperator", "Charlier", "Meixner", "Krawtchouk",
               "Hahn", "Hermite", "Laguerre"),
    limits: ("TransitionSpec", "Transition", "TransitionStep", "ConvergenceReport"),
    operators: ("DifferenceOperator", "EigenvalueMap", "RecurrenceTriple"),
    verification: ("CheckResult", "VerificationReport"),
}
CLASSES = [getattr(mod, name) for mod, names in RECORDS.items() for name in names]


def twin(cls):
    """The standard frozen dataclass of ``cls``'s fields, in declared order,
    over ``cls`` for its other methods, with ``cls``'s own ``__repr__``."""
    own = vars(cls)
    fields = [(n, object, own[n]) if n in own else (n, object)
              for n in cls.__annotations__]
    namespace = {"__repr__": own["__repr__"]} if own["__repr__"].__module__ == cls.__module__ else {}
    return dataclasses.make_dataclass(cls.__name__, fields, bases=(cls,), frozen=True,
                                      namespace=namespace)


TWINS = {cls: twin(cls) for cls in CLASSES}

UNIT = st.fractions(min_value=0, max_value=1, max_denominator=6)
RATIONALS = UNIT | st.fractions(min_value=-8, max_value=4, max_denominator=4)
INFINITE = (families.Charlier(1), families.Charlier(2), families.Meixner(F(1, 2), F(1, 3)),
            families.Laguerre(F(1, 2)), families.Hermite())
FINITE = (families.Krawtchouk(F(1, 3), 3), families.Krawtchouk(F(1, 2), 3),
          families.Hahn(F(1, 2), F(3, 2), 3), families.Krawtchouk(F(1, 2), 4))
CHANNELS = st.sampled_from(INFINITE + FINITE)
PLAIN = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), RATIONALS, st.text(max_size=3),
                  st.tuples(st.integers(-2, 2), RATIONALS), CHANNELS)
SIZES = st.integers(-1, 4)


@st.composite
def family_args(draw):
    """Channels of one support and m - 1 couplings, or any of either."""
    if draw(st.booleans()):
        return [tuple(draw(st.lists(RATIONALS, max_size=3))),
                tuple(draw(st.lists(CHANNELS, max_size=3)))]
    channels = draw(st.lists(st.sampled_from(draw(st.sampled_from((INFINITE, FINITE)))),
                             min_size=2, max_size=3))
    return [tuple(draw(st.lists(RATIONALS, min_size=len(channels) - 1,
                                max_size=len(channels) - 1))), tuple(channels)]


@st.composite
def transition_args(draw):
    """A transition's own parameter names and an increasing ladder, mostly."""
    name = draw(st.sampled_from((*limits.TRANSITIONS, "bogus")))
    keys = limits.TRANSITIONS[name].params if name in limits.TRANSITIONS else ()
    keys = draw(st.sampled_from((keys, keys, ("b",))))
    ladder = sorted(set(draw(st.lists(st.integers(1, 60).map(F) | UNIT,
                                      min_size=draw(st.sampled_from((0, 2, 2))), max_size=4))))
    if draw(st.integers(0, 3)) == 0:
        ladder.reverse()
    a = draw(RATIONALS.filter(bool))
    return [name, draw(SIZES), a, tuple(ladder), tuple((k, draw(RATIONALS)) for k in keys)]


# argument lists a __post_init__ or __repr__ reads; other classes draw PLAIN
# values, or RATIONALS where a __post_init__ reads them
ARGS = {
    "FamilySpec": family_args(),
    "TransitionSpec": transition_args(),
    "Krawtchouk": st.tuples(RATIONALS, SIZES),
    "Hahn": st.tuples(RATIONALS, RATIONALS, SIZES),
    "Mass": st.tuples(RATIONALS, st.lists(st.tuples(RATIONALS, RATIONALS), max_size=2).map(tuple)),
}


def field_names(cls):
    return tuple(cls.__annotations__)


def draw_args(data, cls):
    if cls.__name__ in ARGS:
        return list(data.draw(ARGS[cls.__name__]))
    value = RATIONALS if "__post_init__" in vars(cls) else PLAIN
    return [data.draw(value) for _ in field_names(cls)]


def outcome(make, *args, **kwargs):
    """The record made, or the type and message of the error raised."""
    try:
        return make(*args, **kwargs)
    except Exception as err:  # compared with the twin's error
        return type(err), str(err)


def test_every_record_class_is_listed():
    found = {obj for mod in RECORDS for obj in vars(mod).values()
             if isinstance(obj, type) and obj.__module__ == mod.__name__ and "_fields" in vars(obj)}
    assert found == set(CLASSES)
    assert len(CLASSES) == 23


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, data):
    mirror_cls = TWINS[cls]
    args, other = draw_args(data, cls), draw_args(data, cls)
    rec, mirror = outcome(cls, *args), outcome(mirror_cls, *args)
    if isinstance(mirror, tuple):  # __post_init__ refused the values
        assert rec == mirror
        return
    assert repr(rec) == repr(mirror)
    assert hash(rec) == hash(mirror) == hash(rec)
    assert rec == cls(*args) and not rec != cls(*args)
    assert rec != mirror and not rec == mirror

    rec2, mirror2 = outcome(cls, *other), outcome(mirror_cls, *other)
    if isinstance(mirror2, tuple):
        assert rec2 == mirror2
    else:
        assert (rec == rec2, rec != rec2) == (mirror == mirror2, mirror != mirror2)
        assert hash(rec2) == hash(mirror2)

    names = field_names(cls)
    for name in (*names, "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == repr(mirror)

    assert replace(rec) == rec and copy.copy(rec) == rec
    if names:
        name = data.draw(st.sampled_from(names))
        value = other[names.index(name)]
        changed = outcome(replace, rec, **{name: value})
        expected = outcome(dataclasses.replace, mirror, **{name: value})
        assert (changed if isinstance(expected, tuple) else repr(changed)) == (
            expected if isinstance(expected, tuple) else repr(expected))

    kwargs = dict(zip(names, args))
    assert outcome(cls, *args, 0) == outcome(mirror_cls, *args, 0)
    assert outcome(cls, **kwargs, extra=0) == outcome(mirror_cls, **kwargs, extra=0)
    assert outcome(cls, *args, 0)[0] is TypeError
    required = [n for n in names if n not in vars(cls)]
    if required:
        del kwargs[data.draw(st.sampled_from(required))]
        missing = outcome(cls, **kwargs)
        assert missing == outcome(mirror_cls, **kwargs) and missing[0] is TypeError


POST_INIT_ERRORS = [
    (families.Charlier, (0,)),
    (families.Meixner, (0, F(1, 2))), (families.Meixner, (1, 1)),
    (families.Krawtchouk, (1, 3)), (families.Krawtchouk, (F(1, 2), 0)),
    (families.Hahn, (1, 2, 0)), (families.Hahn, (-2, 1, 3)), (families.Hahn, (F(-1, 2), F(-1, 2), 3)),
    (families.Laguerre, (-1,)),
    (construction.FamilySpec, ((), (families.Charlier(1),))),
    (construction.FamilySpec, ((1, 2), (families.Charlier(1), families.Charlier(2)))),
    (construction.FamilySpec, ((0,), (families.Charlier(1), families.Charlier(2)))),
    (construction.FamilySpec, ((1,), (families.Charlier(1), families.Krawtchouk(F(1, 2), 3)))),
    (construction.FamilySpec, (("x",), (families.Charlier(1), families.Charlier(2)))),
    (limits.TransitionSpec, ("bogus", 1, 1, (2, 3))),
    (limits.TransitionSpec, ("charlier->hermite", 1, 0, (2, 3))),
    (limits.TransitionSpec, ("charlier->hermite", -1, 1, (2, 3))),
    (limits.TransitionSpec, ("charlier->hermite", 1, 1, (2,))),
    (limits.TransitionSpec, ("charlier->hermite", 1, 1, (3, 2))),
    (limits.TransitionSpec, ("charlier->hermite", 1, 1, (2, 3), (("b", 1),))),
    (limits.TransitionSpec, ("krawtchouk->charlier", 2, 1, (1, 3), (("b", 1),))),
]


@pytest.mark.parametrize("cls, args", POST_INIT_ERRORS,
                         ids=[f"{cls.__name__}{i}" for i, (cls, _) in enumerate(POST_INIT_ERRORS)])
def test_post_init_errors_keep_their_message(cls, args):
    error = outcome(cls, *args)
    assert error == outcome(TWINS[cls], *args)
    assert error[0].__name__ == "SpecError"


def test_equal_fields_of_different_classes_are_unequal():
    # the ladder cache keys channels by equality and hash
    assert families.Charlier(2) != families.Laguerre(2)
    assert len({families.Charlier(2), families.Laguerre(2), families.Charlier(2)}) == 2


def test_a_copy_carries_no_cached_hash():
    # str hashes differ between processes, so a pickled hash could go stale
    check = verification.CheckResult("orthogonality", 2, F(1, 2), None, True)
    hash(check)
    for clone in (pickle.loads(pickle.dumps(check)), copy.deepcopy(check)):
        assert vars(clone) == vars(verification.CheckResult("orthogonality", 2, F(1, 2), None, True))
        assert clone == check and hash(clone) == hash(check)
