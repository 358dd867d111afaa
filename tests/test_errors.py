"""Every error type of the package pickles whole: type, message and attributes survive a round trip."""

import inspect
import pickle

import pytest

from colide import errors

MADE = {
    errors.ConfigError: ("duplicate key 'data.n'",),
    errors.DataError: ("need at least two variables",),
    errors.CyclicGraphError: ("estimate",),
    errors.DomainViolation: (0.7,),
    errors.FitError: ("objective diverged (stage 1, iteration 5)", 1, 5),
}


def test_every_error_class_is_made():
    defined = {c for c in vars(errors).values()
               if inspect.isclass(c) and issubclass(c, BaseException) and c.__module__ == errors.__name__}
    assert defined == set(MADE)


@pytest.mark.parametrize("cls", MADE, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    err = cls(*MADE[cls])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == str(err)
    for name in ("graph", "stage", "iteration"):
        assert getattr(back, name, None) == getattr(err, name, None), name
