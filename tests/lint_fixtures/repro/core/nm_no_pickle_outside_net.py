"""Scoping near miss: pickle outside repro.net (a process pool's trial
arguments, say) is not network input."""

import pickle


def snapshot(trial):
    return pickle.dumps(trial)
