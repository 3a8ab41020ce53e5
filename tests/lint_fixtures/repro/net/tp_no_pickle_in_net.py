"""True positive: a frame decoded by unpickling whatever the peer sent."""

import pickle


def decode_frame(body):
    return pickle.loads(body)
