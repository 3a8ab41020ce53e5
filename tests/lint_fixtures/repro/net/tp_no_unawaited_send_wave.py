"""True positive: a wave of RPCs started as a bare statement — the
``call_all`` coroutine is discarded and no frame leaves."""


async def gossip_round(rpc, calls):
    rpc.call_all(calls)
    return True
