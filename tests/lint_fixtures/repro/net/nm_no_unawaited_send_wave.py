"""Near miss: a wave of RPCs awaited once, and a wave awaited by
``gather``; a method that only shares a prefix with the verb is not a
send."""

import asyncio


async def gossip_round(rpc, calls, probes):
    outcomes = await rpc.call_all(calls)
    more = await asyncio.gather(rpc.call_all(probes))
    rpc.call_all_count()
    return outcomes, more
