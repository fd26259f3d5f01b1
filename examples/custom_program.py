#!/usr/bin/env python3
"""Writing and testing your own weak-memory program with the DSL.

Builds a small ticket-spinlock protecting a two-word record, first with a
*broken* relaxed unlock, then with the correct release/acquire orders, and
shows that PCTWM flags only the broken one.

The bug has depth 2: one communication to observe the lock handoff (the
``now_serving`` read) and one to observe a single field fresh while the
other stays stale in the local view — a torn record inside the lock.
"""

from repro import ACQ, REL, RLX, PCTWMScheduler, Program, require, run_once
from repro.core.depth import estimate_parameters
from repro.harness import pctwm_factory, run_campaign_parallel


def make_spinlock_program(broken: bool) -> Program:
    unlock_order = RLX if broken else REL
    wait_order = RLX if broken else ACQ
    p = Program(f"ticketlock({'broken' if broken else 'correct'})")
    next_ticket = p.atomic("next_ticket", 0)
    now_serving = p.atomic("now_serving", 0)
    field_a = p.atomic("field_a", 0)
    field_b = p.atomic("field_b", 0)

    def worker(wid: int):
        ticket = yield next_ticket.fetch_add(1, RLX)
        for _ in range(6):  # bounded wait for our turn
            serving = yield now_serving.load(wait_order)
            if serving == ticket:
                break
        else:
            return None
        # Critical section: keep the two fields equal.
        a = yield field_a.load(RLX)
        b = yield field_b.load(RLX)
        require(a == b, f"record torn inside the lock: a={a} b={b}")
        yield field_a.store(a + 1, RLX)
        yield field_b.store(b + 1, RLX)
        yield now_serving.store(ticket + 1, unlock_order)
        return ticket

    p.add_thread(worker, 0, name="w0")
    p.add_thread(worker, 1, name="w1")
    return p


def main() -> None:
    for broken in (True, False):
        def build(b=broken):
            return make_spinlock_program(b)

        est = estimate_parameters(build(), runs=5)
        campaign = run_campaign_parallel(
            build, pctwm_factory(2, est.k_com, 1), trials=300)
        label = "broken (relaxed unlock)" if broken else "correct (rel/acq)"
        print(f"{label:28s} d=2 campaign: {campaign.hit_rate:5.1f}% "
              f"({est})")

    print("\nA buggy trace from the broken lock:")
    for seed in range(2000):
        result = run_once(make_spinlock_program(True),
                          PCTWMScheduler(2, 10, 1, seed=seed))
        if result.bug_found:
            print(f"  seed={seed}: {result.bug_message}")
            break


if __name__ == "__main__":
    main()
