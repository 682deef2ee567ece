"""Check that the layer tracer attributes an injected delay correctly.

    python3 perfbench/selfcheck.py [--seed 1]

Sets up the interactive workload once, then runs it under four
conditions: untraced, untraced with a busy-wait of 30 % of
``core.planner``'s own time injected inside the planner, traced, and
traced with the delay.  The conditions take turns round by round, so
that a drift of the host weighs on every condition alike.  A pass of
200 rounds goes through every ad-hoc literal set once; the turns are
shifted by one round from pass to pass, so that over every four passes
each condition times every query once.  It passes when

* the traced planner time grows by 30 % (within 15 % of that),
* ``adhoc_p50_ms``, the end-to-end metric the planner maps to, grows by
  half to one and a half times the time the traced run saw injected
  per ad-hoc query, and
* ``lookup_p50_ms``, whose plans are warm, moves by less than a quarter
  of that.

Exit code 0 on a pass, 1 otherwise.  Program files are not touched: the
delay rides the same wrapper the traced run installs.
"""

from __future__ import annotations

import argparse
import sys

from run import Tally, percentile, run_round, settle
from tracing import LayerTracer
from workloads import ADHOC_VARIANTS, Interactive

#: Passes of ``ADHOC_VARIANTS // 2`` rounds: a multiple of the four
#: conditions.
PASSES = 16

#: The layer the delay is injected into: planning is what ad-hoc
#: queries pay and warm lookups skip, so the check can tell the two
#: end-to-end metrics apart.
LAYER = "core.planner"
#: The delay, as a fraction of the layer's own time.
FRACTION = 0.3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    delays = {LAYER: FRACTION}

    workload = Interactive(args.seed)
    workload.setup()
    settle()
    conditions = {
        "plain": None,
        "delayed": LayerTracer(layers={LAYER}, delays=delays),
        "traced": LayerTracer(),
        "traced+delayed": LayerTracer(delays=delays),
    }
    tallies = {name: Tally(workload.classes) for name in conditions}
    names = list(conditions)
    index = 0
    for shift in range(PASSES):
        for turn in range(ADHOC_VARIANTS // 2):
            name = names[(turn + shift) % len(names)]
            tracer = conditions[name]
            if tracer is not None:
                tracer.install()
            run_round(workload, index, tallies[name])
            if tracer is not None:
                tracer.uninstall()
            index += 1

    def p50_ms(name: str, cls: str) -> float:
        return percentile(tallies[name].latencies[cls], 50) * 1e3

    adhocs = len(tallies["traced"].latencies["adhoc"])
    layer_ms = conditions["traced"].seconds[LAYER] * 1e3 / adhocs
    delayed_ms = conditions["traced+delayed"].seconds[LAYER] * 1e3 / adhocs
    growth = delayed_ms / layer_ms - 1
    injected_ms = delayed_ms - layer_ms
    adhoc_delta = p50_ms("delayed", "adhoc") - p50_ms("plain", "adhoc")
    lookup_delta = p50_ms("delayed", "lookup") - p50_ms("plain", "lookup")
    checks = [
        (f"{LAYER}.s grows by {growth:.3f} (want {FRACTION} "
         f"+- {0.15 * FRACTION:.3f})",
         abs(growth - FRACTION) <= 0.15 * FRACTION),
        (f"adhoc_p50_ms grows by {adhoc_delta:.3f} ms for {injected_ms:.3f} ms "
         "injected per ad-hoc query (want 0.5x to 1.5x)",
         0.5 * injected_ms <= adhoc_delta <= 1.5 * injected_ms),
        (f"lookup_p50_ms moves by {lookup_delta:.3f} ms "
         f"(want under {injected_ms / 4:.3f})",
         abs(lookup_delta) < injected_ms / 4),
    ]
    for text, ok in checks:
        print(("ok   " if ok else "FAIL ") + text)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
