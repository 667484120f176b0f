"""Rule-engine microbenchmark: indexed firing vs the naive scan loop.

The hottest loop in the system is ``RuleEngine._pump``: every workflow
instance pumps once per posted event.  The naive engine (retained as
:class:`tests.rules.reference_engine.NaiveRuleEngine`) re-sorts and rescans the
whole rule table on every pump — O(R log R) per event, O(R²) to drive an
R-rule instance — while the indexed engine touches only the rules whose
required-event sets just changed.

This benchmark posts one event per rule into a 200-rule schema (the
worst-case "one pump per event" pattern of real enactment) and measures
event-posting throughput for both engines.  The indexed engine must be
**≥3× faster**.  Run it two ways:

* ``pytest benchmarks/bench_rule_engine.py --benchmark-only`` — the usual
  pytest-benchmark flow with provenance in ``--benchmark-json``;
* ``python benchmarks/bench_rule_engine.py --json BENCH_rules.json`` — CI
  mode: writes the measured numbers for the committed-baseline regression
  check (``check_rules_baseline.py``).

Firing-order equivalence is asserted on every run before anything is
timed — a fast benchmark that fires different rules would be worthless.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

# The naive engine is a test oracle: it lives under the repo's ``tests/``.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro.rules.engine import RuleEngine, RuleInstance  # noqa: E402
from repro.rules.events import step_done  # noqa: E402
from tests.rules.reference_engine import NaiveRuleEngine  # noqa: E402

RULES = 200              # schema size named by the acceptance bar
REPEATS = 5              # min-of-N samples per engine
MIN_SPEEDUP = 3.0


class SyntheticCompiled:
    """Minimal CompiledSchema stand-in: rules are installed dynamically."""

    rule_templates = ()

    @staticmethod
    def condition_for(rule_id):
        return None


def build_engine(engine_cls, fired):
    engine = engine_cls(SyntheticCompiled(), fired.append, lambda: {})
    for k in range(RULES):
        engine.add_rule(RuleInstance(
            rule_id=f"r{k:04d}",
            kind="execute",
            step=f"S{k}",
            # Two-event requirement: the shared start token plus the step's
            # own trigger — the shape compiled step rules actually have.
            required=frozenset({"WF.S", step_done(f"T{k}")}),
        ))
    return engine


def drive(engine_cls):
    """Post one trigger per rule; returns (fired rule ids, elapsed seconds)."""
    fired = []
    engine = build_engine(engine_cls, fired)
    triggers = [step_done(f"T{k}") for k in range(RULES)]
    start = time.perf_counter()
    engine.post_event("WF.S", 0.0)
    for tick, token in enumerate(triggers):
        engine.post_event(token, float(tick + 1))
    elapsed = time.perf_counter() - start
    return [rule.rule_id for rule in fired], elapsed


def measure():
    """Interleaved min-of-N timing of both engines plus equivalence check."""
    indexed_fired, __ = drive(RuleEngine)
    naive_fired, __ = drive(NaiveRuleEngine)
    assert indexed_fired == naive_fired, "engines fired different sequences"
    assert len(indexed_fired) == RULES

    posts = RULES + 1
    naive_times, indexed_times = [], []
    for __ in range(REPEATS):
        naive_times.append(drive(NaiveRuleEngine)[1])
        indexed_times.append(drive(RuleEngine)[1])
    naive_eps = posts / min(naive_times)
    indexed_eps = posts / min(indexed_times)
    return {
        "schema_rules": RULES,
        "events_posted": posts,
        "repeats": REPEATS,
        "naive_events_per_sec": naive_eps,
        "indexed_events_per_sec": indexed_eps,
        "speedup": indexed_eps / naive_eps,
    }


def test_indexed_engine_at_least_3x_event_throughput(benchmark=None):
    numbers = measure()
    print(f"\nrule-engine event-posting throughput ({RULES} rules): "
          f"indexed {numbers['indexed_events_per_sec']:,.0f}/s vs "
          f"naive {numbers['naive_events_per_sec']:,.0f}/s "
          f"({numbers['speedup']:.1f}x)")
    if benchmark is not None and not isinstance(benchmark, dict):
        benchmark.extra_info["rule_engine"] = numbers
        benchmark.pedantic(lambda: drive(RuleEngine), rounds=3, iterations=1)
    assert numbers["speedup"] >= MIN_SPEEDUP, (
        f"indexed engine only {numbers['speedup']:.2f}x faster than the "
        f"naive scan loop (need >= {MIN_SPEEDUP}x)"
    )
    return numbers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the measured numbers to FILE")
    args = parser.parse_args()
    numbers = test_indexed_engine_at_least_3x_event_throughput()
    if args.json:
        import harness

        numbers["environment"] = harness.environment_metadata()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(numbers, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
