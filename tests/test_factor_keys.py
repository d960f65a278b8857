"""Factor identity is decided once, while the analyzer plans.

The plan keys every factor occurrence once (``EstimateCache.key_for``) and
every distinct factor once more for the persistent store
(``StoreContext.key_for``); the run ledger and the incremental differ reuse
those keys instead of recomputing them.  This file pins both halves of that
contract:

* **Family digests.**  ``tests/data/ledger_family_golden.json`` records the
  ledger family and factor keys of the paper subjects, the evolution pair and
  the safety-monitor program under three configurations, with and without a
  store.  Reusing keys must not move a single digest, and the differ must
  compute the family the ledger records (``qcoral ci`` finds its baseline
  run by that equality).
* **Call counts.**  One store key per distinct factor per run, counting the
  ledger's; one ``alpha_orders`` per distinct factor in the differ.

Regenerate the golden file after an intentional change of the keys with::

    QCORAL_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_factor_keys.py
"""

import json
import os

import pytest

import repro.core.cache
import repro.core.qcoral
import repro.lang.canonical
import repro.store.keys
from repro.api import Session
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralConfig
from repro.incremental import diff_constraint_sets
from repro.incremental.diff import factor_versions
from repro.lang.parser import parse_constraint_set
from repro.obs.ledger import MemoryLedger, family_digest, ledger_entry_for
from repro.store import MemoryStore
from repro.store.keys import StoreContext
from repro.subjects import aerospace, evolution, programs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "ledger_family_golden.json")

#: Families do not depend on the budget, so a small one keeps the runs short.
SAMPLES = 600
SEED = 1

CONFIGS = {
    "default": QCoralConfig(samples_per_query=SAMPLES, seed=SEED),
    "importance": QCoralConfig.importance(SAMPLES, seed=SEED),
    "plain": QCoralConfig.plain(SAMPLES, seed=SEED),
}


def _subjects():
    """name -> (query builder taking a session and a config, configs to run)."""

    def constraints(constraint_set, profile):
        return lambda session, config: session.quantify(constraint_set, profile, config=config)

    apollo = aerospace.apollo()
    conflict = aerospace.tsafe_conflict()
    turn_logic = aerospace.tsafe_turn_logic()
    profile = evolution.evolution_profile()
    # Three subject/config pairs are left out for time: keying Apollo's 358
    # whole path conditions under "plain" takes ~20 s per run, each Conflict
    # store key ~75 ms, and Turn Logic's importance paving ~5 s per run.
    return {
        "apollo": (constraints(apollo.constraint_set, apollo.profile()), ("default", "importance")),
        "conflict": (constraints(conflict.constraint_set, conflict.profile()), ("default",)),
        "turn_logic": (constraints(turn_logic.constraint_set, turn_logic.profile()), ("default", "plain")),
        "evolution_v1": (constraints(parse_constraint_set(evolution.EVOLUTION_V1), profile), tuple(CONFIGS)),
        "evolution_v2": (constraints(parse_constraint_set(evolution.EVOLUTION_V2), profile), tuple(CONFIGS)),
        "safety_monitor": (
            lambda session, config: session.analyze(
                programs.SAFETY_MONITOR, programs.SAFETY_MONITOR_EVENT, config=config
            ),
            tuple(CONFIGS),
        ),
    }


def _ledgered_run(build, config, store):
    """Run one query with a memory ledger; return (report, its ledger entry)."""
    with Session(store=MemoryStore() if store else None, ledger=MemoryLedger()) as session:
        report = build(session, config).run()
        (entry,) = session.ledger.entries()
    return report, entry


@pytest.fixture(scope="module")
def families():
    """Case name -> ledger entry, for every case the golden file records."""
    entries = {}
    for name, (build, config_names) in _subjects().items():
        for config_name in config_names:
            for store in (False, True):
                report, entry = _ledgered_run(build, CONFIGS[config_name], store)
                entries[f"{name}/{config_name}/{'store' if store else 'no-store'}"] = entry
                if name == "apollo" and config_name == "default" and not store:
                    entries["apollo/default/no-profile"] = ledger_entry_for(report)
    return entries


def test_family_digests_match_golden(families):
    payload = {
        name: {"family": entry.family, "factor_keys": list(entry.factor_keys)}
        for name, entry in sorted(families.items())
    }
    if os.environ.get("QCORAL_UPDATE_GOLDEN"):
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(payload) == sorted(golden)
    for name in golden:
        assert payload[name] == golden[name], name


@pytest.mark.parametrize("config_name", [name for name, config in CONFIGS.items() if config.partition_and_cache])
def test_differ_computes_the_family_the_ledger_records(families, config_name):
    config = CONFIGS[config_name]
    diff = diff_constraint_sets(
        parse_constraint_set(evolution.EVOLUTION_V1),
        parse_constraint_set(evolution.EVOLUTION_V2),
        evolution.evolution_profile(),
        config=config,
    )
    for version, keys in (("evolution_v1", diff.baseline_factor_keys), ("evolution_v2", diff.candidate_factor_keys)):
        for store in ("store", "no-store"):
            assert family_digest(diff.method, keys) == families[f"{version}/{config_name}/{store}"].family


# --------------------------------------------------------------------------- #
# Call counts: each distinct factor keyed once
# --------------------------------------------------------------------------- #
def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _distinct_factors(report):
    return {factor.factor.canonical() for path in report.path_reports for factor in path.factors}


def test_apollo_keys_each_distinct_factor_once(monkeypatch):
    subject = aerospace.apollo()
    key_calls = _count_calls(monkeypatch, StoreContext, "key_for")
    simplify_calls = [
        _count_calls(monkeypatch, module, "simplify_path_condition") for module in (repro.core.qcoral, repro.core.cache)
    ]
    report, entry = _ledgered_run(
        lambda session, config: session.quantify(subject.constraint_set, subject.profile(), config=config),
        CONFIGS["default"],
        store=True,
    )
    occurrences = sum(len(path.factors) for path in report.path_reports)
    assert (len(report.path_reports), occurrences, len(_distinct_factors(report))) == (358, 1074, 24)
    assert len(key_calls) == 24
    assert len(entry.factor_keys) == 24
    assert sum(len(calls) for calls in simplify_calls) == 358 + occurrences


def test_conflict_keys_each_distinct_factor_once(monkeypatch):
    subject = aerospace.tsafe_conflict()
    key_calls = _count_calls(monkeypatch, StoreContext, "key_for")
    report, _ = _ledgered_run(
        lambda session, config: session.quantify(subject.constraint_set, subject.profile(), config=config),
        CONFIGS["default"],
        store=True,
    )
    assert len(_distinct_factors(report)) == 22
    assert len(key_calls) == 22


def test_differ_runs_alpha_orders_once_per_distinct_factor(monkeypatch):
    subject = aerospace.apollo()
    calls = [_count_calls(monkeypatch, module, "alpha_orders") for module in (repro.store.keys, repro.lang.canonical)]
    versions = factor_versions(subject.constraint_set, subject.profile(), "mc")
    # Apollo's 1074 factor occurrences are 24 distinct factors (pinned above).
    assert len(versions) == 24
    assert sum(len(module_calls) for module_calls in calls) == 24


# --------------------------------------------------------------------------- #
# The ledger's text-hash fallback
# --------------------------------------------------------------------------- #
def test_profile_missing_a_variable_falls_back_to_the_text_family():
    bounds = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}
    with Session() as session:
        report = session.quantify("x <= 0.5 && y <= 0.3", bounds, config=CONFIGS["default"]).run()
    text_family = ledger_entry_for(report).family
    partial = UsageProfile.uniform({"x": (-1.0, 1.0)})
    assert ledger_entry_for(report, partial).family == text_family
    assert ledger_entry_for(report, UsageProfile.uniform(bounds)).family != text_family
