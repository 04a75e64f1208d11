// Scenario execution: drive a Scenario end to end through
// pubsub::PubSubSystem and record the observable trace the oracles check.
//
// The runner is the only piece that knows how declarative scenario data maps
// onto the live API: each phase's membership batch goes through
// PubSubSystem::reconfigure (which drains the previous phase first — the
// epoch boundary), publishes / crashes / terminations become simulator
// events at phase-relative times, and every epoch's sequencing graph is
// re-validated with seqgraph/validator. Ops that a membership change made
// meaningless (a publish to a removed group, a join for an existing member,
// a leave that would empty a group) are skipped deterministically rather
// than rejected, so the shrinker can drop any subset of ops and still have
// a well-formed scenario.
//
// run_scenario never throws: a CheckFailure (or any exception) escaping the
// protocol stack is recorded in the trace for the exception oracle — on a
// generated scenario it is a bug, not harness noise.
#pragma once

#include "fuzz/oracle.h"
#include "fuzz/scenario.h"

namespace decseq::fuzz {

struct RunnerOptions {
  /// Re-check C1/C2 and path structure on every epoch's graph (cheap at
  /// fuzz scale; the graph-safety oracle reads the resulting errors).
  bool validate_graphs = true;
};

/// Execute `scenario` and record everything observable. The returned
/// trace's `scenario` pointer refers to the argument, which must outlive
/// the trace.
[[nodiscard]] RunTrace run_scenario(const Scenario& scenario,
                                    const RunnerOptions& options = {});

}  // namespace decseq::fuzz
