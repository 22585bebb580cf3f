// Traced replay: the workload's exact request sequence, answered
// in-process through the program's public layer functions, each call timed
// by the benchmark itself. No tracing is added inside the program; solver
// counts come from smt::Backend::stats().
//
// The replay re-implements the serving path (Service::run's warm-start
// handling, the Engine query bodies, WhatIfSession::ask) so that it can time
// the layers in between. So that a change to the program cannot leave it
// timing a stale copy, every replayed request is also answered by the
// program's own path (reason::Service::run and reason::SessionManager, as
// larserved's routes call them, on a fresh Service of the same defaults),
// and the two must agree on the verdict, the objective costs, the number of
// designs, the warm start of a session and every solver count. The replay's
// answers also go through the oracle. A request that fails either check
// counts as a failed operation.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kb/kb.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace larbench {

struct ReplayResult {
    /// Per-layer metric name → value (per-request medians; see README).
    std::map<std::string, double> metrics;
    /// Requests replayed.
    std::size_t requests = 0;
    /// Requests whose replayed answer failed the oracle or differed from
    /// the program's own answer.
    std::size_t failed = 0;
};

/// Per-layer metric names and units, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/// Replays the warm-up pass and the first `rounds` rounds of `w` through a
/// fresh reason::Service configured like larserved's defaults. `e2eP50Ms`
/// is the end-to-end p50 of the same run, for unattributed_ms and the
/// replay's overhead. Every replayed answer is judged by `oracle` and
/// compared with the program's own answer (see above).
[[nodiscard]] ReplayResult replay(const Workload& w, const lar::kb::KnowledgeBase& kb,
                                  std::size_t rounds, double e2eP50Ms, Oracle& oracle);

} // namespace larbench
