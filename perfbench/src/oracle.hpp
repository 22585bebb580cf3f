// Correctness oracle for every answer the benchmark receives.
//
//  * Every design on the wire is rebuilt into a reason::Design and must
//    pass reason::validateDesign (direct evaluation, no solver).
//  * Verdicts, and lexicographic objective_costs of optimize answers, must
//    equal what the Z3 backend answers on the same problem; a session ask
//    is compared with Z3 on the base problem with the ask's pins folded in.
//  * An explain rule set must be unsat under Z3 and locally minimal:
//    dropping any one rule makes it sat.
//  * Enumerated designs must be pairwise distinct.
//
// Z3 takes 100-300 ms per query on the paper KB, far more than the whole
// timed phase can spare, so its verdicts and costs are read from an
// expectation file (perfbench/oracle/z3_expect.json) that
// `python3 perfbench/run.py --regen-oracle` regenerates from Z3. Entries are
// keyed by the KB's content, the problem spec and the ask, so an edited KB or
// generator never reads a stale entry: a missing one is computed live.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kb/kb.hpp"
#include "reason/design.hpp"
#include "workloads.hpp"

namespace larbench {

struct Expectation {
    std::string verdict; ///< "sat" or "unsat"
    std::vector<std::int64_t> costs; ///< optimize mode, when sat
};

class Oracle {
public:
    /// Loads `expectPath` when it exists (a missing file means every
    /// expectation is computed live).
    Oracle(const lar::kb::KnowledgeBase& kb, std::string expectPath);

    /// Judges one exchange; "" when correct, otherwise what is wrong.
    [[nodiscard]] std::string judge(const Workload& w, const Op& op, int status,
                                    const std::string& body);

    /// Expectations that were not in the file and were computed with Z3.
    [[nodiscard]] std::size_t liveComputed() const { return live_; }

    /// Computes the expectation of every operation any seed of the named
    /// workloads can send, with `threads` Z3 workers, and writes the file.
    /// Returns false when Z3 could not answer some entry.
    static bool regenerate(const lar::kb::KnowledgeBase& kb,
                           const std::vector<std::string>& workloads,
                           const std::string& expectPath, unsigned threads);

private:
    /// What the oracle needs to know about `op`: mode ("check" for
    /// verdict-only kinds and asks, "optimize" for optimize/enumerate), key.
    struct Need {
        std::string mode;
        std::string key;
    };
    [[nodiscard]] Need need(const Workload& w, const Op& op) const;
    [[nodiscard]] Expectation expectation(const Workload& w, const Op& op);
    [[nodiscard]] std::string checkExplain(const lar::reason::Problem& problem,
                                           const std::vector<std::string>& rules);

    const lar::kb::KnowledgeBase& kb_;
    std::string kbHash_;
    std::map<std::string, Expectation> expect_;
    std::map<std::string, std::string> explainVerdicts_; ///< rules key → judgement
    std::size_t live_ = 0;
};

/// Rebuilds a design from its wire JSON (reason::toJson(Design) form).
[[nodiscard]] lar::reason::Design designFromWire(const lar::json::Value& v);

} // namespace larbench
