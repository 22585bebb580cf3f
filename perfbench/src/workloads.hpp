// The benchmark's request streams, generated from a seed.
//
// Every workload is a warm-up pass followed by an endless sequence of
// rounds. A round is a fixed make-up of operations (so every run attempts
// whole rounds of the same mix and the latency quantiles fall inside one
// cost cluster); the seed only picks the order and, where the workload has
// a catalogue of variations, which entries each round uses. The same seed
// always gives byte-identical request bodies.
//
//   repeat-queries   a fixed set of §2.3/§5.1 problems asked again and
//                    again on one connection (compilation cache hits)
//   cold-variations  every request a distinct seeded what-if problem, on
//                    three connections (compilation cache misses)
//   whatif-session   POST /v1/session, five asks, DELETE, on one connection
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kb/kb.hpp"
#include "reason/problem.hpp"
#include "reason/whatif.hpp"

namespace larbench {

enum class OpType { Query, SessionCreate, SessionAsk, SessionDelete };

/// One HTTP request plus what the oracle needs to judge its answer.
struct Op {
    OpType type = OpType::Query;
    /// Query kind on the wire (feasible, synthesize, explain, optimize,
    /// enumerate); "create", "ask" or "delete" for session operations.
    std::string kind;
    int problem = -1;   ///< index into Workload::problems (query or session base)
    int variation = -1; ///< index into Workload::variations (asks only)
    int maxDesigns = 0; ///< enumerate only
    std::string body;   ///< request body; empty for DELETE
};

/// Operations one connection runs back to back. Session operations in a
/// script share the session the script's create opened.
using Script = std::vector<Op>;

struct Workload {
    std::string name;
    int connections = 1;
    /// Problems referenced by Op::problem, parsed from the same spec text
    /// the request carries (so the oracle judges what the server parsed).
    std::vector<lar::reason::Problem> problems;
    std::vector<std::string> problemSpecs; ///< compact JSON spec text
    std::vector<lar::reason::Variation> variations;
    std::vector<std::string> variationSpecs; ///< ask body text
    /// The pass that fills caches before timing starts.
    std::vector<Script> warmup;
    /// Rounds generated up front; the timed phase cycles through them.
    std::vector<std::vector<Script>> rounds;
};

/// Workload names in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Builds workload `name` for `seed`, with at least `minOps` operations of
/// rounds. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed,
                                    const lar::kb::KnowledgeBase& kb,
                                    std::size_t minOps);

/// Every (problem, variation) the workload can ever send, whatever the
/// seed: the set the oracle's expectation file must cover.
[[nodiscard]] Workload makeCatalogue(const std::string& name,
                                     const lar::kb::KnowledgeBase& kb);

/// The base problem with the ask's pins folded in, i.e. the problem the
/// session answers when it applies `variation` as assumptions.
[[nodiscard]] lar::reason::Problem foldVariation(
    const lar::reason::Problem& base, const lar::reason::Variation& variation);

/// Small deterministic generator (splitmix64); the benchmark keeps its own
/// so its inputs never move when the program's RNG does.
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next();
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
    }
};

} // namespace larbench
